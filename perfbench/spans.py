"""Per-layer spans recorded from outside the package.

`install()` wraps the public functions listed in TRACED in every zdense
module namespace that binds them (a module that did `from .x import f`
holds its own reference), then asserts that no reference to an unwrapped
original is left anywhere a call could reach it: module globals and the
containers they hold, class attributes, default arguments and closures.

Each span keeps `calls` and `self_s` (its wall time minus the time of the
traced spans it called).  Bookkeeping done after a call returns (counters,
kernel replays) is charged to no span.  A few spans also keep counters
that say how much work the layer did; see `Tracer._count`.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# layer (module) -> traced public functions
TRACED = {
    "cli": ("parse_input", "run"),
    "matrices": ("validate", "adjugate_inverse", "commutes", "multiply",
                 "characteristic_polynomial"),
    "polynomials": ("discriminant", "is_cyclotomic_product", "trace_polynomial"),
    "modular": ("random_prime_avoiding", "is_prime"),
    "kernels": ("ddf_degrees", "rank_mod"),
    "galois": ("is_transitive", "is_sn", "is_hyperoctahedral"),
    "zariski": ("is_irreducible_algebra", "adjoint_matrices", "zariski_dense",
                "general_zariski_dense"),
}

_clock = time.perf_counter


class Span:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value


def _max_bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.stack: list[list] = []  # [child seconds, span key] per open span
        # backend name -> {"ddf_degrees": fn, "rank_mod": fn}, set by install()
        self.replay_backends: dict[str, dict] = {}
        self.replay_mismatches = 0
        self.replay_s = 0.0  # all replays so far, to take out of decide times
        self.missing: list[str] = []

    # ----------------------------------------------------------- counters

    def _count(self, key, span, args, result, parent):
        if key == "matrices.multiply":
            span.peak("out_bits_max", _max_bits(v for row in result.rows for v in row))
        elif key == "matrices.characteristic_polynomial":
            span.peak("coeff_bits_max", _max_bits(result.coeffs))
        elif key == "polynomials.discriminant":
            span.peak("bits_max", abs(result).bit_length())
        elif key == "modular.is_prime":
            if parent == "modular.random_prime_avoiding":
                self.spans[parent].add("draws", 1)
        elif key.startswith("galois."):
            span.add("trials", result.trials_used)
            span.add("certificates", int(result.confirmed))
        elif key == "kernels.ddf_degrees":
            span.add("degree_sum", len(args[0]) - 1)
            self._replay(span, "ddf_degrees", args, result)
        elif key == "kernels.rank_mod":
            rows = args[0]
            span.add("cells", len(rows) * (len(rows[0]) if rows else 0))
            if parent == "zariski.is_irreducible_algebra":
                self.spans[parent].add("rounds", 1)
            self._replay(span, "rank_mod", args, result)

    def _replay(self, span, name, args, result):
        """Run the same call through each importable kernel backend."""
        for backend, kernels in self.replay_backends.items():
            t0 = _clock()
            again = kernels[name](*args)
            seconds = _clock() - t0
            span.add(f"replay_{backend}_s", seconds)
            self.replay_s += seconds
            if list(again) != list(result):
                self.replay_mismatches += 1

    # ------------------------------------------------------------ wrapping

    def wrap(self, key, fn):
        span = self.spans.setdefault(key, Span())
        stack = self.stack
        count = self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, key]
            stack.append(frame)
            t0 = _clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = _clock()
                stack.pop()
                span.calls += 1
                span.self_s += t1 - t0 - frame[0]
                if ok:
                    count(key, span, args, result, parent)
                if stack:
                    stack[-1][0] += _clock() - t0
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if (name == "zdense" or name.startswith("zdense.")) and mod is not None
        }
        self.replay_backends = _replay_backends(modules)
        originals = {}
        for layer, names in TRACED.items():
            mod = modules.get(f"zdense.{layer}")
            for name in names:
                fn = getattr(mod, name, None) if mod is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                originals[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    setattr(mod, attr, originals[id(value)][1])
        escapes = _find_escapes(modules, originals)
        if escapes:
            raise RuntimeError("traced functions escape their spans: " + "; ".join(escapes))

    # ------------------------------------------------------------- results

    def rows(self):
        out = {}
        for key, span in self.spans.items():
            out[key] = {"calls": span.calls, "self_s": span.self_s, **span.counters}
        return out


def _replay_backends(modules):
    """The pure-Python twin, and, when the build compiled `_kernel_cy` and
    it is live, the kernels module's own dispatch, which calls it."""
    kernels = modules["zdense.kernels"]
    names = TRACED["kernels"]
    out = {"python": {name: getattr(modules["zdense._kernel_py"], name) for name in names}}
    if kernels.BACKEND != "python":
        out["compiled"] = {name: getattr(kernels, name) for name in names}
    return out


def _find_escapes(modules, originals):
    """Places that still hold an unwrapped original after patching."""
    def holds(value):
        return id(value) in originals and value is originals[id(value)][0]

    escapes = []
    for mod_name, mod in modules.items():
        for attr, value in vars(mod).items():
            where = f"{mod_name}.{attr}"
            items = value.values() if isinstance(value, dict) else value
            if holds(value) or (isinstance(value, (dict, list, tuple, set, frozenset))
                                and any(holds(v) for v in items)):
                escapes.append(where)
            for fn in map(_unwrap, _functions_in(value)):
                if any(holds(v) for v in _captured(fn)):
                    escapes.append(f"{where} ({fn.__qualname__} captures it)")
    return escapes


def _unwrap(fn):
    return getattr(fn, "__wrapped_original__", fn)


def _functions_in(value):
    """Functions reachable from a module attribute: itself, or the methods of
    a class defined in the package."""
    if isinstance(value, types.FunctionType):
        yield value
    elif isinstance(value, type) and value.__module__.startswith("zdense"):
        for member in vars(value).values():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                yield from (f for f in (member.fget, member.fset, member.fdel) if f)
                continue
            if isinstance(member, types.FunctionType):
                yield member


def _captured(fn):
    yield from fn.__defaults__ or ()
    yield from (fn.__kwdefaults__ or {}).values()
    for cell in fn.__closure__ or ():
        try:
            yield cell.cell_contents
        except ValueError:  # empty cell
            pass
