import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zdense import cli
from zdense.cli import InputError, RunConfig, build_parser, main, parse_input, run
from zdense.matrices import GeneratorSet, GroupKind
from zdense.modular import check_prime_range, factor_degrees_mod
from zdense.polynomials import IntPoly


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SL2_DOC = {
    "group": "SL",
    "dim": 2,
    "generators": [[[0, -1], [1, 0]], [[1, 1], [0, 1]]],
}
HEIS_DOC = {
    "group": "SL",
    "dim": 3,
    "generators": [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    ],
}


def config(path, **kw):
    defaults = dict(
        input_path=path,
        mode="auto",
        epsilon=Fraction(1, 10**6),
        seed=42,
        word_constant=Fraction(10),
        prime_bits=(20, 21),
        trials=1,
        report_path=None,
        quiet=True,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_parse_matrix_input(tmp_path):
    gs = parse_input(write(tmp_path, "sl2.json", SL2_DOC))
    assert isinstance(gs, GeneratorSet)
    assert gs.kind is GroupKind.SPECIAL_LINEAR and gs.dim == 2


def test_parse_polynomial_input(tmp_path):
    f = parse_input(write(tmp_path, "poly.json", {"poly": [1, 0, 1]}))
    assert isinstance(f, IntPoly)
    assert f == IntPoly([1, 0, 1])


def test_parse_string_bigints(tmp_path):
    big = 10**30
    doc = {
        "group": "SL",
        "dim": 2,
        "generators": [[[1, str(big)], [0, 1]]],
    }
    gs = parse_input(write(tmp_path, "big.json", doc))
    assert gs.generators[0].rows[0][1] == big


def test_parse_errors(tmp_path):
    with pytest.raises(InputError):
        parse_input(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        parse_input(str(bad))
    with pytest.raises(InputError):
        parse_input(write(tmp_path, "odd.json", {"group": "Sp", "dim": 3, "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    with pytest.raises(InputError):
        parse_input(write(tmp_path, "det.json", {"group": "SL", "dim": 2, "generators": [[[2, 0], [0, 1]]]}))
    with pytest.raises(InputError):
        parse_input(write(tmp_path, "rag.json", {"group": "SL", "dim": 2, "generators": [[[1, 0, 0], [0, 1]]]}))
    with pytest.raises(InputError):
        parse_input(write(tmp_path, "bool.json", {"poly": [True, 0, 1]}))


def test_run_weyl_sl2(tmp_path):
    code, report = run(config(write(tmp_path, "sl2.json", SL2_DOC)))
    assert code == 0
    assert report["overall"]["answer"] == "dense"
    assert report["overall"]["certainty"] == "certain"
    trail = report["trials"][0]["verdict"]["trail"]
    certs = [s for s in trail if s["step"] == "galois_certificate"]
    assert certs[-1]["verdict"]["answer"] == "confirmed_sn"
    # the certified word decides: some generator does not normalize its torus
    step = trail[-1]
    assert (step["step"], step["word"], step["tested"]) == (
        "normalizer_test", certs[-1]["word"], "w")
    assert step["generator"] is not None


def test_run_weyl_heisenberg(tmp_path):
    code, report = run(config(write(tmp_path, "heis.json", HEIS_DOC)))
    assert code == 1
    assert report["overall"]["answer"] == "not_dense"
    trail = report["trials"][0]["verdict"]["trail"]
    certs = [s for s in trail if s["step"] == "galois_certificate"]
    assert certs[0]["verdict"]["answer"] == "not_generic"
    assert certs[0]["charpoly"] == [-1, 3, -3, 1]  # (x-1)^3


def test_run_galois_modes(tmp_path):
    code, report = run(config(write(tmp_path, "cubic.json", {"poly": [-1, -1, 0, 1]})))
    assert code == 0
    assert report["mode"] == "galois"
    assert report["trials"][0]["verdict"]["answer"] == "confirmed_sn"

    code, report = run(
        config(write(tmp_path, "quartic.json", {"poly": [1, 3, 1, 3, 1]}))
    )
    assert code == 0
    assert report["trials"][0]["verdict"]["answer"] == "confirmed_hyperoctahedral"

    code, report = run(config(write(tmp_path, "phi5.json", {"poly": [1, 1, 1, 1, 1]})))
    assert code == 1
    assert report["trials"][0]["verdict"]["answer"] == "not_generic"


def test_run_mode_mismatch(tmp_path):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    with pytest.raises(InputError):
        run(config(path, mode="galois"))
    path = write(tmp_path, "poly.json", {"poly": [1, 0, 1]})
    with pytest.raises(InputError):
        run(config(path, mode="weyl"))


def test_run_rejects_nonmonic_polynomial(tmp_path):
    with pytest.raises(InputError):
        run(config(write(tmp_path, "nm.json", {"poly": [1, 2]})))
    with pytest.raises(InputError):
        run(config(write(tmp_path, "const.json", {"poly": [7]})))


def test_run_adjoint_mode(tmp_path):
    code, report = run(config(write(tmp_path, "sl2.json", SL2_DOC), mode="adjoint"))
    assert code == 0
    code, report = run(config(write(tmp_path, "heis.json", HEIS_DOC), mode="adjoint"))
    assert code == 1


def test_trials_tighten_epsilon(tmp_path):
    code, report = run(
        config(write(tmp_path, "heis.json", HEIS_DOC), trials=3, epsilon=Fraction(1, 1000))
    )
    assert code == 1
    assert report["trials_run"] == 3
    assert report["overall"]["epsilon"] == str(Fraction(1, 1000) ** 3)
    # distinct derived seeds
    seeds = [t["seed"] for t in report["trials"]]
    assert len(set(seeds)) == 3


PARABOLIC_SL3_DOC = {  # <I+e12, I+e23, I+e32> fixes the line spanned by e1
    "group": "SL",
    "dim": 3,
    "generators": [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
    ],
}


def test_certain_no_is_final_and_reported_certain(tmp_path):
    eps = Fraction(1, 10**6)
    path = write(tmp_path, "parabolic.json", PARABOLIC_SL3_DOC)
    code, report = run(config(path, mode="adjoint", trials=3, epsilon=eps))
    assert code == 1
    assert report["trials_run"] == 1  # the reducibility proof is exact
    assert report["trials"][0]["verdict"]["certainty"] == "certain"
    assert report["overall"]["certainty"] == "certain"
    assert report["overall"]["epsilon"] == str(eps)


def test_galois_structural_no_is_final_and_reported_certain(tmp_path):
    # x^9 - 2 has square discriminant 3^18 2^8: an exact NO with 0 trials
    eps = Fraction(1, 10)
    path = write(tmp_path, "x9.json", {"poly": [-2] + [0] * 8 + [1]})
    code, report = run(config(path, trials=3, epsilon=eps))
    assert code == 1
    assert report["trials_run"] == 1
    assert report["trials"][0]["verdict"]["trials_used"] == 0
    assert report["overall"]["certainty"] == "certain"
    assert report["overall"]["epsilon"] == str(eps)


def test_trials_stop_on_first_yes(tmp_path):
    code, report = run(config(write(tmp_path, "sl2.json", SL2_DOC), trials=5))
    assert code == 0
    assert report["trials_run"] == 1  # any YES is final


def test_report_determinism(tmp_path):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    _, a = run(config(path, trials=2))
    _, b = run(config(path, trials=2))
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_witnesses_reproduce(tmp_path):
    _, report = run(config(write(tmp_path, "sl2.json", SL2_DOC)))
    trail = report["trials"][0]["verdict"]["trail"]
    for step in trail:
        if step["step"] != "galois_certificate":
            continue
        coeffs = [int(c) for c in step["charpoly"]]
        f = IntPoly(coeffs)
        for witness in step["verdict"]["witnesses"]:
            assert factor_degrees_mod(f, witness["prime"]) == tuple(witness["degrees"])


def test_bigint_serialization(tmp_path):
    doc = {
        "group": "SL",
        "dim": 2,
        "generators": [[[1, str(10**20)], [0, 1]], [[1, 0], [7, 1]]],
    }
    _, report = run(config(write(tmp_path, "big.json", doc)))
    text = json.dumps(report)
    parsed = json.loads(text)
    trail = parsed["trials"][0]["verdict"]["trail"]
    charpolys = [s["charpoly"] for s in trail if "charpoly" in s]
    assert charpolys
    flat = [c for cp in charpolys for c in cp]
    assert any(isinstance(c, str) for c in flat)  # beyond 53-bit range
    assert all(isinstance(c, (int, str)) for c in flat)


def test_main_end_to_end(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    report_path = tmp_path / "report.json"
    code = main([path, "--seed", "42", "--report", str(report_path)])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["overall"]["exit_code"] == 0
    assert json.loads(report_path.read_text()) == doc
    assert "dense" in captured.err


def test_main_quiet_suppresses_stdout(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    code = main([path, "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_main_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main([str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.out
    assert main([str(tmp_path / "nope.json"), "--quiet"]) == 2
    assert main([str(bad), "--epsilon", "2"]) == 2
    assert main([str(bad), "--prime-bits", "8", "4"]) == 2


def test_main_unwritable_report_exit_2(tmp_path, capsys):
    # a confirmed input must not read as exit 1 ("not generic") when only
    # the report write fails
    path = write(tmp_path, "cubic.json", {"poly": [-1, -1, 0, 1]})
    report_path = tmp_path / "missing" / "r.json"
    assert main([path, "--report", str(report_path)]) == 2
    captured = capsys.readouterr()
    assert "cannot write report" in json.loads(captured.out)["error"]
    assert not report_path.exists()
    assert main([path, "--report", str(report_path), "--quiet"]) == 2
    assert capsys.readouterr().out == ""


def test_main_prime_bits_above_64_exit_2(tmp_path, capsys):
    # primality is proven only below 2^64; beyond it a "certain" YES would
    # rest on fixed-base Miller-Rabin
    path = write(tmp_path, "cubic.json", {"poly": [-1, -1, 0, 1]})
    with pytest.raises(ValueError) as rule:
        check_prime_range(1 << 64, 1 << 65)
    for bits in (("64", "65"), ("0", "8"), ("-3", "8"), ("8", "4"), ("8", "1000")):
        assert main([path, "--prime-bits", *bits]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"--prime-bits: {rule.value}"  # the library's one rule
    assert main([path, "--prime-bits", "63", "64", "--quiet"]) == 0


@pytest.mark.parametrize("constant", ["1e400", "1e308"])
def test_main_word_constant_overflow_exit_2(tmp_path, capsys, constant):
    # c * ln(1/eps) beyond the float range used to crash with exit 3
    path = write(tmp_path, "sl2.json", SL2_DOC)
    assert main([path, "--word-constant", constant]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("--word-constant: ")


def test_main_prime_exhaustion_exit_2(tmp_path, capsys):
    # disc(x^2 - 35) = 140 is divisible by both primes in [4, 8)
    path = write(tmp_path, "smooth.json", {"poly": [-35, 0, 1]})
    assert main([path, "--prime-bits", "2", "3", "--quiet"]) == 2
    capsys.readouterr()


def test_exit_code_contract_on_fixture_corpus(tmp_path):
    corpus = [
        (SL2_DOC, "auto", 0),
        (HEIS_DOC, "auto", 1),
        ({"poly": [-1, -1, 0, 1]}, "auto", 0),
        ({"poly": [1, 1, 1, 1, 1]}, "auto", 1),
        ({"poly": [1, 3, 1, 3, 1]}, "galois", 0),
    ]
    for i, (doc, mode, expected) in enumerate(corpus):
        code, _ = run(config(write(tmp_path, f"fix{i}.json", doc), mode=mode))
        assert code == expected, (doc, mode)


def test_report_carries_integers_beyond_the_str_digit_limit(tmp_path):
    # at seed 0 a word trace of <[[1,a],[0,1]], [[1,0],[a,1]]> passes 4300 digits
    a = str(10**100)
    doc = {"group": "SL", "dim": 2, "generators": [[[1, a], [0, 1]], [[1, 0], [a, 1]]]}
    limit = sys.get_int_max_str_digits()
    code, report = run(config(write(tmp_path, "huge.json", doc), seed=0))
    assert code == 0 and report["overall"]["answer"] == "dense"
    trail = report["trials"][0]["verdict"]["trail"]
    traces = [s["charpoly"][1] for s in trail if s["step"] == "galois_certificate"]
    assert max(len(t.lstrip("-")) for t in traces) > 4300
    assert sys.get_int_max_str_digits() == limit  # lifted only while run() runs


def test_polynomial_coefficient_string_beyond_the_str_digit_limit(tmp_path):
    c = "1" + "0" * 4398 + "7"
    code, report = run(config(write(tmp_path, "c.json", {"poly": [c, 0, 1]})))
    assert code == 0
    assert report["parsed"]["poly"] == [c, 0, 1]


def test_bare_json_number_beyond_the_str_digit_limit(tmp_path, capsys):
    c = "1" + "0" * 4998 + "1"
    path = tmp_path / "bare.json"
    path.write_text('{"poly": [%s, 0, 1]}' % c)
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["parsed"]["poly"][0] == c


@pytest.mark.parametrize("quoted", [False, True], ids=["bare", "string"])
def test_overlong_integer_exit_2_in_linear_time(tmp_path, capsys, quoted):
    c = "1" * 400_000
    path = tmp_path / "long.json"
    path.write_text('{"poly": [%s, 0, 1]}' % (f'"{c}"' if quoted else c))
    t0 = time.perf_counter()
    assert main([str(path)]) == 2
    assert time.perf_counter() - t0 < 0.1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == f"poly[0]: integer longer than {cli.MAX_INT_DIGITS} digits"


@pytest.mark.parametrize(
    "c", ["1_000", "٣", "１２", " 7 "],
    ids=["underscore", "arabic-indic", "fullwidth", "spaces"],
)
def test_integer_string_must_be_ascii_decimal(tmp_path, capsys, c):
    # int(c, 10) accepts every one of these
    assert main([write(tmp_path, "in.json", {"poly": [c, 0, 1]})]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == f"poly[0]: {c!r} is not an integer"


SHEAR4 = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # det 1, not symplectic
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "doc, mode",
    [
        ({"group": "SL", "dim": 2, "generators": [[]]}, "auto"),
        ({"group": "SL", "dim": 2, "generators": [[[1, 0, 0], [0, 1]]]}, "auto"),
        ({"group": "SL", "dim": 3, "generators": [[[1, 0], [0, 1]]]}, "auto"),
        ({"group": "SL", "dim": 2, "generators": [[[2, 0], [0, 1]]]}, "auto"),
        ({"group": "Sp", "dim": 4, "generators": [SHEAR4]}, "auto"),
        ({"group": "Sp", "dim": 3, "generators": [I3]}, "auto"),
        ({"group": "SL", "dim": 2, "generators": [[[1, "x"], [0, 1]]]}, "auto"),
        ("{broken", "auto"),
        ("[" * 100000 + "]" * 100000, "auto"),
        (SL2_DOC, "galois"),
    ],
    ids=["empty-generator", "ragged", "size-not-dim", "det-not-1", "not-symplectic",
         "odd-sp-dim", "non-integer", "invalid-json", "nested-too-deep", "mode-mismatch"],
)
def test_main_malformed_input_exit_2(tmp_path, capsys, doc, mode):
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([str(path), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == {"error"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "doc, flags, named",
    [
        ({"poly": [1.5, 0, 1]}, [], "poly[0]: expected an integer or string, got float"),
        ([SL2_DOC], [], "top level must be an object"),
        ({"poly": []}, [], '"poly" must be a nonempty list'),
        ({"group": "SL", "generators": SL2_DOC["generators"]}, [], "missing field 'dim'"),
        (dict(SL2_DOC, group="GL"), [], "group must be \"SL\" or \"Sp\", got 'GL'"),
        (dict(SL2_DOC, generators=[]), [], '"generators" must be a nonempty list'),
        (dict(SL2_DOC, generators=[[1, 0]]), [], "generator 0 must be a list of rows"),
        (SL2_DOC, ["--trials", "0"], "--trials: must be positive"),
        (SL2_DOC, ["--seed", str(1 << 64)], "--seed: must fit in 64 bits"),
    ],
    ids=["float-entry", "top-level-list", "empty-poly", "missing-dim", "group-GL",
         "no-generators", "generator-not-rows", "trials-0", "seed-2^64"],
)
def test_main_names_the_bad_field_or_flag(tmp_path, capsys, doc, flags, named):
    assert main([write(tmp_path, "in.json", doc), *flags]) == 2
    assert named in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize(
    "name, flags, expected",
    [
        ("sl2_st", ["--seed", "42"], 0),
        ("sl3_heisenberg", [], 1),
        ("sp4_standard", ["--mode", "adjoint"], 0),
        ("quartic_hyperoctahedral", [], 0),
        ("cubic_sn", [], 0),
    ],
)
def test_readme_examples(name, flags, expected):
    path = Path(__file__).resolve().parents[1] / "sample_inputs" / f"{name}.json"
    assert main([str(path), *flags, "--quiet"]) == expected


# sha256 of each report without its `timings`, first 16 hex digits; weyl
# recorded once the second word was drawn only after the first failed, and
# adjoint once the adjoint route decided by Ad(G) alone, with no word
_PINNED_REPORTS = {
    ("sl2_st", "weyl", 0): "2d1df189d86cccf5",
    ("sl2_st", "weyl", 1): "27e4aff74895dc40",
    ("sl2_st", "weyl", 2): "b78d402d699e33df",
    ("sl2_st", "adjoint", 0): "9800f21d4a6307ab",
    ("sl2_st", "adjoint", 1): "e5f67d04bbb1389f",
    ("sl2_st", "adjoint", 2): "984a73840a7dd966",
    ("sp4_standard", "weyl", 0): "ec3634cebb2adb1c",
    ("sp4_standard", "weyl", 1): "686e14296a9c7507",
    ("sp4_standard", "weyl", 2): "e343bacff3337ba1",
    ("sp4_standard", "adjoint", 0): "a1d4c5afcfcb0aed",
    ("sp4_standard", "adjoint", 1): "7f4661ec6c5009aa",
    ("sp4_standard", "adjoint", 2): "be21a7a0288b69e0",
    ("sl3_heisenberg", "adjoint", 0): "fd7acf71bf359913",
    ("sl3_heisenberg", "adjoint", 1): "ec6e15f80bc59733",
    ("sl3_heisenberg", "adjoint", 2): "f0e79f063b40b022",
}


@pytest.mark.parametrize("name, mode, seed", list(_PINNED_REPORTS))
def test_report_bytes_pinned(name, mode, seed, monkeypatch):
    # the report names its input path, so run from the root with a relative one
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    args = build_parser().parse_args(
        [f"sample_inputs/{name}.json", "--mode", mode, "--seed", str(seed), "--quiet"]
    )
    _, report = run(cli._config_from_args(args))
    report.pop("timings")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == _PINNED_REPORTS[name, mode, seed]


def test_main_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "zariski_dense", crash)
    path = write(tmp_path, "sl2.json", SL2_DOC)
    assert main([path]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "internal error: RuntimeError: boom"}
    assert "Traceback" in captured.err
    assert main([path, "--quiet"]) == 3
    assert capsys.readouterr() == ("", "")
