"""Build script: compiles the optional word-arithmetic kernels.

The package is pure Python plus one optional Cython extension
(zdense._kernel_cy).  If Cython or a C compiler is unavailable the build
falls through to the pure-Python kernels selected at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow compiler failures; the package works without the extension."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing / broken toolchain
            print(f"warning: skipping compiled kernels ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name} ({exc})")


ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "zdense._kernel_cy",
                ["src/zdense/_kernel_cy.pyx"],
                extra_compile_args=["-O2"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    print("warning: Cython not available, building without compiled kernels")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
