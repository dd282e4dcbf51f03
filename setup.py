"""Build script with an optional compiled integrator core.

``src/fkwaves/_chain_core.c`` is a hand-written C extension that needs only
``Python.h``. It runs the chain integrator several times faster than the
NumPy implementation and gives bit-identical trajectories. If there is no C
compiler the build warns and carries on without it; fkwaves then selects the
NumPy fallback at import time. From a checkout, build it in place with

    python3 setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

CHAIN_CORE = Extension(
    "fkwaves._chain_core",
    sources=["src/fkwaves/_chain_core.c"],
    # -ffp-contract=off keeps the compiled trajectory bit-identical to the
    # NumPy fallback (no fused multiply-adds).
    extra_compile_args=["-O3", "-ffp-contract=off"],
)


class optional_build_ext(build_ext):
    """Never let a failed C build abort the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: compiled integrator skipped ({exc}); "
              "using the pure NumPy fallback", file=sys.stderr)


setup(
    ext_modules=[CHAIN_CORE],
    cmdclass={"build_ext": optional_build_ext},
)
