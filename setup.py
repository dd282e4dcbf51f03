"""Build script with an optional compiled integrator core.

``src/fkwaves/_chain_core.c`` is a hand-written C extension that needs only
``Python.h``. It runs the chain integrator 18 to 31 times faster than the
NumPy implementation (18 times on 3001 sites, which it steps in L1-sized
tiles, and 31 times on 1001, on a 2-core x86-64 host with AVX-512) and
gives bit-identical trajectories. If there is
no C compiler the build warns and carries on without it; fkwaves then
selects the NumPy fallback at import time. From a checkout, build it in
place with

    python3 setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

CHAIN_CORE = Extension(
    "fkwaves._chain_core",
    sources=["src/fkwaves/_chain_core.c"],
    # a changed flag below must rebuild the core, not keep a stale one
    depends=["setup.py"],
    # -ffp-contract=off keeps the compiled trajectory bit-identical to the
    # NumPy fallback (no fused multiply-adds). -fno-trapping-math lets GCC
    # turn the force's (u > 0) select into a mask, so that loop vectorises;
    # it reorders no operation and changes no IEEE result.
    extra_compile_args=["-O3", "-ffp-contract=off", "-fno-trapping-math"],
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
