"""Build script with an optional compiled integrator core.

The chain integrator has a Cython implementation that is roughly an order of
magnitude faster than the NumPy one. If Cython or a C compiler is missing the
build silently falls back to the pure Python package; fkwaves selects the
implementation at import time.
"""

import sys

from setuptools import setup
from setuptools.command.build_ext import build_ext


def make_extensions():
    try:
        import numpy as np
        from Cython.Build import cythonize
        from setuptools import Extension
    except ImportError:
        return []
    ext = Extension(
        "fkwaves._chain_core",
        sources=["src/fkwaves/_chain_core.pyx"],
        include_dirs=[np.get_include()],
        # -ffp-contract=off keeps the compiled trajectory bit-identical to the
        # NumPy fallback (no fused multiply-adds).
        extra_compile_args=["-O3", "-ffp-contract=off"],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    )
    return cythonize([ext], language_level=3)


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
    ext_modules=make_extensions(),
    cmdclass={"build_ext": optional_build_ext},
)
