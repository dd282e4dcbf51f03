"""Shared fixtures: canonical parameter sets and cached reference waves.

Before anything imports fkwaves, the compiled integrator core is built in
place (setuptools recompiles when the C source or setup.py, which holds the
compile flags, is newer than the built module), so the suite always tests
the current core. A failed build puts its error output in the final summary;
the suite then runs on the NumPy fallback, and
test_active_backend_is_compiled names the failure.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_build = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                        cwd=Path(__file__).resolve().parent.parent,
                        capture_output=True, text=True)
# setup.py's optional build exits 0 when the compiler fails and says so in
# this warning instead
_BUILD_FAILED = (_build.returncode != 0
                 or "compiled integrator skipped" in _build.stderr)

from fkwaves import ModelParams, kinetic_wave  # noqa: E402


def pytest_terminal_summary(terminalreporter):
    # pytest captures what this module writes at import, so the build's
    # error output goes into the final summary
    if _BUILD_FAILED:
        terminalreporter.section("building the compiled integrator core "
                                 "failed")
        terminalreporter.write(_build.stderr)


@pytest.fixture(scope="session")
def params():
    return ModelParams(mu=1.0, alpha=0.0)


@pytest.fixture(scope="session")
def wave_v02(params):
    # plateau-branch reference wave, reused by several suites
    return kinetic_wave(0.2, params)


@pytest.fixture(scope="session")
def wave_v05(params):
    # classical-branch reference wave
    return kinetic_wave(0.5, params)
