"""Shared fixtures: canonical parameter sets and cached reference waves.

Before anything imports fkwaves, the compiled integrator core is built in
place (setuptools recompiles only when the C source is newer than the built
module), so the suite always tests the current core.
"""

import subprocess
import sys
from pathlib import Path

import pytest

subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
               cwd=Path(__file__).resolve().parent.parent,
               capture_output=True)

from fkwaves import ModelParams, kinetic_wave  # noqa: E402


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
