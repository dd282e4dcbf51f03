"""Integrator backend selection.

Prefers the compiled C core (_chain_core, BACKEND "c"); falls back to NumPy
(BACKEND "numpy") when the extension is not built or when
FKWAVES_PURE_PYTHON is set (any non-empty value). Both expose the same
run_chain and produce bit-identical trajectories.
"""

from __future__ import annotations

import os

PURE_ENV_VAR = "FKWAVES_PURE_PYTHON"

if os.environ.get(PURE_ENV_VAR):
    from ._chain_numpy import BACKEND, run_chain
else:
    try:
        from ._chain_core import BACKEND, run_chain
    except ImportError:
        from ._chain_numpy import BACKEND, run_chain

__all__ = ["BACKEND", "run_chain", "PURE_ENV_VAR"]
