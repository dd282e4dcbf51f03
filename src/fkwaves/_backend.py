"""Integrator backend selection.

Prefers the compiled C core (_chain_core, BACKEND "c"); falls back to NumPy
(BACKEND "numpy") when the extension is not built or when
FKWAVES_PURE_PYTHON is set (any non-empty value). Both expose the same
run_chain and front_scan and give bit-identical results.
"""

from __future__ import annotations

import os

PURE_ENV_VAR = "FKWAVES_PURE_PYTHON"

if os.environ.get(PURE_ENV_VAR):
    from ._chain_numpy import BACKEND, front_scan, run_chain
else:
    try:
        from ._chain_core import BACKEND, front_scan, run_chain
    except ImportError:
        from ._chain_numpy import BACKEND, front_scan, run_chain

__all__ = ["BACKEND", "front_scan", "run_chain", "PURE_ENV_VAR"]
