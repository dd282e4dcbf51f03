"""The benchmark harness's view of the package stays in step with it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
# (span name, module, attribute, work count) as the tracer reads them
SPANS = _tracing.SPANS


@pytest.mark.parametrize("module, attr", [span[1:3] for span in SPANS],
                         ids=[span[0] for span in SPANS])
def test_traced_function_resolves(module, attr):
    # the tracer wraps a module function, or a method found in its class's
    # own namespace; a renamed function would break only a traced run
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, attr))
