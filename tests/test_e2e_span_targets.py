"""The traced end-to-end replay wraps program entry points by name
(``benchmarks/e2e/e2e_spans.py``: ``_WRAPS`` and ``_SCANS``), and its
``Tracer`` reads each one with ``vars(owner)[attr]``. A renamed, moved
or deleted entry point breaks ``run.py --trace 1`` only when that runs;
this test loads the span file as it is and checks every name."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / \
    "e2e_spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
TARGETS = [entry[:2] for entry in _spans._WRAPS] + list(_spans._SCANS)


@pytest.mark.parametrize(
    "module_name, dotted", TARGETS,
    ids=[f"{module}:{dotted}" for module, dotted in TARGETS],
)
def test_span_target_is_defined_on_its_owner(module_name, dotted):
    owner, attr = _spans._resolve(module_name, dotted)
    assert attr in vars(owner), f"{module_name}.{dotted} is not defined"
