"""The benchmark's external tracer names library functions and methods
by attribute (``perfbench/spans.py`` ``TARGETS``); a rename in the
library must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, owner, attr", [(n, o, a) for n, (o, a, _) in _targets().items()])
def test_every_traced_target_resolves(name, owner, attr):
    if isinstance(owner, str):
        assert callable(getattr(importlib.import_module(owner), attr, None)), name
    else:
        assert callable(owner.__dict__.get(attr)), name
