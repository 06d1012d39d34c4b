"""Every name a wellpose module exports in ``__all__`` must exist, so a
removed function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import wellpose

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(wellpose.__path__) if m.name != "__main__")


def test_the_library_modules_declare_exports():
    declared = [n for n in MODULES if hasattr(importlib.import_module(f"wellpose.{n}"), "__all__")]
    assert {"objectives", "parametric", "perturbation", "seminorms", "spaces",
            "steckin"} <= set(declared)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"wellpose.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []
