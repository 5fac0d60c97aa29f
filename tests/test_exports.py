"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import sgdm_sched

MODULES = [sgdm_sched] + [
    importlib.import_module(f"sgdm_sched.{info.name}")
    for info in pkgutil.iter_modules(sgdm_sched.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
