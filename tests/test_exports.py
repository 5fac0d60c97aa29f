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


def test_every_exported_exception_has_an_exit_code():
    # the CLI's 0-4 exit contract covers every exception the package exports
    from sgdm_sched import cli

    rows = tuple(kind for kinds, _, _ in cli._EXIT_CODES for kind in kinds)
    exported = {
        obj
        for module in MODULES
        for obj in (getattr(module, name) for name in getattr(module, "__all__", ()))
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert exported, "no exception class is exported"
    assert sorted(e.__name__ for e in exported if not issubclass(e, rows)) == []
