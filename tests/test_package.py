"""The installed package holds only what the solver and the CLI run, and
its export lists name only what its modules define."""

import importlib
import pkgutil

import pytest

import almsvm


def test_package_modules():
    assert {m.name for m in pkgutil.iter_modules(almsvm.__path__)} == {
        "__main__", "alm", "cli", "data_io", "metrics", "newton", "prox",
        "sparse", "synthetic"}


# __main__ runs the command line when imported and exports nothing
@pytest.mark.parametrize("name", ["almsvm"] + [
    f"almsvm.{m.name}" for m in pkgutil.iter_modules(almsvm.__path__)
    if m.name != "__main__"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
