"""The installed package holds only what the solver and the CLI run."""

import pkgutil

import almsvm


def test_package_modules():
    assert {m.name for m in pkgutil.iter_modules(almsvm.__path__)} == {
        "__main__", "alm", "cli", "data_io", "metrics", "newton", "prox",
        "sparse", "synthetic"}
