"""The installed package holds only what the solver and the CLI run, and
its export lists name only what its modules define."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import almsvm
from almsvm import sparse


def test_package_modules():
    assert {m.name for m in pkgutil.iter_modules(almsvm.__path__)} == {
        "__main__", "alm", "cli", "data_io", "metrics", "newton", "sparse",
        "synthetic"}


# __main__ runs the command line when imported and exports nothing
@pytest.mark.parametrize("name", ["almsvm"] + [
    f"almsvm.{m.name}" for m in pkgutil.iter_modules(almsvm.__path__)
    if m.name != "__main__"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_one_sparse_matrix_type_over_three_kernels():
    # a block of gathered rows is a SparseMatrix too, and dense
    # conversion lives in the tests' oracles; each scipy routine is
    # called at one place, and scoring runs on the same kernels, so no
    # module keeps a bincount kernel of its own
    assert sparse.__all__ == ["SparseMatrix"]
    called = re.findall(r"_kernels\.(\w+)\(", inspect.getsource(sparse))
    assert sorted(called) == ["csc_matvec", "csr_matvec", "csr_row_index"]
    for path in Path(almsvm.__file__).parent.glob("*.py"):
        assert "np.bincount(" not in path.read_text(), path.name


def test_one_gather_kernel_for_matrices_and_stores():
    # a store's spans are gathered by the same csr_row_index call as the
    # Newton step's rows, and only sparse touches scipy's routines
    sources = {path.name: path.read_text()
               for path in Path(almsvm.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items()
            if "csr_row_index(" in text] == ["sparse.py"]
    assert sources["sparse.py"].count("csr_row_index(") == 1
    assert "csr_row_index(" in inspect.getsource(sparse._gather)
    assert [name for name, text in sources.items()
            if "_kernels." in text] == ["sparse.py"]
    assert "np.repeat(" not in sources["data_io.py"]
