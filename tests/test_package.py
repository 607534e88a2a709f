"""The installed package holds only what the solver and the CLI run, and
its export lists name only what its modules define."""

import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import almsvm
from almsvm import data_io, metrics, sparse


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
    assert sparse.__all__ == ["Samples", "SparseMatrix"]
    called = re.findall(r"_kernels\.(\w+)\(", inspect.getsource(sparse))
    assert sorted(called) == ["csc_matvec", "csr_matvec", "csr_row_index"]
    for path in Path(almsvm.__file__).parent.glob("*.py"):
        assert "np.bincount(" not in path.read_text(), path.name


def test_one_gather_kernel_for_matrices_and_stores():
    # a store part's rows are gathered by the same csr_row_index call as
    # the Newton step's rows, and only sparse touches scipy's routines
    sources = {path.name: path.read_text()
               for path in Path(almsvm.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items()
            if "csr_row_index(" in text] == ["sparse.py"]
    assert sources["sparse.py"].count("csr_row_index(") == 1
    assert "csr_row_index(" in inspect.getsource(sparse._gather)
    assert [name for name, text in sources.items()
            if "_kernels." in text] == ["sparse.py"]
    assert "np.repeat(" not in sources["data_io.py"]
    for method in (sparse.Samples.csr, sparse.SparseMatrix.gather_rows):
        assert "_gather(" in inspect.getsource(method)


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in Path(almsvm.__file__).parent.glob("*.py")}


def test_sparse_is_the_bottom_layer():
    # the layers run sparse -> data_io -> alm/metrics -> cli: sparse
    # imports no module of the package, so no import cycle needs an
    # import inside a function, and no function holds one
    trees = _trees()
    imported = [node for node in ast.walk(trees["sparse.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imported
    for node in imported:
        names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        assert getattr(node, "level", 0) == 0
        assert not any(n.split(".")[0] == "almsvm" for n in names)
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not [node for node in ast.walk(fn)
                            if isinstance(node, ast.ImportFrom) and node.level
                            ], (name, fn.name)


def test_kernels_bind_once_at_import():
    # one module-level call binds sparse._kernels; nothing checks later
    # whether the kernels are loaded
    trees = _trees()
    calls = {name: [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_load_kernels"]
             for name, tree in trees.items()}
    assert {name: len(c) for name, c in calls.items() if c} == {"sparse.py": 1}
    top = [stmt for stmt in trees["sparse.py"].body
           if isinstance(stmt, ast.Assign) and stmt.value is calls["sparse.py"][0]]
    assert [t.id for stmt in top for t in stmt.targets] == ["_kernels"]


def test_one_index_dtype_rule():
    # the store and the matrix share the rule, defined in sparse alone
    defined = [name for name, tree in _trees().items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_index_dtype"]
    assert defined == ["sparse.py"]


def _compared_names(source: str) -> set:
    """The names and attributes read on either side of a comparison or
    by a numpy comparison function in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    sides = [side for node in ast.walk(tree) if isinstance(node, ast.Compare)
             for side in (node.left, *node.comparators)]
    sides += [arg for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "attr", "") in (
                  "less", "less_equal", "greater", "greater_equal", "diff")
              for arg in node.args]
    return {getattr(node, "id", getattr(node, "attr", None))
            for side in sides for node in ast.walk(side)} - {None}


def test_one_row_rule():
    # the comparison that checks index order and sign is written once, in
    # sparse; the store and the parser call it, and the matrix and the
    # scorer compare no index array of their own
    defined = [name for name, tree in _trees().items() for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "_first_bad_index"]
    assert defined == ["sparse.py"]
    for fn in (sparse.Samples.__init__, data_io._check_indices):
        assert "_first_bad_index(" in inspect.getsource(fn)
    index_arrays = {"indices", "col_idx", "cols", "idx", "_idx"}
    for source in (inspect.getsource(sparse.SparseMatrix.__init__),
                   inspect.getsource(sparse.SparseMatrix.from_rows),
                   inspect.getsource(metrics)):
        assert _compared_names(source) & index_arrays == set()
