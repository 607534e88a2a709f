"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` wraps almsvm's functions by attribute name. A
rename or deletion in the package would otherwise surface only when the
benchmark is run with tracing on.
"""

from pathlib import Path

from almsvm import alm, cli, data_io, metrics, newton, sparse

MODULES = {"alm": alm, "cli": cli, "data_io": data_io, "metrics": metrics,
           "newton": newton, "sparse": sparse}
OWNERS = (*MODULES.values(), sparse.SparseMatrix)


def _name(owner, attr):
    return f"{owner.__name__.rpartition('.')[2]}.{attr}"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from tracer import Tracer

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        patched = {_name(owner, k) for owner, attrs in zip(OWNERS, before)
                   for k, v in vars(owner).items() if attrs.get(k) is not v}
    finally:
        tracer.uninstall()
    assert {"alm.make_subproblem_oracle", "alm.prox_hinge", "alm.newton_solve",
            "cli.alm_solve", "SparseMatrix.matvec", "SparseMatrix.matvec_t",
            "SparseMatrix.restricted_normal_apply",
            "SparseMatrix.from_rows"} <= patched
    for owner, attrs in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == attrs.keys()
        assert [_name(owner, k) for k in attrs if after[k] is not attrs[k]] == []
