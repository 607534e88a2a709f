"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` wraps almsvm's functions by attribute name. A
rename or deletion in the package would otherwise surface only when the
benchmark is run with tracing on.
"""

from pathlib import Path

from almsvm import alm, cli, data_io, metrics, newton, sparse

from conftest import bundled_instances

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


def test_every_penalty_map_is_seen_in_a_solve(monkeypatch):
    # the penalty methods look each map up in alm's namespace, so every
    # patched map records spans, split's classification included
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from tracer import Tracer

    instances = {inst.name: inst for inst in bundled_instances()}
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        for name in ("blobs50x2", "svr500x50"):
            alm.alm_solve(instances[name].build())
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert {f"prox.{fn}" for fn in (
        "p_value", "p_eps_value", "prox_hinge", "prox_eps", "moreau_env_hinge",
        "moreau_env_eps", "active_set_svc", "active_set_svr")} <= seen
