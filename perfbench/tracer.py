"""Outside-in span tracing of almsvm.

almsvm's modules import each other's functions by name
(``from .newton import newton_solve``), so a function is wrapped at every
place it is looked up, not only where it is defined. Spans stay in memory
as ``[name, start, end, parent, op, extra]`` lists; ``extra`` carries
what a wrapper read from the arguments or the result (kernel nnz, Newton
statistics, ...). A span's self time is its duration minus the durations
of its direct children; calls are single-threaded and strictly nested,
so the children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

_CSR_BYTES_PER_NNZ = 24  # float64 value + int64 column + int64 row id


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs outside the timed interval and its value
        becomes the span's ``extra``; ``after(extra, args, result)`` runs
        after the end time is taken and may replace ``extra``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   before(args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(rec[5], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name, fn, *args):
        """Call ``fn(*args)`` under a top-level span owned by the benchmark."""
        return self.wrap(name, fn)(*args)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, before=None, after=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            new = self.wrap(name, raw, before, after)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, almsvm_mods):
        """Patch every public function of the layers the benchmark reports."""
        alm, cli, data_io, metrics, newton, sparse = (
            almsvm_mods[k] for k in ("alm", "cli", "data_io", "metrics",
                                     "newton", "sparse"))
        sm = sparse.SparseMatrix

        def nnz_all(args):
            a = args[0]
            return (int(a.row_ptr[-1]),
                    _CSR_BYTES_PER_NNZ * int(a.row_ptr[-1]) + 8 * (a.m + a.n))

        def nnz_rows(args):
            a, rows = args[0], np.asarray(args[1], dtype=np.int64)
            nnz = int((a.row_ptr[rows + 1] - a.row_ptr[rows]).sum())
            return nnz, _CSR_BYTES_PER_NNZ * nnz + 8 * (2 * a.n + rows.size)

        self.patch(sm, "matvec", "sparse.matvec", before=nnz_all)
        self.patch(sm, "matvec_t", "sparse.matvec_t", before=nnz_all)
        self.patch(sm, "restricted_normal_apply",
                   "sparse.restricted_normal_apply", before=nnz_rows)
        self.patch(sm, "from_rows", "sparse.from_rows")

        for fn in ("prox_hinge", "prox_eps", "moreau_env_hinge", "moreau_env_eps",
                   "active_set_svc", "active_set_svr", "p_value", "p_eps_value"):
            self.patch(alm, fn, f"prox.{fn}")

        def newton_stats(_extra, _args, result):
            st = result[1]
            return (st.iterations, st.cg_iterations_total,
                    sum(st.active_set_sizes), int(st.hit_iteration_cap))

        def solve_stats(_extra, args, result):
            rep = result[1]
            return (args[0].m, rep.k, rep.kkt_residual, rep.duality_gap_rel)

        self.patch(alm, "newton_solve", "newton.newton_solve", after=newton_stats)
        self.patch(newton, "cg_solve", "newton.cg_solve")
        for fn in ("kkt_residual", "primal_objective", "dual_objective"):
            self.patch(alm, fn, f"alm.{fn}")

        make_oracle = alm.make_subproblem_oracle

        def counting_oracle(*args, **kwargs):
            oracle = make_oracle(*args, **kwargs)
            oracle.value = self.wrap("newton.value", oracle.value)
            return oracle

        self._undo.append((alm, "make_subproblem_oracle", make_oracle))
        alm.make_subproblem_oracle = counting_oracle

        for owner in (alm, cli):
            self.patch(owner, "alm_solve", "alm.alm_solve", after=solve_stats)
            self.patch(owner, "build_svc", "alm.build_svc")
            self.patch(owner, "build_svr", "alm.build_svr")

        self.patch(data_io, "parse_libsvm", "data_io.parse_libsvm",
                   before=lambda args: len(args[0]))
        for owner, fns in ((data_io, ("split", "normalize_labels")),
                           (cli, ("load_libsvm", "normalize_labels"))):
            for fn in fns:
                self.patch(owner, fn, f"data_io.{fn}")

        for owner, fns in ((metrics, ("predict", "predict_label", "accuracy", "mse")),
                           (cli, ("predict", "predict_label"))):
            for fn in fns:
                self.patch(owner, fn, f"metrics.{fn}")

        for fn in ("main", "write_model", "read_model"):
            self.patch(cli, fn, f"cli.{fn}")

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer figures for one traced pass, as means per operation.

    ``ops`` is the number of problems in the pass; counts and times are
    divided by it so that the figures read per problem.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    nnz = defaultdict(int)
    bytes_computed = 0
    iters = cg_iters = active_rows = cap_hits = 0
    active_denom = 0
    outer = 0
    kkt, gap = [], []
    parse_chars = 0
    matvec_in_newton = 0
    parse_in_train = 0.0

    def ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return p
            p = spans[p][3]
        return -1

    for i, (name, _start, _end, _parent, _op, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += self_t[i]
        total_s[name] += dur[i]
        if name.startswith("sparse.") and extra is not None:
            nnz[name] += extra[0]
            bytes_computed += extra[1]
        if name == "sparse.matvec" and ancestor(i, "newton.newton_solve") >= 0:
            matvec_in_newton += 1
        elif name == "newton.newton_solve":
            it, cg, act, cap = extra
            iters += it
            cg_iters += cg
            cap_hits += cap
            active_rows += act
            # |I| is a share of the rows m of the problem being solved
            active_denom += it * spans[ancestor(i, "alm.alm_solve")][5][0]
        elif name == "alm.alm_solve":
            _m, k, kkt_r, gap_r = extra
            outer += k
            kkt.append(kkt_r)
            gap.append(gap_r)
        elif name == "data_io.parse_libsvm":
            parse_chars += extra
            if ancestor(i, "bench.train") >= 0:
                parse_in_train += self_t[i]

    def prefixed(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    kernels = ("sparse.matvec", "sparse.matvec_t", "sparse.restricted_normal_apply")
    kernel_self = sum(self_s[k] for k in kernels)
    kernel_nnz = sum(nnz[k] for k in kernels)
    value_calls = calls["newton.value"]
    solve_total = total_s["alm.alm_solve"]
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    root_total = sum(dur[i] for i in roots)

    per_op = {}
    for k in kernels:
        per_op[f"{k}.calls"] = calls[k]
        per_op[f"{k}.self_s"] = self_s[k]
        per_op[f"{k}.nnz"] = nnz[k]
    per_op.update({
        "sparse.bytes_computed": bytes_computed,
        "sparse.from_rows.self_s": self_s["sparse.from_rows"],
        # the value callback is wrapped only to count it; its own time stays
        # with newton_solve, like the grad and active-set callbacks
        "newton.newton_solve.self_s": self_s["newton.newton_solve"]
        + self_s["newton.value"],
        "newton.cg_solve.self_s": self_s["newton.cg_solve"],
        "newton.iters": iters,
        "newton.cg_iters": cg_iters,
        "newton.value_calls": value_calls,
        "newton.backtracks": value_calls - 2 * iters,
        "newton.cap_hits": cap_hits,
        "prox.calls": sum(v for k, v in calls.items() if k.startswith("prox.")),
        "prox.self_s": prefixed("prox."),
        "alm.build.self_s": self_s["alm.build_svc"] + self_s["alm.build_svr"],
        "alm.alm_solve.self_s": self_s["alm.alm_solve"],
        "alm.outer_iters": outer,
        "alm.certify_s": total_s["alm.kkt_residual"] + total_s["alm.primal_objective"]
        + total_s["alm.dual_objective"],
        "data_io.self_s": prefixed("data_io."),
        "metrics.predict.calls": calls["metrics.predict"],
        "metrics.predict.self_s": self_s["metrics.predict"],
        "metrics.self_s": prefixed("metrics."),
    })
    out = {k: v / ops for k, v in per_op.items()}
    out.update({
        "sparse.nnz_per_s": kernel_nnz / kernel_self if kernel_self else 0.0,
        "sparse.matvec_pair.solve_share":
            (self_s["sparse.matvec"] + self_s["sparse.matvec_t"]) / solve_total,
        "sparse.restricted_normal_apply.solve_share":
            self_s["sparse.restricted_normal_apply"] / solve_total,
        "newton.step_accept_ratio":
            iters / (value_calls - iters) if value_calls > iters else 0.0,
        "newton.matvec_per_step": matvec_in_newton / iters if iters else 0.0,
        "newton.active_frac": active_rows / active_denom if active_denom else 0.0,
        "alm.kkt_final": float(np.mean(kkt)),
        "alm.gap_rel_final": float(np.mean(gap)),
        "data_io.parse_libsvm.mb_per_s":
            parse_chars / 1e6 / self_s["data_io.parse_libsvm"]
            if parse_chars else 0.0,
        "data_io.parse_libsvm.train_share":
            parse_in_train / total_s["bench.train"] if total_s["bench.train"] else 0.0,
        "cli.share": prefixed("cli.") / root_total,
        "trace.unattributed_frac": sum(self_t[i] for i in roots) / root_total,
    })
    return out
