"""Command-line front end: train, predict, eval and bench.

Model files are plain text: one header line

    alm-svm v1 task=<svc|svr> n=<int> bias=<0|1> c=<real> eps=<real> labels=<a:b|none>

followed by n weight lines, each the shortest round-trippable decimal of
one coordinate. Bench rows are CSV with the header
``dataset,k,it_sn,it_cg,time_s,metric``; identical flags and seed give
byte-identical output except for the time column. ``bench --trace PATH``
writes the full solve reports as a JSON list, one object per dataset.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .alm import (
    C_SCALE_SVC,
    C_SCALE_SVR,
    EPSILON,
    DivergedError,
    SolverConfig,
    alm_solve,
    build_svc,
    build_svr,
)
from .data_io import (
    Dataset,
    ParseError,
    _decode,
    augment_bias,
    format_float,
    load_libsvm,
    normalize_labels,
    split,
)
# predict and predict_label are not called here; perfbench/tracer.py
# patches them under these names
from .metrics import (Model, _label_pair, accuracy, mse, predict,  # noqa: F401
                      predict_label, scores)
from .newton import CgBreakdownError, LineSearchError

__all__ = ["main", "write_model", "read_model"]

# what a command reports as one ``error:`` line and exit code 1
_RUN_ERRORS = (ParseError, OSError, ValueError, DivergedError,
               LineSearchError, CgBreakdownError)


def write_model(model: Model, path) -> None:
    lo_hi = (
        "none"
        if model.label_map is None
        else ":".join(format_float(v) for v in model.label_map)
    )
    lines = [
        f"alm-svm v1 task={model.task} n={model.w.size} "
        f"bias={1 if model.bias_augmented else 0} c={format_float(model.c_used)} "
        f"eps={format_float(model.eps_used)} labels={lo_hi}"
    ]
    lines.extend(format_float(v) for v in model.w)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_model(path) -> Model:
    """The model in ``path``; every fault in the file, a byte that is not
    UTF-8 included, is a ValueError that names the file."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        lines = _decode(buf).splitlines()
        if not lines:
            raise ValueError("empty model file")
        head = lines[0].split()
        if len(head) != 8 or head[0] != "alm-svm" or head[1] != "v1":
            raise ValueError("not an alm-svm v1 model file")
        fields = dict(part.split("=", 1) for part in head[2:] if "=" in part)
        return _model_from(fields, lines[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_from(fields: dict, weights: list) -> Model:
    missing = [k for k in ("task", "n", "bias", "c", "eps", "labels")
               if k not in fields]
    if missing:
        raise ValueError(f"model header lacks {', '.join(missing)}")
    if fields["bias"] not in ("0", "1"):
        raise ValueError(f"bias must be 0 or 1, got {fields['bias']!r}")
    n = int(fields["n"])
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    label_map = None
    if fields["labels"] != "none":
        pair = fields["labels"].split(":")
        if len(pair) != 2:
            raise ValueError(
                f"labels must be none or a:b, got {fields['labels']!r}"
            )
        label_map = (float(pair[0]), float(pair[1]))
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, found {len(weights)}")
    return Model(
        w=_weights(weights),
        task=fields["task"],
        bias_augmented=fields["bias"] == "1",
        label_map=label_map,
        c_used=float(fields["c"]),
        eps_used=float(fields["eps"]),
    )


def _weights(lines: list) -> np.ndarray:
    """The weight lines as floats; a fault names its line of the file,
    where the first weight is line 2."""
    w = np.empty(len(lines))
    for i, text in enumerate(lines):
        try:
            w[i] = float(text)
        except ValueError:
            raise ValueError(
                f"line {i + 2}: weight {text!r} is not a number") from None
        if not math.isfinite(w[i]):
            raise ValueError(f"line {i + 2}: weight {text!r} is not finite")
    return w


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=None,
                   help="penalty weight C (overrides the scale rules)")
    p.add_argument("--c-scale", type=float, default=C_SCALE_SVC,
                   help="classification default C = c_scale / m_train")
    p.add_argument("--c-scale-svr", type=float, default=C_SCALE_SVR,
                   help="regression default C = c_scale_svr / n_features")
    p.add_argument("--epsilon", type=float, default=EPSILON,
                   help="regression tube half-width")
    p.add_argument("--bias", action="store_true",
                   help="append a constant feature before training")
    p.add_argument("--n-features", type=int, default=None,
                   help="widen the feature count beyond the file's max index")
    p.add_argument("--sigma0", type=float, default=SolverConfig.sigma0)
    p.add_argument("--sigma-max", type=float, default=SolverConfig.sigma_max)
    p.add_argument("--theta", type=float, default=SolverConfig.theta)
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alm-svm",
        description="Train and evaluate sparse linear SVMs with an "
        "augmented Lagrangian / semismooth Newton-CG solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write a model file")
    t.add_argument("--task", choices=("svc", "svr"), required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--model", required=True)
    _add_solver_flags(t)
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="write one prediction per sample")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--output", default="-",
                    help="output path, '-' for stdout (default)")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="predict and report accuracy or mse")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="split, train and evaluate; CSV output")
    b.add_argument("--data", required=True, nargs="+")
    b.add_argument("--task", choices=("svc", "svr"), required=True)
    b.add_argument("--split", type=float, default=0.8)
    b.add_argument("--seed", type=int, default=42,
                   help="seed of the train/test split")
    b.add_argument("--trace", default=None, metavar="PATH",
                   help="write every dataset's solve report as JSON")
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench)
    return parser


def _validate_common(parser, args) -> None:
    for name in ("c", "c_scale", "c_scale_svr", "epsilon", "tol", "sigma0",
                 "sigma_max"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"--{name.replace('_', '-')} must be finite, "
                         f"got {value}")
    c = getattr(args, "c", None)
    if c is not None and c <= 0:
        parser.error("C must be positive")
    if getattr(args, "c_scale", 1.0) <= 0 or getattr(args, "c_scale_svr", 1.0) <= 0:
        parser.error("C scale must be positive")
    if getattr(args, "epsilon", 0.0) < 0:
        parser.error("epsilon must be nonnegative")
    if getattr(args, "split", None) is not None and not 0.0 < args.split < 1.0:
        parser.error("--split must be in (0, 1)")
    if hasattr(args, "max_outer"):
        # the solver's own range checks, so that a bad flag exits before
        # a data file is parsed
        try:
            _config(args)
        except ValueError as exc:
            parser.error(str(exc))


def _config(args) -> SolverConfig:
    return SolverConfig(
        sigma0=args.sigma0,
        sigma_max=args.sigma_max,
        theta=args.theta,
        tol=args.tol,
        max_outer=args.max_outer,
    )


@contextlib.contextmanager
def _naming(path):
    """Put the data file ``path`` in front of a run error raised inside;
    a ParseError or OSError already names its file."""
    try:
        yield
    except (ParseError, OSError):
        raise
    except _RUN_ERRORS as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _train_on(args, task: str, train: Dataset):
    """Optionally add a bias feature, then assemble and solve the task's
    problem; classification labels are mapped to {-1, +1} first."""
    if args.bias:
        train = augment_bias(train)
    if train.m == 0:
        raise ValueError("the training set has no samples")
    if train.n_features == 0:
        raise ValueError("the training set has no features")
    if task == "svc":
        train, label_map = normalize_labels(train)
        c_value = args.c_scale / train.m if args.c is None else args.c
        problem = build_svc(train, c_value)
        eps_used = 0.0
    else:
        label_map = None
        c_value = args.c_scale_svr / train.n_features if args.c is None else args.c
        problem = build_svr(train, c_value, args.epsilon)
        eps_used = args.epsilon
    w, report = alm_solve(problem, _config(args))
    model = Model(
        w=w,
        task=task,
        bias_augmented=args.bias,
        label_map=label_map,
        c_used=c_value,
        eps_used=eps_used,
    )
    return model, report


def cmd_train(args) -> int:
    with _naming(args.data):
        data = load_libsvm(args.data, n_features=args.n_features)
        model, report = _train_on(args, args.task, data)
    write_model(model, args.model)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"status={report.status}", file=sys.stderr)
    print(
        f"k={report.k} it_sn={report.it_sn} it_cg={report.it_cg} "
        f"time_s={report.time_seconds:.3f} kkt={report.kkt_residual:.3e} "
        f"gap={report.duality_gap_rel:.3e} obj={report.objective:.6e}"
    )
    return 0


def cmd_predict(args) -> int:
    model = read_model(args.model)
    data = load_libsvm(args.data)
    values = scores(model, data).tolist()
    if model.task == "svc":
        # predict_labels with each of the two labels formatted once: a
        # score of 0 counts as positive
        lo, hi = (format_float(v) + "\n" for v in _label_pair(model))
        lines = [hi if v >= 0.0 else lo for v in values]
    else:
        lines = [format_float(v) + "\n" for v in values]
    text = "".join(lines)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    return 0


def cmd_eval(args) -> int:
    model = read_model(args.model)
    data = load_libsvm(args.data)
    if model.task == "svc":
        print(f"accuracy={accuracy(model, data):.3f}")
    else:
        print(f"mse={mse(model, data):.6g}")
    return 0


def _bench_one(args, path: str):
    """Load, split, train and score one dataset; an error names the file."""
    with _naming(path):
        data = load_libsvm(path, n_features=args.n_features)
        train, test = split(data, args.split, args.seed)
        model, report = _train_on(args, args.task, train)
        metric = (accuracy if args.task == "svc" else mse)(model, test)
    return Path(path).stem, report, metric


def cmd_bench(args) -> int:
    results = [_bench_one(args, p) for p in args.data]
    rows = [
        (name, str(r.k), str(r.it_sn), str(r.it_cg),
         f"{r.time_seconds:.3f}", f"{metric:.6f}")
        for name, r, metric in results
    ]
    print("dataset,k,it_sn,it_cg,time_s,metric")
    for row in rows:
        print(",".join(row))
    if args.trace is not None:
        traces = [{"dataset": name, **dataclasses.asdict(r)}
                  for name, r, _metric in results]
        with open(args.trace, "w", encoding="utf-8") as f:
            json.dump(traces, f)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_common(parser, args)
    try:
        return args.func(args)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
