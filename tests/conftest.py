from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from almsvm.alm import C_SCALE_SVC, C_SCALE_SVR, EPSILON, build_svc, build_svr
from almsvm.data_io import Dataset
from almsvm.synthetic import svc_blobs, svc_margin_gap, svr_linear, svr_planted

from oracles import from_dense


def random_sparse(rng, m, n, density=0.5):
    """Random CSR matrix with at least one nonzero."""
    mask = rng.random((m, n)) < density
    if not mask.any():
        mask[rng.integers(m), rng.integers(n)] = True
    a = np.where(mask, rng.normal(size=(m, n)), 0.0)
    return from_dense(a)


def random_problem(seed=0, m=12, n=5, task="svc", C=1.3, eps=0.1):
    """Small random instance for gradient/Hessian checks."""
    if task == "svc":
        data = svc_blobs(m, n, separation=1.0, scale=1.0, seed=seed)
        return build_svc(data, C)
    data = svr_linear(m, n, noise=0.3, seed=seed)
    return build_svr(data, C, eps)


@dataclass(frozen=True)
class BundledInstance:
    """A named dataset recipe with its default training parameters."""

    name: str
    task: str
    make: Callable[[], Dataset]
    c_of: Callable[[Dataset], float]
    eps: float = 0.0

    def build(self):
        """The instance's training problem at its default parameters."""
        data = self.make()
        if self.task == "svc":
            return build_svc(data, self.c_of(data))
        return build_svr(data, self.c_of(data), self.eps)


def bundled_instances() -> list[BundledInstance]:
    """The fixed instance suite used by the certification tests.

    Sizes span m in [50, 5000] and n in [2, 500] over both tasks; C and
    eps follow the reference parameterization of ``almsvm.alm``.
    """
    return [
        BundledInstance(
            name="blobs50x2",
            task="svc",
            make=lambda: svc_blobs(50, 2, separation=8.0, scale=1.5, seed=11),
            c_of=lambda d: C_SCALE_SVC / d.m,
        ),
        BundledInstance(
            name="blobs200x10",
            task="svc",
            make=lambda: svc_blobs(200, 10, separation=8.0, scale=1.5, seed=7),
            c_of=lambda d: C_SCALE_SVC / d.m,
        ),
        BundledInstance(
            name="gap5000x123",
            task="svc",
            make=lambda: svc_margin_gap(5000, 123, density=0.11, seed=23),
            c_of=lambda d: C_SCALE_SVC / d.m,
        ),
        BundledInstance(
            name="svr500x50",
            task="svr",
            make=lambda: svr_planted(500, 50, out_frac=0.05, seed=31),
            c_of=lambda d: C_SCALE_SVR / d.n_features,
            eps=EPSILON,
        ),
        BundledInstance(
            name="svr300x500",
            task="svr",
            make=lambda: svr_planted(300, 500, out_frac=0.08, seed=41),
            c_of=lambda d: C_SCALE_SVR / d.n_features,
            eps=EPSILON,
        ),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
