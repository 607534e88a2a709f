"""The generators' output streams are pinned bit for bit.

The certification tests train on the ``conftest`` instances, and
``perfbench/references.json`` records objectives of problems generated
from fixed seeds, so a generator change that moves a single bit makes
both stale. Each digest covers a dataset's CSR arrays, its labels and
its feature count.
"""

import hashlib
import time

import numpy as np
import pytest

from almsvm import synthetic

from conftest import bundled_instances


def _digest(data) -> str:
    s = data.samples
    h = hashlib.sha256()
    # the indices and the rows' starts and ends as int64, as the digests
    # were pinned, whatever the store's index dtype
    row_ptr = s.csr()[0].astype(np.int64)
    for a in (s.indices.astype(np.int64), s.values, row_ptr[:-1], row_ptr[1:],
              data.labels):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(str(data.n_features).encode())
    return h.hexdigest()


BUNDLED = {
    "blobs50x2":
        "defce0eff0f9f02125d235fb736cf091ed3f61e2670d7853923b465fc40050cd",
    "blobs200x10":
        "ab0fe73acf20dba7c015606780115e7cad688589f4f6183c0e25ecf0dcbcc80c",
    "gap5000x123":
        "fb5c3e68cd554d597f0511e3a932857b92cf51d54186e1dcfdbe15b1d5a7708b",
    "svr500x50":
        "2680859250644a82c55ae923c19f7abf33ae75ee9f9610ac6ed1615d5858bb37",
    "svr300x500":
        "4f54ff5e7afb1578b712afd418c4db31f0cf9c07655dbfe73ecff288d36f28bc",
}


@pytest.mark.parametrize("inst", bundled_instances(), ids=lambda i: i.name)
def test_bundled_instances(inst):
    data = inst.make()
    assert _digest(data) == BUNDLED[inst.name]
    assert data.samples.indices.dtype == np.int32


# the data of conftest.random_problem at seed 0, the one caller of svr_linear
@pytest.mark.parametrize("make,digest", [
    (lambda: synthetic.svc_blobs(12, 5, separation=1.0, scale=1.0, seed=0),
     "6fc7f0daeaad68acf6656bc0db297c06b23b6c4aa5495cef0506d4a2e3037c67"),
    (lambda: synthetic.svr_linear(12, 5, noise=0.3, seed=0),
     "16362d4588d4a4134e898092e44d365f49f5c6b28c550d5faad93c88f9314962"),
], ids=["svc_blobs", "svr_linear"])
def test_random_problem_data(make, digest):
    assert _digest(make()) == digest


# problem 0 of a seed-0 run of each perfbench workload, at benchmark size
@pytest.mark.parametrize("make,digest", [
    (lambda: synthetic.svc_margin_gap(10000, 2000, density=0.02, seed=0),
     "a0aa8f2076312d901192554c3224510fdf345800033e8bd070c9a8d43d959e56"),
    (lambda: synthetic.svc_sparse_binary(50000, 1000, density=0.02, seed=0),
     "7a999f23038bf479abce6051a75ce5c51577ab44d3eae3e6233c384877143ff2"),
], ids=["svc_sparse_lowactive", "cli_roundtrip"])
def test_benchmark_inputs(make, digest):
    assert _digest(make()) == digest


def test_margin_gap_gives_up_on_a_row_it_cannot_score():
    # w* is zero or tiny on row 0's support, so no redraw of the row's
    # values reaches a score of 0.05 and the bounded redraw gives up
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="^margin-gap row 0 did not reach"):
        synthetic.svc_margin_gap(200, 30, seed=0)
    assert time.perf_counter() - t0 < 1.0
