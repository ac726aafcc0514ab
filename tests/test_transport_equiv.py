"""Bit-identity of every collective across the three wire paths.

The same collective algorithms run over the thread backend, the legacy
pickle/queue process transport, and the zero-copy shared-memory
transport.  Gradients must not depend on which wire moved them, so every
result here is compared with ``==`` (bitwise), never ``allclose`` — and
the equivalence must survive fault injection (drops with retransmission,
delays with reordering), which forces copies where zero-copy would race.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    NodeTopology,
    allgather_sparse,
    alltoall_column_shards,
    column_slices,
    open_group,
    payload_nbytes,
    run_threaded,
    two_level_allreduce,
)
from repro.comm.algorithms import (
    alltoallv,
    gather,
    reduce_scatter,
    scatter,
    tree_allreduce,
)
from repro.comm.sparse import merge_grouped
from repro.faults.plan import FaultPlan
from repro.obs import SpanRecorder
from repro.tensors import SparseRows

WORLD = 4
#: Two nodes of two ranks: the two-level collectives' node structure.
TOPOLOGY = NodeTopology.symmetric(2, 2)


def _payload(rank: int, dtype=np.float32, n: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(100 + rank)
    return rng.normal(size=n).astype(dtype)


def _sparse(rank: int, rows: int = 64, dim: int = 8) -> SparseRows:
    rng = np.random.default_rng(200 + rank)
    return SparseRows(
        rng.integers(0, rows, size=rows // 2),
        rng.normal(size=(rows // 2, dim)).astype(np.float32),
        rows,
    )


# Runner functions are module-level so the persistent process groups can
# dispatch them by pickled reference.
def run_allreduce(comm, dtype_str):
    return comm.allreduce(_payload(comm.rank, np.dtype(dtype_str)))


def run_allreduce_out(comm):
    data = _payload(comm.rank)
    out = np.empty_like(data)
    ret = comm.allreduce(data, out=out)
    return ret, ret is out


def run_allreduce_inplace(comm):
    data = _payload(comm.rank)
    comm.allreduce(data, out=data)
    return data


def run_reduce_scatter(comm):
    return reduce_scatter(comm, _payload(comm.rank))


def run_tree_allreduce(comm):
    return tree_allreduce(comm, _payload(comm.rank))


def run_hierarchical(comm):
    return two_level_allreduce(comm, _payload(comm.rank), TOPOLOGY)


def run_allgather(comm):
    return comm.allgather(_payload(comm.rank, n=37))


def run_broadcast(comm):
    obj = _payload(0) if comm.rank == 0 else None
    return comm.broadcast(obj, root=0)


def run_alltoall(comm):
    blocks = [
        _payload(comm.rank * comm.world_size + dst, n=23)
        for dst in range(comm.world_size)
    ]
    return comm.alltoall(blocks)


def run_alltoallv(comm):
    rng = np.random.default_rng(comm.rank)
    blocks = [
        rng.normal(size=(dst + 1, 3)).astype(np.float32)
        for dst in range(comm.world_size)
    ]
    return alltoallv(comm, blocks)


def run_gather_scatter(comm):
    gathered = gather(comm, _payload(comm.rank, n=11), root=1)
    objs = (
        [_payload(50 + r, n=7) for r in range(comm.world_size)]
        if comm.rank == 1
        else None
    )
    mine = scatter(comm, objs, root=1)
    return gathered, mine


def run_sparse_allgather(comm):
    return allgather_sparse(comm, _sparse(comm.rank))


def run_sparse_alltoall(comm):
    return alltoall_column_shards(comm, _sparse(comm.rank))


#: Ranks whose gradient holds every row (a full-softmax table's).
FULL_RANKS = (0, 2)


def _mixed_coverage_grad(rank: int, rows: int = 64, dim: int = 7) -> SparseRows:
    if rank in FULL_RANKS:
        rng = np.random.default_rng(300 + rank)
        values = rng.normal(size=(rows, dim)).astype(np.float32)
        values[rng.random(values.shape) < 0.05] = -0.0  # zero signs must survive
        return SparseRows(np.arange(rows), values, rows, coalesced=True)
    # Sparse ranks stay well below density 0.9 after coalescing.
    return _sparse(rank, rows, dim).coalesce()


def run_mixed_coverage_alltoall(comm, fold_groups, dense_switch):
    """alltoall_column_shards over full-coverage and sparse ranks.

    Returns the shard, its ``merge_coalesced`` reference (every rank's
    gradient re-derived locally, sliced to this rank's columns), the
    ``wire_bytes.alltoall_sparse`` counter, and the summed payload of
    what the frames carry to the peers.
    """
    grads = [_mixed_coverage_grad(r) for r in range(comm.world_size)]
    slices = column_slices(grads[0].dim, comm.world_size)
    mine = slices[comm.rank]
    parts = [(g.indices, g.values[:, mine]) for g in grads]
    width = mine.stop - mine.start
    if fold_groups is None:
        reference = SparseRows.merge_coalesced(parts, 64, width, np.float32)
    else:
        reference = merge_grouped(parts, 64, width, np.float32, fold_groups)
    own = grads[comm.rank]
    payload = sum(
        payload_nbytes(own.values[:, slices[dst]])
        + (0 if comm.rank in FULL_RANKS else payload_nbytes(own.indices))
        for dst in range(comm.world_size)
        if dst != comm.rank
    )
    previous, comm.obs = comm.obs, SpanRecorder(rank=comm.rank)
    try:
        shard = alltoall_column_shards(
            comm, own, fold_groups=fold_groups, dense_switch=dense_switch
        )
        sent = comm.obs.counters["wire_bytes.alltoall_sparse"]
    finally:
        comm.obs = previous
    return shard, reference, sent, payload


def run_mixed_tuple(comm):
    """Tuple-of-arrays + scalars + dict: the multi-frame wire format."""
    msg = (
        _payload(comm.rank, n=17),
        {"rank": comm.rank, "ids": np.arange(comm.rank + 1)},
        "tag",
    )
    return comm.allgather(msg)


RUNNERS = [
    ("allreduce_f32", run_allreduce, ("<f4",)),
    ("allreduce_f64", run_allreduce, ("<f8",)),
    ("allreduce_out", run_allreduce_out, ()),
    ("allreduce_inplace", run_allreduce_inplace, ()),
    ("reduce_scatter", run_reduce_scatter, ()),
    ("tree_allreduce", run_tree_allreduce, ()),
    ("hierarchical", run_hierarchical, ()),
    ("allgather", run_allgather, ()),
    ("broadcast", run_broadcast, ()),
    ("alltoall", run_alltoall, ()),
    ("alltoallv", run_alltoallv, ()),
    ("gather_scatter", run_gather_scatter, ()),
    ("sparse_allgather", run_sparse_allgather, ()),
    ("sparse_alltoall", run_sparse_alltoall, ()),
    ("mixed_tuple", run_mixed_tuple, ()),
]


def _flatten(obj) -> list[np.ndarray]:
    """Every ndarray reachable inside ``obj``, in deterministic order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, SparseRows):
        return [obj.indices, obj.values]
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in _flatten(x)]
    if isinstance(obj, dict):
        return [a for k in sorted(obj) for a in _flatten(obj[k])]
    return []


def assert_bit_identical(a, b) -> None:
    fa, fb = _flatten(a), _flatten(b)
    assert len(fa) == len(fb)
    for x, y in zip(fa, fb):
        assert x.dtype == y.dtype
        assert x.shape == y.shape
        assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def shm_group():
    with open_group(WORLD, backend="process", timeout=60.0, transport="shm") as group:
        yield group


@pytest.fixture(scope="module")
def queue_group():
    with open_group(WORLD, backend="process", timeout=60.0, transport="queue") as group:
        yield group


@pytest.mark.parametrize(
    "name,fn,args", RUNNERS, ids=[name for name, _, _ in RUNNERS]
)
def test_collective_identical_across_transports(
    name, fn, args, shm_group, queue_group
):
    reference = run_threaded(WORLD, fn, *args)
    for group in (queue_group, shm_group):
        got = group.run(fn, *args)
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])


def test_allreduce_out_returns_buffer(shm_group):
    for _, used_out in shm_group.run(run_allreduce_out):
        assert used_out


MIXED_COVERAGE = [
    ("flat", None, 1.0),
    ("node_grouped", (2, 2), 1.0),
    ("dense_switch", None, 0.9),
]


@pytest.mark.parametrize(
    "fold_groups,dense_switch",
    [case[1:] for case in MIXED_COVERAGE],
    ids=[case[0] for case in MIXED_COVERAGE],
)
def test_full_coverage_frames_match_merge_reference(
    fold_groups, dense_switch, shm_group, queue_group
):
    """Full-coverage ranks send bare column blocks (no index vector);
    every transport must still produce the canonical merge bit for bit
    and account exactly the bytes the frames carry."""
    args = (fold_groups, dense_switch)
    results = [run_threaded(WORLD, run_mixed_coverage_alltoall, *args)]
    results += [g.run(run_mixed_coverage_alltoall, *args) for g in (queue_group, shm_group)]
    for per_rank in results:
        for shard, reference, sent, payload in per_rank:
            assert_bit_identical(shard, reference)
            # array_equal calls -0.0 == 0.0; the bytes keep the sign.
            assert shard.values.tobytes() == reference.values.tobytes()
            assert sent == payload
    # Full-coverage ranks sent no index vector.
    full_sent, sparse_sent = results[0][0][3], results[0][1][3]
    assert full_sent == 64 * (7 - 2) * 4
    assert sparse_sent > 3 * 8  # indices travelled with each sparse frame


class TestFaultedEquivalence:
    """Drops + delays must reorder/retransmit, never change the bits."""

    PLAN = dict(
        seed=11,
        drop_prob=0.08,
        delay_prob=0.15,
        delay_s=0.003,
        reorder_prob=0.1,
        reorder_s=0.005,
        recv_deadline=30.0,
    )

    def test_thread_backend(self):
        reference = run_threaded(WORLD, run_allreduce, "<f4")
        with open_group(WORLD, faults=FaultPlan(**self.PLAN)) as group:
            got = group.run(run_allreduce, "<f4")
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])

    @pytest.mark.slow
    @pytest.mark.parametrize("transport", ["shm", "queue"])
    def test_process_backend(self, transport):
        reference = run_threaded(WORLD, run_allreduce, "<f4")
        with open_group(
            WORLD,
            backend="process",
            transport=transport,
            faults=FaultPlan(**self.PLAN),
        ) as group:
            got = group.run(run_allreduce, "<f4")
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])

    @pytest.mark.slow
    def test_sparse_exchange_under_faults_shm(self):
        reference = run_threaded(WORLD, run_sparse_alltoall)
        with open_group(
            WORLD, backend="process", faults=FaultPlan(**self.PLAN)
        ) as group:
            got = group.run(run_sparse_alltoall)
        for rank in range(WORLD):
            assert_bit_identical(reference[rank], got[rank])


class TestDtypePreservation:
    """float32 stays float32 end to end — and pays float32 wire bytes."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64]
    )
    def test_collectives_preserve_dtype(self, dtype):
        def fn(comm):
            data = np.arange(24, dtype=dtype) + comm.rank
            return (
                comm.allreduce(data).dtype,
                reduce_scatter(comm, data).dtype,
                tree_allreduce(comm, data).dtype,
                two_level_allreduce(comm, data, TOPOLOGY).dtype,
            )

        for dtypes in run_threaded(WORLD, fn):
            assert all(dt == np.dtype(dtype) for dt in dtypes)

    def test_float32_halves_wire_bytes(self):
        def fn(comm, dtype_str):
            comm.allreduce(np.ones(96, dtype=np.dtype(dtype_str)))
            return comm.bytes_sent

        bytes32 = run_threaded(WORLD, fn, "<f4")
        bytes64 = run_threaded(WORLD, fn, "<f8")
        assert all(2 * b32 == b64 for b32, b64 in zip(bytes32, bytes64))
        # 2(N-1) transfers of n/N elements each.
        assert bytes32[0] == 2 * (WORLD - 1) * (96 // WORLD) * 4


class TestPayloadAccounting:
    """payload_nbytes drives bytes_sent — pin its rules per payload kind."""

    def test_ndarray(self):
        assert payload_nbytes(np.zeros((5, 3), dtype=np.float32)) == 60

    def test_sparse_rows(self):
        s = _sparse(0, rows=10, dim=4)  # 5 int64 indices + 5x4 float32
        assert payload_nbytes(s) == 5 * 8 + 5 * 4 * 4
        assert payload_nbytes(s) == s.nbytes

    def test_python_scalars(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 8
        assert payload_nbytes(np.float32(1.0)) == 8

    def test_containers_recurse(self):
        inner = np.ones(4, dtype=np.float64)  # 32 bytes
        assert payload_nbytes((inner, inner)) == 64
        assert payload_nbytes([inner, 1]) == 40
        assert payload_nbytes({"a": inner, "b": 2}) == 40

    def test_bytes_and_strings(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(6)) == 6
        assert payload_nbytes("héllo") == len("héllo".encode())

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0
