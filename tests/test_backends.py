"""Cross-backend equivalence suite and backend-selection tests.

The kernel backends of :mod:`repro.linalg.backends` must be numerically
interchangeable: identical visit order, identical counter schedule, and
factors matching the list reference (``atol=1e-10`` on every kernel
variant and on whole optimizer runs, and bit for bit in
:class:`TestBitForBit`).  These tests pin that contract so a future
backend (numba, Cython, GPU) has an executable specification.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import HyperParams, RunConfig
from repro.core.nomad import NomadSimulation
from repro.baselines.dsgd import DSGDSimulation
from repro.baselines.hogwild import HogwildSimulation
from repro.errors import ConfigError
from repro.linalg.backends import (
    BACKENDS,
    CextBackend,
    ListBackend,
    cext_available,
    get_backend,
    resolve_backend,
)
from repro.linalg.backends.list_backend import column_on_lists
from repro.linalg.losses import AbsoluteLoss, HuberLoss
from repro.simulator.cluster import Cluster
from repro.simulator.network import HPC_PROFILE

ATOL = 1e-10

ALPHA, BETA, LAMBDA = 0.1, 0.02, 0.05

needs_cext = pytest.mark.skipif(
    not cext_available(), reason="no usable C toolchain (cext unavailable)"
)

#: Backends compared against the list reference in the equivalence suite;
#: ``cext`` rows skip cleanly where the toolchain is absent.
OTHER_BACKENDS = [pytest.param("cext", marks=needs_cext)]

#: Every backend expected to run on this box.
def _available_backends() -> list[str]:
    names = ["list"]
    if cext_available():
        names.append("cext")
    return names


def _fixture(seed: int, m: int = 12, n: int = 8, k: int = 5, nnz: int = 30):
    """Shared random factors and entries, one copy per backend."""
    rng = np.random.default_rng(seed)
    w = rng.random((m, k))
    h = rng.random((n, k))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) * 4.0
    order = rng.permutation(nnz)
    return w, h, rows, cols, vals, order


def _stores(w: np.ndarray, h: np.ndarray):
    """Two private copies of the factors: the reference's and the other's."""
    return (w.copy(), h.copy()), (w.copy(), h.copy())


def _looped_reference(
    w_l, h_l, indptr, users, ratings, counts_l, burst, loss=None
):
    """The definition of a burst: the reference column core over each
    token's CSC column in turn, with a counter list, under ``loss``'s
    gradient (``None``: the square loss, i.e. looping
    ``ListBackend.process_column``)."""
    dloss = None if loss is None else loss.dloss_dpred
    applied = 0
    for j in burst:
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        column_counts = counts_l[lo:hi]
        applied += column_on_lists(
            w_l, h_l[j], users[lo:hi].tolist(), ratings[lo:hi].tolist(),
            column_counts, ALPHA, BETA, LAMBDA, dloss,
        )
        counts_l[lo:hi] = column_counts
    return applied


class TestKernelEquivalence:
    """Every backend agrees with the list reference on all kernel variants."""

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_column(self, other):
        w, h, rows, _, vals, _ = _fixture(0)
        (w_l, h_l), (w_n, h_n) = _stores(w, h)
        counts_l = [3] * len(rows)
        counts_n = np.full(len(rows), 3, dtype=np.int64)
        a = ListBackend().process_column(
            w_l, h_l[2], rows.tolist(), vals.tolist(), counts_l,
            ALPHA, BETA, LAMBDA,
        )
        b = get_backend(other).process_column(
            w_n, h_n[2], rows, vals, counts_n, ALPHA, BETA, LAMBDA
        )
        assert a == b == len(rows)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)
        assert counts_l == counts_n.tolist() == [4] * len(rows)

    @pytest.mark.parametrize(
        "loss", [None, HuberLoss(delta=0.5)], ids=["square", "huber"]
    )
    def test_list_column_kernels_on_ndarray_slices(self, loss):
        """The list kernels run on slices of a worker's CSC arrays
        (``process_column`` on the slices; a bound kernel, which takes
        the loss, on the column between the pads): same bits out as for
        lists (counters 7, 28, 33 are ones where NumPy's ``int64 ** 1.5``
        and Python's differ in the last ulp), and the caller's own array
        sees the increments."""
        w, h, rows, _, vals, _ = _fixture(5)
        nnz, lo = len(rows), 4
        start = [7, 28, 33] * (nnz // 3)
        pad = np.full(lo, -1, dtype=np.int64)
        all_users = np.concatenate([pad, rows, pad])
        all_ratings = np.concatenate([pad, vals, pad]).astype(np.float64)
        all_counts = np.concatenate([pad, start, pad])
        backend = ListBackend()

        (w_a, h_a), (w_b, h_b) = _stores(w, h)
        counts_a = list(start)
        a = column_on_lists(
            w_a, h_a[1], rows.tolist(), vals.tolist(), counts_a,
            ALPHA, BETA, LAMBDA, None if loss is None else loss.dloss_dpred,
        )
        if loss is None:
            b = backend.process_column(
                w_b, h_b[1], all_users[lo:lo + nnz], all_ratings[lo:lo + nnz],
                all_counts[lo:lo + nnz], ALPHA, BETA, LAMBDA,
            )
        else:
            indptr = np.array([0, lo, lo + nnz, 2 * lo + nnz], dtype=np.int64)
            b = backend.bind_tokens(
                w_b, h_b, indptr, all_users, all_ratings, all_counts,
                ALPHA, BETA, LAMBDA, loss,
            ).process_token(1)
        assert a == b == nnz
        assert np.array_equal(w_a, w_b) and np.array_equal(h_a, h_b)
        assert all_counts[lo:lo + nnz].tolist() == counts_a
        assert counts_a == [t + 1 for t in start]
        assert (all_counts[:lo] == -1).all() and (all_counts[lo + nnz:] == -1).all()

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_column_batch(self, other):
        """The fused batch entry is identical to looped process_column."""
        w, h, _, _, _, _ = _fixture(6)
        rng = np.random.default_rng(60)
        items = [0, 3, 5, 1]
        col_users = [rng.integers(0, w.shape[0], size=m) for m in (7, 0, 11, 4)]
        col_ratings = [rng.random(u.size) * 4.0 for u in col_users]
        (w_l, h_l), (w_n, h_n) = _stores(w, h)
        counts_l = [[1] * u.size for u in col_users]
        counts_n = [np.ones(u.size, dtype=np.int64) for u in col_users]
        reference = ListBackend()
        a = 0
        for j, users, ratings, counts in zip(
            items, col_users, col_ratings, counts_l
        ):
            a += reference.process_column(
                w_l, h_l[j], users.tolist(), ratings.tolist(),
                counts, ALPHA, BETA, LAMBDA,
            )
        backend = get_backend(other)
        b = backend.process_column_batch(
            w_n,
            [h_n[j] for j in items],
            col_users,
            col_ratings,
            counts_n,
            ALPHA, BETA, LAMBDA,
        )
        assert a == b == sum(u.size for u in col_users)
        assert np.allclose(np.asarray(w_l), np.asarray(w_n), atol=ATOL)
        assert np.allclose(np.asarray(h_l), np.asarray(h_n), atol=ATOL)
        for expected, got in zip(counts_l, counts_n):
            assert expected == list(got)

    def test_process_column_batch_empty(self):
        for name in _available_backends():
            assert get_backend(name).process_column_batch(
                [], [], [], [], [], ALPHA, BETA, LAMBDA
            ) == 0

    @pytest.mark.parametrize(
        "burst",
        [
            [0, 3, 5, 1, 6],  # 3 is an empty column
            [2, 5, 2, 2],  # one item repeated inside a burst
            [5],
            [3],  # a burst of one empty column
            [],
        ],
        ids=["empty-columns", "repeated-item", "one", "one-empty", "empty"],
    )
    @pytest.mark.parametrize("name", ["list", *OTHER_BACKENDS])
    def test_process_tokens(self, name, burst):
        """The bound token kernel is identical to looping process_column
        over the burst's CSC columns, on every backend."""
        w, h, _, _, _, _ = _fixture(7)
        rng = np.random.default_rng(70)
        sizes = [7, 4, 9, 0, 0, 11, 3, 0]  # per item; trailing empty too
        indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        users = rng.integers(0, w.shape[0], size=indptr[-1])
        ratings = rng.random(indptr[-1]) * 4.0
        (w_l, h_l), _ = _stores(w, h)
        counts_l = [2] * int(indptr[-1])
        a = _looped_reference(w_l, h_l, indptr, users, ratings, counts_l, burst)
        w_n, h_n = w.copy(), h.copy()
        counts_n = np.full(indptr[-1], 2, dtype=np.int64)
        kernel = get_backend(name).bind_tokens(
            w_n, h_n, indptr, users, ratings, counts_n, ALPHA, BETA, LAMBDA
        )
        b = kernel.process_tokens(np.array(burst, dtype=np.int64))
        assert a == b == sum(sizes[j] for j in burst)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)
        assert counts_l == counts_n.tolist()

    @pytest.mark.parametrize("name", ["list", *OTHER_BACKENDS])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_process_tokens_rejects_unknown_item(self, name, bad):
        """An id outside the shard raises before anything is applied —
        never a wrapped negative index, never a wild pointer in C."""
        w, h = np.ones((4, 2)), np.ones((3, 2))
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        counts = np.zeros(3, dtype=np.int64)
        kernel = get_backend(name).bind_tokens(
            w, h, indptr, np.arange(3), np.ones(3), counts,
            ALPHA, BETA, LAMBDA,
        )
        with pytest.raises(IndexError):
            kernel.process_tokens(np.array([0, bad], dtype=np.int64))
        assert counts.tolist() == [0, 0, 0]
        assert np.all(w == 1.0) and np.all(h == 1.0)

    @pytest.mark.parametrize("name", ["list", *OTHER_BACKENDS])
    def test_process_token_is_a_burst_of_one(self, name):
        """``process_token(j)`` is ``process_tokens([j])`` bit for bit,
        on an empty column and on a repeated id too."""
        w, h, _, _, _, _ = _fixture(7)
        rng = np.random.default_rng(71)
        sizes = [7, 4, 9, 0, 0, 11, 3, 0]
        indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        users = rng.integers(0, w.shape[0], size=indptr[-1])
        ratings = rng.random(indptr[-1]) * 4.0
        sides = []
        for _ in range(2):
            w_n, h_n = w.copy(), h.copy()
            counts = np.full(indptr[-1], 2, dtype=np.int64)
            kernel = get_backend(name).bind_tokens(
                w_n, h_n, indptr, users, ratings, counts, ALPHA, BETA, LAMBDA
            )
            sides.append((kernel, w_n, h_n, counts))
        (one, w_a, h_a, counts_a), (burst, w_b, h_b, counts_b) = sides
        for j in [5, 3, 0, 5, 5, 7, 2]:  # 3 and 7 are empty columns
            applied = one.process_token(j)
            assert applied == sizes[j]
            assert applied == burst.process_tokens(
                np.array([j], dtype=np.int64)
            )
            assert w_a.tobytes() == w_b.tobytes()
            assert h_a.tobytes() == h_b.tobytes()
            assert counts_a.tolist() == counts_b.tolist()
        assert not np.array_equal(w_a, w)  # and something was applied

    @pytest.mark.parametrize("name", ["list", *OTHER_BACKENDS])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_process_token_rejects_unknown_item(self, name, bad):
        w, h = np.ones((4, 2)), np.ones((3, 2))
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        counts = np.zeros(3, dtype=np.int64)
        kernel = get_backend(name).bind_tokens(
            w, h, indptr, np.arange(3), np.ones(3), counts,
            ALPHA, BETA, LAMBDA,
        )
        with pytest.raises(IndexError):
            kernel.process_token(bad)
        assert counts.tolist() == [0, 0, 0]
        assert np.all(w == 1.0) and np.all(h == 1.0)

    @needs_cext
    def test_cext_bound_fields_land_where_c_reads(self):
        """Every array and scalar ``bind_tokens`` hands the native
        ``TokenKernel`` lands where C looks for it: a kernel bound over
        arrays with distinct contents updates exactly the rows the shard
        names, with the reference column kernel's values."""
        backend = get_backend("cext")

        m, n, k = 6, 4, 3
        w = np.arange(m * k, dtype=np.float64).reshape(m, k) / 100.0
        h = 1.0 + np.arange(n * k, dtype=np.float64).reshape(n, k) / 100.0
        indptr = np.array([0, 2, 2, 3, 3], dtype=np.int64)  # items 0 and 2
        users = np.array([4, 1, 5], dtype=np.int64)
        ratings = np.array([3.0, 4.0, 5.0])
        counts = np.array([10, 20, 30], dtype=np.int64)
        w_ref, h_ref, counts_ref = w.copy(), h.copy(), counts.copy()
        kernel = backend.bind_tokens(
            w, h, indptr, users, ratings, counts, ALPHA, BETA, LAMBDA
        )
        assert kernel.process_token(0) == 2
        assert counts.tolist() == [11, 21, 30]
        untouched = [0, 2, 3, 5]
        assert np.array_equal(w[untouched], w_ref[untouched])
        assert np.array_equal(h[1:], h_ref[1:])
        # ...and with the values the reference column kernel gives.
        ListBackend().process_column(
            w_ref, h_ref[0], users[:2], ratings[:2], counts_ref[:2],
            ALPHA, BETA, LAMBDA,
        )
        assert np.allclose(w, w_ref, atol=ATOL)
        assert np.allclose(h, h_ref, atol=ATOL)
        assert kernel.process_tokens(np.array([2, 1], dtype=np.int64)) == 1
        assert counts.tolist() == [11, 21, 31]
        assert not np.array_equal(w[5], w_ref[5])
        assert np.array_equal(w[untouched[:3]], w_ref[untouched[:3]])

    @needs_cext
    def test_cext_bind_tokens_validates_arrays(self):
        """Pointers are resolved once at bind time, so non-conformant or
        inconsistent arrays are refused there, not dereferenced."""
        backend = get_backend("cext")
        w, h = np.ones((4, 2)), np.ones((3, 2))
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        users, ratings = np.arange(3), np.ones(3)
        counts = np.zeros(3, dtype=np.int64)
        step = (ALPHA, BETA, LAMBDA)
        with pytest.raises(TypeError):
            backend.bind_tokens(
                w, h, indptr, users, ratings, counts.tolist(), *step
            )
        with pytest.raises(TypeError):
            backend.bind_tokens(
                w[:, ::2], h[:, ::2], indptr, users, ratings, counts, *step
            )
        with pytest.raises(ValueError):  # a user row w does not have
            backend.bind_tokens(
                w, h, indptr, users + 2, ratings, counts, *step
            )
        with pytest.raises(ValueError):  # indptr past the ratings
            backend.bind_tokens(
                w, h, indptr + 1, users, ratings, counts, *step
            )

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_entries(self, other):
        w, h, rows, cols, vals, order = _fixture(2)
        (w_l, h_l), (w_n, h_n) = _stores(w, h)
        counts_l = [0] * len(rows)
        counts_n = np.zeros(len(rows), dtype=np.int64)
        a = ListBackend().process_entries(
            w_l, h_l, rows.tolist(), cols.tolist(), vals.tolist(),
            counts_l, ALPHA, BETA, LAMBDA, order.tolist(),
        )
        b = get_backend(other).process_entries(
            w_n, h_n, rows, cols, vals, counts_n, ALPHA, BETA, LAMBDA, order
        )
        assert a == b == len(order)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)
        assert counts_l == counts_n.tolist()

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_entries_const(self, other):
        w, h, rows, cols, vals, order = _fixture(3)
        (w_l, h_l), (w_n, h_n) = _stores(w, h)
        a = ListBackend().process_entries_const(
            w_l, h_l, rows.tolist(), cols.tolist(), vals.tolist(),
            0.07, LAMBDA, order.tolist(),
        )
        b = get_backend(other).process_entries_const(
            w_n, h_n, rows, cols, vals, 0.07, LAMBDA, order
        )
        assert a == b == len(order)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)

    def test_empty_entries_noop(self):
        for name in _available_backends():
            backend = get_backend(name)
            assert backend.process_entries(
                [], [], [], [], [], [], ALPHA, BETA, LAMBDA, []
            ) == 0
            assert backend.process_entries_const(
                [], [], [], [], [], 0.1, LAMBDA, []
            ) == 0


#: Counters a live run holds side by side: fresh arrivals (0) among old
#: ratings, 7 / 28 / 33 (where ``int64 ** 1.5`` and libm differ in the
#: last ulp) and a pile-up at ``fit_stream``'s default ``count_cap``.
_COUNTERS = st.sampled_from([0, 0, 1, 7, 8, 8, 28, 33])
_RATINGS = st.floats(0.5, 5.0)
_N_USERS, _K = 9, 3

#: One shard: per column a list of (user, rating, counter), and the
#: shape it is given.  ``drawn`` keeps the columns as drawn — unsorted,
#: a user repeated inside a column, empty and trailing-empty columns all
#: occur; ``ascending`` cuts every column down to strictly ascending
#: users (what ``Shard.csc()`` delivers); ``stream`` gives it a column
#: store's shape (see :func:`_stream_columns`).
_SHARDS = st.tuples(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, _N_USERS - 1), _RATINGS, _COUNTERS),
            max_size=7,
        ),
        min_size=1, max_size=6,
    ),
    st.sampled_from(["drawn", "ascending", "stream"]),
)


def _ascending(column):
    return sorted({entry[0]: entry for entry in column}.values())


def _stream_columns(columns):
    """Each column as a ``ColumnStore`` holds it after arrivals: the first
    half of its entries as an ascending base, then the rest as drawn (an
    arrival tail in any order), then a repeat of its first user and the
    previous column's first user, which neighbouring columns so share."""
    shaped, previous = [], []
    for column in columns:
        half = (len(column) + 1) // 2
        base = _ascending(column[:half])
        shaped.append(base + column[half:] + base[:1] + previous[:1])
        previous = base
    return shaped


def _shard_arrays(columns, shape):
    if shape == "ascending":
        columns = [_ascending(column) for column in columns]
    elif shape == "stream":
        columns = _stream_columns(columns)
    flat = [entry for column in columns for entry in column]
    indptr = np.cumsum([0] + [len(column) for column in columns])
    return (
        indptr.astype(np.int64),
        np.array([user for user, _, _ in flat], dtype=np.int64),
        np.array([rating for _, rating, _ in flat], dtype=np.float64),
        np.array([count for _, _, count in flat], dtype=np.int64),
    )


#: A slack layout for a shard of up to 6 columns: the free slots after
#: each column, and the order the columns sit in the buffers.
_LAYOUTS = st.one_of(
    st.none(),
    st.tuples(
        st.lists(st.integers(0, 3), min_size=6, max_size=6),
        st.permutations(range(6)),
    ),
)

#: What a slack slot holds: a rating a kernel that read past ``ends``
#: would train on, and a counter it would move.
_SLACK_RATING, _SLACK_COUNT = 99.0, 5


def _with_slack(indptr, users, ratings, counts, layout):
    """The shard laid out as a ``ColumnStore`` keeps one: the columns in
    ``layout``'s order, each followed by its free slots.  Returns the
    arrays ``bind_tokens(..., ends=ends)`` takes, in that order with
    ``ends`` last, and the buffer slot of every rating of the plain
    layout."""
    gaps, order = layout
    n_items = indptr.size - 1
    lengths = np.diff(indptr)
    starts = np.empty(n_items + 1, dtype=np.int64)
    top = 0
    for j in (j for j in order if j < n_items):
        starts[j] = top
        top += lengths[j] + gaps[j]
    starts[n_items] = top
    slots = np.concatenate(
        [np.arange(starts[j], starts[j] + lengths[j]) for j in range(n_items)]
    ).astype(np.int64)
    slack_users = np.zeros(top, dtype=np.int64)
    slack_ratings = np.full(top, _SLACK_RATING)
    slack_counts = np.full(top, _SLACK_COUNT, dtype=np.int64)
    slack_users[slots], slack_ratings[slots] = users, ratings
    slack_counts[slots] = counts
    ends = starts[:-1] + lengths
    return (starts, slack_users, slack_ratings, slack_counts, ends), slots


def _bit_fixture(n_items: int):
    rng = np.random.default_rng(11)
    return rng.random((_N_USERS, _K)), rng.random((n_items, _K))


#: The bound kernels held to the reference bit for bit: ``cext``, whose
#: arithmetic is the reference's operation for operation, and the
#: interpreted bound kernel over the same arrays.
BIT_EXACT_BACKENDS = ["list", pytest.param("cext", marks=needs_cext)]


class _UnknownToC(HuberLoss):
    """A Loss C has no id for: bound under ``cext``, it gets the
    interpreted kernel."""

    def __repr__(self) -> str:
        return f"_UnknownToC(delta={self.delta})"


#: The loss a kernel is bound with: the square loss (``None``), each loss
#: C has an id for, and one it has not.
_LOSSES = st.sampled_from(
    [None, AbsoluteLoss(), HuberLoss(delta=0.5), _UnknownToC(delta=0.5)]
)


class TestBitForBit:
    """``np.array_equal`` against looping the reference column core
    under the bound loss — what lets the C kernels memoise the step and
    pair columns."""

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @settings(max_examples=300, deadline=None)
    @given(
        shard=_SHARDS,
        burst=st.lists(st.integers(0, 10**6), max_size=9),
        loss=_LOSSES,
        layout=_LAYOUTS,
    )
    # Column 0 comes out as users [1, 2, 3, 4, 5, 6, 1], column 1 as
    # [7, 7, 1]: paired in that order, column 1's rating of user 1 must
    # wait for column 0's second one, past a first that a flag per user
    # would take as the last.
    @example(
        shard=([[(u, 1.0 + u / 4, 0) for u in range(1, 7)], [(7, 2.5, 8)]],
               "stream"),
        burst=[0, 1], loss=None, layout=None,
    )
    def test_process_tokens_equals_looped_reference(
        self, name, shard, burst, loss, layout
    ):
        """Any CSC with in-range users in any of the three shapes, any
        burst (repeats, adjacent repeats, odd length, length 0 / 1),
        counters mixed inside a column, any loss, and the same columns
        laid out with slack (``ends=``: columns out of order, free slots
        a kernel must neither read nor write).  Fails on a ``cext`` that
        lets a column's rating of a user run before the previous
        column's last rating of that user (marks that only flag a user
        fail the ``@example``), that pairs under a loss other than the
        square loss, or that reads a column past its end."""
        indptr, users, ratings, counts = _shard_arrays(*shard)
        n_items = indptr.size - 1
        burst = [j % n_items for j in burst]
        w, h = _bit_fixture(n_items)
        (w_l, h_l), _ = _stores(w, h)
        counts_l = counts.tolist()
        expected = _looped_reference(
            w_l, h_l, indptr, users, ratings, counts_l, burst, loss
        )
        bind = get_backend(name).bind_tokens
        if layout is None:
            kernel = bind(
                w, h, indptr, users, ratings, counts, ALPHA, BETA, LAMBDA,
                loss,
            )
            bound_counts, slots = counts, np.arange(counts.size)
        else:
            (*arrays, ends), slots = _with_slack(
                indptr, users, ratings, counts, layout
            )
            kernel = bind(
                w, h, *arrays[:4], ALPHA, BETA, LAMBDA, loss, ends=ends
            )
            bound_counts = arrays[3]
        assert kernel.process_tokens(np.array(burst, dtype=np.int64)) == expected
        assert np.array_equal(np.asarray(w_l), w)
        assert np.array_equal(np.asarray(h_l), h)
        assert counts_l == bound_counts[slots].tolist()
        slack = np.ones(bound_counts.size, dtype=bool)
        slack[slots] = False
        assert np.all(bound_counts[slack] == _SLACK_COUNT)

    @needs_cext
    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, _N_USERS - 1), st.integers(0, 4), _RATINGS,
                _COUNTERS,
            ),
            max_size=12,
        ),
        order=st.lists(st.integers(0, 10**6), max_size=20),
    )
    def test_cext_process_entries_equals_reference(self, entries, order):
        """Non-uniform counters, and an order that may visit an entry
        twice (its counter moves between the visits)."""
        rows = [i for i, _, _, _ in entries]
        cols = [j for _, j, _, _ in entries]
        vals = [a for _, _, a, _ in entries]
        order = [idx % len(entries) for idx in order] if entries else []
        w, h = _bit_fixture(5)
        (w_l, h_l), (w_n, h_n) = _stores(w, h)
        counts_l = [t for _, _, _, t in entries]
        counts_n = np.array(counts_l, dtype=np.int64)
        a = ListBackend().process_entries(
            w_l, h_l, rows, cols, vals, counts_l, ALPHA, BETA, LAMBDA, order
        )
        b = get_backend("cext").process_entries(
            w_n, h_n, np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(vals), counts_n,
            ALPHA, BETA, LAMBDA, np.array(order, dtype=np.int64),
        )
        assert a == b == len(order)
        assert np.array_equal(np.asarray(w_l), w_n)
        assert np.array_equal(np.asarray(h_l), h_n)
        assert counts_l == counts_n.tolist()


#: Draw bounds: small ones, the edges of a bit length (where rejection
#: is most and least frequent), and anything below 2**32.
_BOUNDS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([2**16, 2**16 + 1, 2**31, 2**31 + 1, 2**32 - 1]),
    st.integers(1, 2**32 - 1),
)
#: Seeds, and how many 32-bit words the source generator draws before
#: the stream copies its state: the copy may start anywhere in the
#: 624-word block, at its end included.
_SEEDS = st.integers(0, 2**64)
_WARMUP = st.integers(0, 700)


def _source(seed: int, warmup: int) -> random.Random:
    rng = random.Random(seed)
    for _ in range(warmup):
        rng.getrandbits(32)
    return rng


def _assert_same_state(stream, reference: random.Random) -> None:
    """Equal ``getstate()``, and the next draw of a generator restored
    from the stream's state is the reference's."""
    assert stream.getstate() == reference.getstate()
    follower = random.Random()
    follower.setstate(stream.getstate())
    assert follower.random() == reference.random()


class TestDrawStream:
    """A backend's draw stream makes CPython's ``random`` draws, value
    for value and state for state — what lets ``cext`` take the dynamic
    sweep's routing and the baselines' shuffles into C without moving a
    digest."""

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, warmup=_WARMUP, n=_BOUNDS,
           count=st.integers(0, 3000))
    def test_randrange_and_randbelow_many(self, name, seed, warmup, n, count):
        reference = _source(seed, warmup)
        stream = get_backend(name).rng_stream(reference)
        assert stream.getstate() == reference.getstate()
        assert [stream.randrange(n) for _ in range(3)] == [
            reference.randrange(n) for _ in range(3)
        ]
        draws = stream.randbelow_many(n, count)
        assert draws.dtype == np.int64 and draws.shape == (count,)
        assert draws.tolist() == [reference.randrange(n) for _ in range(count)]
        _assert_same_state(stream, reference)

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, warmup=_WARMUP, length=st.integers(0, 10_000),
           offset=st.integers(-(2**62), 2**62))
    def test_shuffle(self, name, seed, warmup, length, offset):
        reference = _source(seed, warmup)
        stream = get_backend(name).rng_stream(reference)
        buffer = np.arange(length, dtype=np.int64) + offset
        expected = buffer.tolist()
        stream.shuffle(buffer)
        reference.shuffle(expected)
        assert buffer.tolist() == expected
        _assert_same_state(stream, reference)

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @settings(max_examples=300, deadline=None)
    @given(seed=_SEEDS, warmup=_WARMUP, data=st.data(),
           as_range=st.booleans())
    def test_sample(self, name, seed, warmup, data, as_range):
        """Both of CPython's branches: ``k`` across the set-size
        threshold (21 for ``k`` ≤ 5, then 21 + 4**ceil(log4(3k)))."""
        n = data.draw(st.one_of(st.integers(0, 30), st.integers(0, 2000)))
        k = data.draw(st.integers(0, min(n, 200)))
        population = range(n) if as_range else [f"item{i}" for i in range(n)]
        reference = _source(seed, warmup)
        stream = get_backend(name).rng_stream(reference)
        assert stream.sample(population, k) == reference.sample(population, k)
        _assert_same_state(stream, reference)

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    def test_source_is_not_advanced(self, name):
        source = random.Random(3)
        before = source.getstate()
        get_backend(name).rng_stream(source).randbelow_many(5, 100)
        assert source.getstate() == before

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    def test_shuffle_takes_a_contiguous_row_in_place(self, name):
        table = np.tile(np.arange(6, dtype=np.int64), (3, 1))
        expected = list(range(6))
        reference = random.Random(8)
        stream = get_backend(name).rng_stream(reference)
        stream.shuffle(table[1])
        reference.shuffle(expected)
        assert table[1].tolist() == expected
        assert table[0].tolist() == table[2].tolist() == list(range(6))

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @pytest.mark.parametrize(
        "buffer",
        [
            np.arange(6, dtype=np.float64),
            np.arange(6, dtype=np.int32),
            np.arange(12, dtype=np.int64)[::2],
            np.arange(12, dtype=np.int64).reshape(3, 4)[:, 1],
            list(range(6)),
            b"abcdefgh",
        ],
        ids=["float64", "int32", "strided", "column", "list", "bytes"],
    )
    def test_shuffle_refuses_other_buffers(self, name, buffer):
        stream = get_backend(name).rng_stream(random.Random(0))
        with pytest.raises(TypeError, match="int64"):
            stream.shuffle(buffer)
        read_only = np.arange(6, dtype=np.int64)
        read_only.setflags(write=False)
        with pytest.raises(TypeError, match="int64"):
            stream.shuffle(read_only)
        assert stream.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    @pytest.mark.parametrize("bound", [2**32, 2**40, 2**64, 0, -1])
    def test_bounds_outside_the_word_raise(self, name, bound):
        stream = get_backend(name).rng_stream(random.Random(0))
        with pytest.raises(ValueError, match=r"\[1, 2\*\*32\)"):
            stream.randrange(bound)
        with pytest.raises(ValueError, match=r"\[1, 2\*\*32\)"):
            stream.randbelow_many(bound, 1)
        assert stream.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("name", BIT_EXACT_BACKENDS)
    def test_sample_refusals_match_random(self, name):
        stream = get_backend(name).rng_stream(random.Random(0))
        with pytest.raises(ValueError, match="larger than population"):
            stream.sample(range(3), 4)
        with pytest.raises(ValueError, match="negative"):
            stream.sample(range(3), -1)
        with pytest.raises(TypeError, match="sequence"):
            stream.sample({1, 2, 3}, 1)


class TestSimulationEquivalence:
    """Whole optimizer runs are backend-independent."""

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_nomad_matches_across_backends(self, small_split, other):
        train, test = small_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        traces = {}
        factors = {}
        for backend in ("list", other):
            run = RunConfig(
                duration=0.005, eval_interval=0.001, seed=3,
                kernel_backend=backend,
            )
            sim = NomadSimulation(train, test, cluster, hyper, run)
            assert sim.kernel_backend == backend
            traces[backend] = sim.run()
            factors[backend] = sim.factors
        assert np.allclose(
            factors["list"].w, factors[other].w, atol=1e-8
        )
        assert np.allclose(
            factors["list"].h, factors[other].h, atol=1e-8
        )
        rmse_l = [r.rmse for r in traces["list"].records]
        rmse_n = [r.rmse for r in traces[other].records]
        assert np.allclose(rmse_l, rmse_n, atol=1e-8)

    @needs_cext
    @pytest.mark.parametrize("optimizer", [DSGDSimulation, HogwildSimulation])
    def test_baselines_match_across_backends(self, small_split, optimizer):
        train, test = small_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        finals = {}
        for backend in ("list", "cext"):
            run = RunConfig(
                duration=0.004, eval_interval=0.001, seed=5,
                kernel_backend=backend,
            )
            opt = optimizer(train, test, cluster, hyper, run)
            trace = opt.run()
            finals[backend] = (opt.factors, trace.final_rmse())
        assert np.array_equal(finals["list"][0].w, finals["cext"][0].w)
        assert np.array_equal(finals["list"][0].h, finals["cext"][0].h)
        assert finals["list"][1] == finals["cext"][1]


class TestSelection:
    def test_registry_names(self):
        assert set(BACKENDS) == {"list", "cext"}
        assert isinstance(get_backend("list"), ListBackend)
        if cext_available():
            assert isinstance(get_backend("cext"), CextBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_backend("cython")
        with pytest.raises(ConfigError):
            resolve_backend("gpu")
        with pytest.raises(ConfigError):
            get_backend("numpy")

    @needs_cext
    def test_auto_prefers_cext_when_available(self):
        assert isinstance(resolve_backend("auto"), CextBackend)
        # k= and storage= are accepted and steer nothing.
        assert isinstance(
            resolve_backend("auto", k=128, storage="ndarray"), CextBackend
        )

    def test_auto_falls_back_to_list(self, monkeypatch):
        # Mask the toolchain: "auto" is the interpreted reference, at
        # every k, exactly as on a box with no compiler.
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        assert isinstance(resolve_backend("auto"), ListBackend)
        assert isinstance(
            resolve_backend("auto", k=128, storage="ndarray"), ListBackend
        )

    def test_auto_selects_by_k(self, monkeypatch):
        # No k crossover any more: "auto" picks one backend at every k.
        ks = (1, 4, 16, 64, 128, 1024)
        expected = type(resolve_backend("auto"))
        for k in ks:
            assert type(resolve_backend("auto", k=k)) is expected
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        for k in ks:
            assert isinstance(resolve_backend("auto", k=k), ListBackend)

    def test_auto_prefers_numpy_for_ndarray_storage(self, monkeypatch):
        # The storage crossover to a numpy backend is retired: factors
        # are ndarrays on every backend, so storage= steers nothing.
        expected = type(resolve_backend("auto"))
        for storage in ("", "list", "ndarray"):
            assert type(resolve_backend("auto", storage=storage)) is expected
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        assert isinstance(
            resolve_backend("auto", k=4, storage="ndarray"), ListBackend
        )
        # An explicit choice is taken as given, whatever the storage.
        assert isinstance(
            resolve_backend("list", k=4, storage="ndarray"), ListBackend
        )

    def test_none_consults_env_var(self, monkeypatch):
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        monkeypatch.delenv("NOMAD_KERNEL_BACKEND", raising=False)
        assert isinstance(resolve_backend(None), ListBackend)
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "cext")
        with pytest.raises(ConfigError, match="'cext' is unavailable"):
            resolve_backend(None)
        # Explicit names ignore the environment entirely.
        assert isinstance(resolve_backend("list"), ListBackend)

    def test_run_config_validates_backend(self):
        assert RunConfig().kernel_backend in ("auto", "cext", "list")
        assert RunConfig(kernel_backend="list").kernel_backend == "list"
        # "cext" is always a *valid* setting (even with no toolchain);
        # availability is enforced at backend resolution, with a clean
        # ConfigError instead of a mid-fit crash.
        assert RunConfig(kernel_backend="cext").kernel_backend == "cext"
        with pytest.raises(ConfigError):
            RunConfig(kernel_backend="fortran")
        with pytest.raises(ConfigError):
            RunConfig(kernel_backend="numpy")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "list")
        assert RunConfig().kernel_backend == "list"
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "bogus")
        with pytest.raises(ConfigError):
            RunConfig()
        monkeypatch.delenv("NOMAD_KERNEL_BACKEND")
        assert RunConfig().kernel_backend == "auto"

    def test_simulation_uses_configured_backend(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(duration=0.002, eval_interval=0.001,
                        kernel_backend="list")
        sim = NomadSimulation(train, test, cluster, hyper, run)
        assert isinstance(sim._backend, ListBackend)
        assert isinstance(sim._w, np.ndarray)
        if cext_available():
            run_cext = run.with_(kernel_backend="cext")
            sim_cext = NomadSimulation(train, test, cluster, hyper, run_cext)
            assert isinstance(sim_cext._backend, CextBackend)
            assert isinstance(sim_cext._w, np.ndarray)


class TestMaxUpdatesHalt:
    def test_trace_ends_at_halt_time(self, tiny_split):
        """max_updates halts must not pad the trace until `duration`."""
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(
            duration=0.05, eval_interval=0.001, seed=7, max_updates=500
        )
        sim = NomadSimulation(train, test, cluster, hyper, run)
        trace = sim.run()
        assert sim.total_updates >= 500
        final_time = trace.records[-1].time
        # The halt fires long before the duration budget at this scale.
        assert final_time < run.duration / 2
        # No post-halt padding: times strictly increase and the last
        # point is the halt stamp itself, not a scheduled grid point.
        times = [r.time for r in trace.records]
        assert times == sorted(set(times))

    def test_unhalted_run_still_records_until_duration(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(duration=0.004, eval_interval=0.001, seed=7)
        sim = NomadSimulation(train, test, cluster, hyper, run)
        trace = sim.run()
        assert trace.records[-1].time == pytest.approx(run.duration)
