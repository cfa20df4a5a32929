"""Compiled SGD backend — C inner loops over ndarray factors, called
through a native extension type.

The interpreted reference pays Python-interpreter overhead *per
rating*; this backend runs the whole inner loop in C (``nomad_kernels.c``
behind ``nomad_module.c``, built on demand by :mod:`.cext_build`), so
the per-update cost drops to the raw arithmetic.  Factors are plain
``float64`` ndarrays, which the shared-memory runtimes and cluster
workers hand straight to C through the buffer protocol with **zero
copies**; an array of another dtype or layout is converted on the way in
and written back on the way out.

Two properties worth knowing:

* **Bit-compatibility** — the C loops replicate the reference core
  operation for operation and are compiled with ``-ffp-contract=off``
  (and, in the AVX2 build the module picks where the CPU has it,
  ``-mno-fma``), so they equal the list reference bit for bit
  (``tests/test_backends.py::TestBitForBit``).
* **True parallelism** — a burst (``process_tokens``) and an entries
  sweep release the GIL while they run.  NOMAD's owner-computes rule
  makes concurrent kernel calls touch disjoint rows, so the threaded
  runtime gets genuine multi-core scaling out of this backend, not just
  a faster serial loop.

The burst path is :meth:`CextBackend.bind_tokens`: the module's
``Kernels.bind`` checks the worker's factors and CSC shard once — dtypes,
contiguity, the CSC shape, the user range — and holds their buffers in
a native ``TokenKernel`` together with the loss (``_loss_id``'s ``(loss_id,
param)``: square, absolute or Huber).  From then on a burst of item ids
is one ``METH_O`` call on that object, and a single token another.
A :class:`~repro.linalg.losses.Loss` C has no id for is bound to the
interpreted ``list`` kernel instead.  A burst is *defined* as its
columns run one after another; the C gets there faster without changing
a bit (see ``nomad_kernels.c``): under the square loss it runs two
columns at a time in conflict order, on any shard, a per-user stamp of
where the first column's last rating of that user lies deciding which
of the second column's ratings may run beside the first's.  :meth:`process_column` and the
inherited :meth:`~.base.KernelBackend.process_column_batch` are the
legacy per-column entries; nothing in ``src/`` calls them any more.

:meth:`CextBackend.rng_stream` hands out the module's ``MTStream``:
CPython's Mersenne Twister started from a ``random.Random``'s state,
whose ``randrange`` / ``randbelow_many`` / ``shuffle`` / ``sample`` draw
exactly what that object's would, at C prices.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...errors import ConfigError
from ..losses import AbsoluteLoss, HuberLoss, Loss, SquaredLoss
from . import cext_build
from .base import KernelBackend, TokenKernel

__all__ = ["CextBackend", "CextTokenKernel"]

#: counts placeholder for the constant-step entries call (never read: the
#: C loop only dereferences counts when scheduled).
_NO_COUNTS = np.zeros(1, dtype=np.int64)


def _conform(x: Any, dtype, writebacks: list | None) -> np.ndarray:
    """Contiguous ``dtype`` array for ``x``; no copy when already conformant.

    When a copy *was* made and ``writebacks`` is given, the (original,
    copy) pair is recorded so mutations can be propagated back — kernels
    mutate ``w``/``h_col``/``counts`` in place by contract, and a caller
    holding its counters in a list must observe them.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr is not x and writebacks is not None:
        writebacks.append((x, arr))
    return arr


def _write_back(writebacks: list) -> None:
    for original, arr in writebacks:
        if isinstance(original, np.ndarray):
            original[...] = arr
        else:  # a list of counters
            original[:] = arr.tolist()


def _loss_id(loss: Loss) -> tuple[int, float] | None:
    """(loss_id, param) for the losses ``loss_gradient`` in C knows; None
    otherwise."""
    if type(loss) is SquaredLoss:
        return 0, 0.0
    if type(loss) is AbsoluteLoss:
        return 1, 0.0
    if type(loss) is HuberLoss:
        return 2, loss.delta
    return None


class CextBackend(KernelBackend):
    """The reference loop compiled to C, called through a native type."""

    name = "cext"

    @classmethod
    def ensure_available(cls) -> None:
        """Raise :class:`ConfigError` when the toolchain can't serve us.

        Called by the registry before every hand-out, so an explicit
        ``kernel_backend="cext"`` on a toolchain-less box fails at
        configuration time with the fallback spelled out — never midway
        through a fit.
        """
        reason = cext_build.cext_unavailable_reason()
        if reason is not None:
            raise ConfigError(
                f"kernel backend 'cext' is unavailable: {reason}. "
                "Use kernel_backend='auto' (or unset $NOMAD_KERNEL_BACKEND) "
                "to fall back to the interpreted 'list' backend."
            )

    def __init__(self) -> None:
        type(self).ensure_available()
        module = cext_build.load_library()
        self._kernels = module.kernels
        self._stream_type = module.MTStream

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def process_column(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_
    ) -> int:
        if len(user_rows) == 0:
            return 0
        writebacks: list = []
        applied = self._kernels.process_column(
            _conform(w, np.float64, writebacks),
            _conform(h_col, np.float64, writebacks),
            _conform(user_rows, np.int64, None),
            _conform(ratings, np.float64, None),
            _conform(counts, np.int64, writebacks),
            alpha, beta, lambda_,
        )
        _write_back(writebacks)
        return applied

    def bind_tokens(
        self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
        loss: Loss | None = None, ends: np.ndarray | None = None,
    ) -> TokenKernel:
        dispatch = (0, 0.0) if loss is None else _loss_id(loss)
        if dispatch is None:
            # A Loss C has no id for: its gradient is Python code, which
            # the interpreted reference kernel runs.
            from . import get_backend

            return get_backend("list").bind_tokens(
                w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
                loss, ends,
            )
        return CextTokenKernel(
            self._kernels, w, h, indptr, users, ratings, counts,
            alpha, beta, lambda_, *dispatch, ends,
        )

    def rng_stream(self, rng):
        return self._stream_type(rng.getstate())

    def _entries_call(
        self, w, h, entry_rows, entry_cols, ratings, counts, order,
        alpha, beta, lambda_, step, scheduled: bool,
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        writebacks: list = []
        applied = self._kernels.process_entries(
            _conform(w, np.float64, writebacks),
            _conform(h, np.float64, writebacks),
            _conform(entry_rows, np.int64, None),
            _conform(entry_cols, np.int64, None),
            _conform(ratings, np.float64, None),
            _conform(counts, np.int64, writebacks) if scheduled else _NO_COUNTS,
            _conform(order, np.int64, None),
            alpha, beta, lambda_, step, scheduled,
        )
        _write_back(writebacks)
        return applied

    def process_entries(
        self, w, h, entry_rows, entry_cols, ratings, counts, alpha, beta,
        lambda_, order,
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, counts, order,
            alpha, beta, lambda_, 0.0, True,
        )

    def process_entries_const(
        self, w, h, entry_rows, entry_cols, ratings, step, lambda_, order
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, None, order,
            0.0, 0.0, lambda_, step, False,
        )


class CextTokenKernel(TokenKernel):
    """One native call per burst or per token.  The module's
    ``Kernels.bind`` checks the arrays and holds their buffers in a
    native ``TokenKernel`` beside the ``(loss_id, param)`` of the loss
    every column runs under; its two methods become this object's, so a
    call goes straight from the caller into C."""

    #: 1.3-2.4 ms of native code at the 20-37 ns an update the paired
    #: walk runs at on the benchmark shards (k = 8 to 32, AVX2 build;
    #: 22-53 ns plain): long enough that the caller's ≈20 µs of
    #: interpreter per burst stop showing and that a dense shard's
    #: bursts are tens of columns, so the paired walk seldom has an odd
    #: one out (half this budget, 11 columns on the mp-dense shard,
    #: measured 4% slower there); short enough that a stop is seen at
    #: once.
    burst_updates = 65536

    def __init__(
        self, kernels, w, h, indptr, users, ratings, counts,
        alpha, beta, lambda_, loss_id, loss_param, ends,
    ):
        super().__init__(
            w, h, indptr, users, ratings, counts, alpha, beta, lambda_
        )
        self._bound = kernels.bind(
            w, h, indptr, users, ratings, counts, loss_id,
            alpha, beta, lambda_, loss_param, ends,
        )
        # The hot calls are the native methods themselves: these instance
        # attributes shadow the delegating methods below, so no Python
        # frame sits between a caller and C.
        self.process_tokens = self._bound.process_tokens
        self.process_token = self._bound.process_token

    def process_tokens(self, items: np.ndarray) -> int:
        return self._bound.process_tokens(items)

    def process_token(self, item: int) -> int:
        return self._bound.process_token(item)
