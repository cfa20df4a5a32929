"""NOMAD on real threads, processes, and sockets (the GIL story).

The simulator answers scaling questions; this example runs the actual
protocol on live concurrency primitives through the same ``repro.fit``
call — only the ``engine`` string changes:

* ``engine="threaded"`` — real threads passing item ids through token
  rings.  CPython's GIL serializes interpreted numerics, so adding
  threads adds little throughput without the compiled backend; the
  value is that the owner-computes protocol (zero locks on parameters)
  runs verbatim.
* ``engine="multiprocess"`` — worker processes over shared-memory
  factors and rings, the standard CPython workaround.  Parallelism is
  real; the worker loop is the very same function.
* ``engine="cluster"`` — worker processes exchanging serialized token
  envelopes over localhost TCP, no shared memory: the paper's
  multi-machine communication path, paying a real (de)serialization and
  socket cost per hop that §3.5's envelope batching amortizes.

Run with::

    python examples/true_parallelism.py
"""

from __future__ import annotations

import repro
from repro import (
    HyperParams,
    RngFactory,
    RunConfig,
    SyntheticSpec,
    make_low_rank,
    train_test_split,
)

HYPER = HyperParams(k=8, lambda_=0.01, alpha=0.1, beta=0.005)
#: Real wall seconds per run — RunConfig.duration means exactly that on
#: the live engines (and simulated seconds on the simulated engine).
DURATION = 1.5

ENGINE_LABELS = {
    "threaded": "threads (GIL-bound)",
    "multiprocess": "processes (shared mem)",
    "cluster": "sockets (messages)",
}


def main() -> None:
    rng = RngFactory(9)
    full = make_low_rank(
        SyntheticSpec(n_rows=800, n_cols=200, rank=4, density=0.12),
        rng.stream("data"),
    )
    train, test = train_test_split(full, 0.2, rng.stream("split"))
    print(f"dataset: {train.nnz:,} training ratings\n")

    print(f"{'runtime':>22} {'workers':>8} {'updates':>10} "
          f"{'upd/s':>10} {'RMSE':>7}")
    for engine, label in ENGINE_LABELS.items():
        for n_workers in (1, 2, 4):
            result = repro.fit(
                train, test,
                algorithm="nomad",
                engine=engine,
                hyper=HYPER,
                run=RunConfig(duration=DURATION, eval_interval=DURATION,
                              seed=1),
                n_workers=n_workers,
            )
            timing = result.timing
            print(f"{label:>22} {n_workers:>8} {timing.updates:>10,} "
                  f"{timing.updates_per_second:>10,.0f} "
                  f"{result.final_rmse():>7.3f}")

    print("\nreading: threads can never exceed one core's arithmetic "
          "throughput — the GIL\nserializes the float math (adding threads "
          "usually *hurts*, via contention).\nProcesses own their cores, so "
          "they can scale — tokens hop between them through shared-memory "
          "rings, a\nburst per lock, so even sparse columns keep the "
          "kernels busy.  The socket "
          "cluster pays a\nfurther serialization + TCP cost per hop — the "
          "price of needing *no* shared\nmemory at all, which is what lets "
          "the same code span machines.  In every\ncase the protocol is "
          "identical and no parameter ever takes a lock — scaling\nlimits "
          "here are CPython runtime costs, which is exactly why the "
          "repository's\nscaling studies run on the discrete-event "
          "simulator instead.")


if __name__ == "__main__":
    main()
