"""Demonstration of NOMAD's serializability versus Hogwild-style races.

The paper's §4.3 distinguishes NOMAD from asynchronous fixed-point methods
(Hogwild!, ASGD): those are lock-free but *non-serializable* — no serial
execution is equivalent to what they computed.  NOMAD is both lock-free and
serializable.

This script makes the distinction concrete:

1. runs NOMAD with its visit log on and verifies its conflict graph is
   acyclic, then *replays the log serially* through the run's own kernel
   and checks that the replay reproduces NOMAD's factors bit for bit
   (the script exits non-zero if it does not);
2. runs a Hogwild-style execution with stale snapshot reads and shows its
   conflict graph contains cycles — no equivalent serial order exists.

Run with::

    python examples/serializability_demo.py
"""

from __future__ import annotations

import sys

import numpy as np

import repro
from repro import (
    Cluster,
    HPC_PROFILE,
    HyperParams,
    NomadOptions,
    RngFactory,
    RunConfig,
    SyntheticSpec,
    conflict_graph,
    init_factors,
    is_serializable,
    make_low_rank,
    train_test_split,
)

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)


def main() -> None:
    rng = RngFactory(5)
    full = make_low_rank(
        SyntheticSpec(n_rows=120, n_cols=60, rank=2, density=0.15),
        rng.stream("data"),
    )
    train, test = train_test_split(full, 0.2, rng.stream("split"))
    run = RunConfig(duration=0.004, eval_interval=0.001, seed=5)

    # --- NOMAD: asynchronous AND serializable --------------------------
    # The facade's FitResult keeps the underlying simulation on `.raw`,
    # so power-user diagnostics like the update log stay reachable.
    nomad_result = repro.fit(
        train, test,
        algorithm="nomad",
        engine="simulated",
        hyper=HYPER,
        run=run,
        cluster=Cluster(2, 2, HPC_PROFILE),
        options=NomadOptions(record_updates=True),
    )
    sim = nomad_result.raw
    log = sim.update_log
    graph = conflict_graph(log)
    print(f"NOMAD: {len(log):,} logged updates in {len(sim.visits):,} "
          f"token visits from 4 workers")
    print(f"  conflict graph: {len(graph):,} nodes, "
          f"{sum(map(len, graph.values())):,} edges")
    print(f"  serializable: {is_serializable(log)}")

    # The same start the run drew from its seed, then the visits one
    # worker burst at a time through the kernel backend the run used.
    start = init_factors(
        train.n_rows, train.n_cols, HYPER.k, RngFactory(run.seed).stream("init")
    )
    replayed = repro.replay(
        sim.visits, sim.shards, start, HYPER, sim.kernel_backend
    )
    final = nomad_result.factors
    matches = np.array_equal(replayed.w, final.w) and np.array_equal(
        replayed.h, final.h
    )
    print(f"  serial replay reproduces the parallel result bit for bit: "
          f"{matches}")
    if not matches:
        sys.exit("serial replay differs from the asynchronous run")

    # --- Hogwild: asynchronous but NOT serializable --------------------
    # Algorithm-specific constructor keywords pass straight through fit().
    hogwild_result = repro.fit(
        train, test,
        algorithm="hogwild",
        engine="simulated",
        hyper=HYPER,
        run=run,
        cluster=Cluster(1, 4, HPC_PROFILE),
        refresh_period=16, record_updates=True,
    )
    hogwild_log = hogwild_result.raw.update_log
    stale = sum(1 for event in hogwild_log if event.stale_read != -1)
    print(f"\nHogwild: {len(hogwild_log):,} logged updates, "
          f"{stale:,} stale reads")
    print(f"  serializable: {is_serializable(hogwild_log)}")
    print("\n(NOMAD's owner-computes rule is what guarantees the acyclic "
          "conflict graph: every parameter has exactly one writer at any "
          "instant, so no update can ever observe a torn or stale value.)")


if __name__ == "__main__":
    main()
