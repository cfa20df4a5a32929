"""Demonstration of NOMAD's serializability versus Hogwild-style races.

The paper's §4.3 distinguishes NOMAD from asynchronous fixed-point methods
(Hogwild!, ASGD): those are lock-free but *non-serializable* — no serial
execution is equivalent to what they computed.  NOMAD is both lock-free and
serializable.

This script makes the distinction concrete:

1. runs NOMAD with full update logging and verifies its conflict graph is
   acyclic, then *replays the log serially* and shows the replay reproduces
   NOMAD's factors bit-for-bit;
2. runs a Hogwild-style execution with stale snapshot reads and shows its
   conflict graph contains cycles — no equivalent serial order exists.

Run with::

    python examples/serializability_demo.py
"""

from __future__ import annotations

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
    serial_order,
    train_test_split,
)

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)


def replay_serially(events, train, hyper, seed):
    """Apply a logged update sequence one-at-a-time on fresh factors."""
    ratings = {
        (int(i), int(j)): float(v)
        for i, j, v in zip(train.rows, train.cols, train.vals)
    }
    factors = init_factors(
        train.n_rows, train.n_cols, hyper.k, RngFactory(seed).stream("init")
    )
    w, h = factors.w, factors.h
    for event in events:
        step = hyper.alpha / (1.0 + hyper.beta * event.count ** 1.5)
        error = float(np.dot(w[event.row], h[event.col])) - ratings[
            (event.row, event.col)
        ]
        scaled = step * error
        decay = 1.0 - step * hyper.lambda_
        w_new = decay * w[event.row] - scaled * h[event.col]
        h_new = decay * h[event.col] - scaled * w[event.row]
        w[event.row] = w_new
        h[event.col] = h_new
    return factors


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
    log = nomad_result.raw.update_log
    graph = conflict_graph(log)
    print(f"NOMAD: {len(log):,} logged updates from 4 workers")
    print(f"  conflict graph: {len(graph):,} nodes, "
          f"{sum(map(len, graph.values())):,} edges")
    print(f"  serializable: {is_serializable(log)}")

    replayed = replay_serially(serial_order(log), train, HYPER, seed=5)
    final = nomad_result.factors
    matches = np.allclose(replayed.w, final.w, atol=1e-9) and np.allclose(
        replayed.h, final.h, atol=1e-9
    )
    print(f"  serial replay reproduces the parallel result exactly: {matches}")

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
