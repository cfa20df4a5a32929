"""``python -m bench.compare A.json B.json`` — do two sets of runs agree?

For every (workload, end-to-end metric) pair prints both medians, how
much worse B is than A (negative = better), the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``agree``      — B's median is no worse than A's by more than the bound;
* ``regress``    — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound and the two sides' runs interleave, so the medians settle
  nothing (not the same as unchanged).

Count metrics that must repeat exactly (update counts, simulated
seconds, deterministic RMSEs) and the input hashes are compared for
equality when both files used the same seed.  Exit code 1 unless every
pair agrees and every count is equal.
"""

from __future__ import annotations

import json
import sys

from .run import load_spec

__all__ = ["verdict", "compare", "main"]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative worsening of B against A) for one metric;
    ``a``/``b`` are the summary blocks of ``bench/out/<run-id>.json``."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(
        a["iqr"] / abs(a["median"]), b["iqr"] / abs(b["median"])
    )
    if spread > bound:
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        if max(b_vals) < min(a_vals):  # every B run beats every A run
            return "agree", worse
        if not (min(b_vals) > max(a_vals) and worse > bound):
            return "unresolved", worse
    return ("regress" if worse > bound else "agree"), worse


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> bool:
    ok = True
    same_seed = a["seed"] == b["seed"] and a["runs"] == b["runs"]
    print(f"A: {a['run_id']} commit {a['commit']}  "
          f"B: {b['run_id']} commit {b['commit']}", file=out)
    print(f"{'workload':15s} {'metric':12s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s}  verdict", file=out)
    # Every workload either file holds: the driver's (BENCHMARK.json)
    # and the extended ones alike.
    for workload in list(a["workloads"]) + [
        w for w in b["workloads"] if w not in a["workloads"]
    ]:
        side_a = a["workloads"].get(workload)
        side_b = b["workloads"].get(workload)
        if side_a is None or side_b is None:
            print(f"{workload:15s} missing from one file", file=out)
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in side_a["metrics"] or name not in side_b["metrics"]:
                print(f"{workload:15s} {name:12s} missing", file=out)
                ok = False
                continue
            block_a, block_b = side_a["metrics"][name], side_b["metrics"][name]
            result, worse = verdict(
                block_a, block_b, metric["better"], metric["bound"]
            )
            ok &= result == "agree"
            print(f"{workload:15s} {name:12s} {block_a['median']:12.5g} "
                  f"{block_b['median']:12.5g} {worse:+10.1%} "
                  f"{metric['bound']:6.0%}  {result}", file=out)
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side["failed"]:
                ok = False
                print(f"{workload:15s} fail_share {label}: {side['failed']}/"
                      f"{side['attempted']}: {side['errors'][:3]}", file=out)
        if same_seed:
            equal = (
                side_a["exact"] == side_b["exact"]
                and side_a["input_hashes"] == side_b["input_hashes"]
            )
            ok &= equal
            counts = ", ".join(sorted(side_a["exact"][0])) or "input hash"
            print(f"{workload:15s} exact        {counts}: "
                  f"{'equal' if equal else 'DIFFER'}", file=out)
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    return 0 if compare(sides[0], sides[1], load_spec()) else 1


if __name__ == "__main__":
    sys.exit(main())
