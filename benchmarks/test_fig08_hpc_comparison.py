"""Figure 8: HPC cluster — NOMAD vs DSGD vs DSGD++ vs CCD++.

Paper shape: on Netflix and Hugewiki NOMAD converges faster than all
baselines; on Yahoo! Music the methods are close to tied because network
communication dominates (only ~404 ratings per item split over machines).
"""

from __future__ import annotations

_THRESHOLDS = {"netflix": 0.30, "yahoo": 0.80, "hugewiki": 0.30}


def test_fig08(run_figure):
    result = run_figure("fig08")

    for dataset in ("netflix", "hugewiki"):
        threshold = _THRESHOLDS[dataset]
        nomad_time = result.series[f"{dataset}/NOMAD"].time_to_rmse(threshold)
        assert nomad_time is not None
        for competitor in ("DSGD", "DSGD++", "CCD++"):
            other = result.series[f"{dataset}/{competitor}"].time_to_rmse(
                threshold
            )
            # NOMAD is the fastest to the threshold (ties forgiven by 10%).
            assert other is None or nomad_time <= other * 1.1, (
                dataset, competitor)

    # Yahoo: the SGD methods are nearly tied (within 2.5x of each other).
    yahoo_times = {}
    for algo in ("NOMAD", "DSGD", "DSGD++"):
        reached = result.series[f"yahoo/{algo}"].time_to_rmse(
            _THRESHOLDS["yahoo"]
        )
        assert reached is not None, algo
        yahoo_times[algo] = reached
    assert max(yahoo_times.values()) < 2.5 * min(yahoo_times.values())
