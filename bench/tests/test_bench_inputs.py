"""Inputs come from --seed alone: same seed, same bytes."""

import pytest

pytest.importorskip("repro")

from bench import workloads  # noqa: E402


def _hash(name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name].sized(True)
    if workload.kind == "fit":
        inputs = workloads.make_fit_inputs(workload, seed)
        return workloads.content_hash(inputs.train, inputs.test)
    if workload.kind == "stream":
        return workloads.content_hash(workloads.make_stream_matrix(workload, seed))
    inputs = workloads.make_serve_inputs(workload, seed)
    return workloads.content_hash(inputs.warmup, inputs.test, inputs.fresh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_different_seed_different_inputs(name):
    assert _hash(name, 3) == _hash(name, 3)
    assert _hash(name, 3) != _hash(name, 4)


def test_workloads_do_not_share_a_random_stream():
    # mp-sparse and cluster-sparse have one shape; their inputs still differ.
    assert _hash("mp-sparse", 0) != _hash("cluster-sparse", 0)


def test_serve_inputs_partition_the_generated_ratings():
    workload = workloads.WORKLOADS["serve-mixed"].sized(True)
    inputs = workloads.make_serve_inputs(workload, 0)
    cells = [
        set(zip(m.rows.tolist(), m.cols.tolist()))
        for m in (inputs.warmup, inputs.test, inputs.fresh)
    ]
    assert not (cells[0] & cells[1] or cells[0] & cells[2] or cells[1] & cells[2])
    assert inputs.warmup.shape == inputs.test.shape == inputs.fresh.shape
