"""The open-loop scheduler times a request from when it was *due*."""

import itertools

from bench.loadgen import Op, run_ops


class FakeTime:
    """A clock that only moves when someone sleeps or a request runs."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    fake = FakeTime()
    service_time = {0: 0.5}  # the first request stalls for 0.5 s

    def execute(op):
        fake.now += service_time.get(op.tag, 0.01)
        return 200, b""

    ops = [Op("read", due=0.1 * i, method="GET", path="/", tag=i) for i in range(4)]
    done = run_ops(ops, execute, clock=fake.clock, sleep=fake.sleep, origin=100.0)

    assert [d.op.tag for d in done] == [0, 1, 2, 3]
    # Request 1 was due at 0.1 s but could only go out at 0.5 s: it is
    # 0.4 s late, and its latency is 0.41 s, not the 0.01 s it took.
    assert abs(done[1].late - 0.4) < 1e-9
    assert abs(done[1].latency - 0.41) < 1e-9
    assert abs(done[2].latency - 0.32) < 1e-9
    assert abs(done[3].latency - 0.23) < 1e-9
    # Nothing is ever sent before it is due.
    assert all(d.late >= -1e-12 for d in done)


def test_on_time_requests_are_not_late_and_wait_for_their_slot():
    fake = FakeTime()

    def execute(op):
        fake.now += 0.001
        return 200, b""

    ops = [Op("read", due=0.05 * i, method="GET", path="/") for i in range(5)]
    done = run_ops(ops, execute, clock=fake.clock, sleep=fake.sleep, origin=100.0)
    assert all(abs(d.late) < 1e-9 for d in done)
    assert all(abs(d.latency - 0.001) < 1e-9 for d in done)
    assert abs(fake.now - (100.0 + 0.2 + 0.001)) < 1e-9


def test_closed_loop_fills_gaps_and_keeps_scheduled_ops_on_time():
    fake = FakeTime()

    def execute(op):
        fake.now += 0.01
        return 200, b""

    filler = itertools.cycle([Op("read", 0.0, "GET", "/fill")])
    scheduled = [Op("post", due=0.055, method="POST", path="/ratings")]
    done = run_ops(
        scheduled, execute, filler=filler, until=0.1,
        clock=fake.clock, sleep=fake.sleep, origin=100.0,
    )
    kinds = [d.op.kind for d in done]
    assert kinds.count("post") == 1
    assert kinds.count("read") == 10 - 1  # 0.1 s of 10 ms round trips
    post = next(d for d in done if d.op.kind == "post")
    assert 0.0 <= post.late < 0.01  # behind at most one filler request
    # A filler read is due when it is sent: latency is the round trip.
    assert all(
        abs(d.latency - 0.01) < 1e-9 for d in done if d.op.kind == "read"
    )


def test_a_refused_connection_is_a_failed_operation_not_a_crash():
    def execute(op):
        raise ConnectionRefusedError("nobody listening")

    done = run_ops([Op("read", 0.0, "GET", "/")], execute)
    assert done[0].status == 0
