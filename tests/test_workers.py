import contextlib
import os
import signal
import time

import pytest

from substoch.workers import forked_map

from .forking import fake_cpus, fork_counter

needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists fds in /proc")


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize(
    "cpus, jobs, shares",
    [
        (1, 5, [[0, 1, 2, 3, 4]]),
        (2, 5, [[0, 2, 4], [1, 3]]),
        (3, 7, [[0, 3, 6], [1, 4], [2, 5]]),
        (3, 2, [[0], [1]]),  # no more processes than jobs
    ],
)
def test_jobs_are_dealt_round_robin(monkeypatch, cpus, jobs, shares):
    forks = fork_counter(monkeypatch)
    pins = fake_cpus(monkeypatch, cpus)
    assert forked_map(list, range(jobs)) == shares
    assert len(forks) == len(shares) - 1
    assert pins == ([{0}, set(range(cpus))] if forks else [])


def _failing_in(where, delay=0.0, result=None):
    """A share function that raises in the parent or in a worker, after
    `delay` seconds, and returns `result` in the other processes."""
    parent = os.getpid()

    def share(jobs):
        if (os.getpid() == parent) == (where == "parent"):
            time.sleep(delay)
            raise ValueError(f"share failed in the {where}")
        return result

    return share


@needs_proc_fd
def test_worker_error_raises_in_parent(monkeypatch):
    fds = open_fds()
    forks = fork_counter(monkeypatch)
    pins = fake_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="share failed in the worker"):
        forked_map(_failing_in("worker"), range(4))
    assert len(forks) == 1 and pins == [{0}, {0, 1}]
    assert open_fds() == fds
    # the real mask comes back as well (with one CPU nothing forks or fails)
    monkeypatch.undo()
    mask = os.sched_getaffinity(0)
    raised = pytest.raises(ValueError) if len(mask) > 1 else contextlib.nullcontext()
    with raised:
        forked_map(_failing_in("worker"), range(4))
    assert os.sched_getaffinity(0) == mask
    assert open_fds() == fds


@needs_proc_fd
def test_parent_error_ends_while_worker_result_fills_the_pipe(monkeypatch):
    # the worker's result pickles to more than a 64 KiB pipe buffer holds,
    # so the worker blocks writing while the parent fails
    fds = open_fds()
    pins = fake_cpus(monkeypatch, 2)
    share = _failing_in("parent", delay=0.5, result=bytes(1 << 20))

    def hung(signum, frame):
        raise TimeoutError("the parent hung on its worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(ValueError, match="share failed in the parent"):
            forked_map(share, range(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert pins == [{0}, {0, 1}]
    assert open_fds() == fds


def test_parent_error_kills_a_busy_worker(monkeypatch):
    fake_cpus(monkeypatch, 2)
    parent = os.getpid()

    def share(jobs):
        if os.getpid() == parent:
            raise ValueError("share failed in the parent")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="share failed in the parent"):
        forked_map(share, range(2))
    assert time.perf_counter() - start < 10


def test_fork_failure_closes_the_pipe(monkeypatch):
    fds = open_fds() if os.path.isdir("/proc/self/fd") else None
    pins = fake_cpus(monkeypatch, 2)

    def no_fork():
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="fork failed"):
        forked_map(list, range(2))
    assert pins == [{0, 1}]  # the mask it started with
    assert fds is None or open_fds() == fds
