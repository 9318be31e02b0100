"""Helpers for tests of the commands that fork workers (substoch.workers)."""

import os


def fork_counter(monkeypatch):
    """Count os.fork calls; returns the list of the forking pids."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def fake_cpus(monkeypatch, count):
    """An affinity mask of `count` CPUs, whatever this machine has; returns
    the masks this process pins itself to (the workers' pins stay in them)."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))
    return pins
