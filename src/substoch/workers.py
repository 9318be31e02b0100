"""Run a job list on every CPU of the affinity mask: simulate's walk chunks
and falsify's instances.  It forks rather than spawns: a spawned worker
would start a fresh interpreter and import the package again, about 0.15 s,
as much as a second CPU saves on a sub-second run.  The callers run no
threads, so forking them is safe."""

import os
import pickle
import signal


def forked_map(fn, jobs) -> list:
    """[fn(jobs[p::procs]) for p in range(procs)], with procs the CPU count
    of the affinity mask, at most len(jobs).  This process runs share 0 and
    one forked worker each further share, every process pinned to its own
    CPU until the shares end.  Each worker pickles its result, or its
    exception, into a pipe; a worker's exception is raised here.  On every
    path each worker is killed and reaped and this process's mask restored."""
    # only platforms that fork report an affinity mask
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    procs = min(len(cpus), len(jobs))
    workers: list[tuple[int, int]] = []  # (pid, read end of the pipe it answers through)
    try:
        for p in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the worker: answer, then leave without exit handlers or flushes
                try:
                    for fd in (r, *(fd for _, fd in workers)):  # a dead reader means EPIPE
                        os.close(fd)
                    with open(w, "wb") as pipe:
                        try:
                            os.sched_setaffinity(0, {cpus[p]})
                            pickle.dump(fn(jobs[p::procs]), pipe)
                        except Exception as exc:
                            pickle.dump(exc, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            workers.append((pid, r))
        if procs > 1:  # else the scheduler may leave the workers on this process's CPU
            os.sched_setaffinity(0, {cpus[0]})
        results = [fn(jobs[::procs])]
        for _, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                results.append(pickle.load(pipe))
            if isinstance(results[-1], Exception):
                raise results[-1]
    finally:  # a worker that has answered is exiting anyway
        if procs > 1:
            os.sched_setaffinity(0, cpus)
        for pid, fd in workers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
