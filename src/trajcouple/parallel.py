"""Fan-out of independent items onto the CPUs this process may run on.

``map_ordered`` is the one thread fan-out of the package: ``eval`` runs its
per-frame pointmap metrics through it, and a coupled-objective pass its
blocks of tracks.  Threads are started per call and joined before it
returns, so none outlives the call (or is alive when ``--jobs`` forks
worker processes).  This module imports neither numpy nor scipy.
"""

from __future__ import annotations

import os
import threading


def cpu_count() -> int:
    """CPUs in the process affinity mask where the platform has one, else os.cpu_count()."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


def map_ordered(fn, items):
    """[fn(x) for x in items], run on up to cpu_count() threads.

    The calling thread is one of the participants, so min(len(items),
    cpu_count()) - 1 threads are started: none for one item or one CPU.
    Items are handed out one at a time in order and results are returned in
    order; fn must release the GIL for the threads to overlap.  Once an item
    fails no more are handed out, so every lower-index item has run and the
    exception of the lowest-index failure is raised, as a sequential loop
    would raise it.
    """
    lock = threading.Lock()
    pending = iter(range(len(items)))
    results = [None] * len(items)
    errors = {}

    def take():
        with lock:
            return None if errors else next(pending, None)

    def work():
        while (k := take()) is not None:
            try:
                results[k] = fn(items[k])
            except Exception as exc:  # re-raised below, in the calling thread
                with lock:
                    errors[k] = exc

    helpers = [threading.Thread(target=work)
               for _ in range(min(len(items), cpu_count()) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:  # an interrupt in the calling thread stops the hand-out too
            pending = iter(())
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
