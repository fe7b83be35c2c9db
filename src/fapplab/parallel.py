"""Chunks of a Monte-Carlo range shared out among threads, one per CPU this
process may use.

The threads are plain threads: the loops split here spend their time in
numpy calls on arrays of thousands of elements, which release the
interpreter lock. No thread is given a fixed part of the range. Each takes
the next unclaimed chunk when it is ready for one, so a thread whose CPU is
busy with other work takes fewer chunks instead of holding the others up at
the end. Each chunk's results must therefore depend on its own bounds alone
and go to places no other chunk writes, so that the output does not depend
on which thread took which chunk, nor on how many threads there were.
"""

from __future__ import annotations

import os
import threading

#: CPUs in this process's affinity set (which `taskset` restricts), or all of
#: the machine's where the platform has no affinity call; `run_shared` starts
#: at most one thread per CPU
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: most threads of a loop whose memory grows with its threads: a reversal
#: thread's chunk peaks at 0.72 MiB under tracemalloc, so 4 hold 2.9 MiB of the
#: 4 MiB a 1e6-sample row may take (a first call read 3.4); an overlap-kernel
#: thread past its share of the chunk budget holds one state, 24 B a node, so
#: 4 hold 96 MB at j = 500, below the 108 MiB of a j = 500 Q-function run
MAX_THREADS = 4


class _Shared:
    """One iterator over `items` for many threads: each item is handed out
    once, in order, and none after `close`."""

    def __init__(self, items):
        self._items = iter(items)
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._items)

    def close(self) -> None:
        with self._lock:
            self._items = iter(())


def workers(items: int, most: int) -> int:
    """Threads `run_shared` uses for `items` items: one per CPU, but at most
    `most` and no more than there are items, so one item runs on the caller
    alone."""
    return max(1, min(CPUS, most, items))


def run_shared(work, items, most: int) -> None:
    """work(shared) on `workers(len(items), most)` threads side by side, the
    calling thread one of them, every call given the same iterator `shared`
    over `items`: a call loops over it and so takes the next unclaimed item
    whenever it is ready for one.

    Returns once every call has ended. If one raised, the items not yet taken
    are dropped, and the exception of the first call that raised (the
    caller's counting first, then the threads in the order they started) is
    re-raised.
    """
    shared = _Shared(items)
    count = workers(len(items), most)
    errors = [None] * count

    def run(index: int) -> None:
        try:
            work(shared)
        except BaseException as exc:  # re-raised in the caller below
            errors[index] = exc
            shared.close()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
