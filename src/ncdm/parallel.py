"""Deterministic worker-pool map used by all parallel operations."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    return os.cpu_count() or 1


def worker_pool(jobs: int) -> ThreadPoolExecutor | None:
    """The only place a pool is built: ``jobs`` threads, or None to run inline."""
    return ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], pool: ThreadPoolExecutor | None
) -> list[R]:
    """Map ``fn`` over ``items`` on ``pool``; inline when ``pool`` is None or for one item.

    Threads suffice because the backends release the GIL or block on
    subprocesses; results keep input order, so they are identical for any
    worker count. Each worker takes the next item in input order until none
    is left, so a map holds one task per worker, not one future per item,
    and a batch of thousands of requests costs no more memory than a small
    one. After an item raises, no further item is started, and the error of
    the earliest failing item is raised, as a serial loop would. If the
    system refuses a worker thread, the caller works in its place. ``fn`` must
    never call ``parallel_map`` on the same pool: the pool deadlocks once
    every worker waits on a task queued behind it.
    """
    seq = list(items)
    if pool is None or len(seq) < 2:
        return [fn(item) for item in seq]
    results: list = [None] * len(seq)
    failures: dict[int, BaseException] = {}
    lock = threading.Condition()
    taken = busy = 0  # items handed out; work() calls that may still run one

    def work() -> None:
        nonlocal taken, busy
        with lock:
            busy += 1
        while True:
            with lock:
                if failures or taken == len(seq):
                    busy -= 1
                    lock.notify_all()
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(seq[i])
            except BaseException as exc:  # re-raised below, in the caller's thread
                with lock:
                    failures[i] = exc

    try:
        for _ in range(min(pool._max_workers, len(seq))):
            pool.submit(work)
    except RuntimeError:  # the system refused a thread; the caller works in its place
        work()
    with lock:
        lock.wait_for(lambda: busy == 0 and (failures or taken == len(seq)))
    if failures:
        raise failures[min(failures)]
    return results
