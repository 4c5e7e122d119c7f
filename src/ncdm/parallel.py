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
    the earliest failing item is raised, as a serial loop would. ``fn`` must
    never call ``parallel_map`` on the same pool: the pool deadlocks once
    every worker waits on a task queued behind it.
    """
    seq = list(items)
    if pool is None or len(seq) < 2:
        return [fn(item) for item in seq]
    results: list = [None] * len(seq)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    indices = iter(range(len(seq)))

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(seq[i])
            except BaseException as exc:  # re-raised below, in the caller's thread
                with lock:
                    failures[i] = exc

    workers = [pool.submit(work) for _ in range(min(pool._max_workers, len(seq)))]
    for worker in workers:
        worker.result()
    if failures:
        raise failures[min(failures)]
    return results
