"""Deterministic worker-pool map used by all parallel operations."""

from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    return os.cpu_count() or 1


def worker_pool(jobs: int) -> Executor | None:
    """The only place a pool is built: ``jobs`` threads, or None to run inline."""
    return ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None


def parallel_map(fn: Callable[[T], R], items: Iterable[T], pool: Executor | None) -> list[R]:
    """Map ``fn`` over ``items`` on ``pool``; inline when ``pool`` is None or for one item.

    Threads suffice because the backends release the GIL or block on
    subprocesses; results keep input order, so they are identical for any
    worker count. ``fn`` must never call ``parallel_map`` on the same pool:
    the pool deadlocks once every worker waits on a task queued behind it.
    """
    seq = list(items)
    if pool is None or len(seq) < 2:
        return [fn(item) for item in seq]
    return list(pool.map(fn, seq))
