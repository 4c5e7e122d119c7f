"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``ncdm`` modules at layer
boundaries, from the benchmark's own files, and changes no program file.
Each function is wrapped under the name its callers look it up by: ``ncd.py``
imports ``serialize_multiset``, ``cached_compress_len`` and ``parallel_map``
by name, so those are replaced in ``ncdm.ncd``; ``cached_compress_len`` calls
``content_digest`` and ``compress_len`` through the ``compressor`` module, so
those are replaced there. A name that no longer exists is an error, never a
silent zero.

A span is a tuple ``(id, parent, name, thread, start_ns, end_ns, value)``;
``value`` carries a byte count, an iteration count or a request key. Spans
are kept in memory per segment (one set-up build or one operation) and
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

Span = tuple


def _len_result(args: tuple, result: object) -> int:
    return len(result)


def _len_arg(index: int) -> Callable[[tuple, object], int]:
    return lambda args, result: len(args[index])


def _request_key(args: tuple, result: object) -> tuple[int, int]:
    data = args[2]
    return (len(data), hash(data))


def _iterations(args: tuple, result: object) -> int:
    return sum(r.iterations for r in result.restarts)


# (module, attribute, span name, value of the span). Methods are replaced on
# their class, because callers reach them through the instance.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ncdm.cli", "main", "cli.main", None),
    ("ncdm.cli", "load_corpus", "ingest.load", None),
    ("ncdm.cli", "loocv", "classify.loocv", None),
    ("ncdm.partition", "klists_split", "partition.klists_split", _iterations),
    ("ncdm.ncd", "NcdCalculator.ncd1", "ncd.ncd1", None),
    ("ncdm.ncd", "NcdCalculator.ncd_pairwise", "ncd.ncd_pairwise", None),
    ("ncdm.ncd", "NcdCalculator.distance_matrix", "ncd.distance_matrix", None),
    ("ncdm.ncd", "serialize_multiset", "compressor.serialize", _len_result),
    ("ncdm.ncd", "cached_compress_len", "ncd.size_request", _request_key),
    ("ncdm.compressor", "content_digest", "compressor.digest", _len_arg(0)),
    ("ncdm.compressor", "compress_len", "compressor.compress", _len_arg(1)),
    ("ncdm.compressor", "SizeCache.get", "compressor.cache_lookup", None),
    ("ncdm.compressor", "SizeCache.load", "compressor.snapshot_load", None),
    ("ncdm.compressor", "SizeCache.save", "compressor.snapshot_save", None),
    ("ncdm.datagen", "simulate_population", "datagen.simulate", None),
    ("ncdm.ingest", "fit_quantizer", "ingest.quantize", None),
    ("ncdm.ingest", "quantize_timeseries", "ingest.quantize", None),
    ("ncdm.ingest", "image_to_bitstream", "ingest.bitstream", None),
)
MAP_TARGET = ("ncdm.ncd", "parallel_map")
POOL_TARGET = ("ncdm.parallel", "ThreadPoolExecutor")

# Metrics taken from the set-up builds; every other one comes from operations.
SETUP_METRICS = ("datagen.simulate_s", "ingest.quantize_s", "ingest.bitstream_s")

# Unit of every per-layer metric the traced run reports. Busy times are
# summed over threads, so at jobs=2 they can exceed an operation's wall time.
UNITS = {
    "compressor.compress_calls": "count",
    "compressor.compress_mb": "MB",
    "compressor.compress_s": "s",
    "compressor.serialize_mb": "MB",
    "compressor.serialize_s": "s",
    "compressor.digest_mb": "MB",
    "compressor.digest_s": "s",
    "compressor.cache_lookups": "count",
    "compressor.snapshot_load_s": "s",
    "compressor.snapshot_save_s": "s",
    "parallel.map_calls": "count",
    "parallel.pools_started": "count",
    "parallel.map_s": "s",
    "parallel.utilisation": "ratio",
    "ncd.size_requests": "count",
    "ncd.unique_request_ratio": "ratio",
    "ncd.self_s": "s",
    "classify.self_s": "s",
    "partition.iterations": "count",
    "partition.self_s": "s",
    "ingest.load_s": "s",
    "ingest.quantize_s": "s",
    "ingest.bitstream_s": "s",
    "datagen.simulate_s": "s",
    "cli.self_s": "s",
    "cli.report_mb": "MB",
    "trace.overhead_s": "s",
}

MB = 1e6
NS = 1e9


class MissingTargetError(RuntimeError):
    """A wrapped name no longer exists in the program."""


def _resolve(module_name: str, attr_path: str) -> tuple[object, str, object]:
    owner: object = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        raise MissingTargetError(f"{module_name}.{attr_path} does not exist") from None


class Tracer:
    """Records spans around the program's layer boundaries.

    ``segment`` installs the wrappers, collects the spans of one set-up build
    or one operation, and removes the wrappers again, so untraced operations
    of the same process run the program unchanged.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.segments: list[tuple[str, list[Span]]] = []
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self.verify()

    def verify(self) -> None:
        """Raise ``MissingTargetError`` unless every wrapped name exists."""
        for module_name, attr_path, _name, _value in TARGETS:
            _resolve(module_name, attr_path)
        _resolve(*MAP_TARGET)
        _resolve(*POOL_TARGET)

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, value: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            parent = getattr(local, "current", 0)
            sid = next(tracer._ids)
            local.current = sid
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                local.current = parent
            tracer._spans.append(
                (sid, parent, name, threading.get_ident(), start, end,
                 value(args, result) if value else 0)
            )
            return result

        return traced

    def _wrap_map(self, fn: Callable) -> Callable:
        # Each mapped call becomes a ``parallel.task`` span whose parent is the
        # map span, whichever worker thread runs it.
        tracer = self

        def parallel_map(task_fn, items, *args, **kwargs):
            map_sid = getattr(tracer._local, "current", 0)
            task = tracer._wrap("parallel.task", task_fn, None)

            def run_task(item):
                local = tracer._local
                outer = getattr(local, "current", 0)
                local.current = map_sid
                try:
                    return task(item)
                finally:
                    local.current = outer

            return fn(run_task, items, *args, **kwargs)

        return self._wrap("parallel.map", parallel_map, None)

    def _wrap_pool(self, pool_cls: type) -> type:
        tracer = self

        class CountingPool(pool_cls):
            def __init__(self, *args, **kwargs):
                now = time.perf_counter_ns()
                tracer._spans.append(
                    (next(tracer._ids), getattr(tracer._local, "current", 0),
                     "parallel.pool_start", threading.get_ident(), now, now, 0)
                )
                super().__init__(*args, **kwargs)

        return CountingPool

    def _install(self) -> None:
        for module_name, attr_path, name, value in TARGETS:
            owner, attr, fn = _resolve(module_name, attr_path)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, value))
        owner, attr, fn = _resolve(*MAP_TARGET)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, self._wrap_map(fn))
        owner, attr, cls = _resolve(*POOL_TARGET)
        self._installed.append((owner, attr, cls))
        setattr(owner, attr, self._wrap_pool(cls))

    def _uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def segment(self, kind: str) -> Iterator[None]:
        self._spans = []
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.segments.append((kind, self._spans))
            self._spans = []

    def note(self, name: str, value: int) -> None:
        """Record a zero-length span that carries a measured quantity."""
        now = time.perf_counter_ns()
        self.segments[-1][1].append(
            (next(self._ids), 0, name, threading.get_ident(), now, now, value)
        )

    # -- reporting -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: the median over traced operations of each one,
        and over set-up builds for the set-up layers."""
        per_op = [layer_metrics(spans, self.jobs) for kind, spans in self.segments if kind == "op"]
        per_setup = [
            layer_metrics(spans, self.jobs) for kind, spans in self.segments if kind == "setup"
        ]
        if not per_op or not per_setup:
            raise ValueError("the traced run recorded no operation or no set-up build")
        out = {}
        for name in per_op[0]:
            source = per_setup if name in SETUP_METRICS else per_op
            out[name] = statistics.median(m[name] for m in source)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip JSON lines: segment index, kind, then the span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["segment", "kind", "id", "parent", "name", "thread",
                                 "start_ns", "end_ns", "value"]) + "\n")
            for index, (kind, spans) in enumerate(self.segments):
                for span in spans:
                    fh.write(json.dumps([index, kind, *span]) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _name, _tid, start, end, _value in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _tid, start, end, _value in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """The per-layer table for one segment's spans."""
    count: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    amount: dict[str, int] = defaultdict(int)
    requests: set = set()
    by_id = {s[0]: s for s in spans}
    for _sid, _parent, name, _tid, start, end, value in spans:
        count[name] += 1
        busy[name] += end - start
        if name == "ncd.size_request":
            requests.add(value)
        else:
            amount[name] += value

    def layer(span: Span) -> str:
        # A mapped task runs its caller's code, so its self time belongs to
        # the layer that called parallel_map.
        while span[2] == "parallel.task":
            span = by_id.get(by_id.get(span[1], (0, 0))[1])
            if span is None:
                return "parallel"
        return span[2].split(".")[0]

    self_s: dict[str, int] = defaultdict(int)
    own = self_times(spans)
    for span in spans:
        self_s[layer(span)] += own[span[0]]

    map_ns = busy["parallel.map"]
    return {
        "compressor.compress_calls": count["compressor.compress"],
        "compressor.compress_mb": amount["compressor.compress"] / MB,
        "compressor.compress_s": busy["compressor.compress"] / NS,
        "compressor.serialize_mb": amount["compressor.serialize"] / MB,
        "compressor.serialize_s": busy["compressor.serialize"] / NS,
        "compressor.digest_mb": amount["compressor.digest"] / MB,
        "compressor.digest_s": busy["compressor.digest"] / NS,
        "compressor.cache_lookups": count["compressor.cache_lookup"],
        "compressor.snapshot_load_s": busy["compressor.snapshot_load"] / NS,
        "compressor.snapshot_save_s": busy["compressor.snapshot_save"] / NS,
        "parallel.map_calls": count["parallel.map"],
        "parallel.pools_started": count["parallel.pool_start"],
        "parallel.map_s": map_ns / NS,
        "parallel.utilisation": busy["parallel.task"] / (map_ns * jobs) if map_ns else 0.0,
        "ncd.size_requests": count["ncd.size_request"],
        "ncd.unique_request_ratio": (
            len(requests) / count["ncd.size_request"] if count["ncd.size_request"] else 0.0
        ),
        "ncd.self_s": self_s["ncd"] / NS,
        "classify.self_s": self_s["classify"] / NS,
        "partition.iterations": amount["partition.klists_split"],
        "partition.self_s": self_s["partition"] / NS,
        "ingest.load_s": busy["ingest.load"] / NS,
        "ingest.quantize_s": busy["ingest.quantize"] / NS,
        "ingest.bitstream_s": busy["ingest.bitstream"] / NS,
        "datagen.simulate_s": busy["datagen.simulate"] / NS,
        "cli.self_s": self_s["cli"] / NS,
        "cli.report_mb": amount["cli.report"] / MB,
    }
