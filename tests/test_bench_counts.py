"""Hardware-free gates: the benchmark's compression counts, pinned.

The inputs are the benchmark's own ``loocv-cold``, ``matrix-cli`` and
``klists-zlib`` corpora at full scale and seed 0, built by
``bench/workloads.py``, which is imported and not changed. For the first two
a counting backend stands in for bz2 and zlib: it records each request and
answers with a made-up size, so a whole plan runs in well under a second and
every count depends only on the inputs and the code. A K-Lists split plans
round by round from the sizes it gets back, so it runs on real zlib (about
0.3 s) and its compressions are counted around ``compressor.compress_len``.

A count that rises is a regression. A count that falls fails too, until the
change that lowers it restates it here, so every gain is stated.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from ncdm import (
    CompressorBackend, Element, Multiset, NcdCalculator, PartitionConfig, ZlibBackend, klists_split
)
from ncdm.classify import loocv
from ncdm.ingest import load_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SEED = 0


class CountingBackend(CompressorBackend):
    """Counts ``compress_len`` calls and their bytes; a request's size is its length.

    Being a plain ``CompressorBackend``, it gets the concatenating ``after``
    view, so each matrix pair's bytes are counted whole.
    """

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0
        self.bytes = 0
        self._lock = threading.Lock()

    def compress_len(self, data: bytes) -> int:
        with self._lock:
            self.calls += 1
            self.bytes += len(data)
        return len(data) + 1


def test_loocv_cold_counts(tmp_path):
    workload = workloads.LoocvCold(SEED, tmp_path, workloads.FULL)
    workload.build()
    corpus = load_corpus(str(workload.corpus_dir))
    backend = CountingBackend()
    calc = NcdCalculator(backend, jobs=workloads.JOBS)
    loocv(calc, corpus)
    assert (backend.calls, backend.bytes, calc.cache.lookups) == (850, 74_236_240, 850)
    loocv(calc, corpus)  # a replay on the same calculator: every size is cached
    assert (backend.calls, calc.cache.lookups, calc.cache.hits) == (850, 1700, 850)


def test_loocv_cold_is_one_map(tmp_path, maps):
    workload = workloads.LoocvCold(SEED, tmp_path, workloads.FULL)
    workload.build()
    loocv(NcdCalculator(CountingBackend(), jobs=workloads.JOBS), load_corpus(workload.corpus_dir))
    assert len(maps) == 1


def test_matrix_cli_counts(tmp_path, maps):
    workload = workloads.MatrixCli(SEED, tmp_path, workloads.FULL)
    workload.build()
    elements = [Element(data, name) for name, data in sorted(workload.bits.items())]
    backend = CountingBackend()
    calc = NcdCalculator(backend, jobs=workloads.JOBS)
    calc.distance_matrix(elements)
    # 200 singles and 200 * 199 / 2 pairs of distinct glyphs
    assert (backend.calls, backend.bytes, calc.cache.lookups) == (20_100, 501_779_900, 20_100)
    assert len(maps) == 2  # the singles, then every row's pairs


def test_klists_zlib_counts(tmp_path, compressions, maps):
    workload = workloads.KlistsZlib(SEED, tmp_path, workloads.FULL)
    workload.build()
    calc = NcdCalculator(ZlibBackend(), jobs=workloads.JOBS)
    cfg = PartitionConfig(
        restarts=workload.RESTARTS, min_size=workload.scale.klists_min_size, seed=workload.RESTART_SEED
    )
    result = klists_split(calc, Multiset(workload.elements), cfg)
    assert (len(compressions), sum(compressions)) == (1123, 16_985_821)
    assert (calc.cache.lookups, calc.cache.hits) == (4874, 3751)
    assert [restart.iterations for restart in result.restarts] == [1] * workload.RESTARTS
    # ncd1 of the whole set, per restart a seed map and one per iteration, then the margin
    assert len(maps) == 12
    assert workload.check(workload.collect(result)) == []  # the benchmark's own split
