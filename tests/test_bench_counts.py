"""Hardware-free gates: the benchmark's compression counts, pinned.

The inputs are the benchmark's own ``loocv-cold`` and ``matrix-cli`` corpora
at full scale and seed 0, built by ``bench/workloads.py``, which is imported
and not changed. A counting backend stands in for bz2 and zlib: it records
each request and answers with a made-up size, so a whole plan runs in well
under a second and every count depends only on the inputs and the code.

A count that rises is a regression. A count that falls fails too, until the
change that lowers it restates it here, so every gain is stated.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from ncdm import CompressorBackend, Element, NcdCalculator
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


def test_matrix_cli_counts(tmp_path):
    workload = workloads.MatrixCli(SEED, tmp_path, workloads.FULL)
    workload.build()
    elements = [Element(data, name) for name, data in sorted(workload.bits.items())]
    backend = CountingBackend()
    calc = NcdCalculator(backend, jobs=workloads.JOBS)
    calc.distance_matrix(elements)
    # 200 singles and 200 * 199 / 2 pairs of distinct glyphs
    assert (backend.calls, backend.bytes, calc.cache.lookups) == (20_100, 501_779_900, 20_100)
