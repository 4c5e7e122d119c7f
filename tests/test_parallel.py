"""The calculator's worker pool: built once per calculator, released with it,
and never the cause of a different answer."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncdm.parallel
from ncdm import Element, LabeledCorpus, Multiset, NcdCalculator, SizeCache, ZlibBackend, loocv
from ncdm.cli import main

from .conftest import ALPHABET_A, ALPHABET_B, phrase_class


@pytest.mark.parametrize(("jobs", "pools"), [(1, 0), (2, 1)])
def test_one_pool_per_calculator(monkeypatch, jobs, pools):
    built = []

    class CountingPool(ncdm.parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ncdm.parallel, "ThreadPoolExecutor", CountingPool)
    classes = {
        "a": Multiset(phrase_class(1, ALPHABET_A, 3, phrases_per=3, prefix="a")),
        "b": Multiset(phrase_class(2, ALPHABET_B, 3, phrases_per=3, prefix="b")),
    }
    everything = classes["a"].union(classes["b"])
    calc = NcdCalculator(ZlibBackend(), jobs=jobs)
    calc.g_profile(everything)
    calc.ncd_heuristic(everything)
    calc.distance_matrix(everything.elements)
    loocv(calc, LabeledCorpus(classes=classes))
    assert len(built) == pools


def test_cli_leaves_no_worker_threads(tmp_path, capsys):
    for e in phrase_class(3, ALPHABET_A, 5, phrases_per=3):
        (tmp_path / f"{e.id}.txt").write_bytes(e.data)
    baseline = threading.active_count()
    assert main(["multiset", str(tmp_path), "--backend", "zlib", "--jobs", "2"]) == 0
    capsys.readouterr()
    deadline = time.monotonic() + 1.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline


@given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=40), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_jobs_do_not_change_any_answer(texts):
    elements = [Element(text.encode(), f"e{i}") for i, text in enumerate(texts)]
    ms = Multiset(elements)
    runs = []
    for jobs in (1, 2):
        calc = NcdCalculator(ZlibBackend(), cache=SizeCache(), jobs=jobs)
        profile = calc.g_profile(ms)
        after_profile = calc.cache.job_count
        heuristic = calc.ncd_heuristic(ms)
        after_heuristic = calc.cache.job_count
        matrix = calc.distance_matrix(elements)
        runs.append(
            (
                profile,
                after_profile,
                heuristic.chain,
                heuristic.ncd,
                after_heuristic,
                matrix.labels,
                matrix.values.tolist(),
                calc.cache.job_count,
            )
        )
    assert runs[0] == runs[1]
