"""The calculator's worker pool: built once per calculator, released with it,
and never the cause of a different answer."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncdm.parallel
from ncdm import (
    Bz2Backend,
    Element,
    Multiset,
    NcdCalculator,
    ZlibBackend,
    loocv,
)
from ncdm.cli import main
from ncdm.parallel import parallel_map, worker_pool

from .conftest import ALPHABET_A, ALPHABET_B, phrase_class, random_text_element


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
    loocv(calc, classes)
    assert len(built) == pools


def test_copies_under_other_ids_are_compressed_once(compressions):
    texts = [random_text_element(60 + i, 1500, f"t{i}").data for i in range(3)]
    ms = Multiset(Element(text, f"{copy}{i}") for i, text in enumerate(texts) for copy in "ab")
    jobs = 0
    for _ in range(40):
        calc = NcdCalculator(Bz2Backend(), jobs=2)
        calc.g_profile(ms)
        calc.ncd_heuristic(ms)
        jobs += calc.cache.job_count
    assert len(compressions) == jobs


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
        calc = NcdCalculator(ZlibBackend(), jobs=jobs)
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


def test_map_holds_one_task_per_worker_and_keeps_order():
    submitted = []

    class CountingPool(ncdm.parallel.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    calls = []

    def task(i):
        calls.append(i)  # list.append is atomic
        time.sleep(0)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = CountingPool(max_workers=8)
    try:
        started = time.monotonic()
        assert parallel_map(task, range(3000), pool) == [i * i for i in range(3000)]
        assert time.monotonic() - started < 30
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert len(submitted) == 8
    assert sorted(calls) == list(range(3000))


def test_map_raises_the_earliest_failure_and_stops_starting_items():
    started = []

    def task(i):
        started.append(i)
        if i in (40, 300):
            raise ValueError(i)
        time.sleep(0.001)
        return i

    pool = worker_pool(4)
    try:
        with pytest.raises(ValueError) as info:
            parallel_map(task, range(1000), pool)
    finally:
        pool.shutdown()
    assert info.value.args == (40,)
    assert 300 not in started and len(started) < 100


@pytest.mark.parametrize("started", [0, 1, 2])
def test_a_refused_worker_thread_changes_no_answer(tmp_path, capsys, monkeypatch, started):
    """A system that refuses threads makes ``--jobs`` run on fewer workers, or inline."""
    for i in range(6):
        (tmp_path / f"t{i}.txt").write_bytes(random_text_element(i, 300, "").data)
    argv = ["matrix", str(tmp_path), "--backend", "zlib"]
    assert main([*argv, "--jobs", "1"]) == 0
    serial = capsys.readouterr()
    real_start, starts = threading.Thread.start, []

    def start(thread):
        starts.append(thread)
        if len(starts) > started:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert main([*argv, "--jobs", "4"]) == 0
    assert capsys.readouterr() == serial
    assert len(starts) > started  # a thread was refused
