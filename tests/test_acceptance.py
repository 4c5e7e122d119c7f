"""Release acceptance suite: one test per criterion, in order.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` shows one line per criterion.
The heavy end-to-end classification run (criterion 5) takes a few minutes;
everything else is fast.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from ncdm import (
    Bz2Backend,
    CellModelParams,
    Element,
    Multiset,
    NcdCalculator,
    PartitionConfig,
    TimeSeries,
    ZlibBackend,
    fit_quantizer,
    klists_split,
    loocv,
    otsu_threshold,
    quantize_timeseries,
    simulate_population,
    wilson_ci,
)
from ncdm.cli import main
from ncdm.datagen import FEATURE_NAMES

from .conftest import ALPHABET_A, ALPHABET_B, make_vocab, phrase_class
from .test_ingest import oracle_otsu
from .test_ncd import oracle_exact

N_SYMBOLS_SYNTHETIC = 4


def record(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def mixed_fragment(rng: random.Random, vocab_a, vocab_b, lo=30, hi=90) -> bytes:
    vocab = vocab_a if rng.random() < 0.5 else vocab_b
    return " ".join(rng.choice(vocab) for _ in range(rng.randrange(lo, hi))).encode()


def test_criterion_1_wilson_intervals():
    cases = [
        (0.99, 72, (0.93, 1.00)),
        (1.00, 72, (0.95, 1.00)),
        (0.87, 86, (0.78, 0.93)),
        (0.83, 78, (0.73, 0.90)),
        (0.57, 656, (0.53, 0.61)),
    ]
    for p_hat, n, expected in cases:
        lo, hi = wilson_ci(p_hat, n)
        assert (round(lo, 2), round(hi, 2)) == expected, (p_hat, n)
    record(1, f"all {len(cases)} published confidence intervals reproduced at 2 decimals")


def test_criterion_2_heuristic_lower_bound():
    vocab_a = make_vocab(500, ALPHABET_A)
    vocab_b = make_vocab(501, ALPHABET_B)
    rng = random.Random(4242)
    calc = NcdCalculator(Bz2Backend(), jobs=2)
    start = time.perf_counter()
    worst = -1.0
    for case in range(200):
        size = rng.randrange(3, 7)
        parts = [mixed_fragment(rng, vocab_a, vocab_b) for _ in range(size)]
        ms = Multiset([Element(p, f"c{case}-{i}") for i, p in enumerate(parts)])
        heuristic = calc.ncd_heuristic(ms).ncd.value
        exact = oracle_exact(parts, "bz2")
        worst = max(worst, heuristic - exact)
        assert heuristic <= exact + 1e-9, (case, heuristic, exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    record(2, f"200 multisets: heuristic <= powerset oracle (worst gap {worst:.1e}, {elapsed:.0f}s)")


def test_criterion_3_metric_properties():
    # deflate backend: the default block compressor's measured idempotency
    # deviation (0.16+) exceeds the 0.1 identity bound at any element size,
    # while deflate stays well inside it for window-sized multisets
    calc = NcdCalculator(ZlibBackend(), jobs=2)
    vocab_a = make_vocab(500, ALPHABET_A)
    vocab_b = make_vocab(501, ALPHABET_B)
    rng = random.Random(777)
    start = time.perf_counter()
    triangle_violations = 0
    identity_worst = 0.0
    for case in range(50):
        draw = lambda: Multiset(
            [
                Element(mixed_fragment(rng, vocab_a, vocab_b), f"t{case}-{i}-{j}")
                for j, i in enumerate(range(rng.randrange(2, 4)))
            ]
        )
        x, y, z = draw(), draw(), draw()

        # symmetry: permuting the input elements leaves the value byte-exact
        xy = x.union(y)
        shuffled = list(xy.elements)
        rng.shuffle(shuffled)
        lhs = calc.ncd_heuristic(xy).ncd.value
        assert calc.ncd_heuristic(Multiset(shuffled)).ncd.value == lhs

        # identity: multisets of one repeated element score within epsilon
        base = mixed_fragment(rng, vocab_a, vocab_b, 250, 400)
        copies = Multiset([Element(base, f"d{case}-{i}") for i in range(rng.randrange(2, 4))])
        identity_worst = max(identity_worst, calc.ncd_heuristic(copies).ncd.value)

        # triangle inequality with principled slack
        rhs = (
            calc.ncd_heuristic(x.union(z)).ncd.value
            + calc.ncd_heuristic(z.union(y)).ncd.value
        )
        triangle_violations += lhs > rhs + 0.05

    assert identity_worst <= 0.1
    assert triangle_violations <= 2

    # subset monotonicity of the exact distance, exactly
    rng2 = random.Random(778)
    for case in range(10):
        parts = [
            Element(mixed_fragment(rng2, vocab_a, vocab_b), f"s{case}-{i}") for i in range(5)
        ]
        ms = Multiset(parts)
        whole = calc.ncd_exact(ms).value
        for i in range(len(ms)):
            assert calc.ncd_exact(ms.remove_at(i)).value <= whole

    elapsed = time.perf_counter() - start
    assert elapsed < 600
    record(
        3,
        f"symmetry byte-exact, identity worst {identity_worst:.3f} <= 0.1, "
        f"monotonicity exact, triangle violations {triangle_violations}/50 ({elapsed:.0f}s)",
    )


def test_criterion_4_compression_job_budget():
    vocab_a = make_vocab(500, ALPHABET_A)
    vocab_b = make_vocab(501, ALPHABET_B)
    rng = random.Random(30)
    elements = [
        Element(
            " ".join(
                rng.choice(vocab_a if i % 2 else vocab_b)
                for _ in range(rng.randrange(40, 100))
            ).encode(),
            f"e{i:02d}",
        )
        for i in range(30)
    ]
    calc = NcdCalculator(Bz2Backend(), jobs=2)
    start = time.perf_counter()
    calc.ncd_heuristic(Multiset(elements))
    elapsed = time.perf_counter() - start
    budget = 30 * 31 // 2 + 60
    assert calc.cache.job_count <= budget
    assert elapsed < 120
    record(4, f"heuristic on |X|=30 issued {calc.cache.job_count} jobs <= {budget} ({elapsed:.1f}s)")


def test_criterion_5_synthetic_classification():
    start = time.perf_counter()
    populations = {
        "fast": simulate_population(CellModelParams(upsilon=3.0, seed=101), 60),
        "slow": simulate_population(CellModelParams(upsilon=0.9, seed=202), 60),
    }
    series = {
        label: [
            TimeSeries(t.features, FEATURE_NAMES, name=f"{label}-{t.index:03d}")
            for t in tracks
        ]
        for label, tracks in populations.items()
    }
    quantizer = fit_quantizer(series["fast"] + series["slow"], N_SYMBOLS_SYNTHETIC)
    corpus = {
        label: Multiset([quantize_timeseries(ts, quantizer=quantizer) for ts in items])
        for label, items in series.items()
    }
    calc = NcdCalculator(Bz2Backend(), jobs=8)
    pairwise = loocv(calc, corpus, method="min-distance")
    delta = loocv(calc, corpus, method="delta-ncd1")
    elapsed = time.perf_counter() - start
    assert delta.n == pairwise.n == 120
    assert delta.accuracy >= 0.80
    assert delta.accuracy >= pairwise.accuracy
    assert elapsed < 1800
    record(
        5,
        f"delta {delta.accuracy:.3f} >= 0.80 and >= min-distance "
        f"{pairwise.accuracy:.3f} over n=120 ({elapsed:.0f}s)",
    )


def test_criterion_6_klists_recovery():
    start = time.perf_counter()
    calc = NcdCalculator(ZlibBackend(), jobs=2)
    a = phrase_class(60, ALPHABET_A, 10, prefix="a")
    b = phrase_class(61, ALPHABET_B, 10, prefix="b")
    target = {frozenset(e.id for e in a), frozenset(e.id for e in b)}
    result = klists_split(
        calc, Multiset(a + b), PartitionConfig(restarts=5, min_size=8, seed=7)
    )
    recovered = sum(
        {frozenset(r.a.ids()), frozenset(r.b.ids())} == target for r in result.restarts
    )
    assert recovered >= 4

    vocab = make_vocab(500, ALPHABET_A)
    base = mixed_fragment(random.Random(9), vocab, vocab, 250, 400)
    identical = Multiset([Element(base, f"c{i:02d}") for i in range(20)])
    flat = klists_split(calc, identical, PartitionConfig(restarts=5, min_size=8, seed=0))
    assert flat.margin.value <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    record(
        6,
        f"planted split recovered in {recovered}/5 restarts; identical-string "
        f"margin {flat.margin.value:.4f} <= 0.05 ({elapsed:.0f}s)",
    )


def test_criterion_7_otsu_oracle():
    rng = np.random.default_rng(171)
    start = time.perf_counter()
    for _ in range(100):
        pixels = rng.integers(0, 256, size=(28, 28), dtype=np.uint8)
        assert otsu_threshold(pixels) == oracle_otsu(pixels)
    elapsed = time.perf_counter() - start
    record(7, f"threshold equals brute-force argmax on 100 random images ({elapsed:.1f}s)")


def _glyph_images(rng: np.random.Generator, kind: str, count: int) -> np.ndarray:
    """Digit-stand-ins: noisy disks vs noisy crosses, 28x28 grayscale."""
    out = np.zeros((count, 28, 28), dtype=np.uint8)
    yy, xx = np.mgrid[0:28, 0:28]
    for i in range(count):
        canvas = rng.integers(0, 40, size=(28, 28))
        cx, cy = rng.integers(11, 17, size=2)
        if kind == "disk":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= int(rng.integers(25, 64))
        else:
            width = int(rng.integers(2, 4))
            mask = (abs(xx - cx) < width) | (abs(yy - cy) < width)
        canvas[mask] = rng.integers(180, 255)
        out[i] = canvas
    return out


def test_criterion_8_digit_pipeline_smoke(tmp_path, capsys):
    # stated non-goal: the published full-scale image benchmarks need data
    # and classifiers outside this package; this checks the pipeline runs
    # end to end on a small user-style image subset without error
    rng = np.random.default_rng(88)
    disks = _glyph_images(rng, "disk", 6)
    crosses = _glyph_images(rng, "cross", 6)
    raw = np.concatenate([disks, crosses])
    idx = tmp_path / "digits.idx"
    idx.write_bytes(
        (0x0803).to_bytes(4, "big")
        + (12).to_bytes(4, "big")
        + (28).to_bytes(4, "big")
        + (28).to_bytes(4, "big")
        + raw.tobytes()
    )
    bits_dir = tmp_path / "bits"
    assert main(["image2bits", "--idx", str(idx), "--scale", "4", "--out", str(bits_dir)]) == 0
    capsys.readouterr()
    bit_files = sorted(bits_dir.glob("*.bits"))
    assert len(bit_files) == 12

    assert main(["matrix", str(bits_dir), "--csv", str(tmp_path / "dist.csv")]) == 0
    matrix_report = json.loads(capsys.readouterr().out)
    assert len(matrix_report["labels"]) == 12

    classes_dir = tmp_path / "classes"
    for label, rows in (("disk", bit_files[:5]), ("cross", bit_files[6:11])):
        d = classes_dir / label
        d.mkdir(parents=True)
        for f in rows:
            (d / f.name).write_bytes(f.read_bytes())
    queries = [bit_files[5], bit_files[11]]  # one held-out item per class
    assert (
        main(["classify", str(queries[0]), str(queries[1]), "--classes", str(classes_dir)])
        == 0
    )
    classify_report = json.loads(capsys.readouterr().out)
    assert len(classify_report["items"]) == 2
    for item in classify_report["items"]:
        assert item["predicted"] in ("disk", "cross")
    record(8, "image2bits -> matrix -> classify completed without error on 12 images")
