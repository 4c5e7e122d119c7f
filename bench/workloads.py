"""The benchmark's workloads and the closed loop that times them.

Every workload is one client in one process: it sends its next operation only
after the previous one returned, and passes ``--jobs 2`` / ``jobs=2``
explicitly, so at most two worker threads run whatever the machine's default.
An operation is one CLI invocation (``ncdm.cli.main`` called in-process) or
one library call. Its inputs are generated from the workload seed; the
program receives only the generated files or elements.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ncdm.cli
from ncdm import compressor, datagen, ingest, multiset, ncd, partition

import reference
import tracing

JOBS = 2
DOC_BYTES = 1200


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark runs; ``TOY`` keeps the
    benchmark's own tests to seconds."""

    cells_per_class: int
    track_len: tuple[int, int]
    docs_per_class: int
    klists_min_size: int
    glyphs_per_kind: int
    reference_folds: int
    reference_pairs: int
    setup_repeats: int


FULL = Scale(
    cells_per_class=16,
    track_len=(228, 280),
    docs_per_class=16,
    klists_min_size=12,
    glyphs_per_kind=100,
    reference_folds=2,
    reference_pairs=20,
    setup_repeats=3,
)
TOY = Scale(
    cells_per_class=4,
    track_len=(40, 60),
    docs_per_class=6,
    klists_min_size=4,
    glyphs_per_kind=6,
    reference_folds=1,
    reference_pairs=5,
    setup_repeats=1,
)


class OperationError(Exception):
    """The program raised, or a CLI invocation exited non-zero."""


@dataclass(frozen=True)
class Output:
    """What one operation produced: a value every operation must reproduce
    exactly, and the bytes of report the CLI emitted."""

    value: object
    report_bytes: int = 0


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ncdm.cli.main(argv)
    if code != 0:
        raise OperationError(f"ncdm {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


class Workload:
    """Set-up, one timed operation, and the checks on its output.

    ``build`` generates and writes the inputs and is repeated to time set-up;
    ``prepare`` runs once after the last build and counts in set-up.
    ``before_op`` and ``collect`` run outside the timed region.
    ``expected`` is the output every operation must equal; when a workload
    leaves it unset, the first operation's output is used.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: Scale) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.expected: Output | None = None

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def before_op(self) -> None:
        pass

    def op(self) -> object:
        raise NotImplementedError

    def collect(self, raw: object) -> Output:
        return raw

    def check(self, out: Output) -> list[str]:
        raise NotImplementedError


# -- LOOCV on the synthetic retinal-cell corpus ----------------------------


class _Loocv(Workload):
    N_SYMBOLS = 4

    @property
    def corpus_dir(self) -> Path:
        return self.workdir / "cells"

    @property
    def cache_file(self) -> Path:
        return self.workdir / "sizes.tsv"

    def build(self) -> None:
        fast_seed, slow_seed = (int(s) for s in np.random.SeedSequence(self.seed).generate_state(2))
        n = self.scale.cells_per_class
        populations = {}
        for label, upsilon, seed in (("fast", 3.0, fast_seed), ("slow", 0.9, slow_seed)):
            params = datagen.CellModelParams(
                upsilon=upsilon, track_len_range=self.scale.track_len, seed=seed
            )
            populations[label] = [
                ingest.TimeSeries(t.features, datagen.FEATURE_NAMES, name=f"cell_{t.index:03d}")
                for t in datagen.simulate_population(params, n)
            ]
        quantizer = ingest.fit_quantizer(
            [ts for series in populations.values() for ts in series], self.N_SYMBOLS
        )
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        self.classes: dict[str, dict[str, bytes]] = {}
        for label, series in populations.items():
            (self.corpus_dir / label).mkdir(parents=True)
            files = {}
            for ts in series:
                data = ingest.quantize_timeseries(ts, quantizer=quantizer).data
                (self.corpus_dir / label / f"{ts.name}.sym").write_bytes(data)
                files[f"{label}/{ts.name}.sym"] = data
            self.classes[label] = files

    def argv(self) -> list[str]:
        return [
            "loocv", "--classes", str(self.corpus_dir), "--method", "delta",
            "--backend", "bz2", "--jobs", str(JOBS), "--cache", str(self.cache_file),
        ]

    def op(self) -> str:
        return run_cli(self.argv())

    def collect(self, raw: str) -> Output:
        return Output(raw, len(raw.encode()))

    def check(self, out: Output) -> list[str]:
        report = json.loads(out.value)
        errors = []
        ids = {item_id: label for label, files in self.classes.items() for item_id in files}
        items = report["items"]
        if sorted(item["id"] for item in items) != sorted(ids):
            errors.append("LOOCV items are not the corpus files, each once")
            return errors
        correct = 0
        for item in items:
            if item["true_label"] != ids[item["id"]]:
                errors.append(f"{item['id']}: true label {item['true_label']!r}")
            if set(item["scores"]) != set(self.classes):
                errors.append(f"{item['id']}: scored against {sorted(item['scores'])}")
                continue
            if item["predicted"] != reference.argmin_label(item["scores"]):
                errors.append(f"{item['id']}: prediction is not the argmin of its scores")
            correct += item["predicted"] == item["true_label"]
        n = len(items)
        if report["n"] != n or report["accuracy"] != correct / n:
            errors.append(f"accuracy {report['accuracy']} over n={report['n']} != {correct}/{n}")
        lo, hi = reference.wilson_interval(correct / n, n)
        if not (math.isclose(report["ci"][0], lo, abs_tol=1e-9)
                and math.isclose(report["ci"][1], hi, abs_tol=1e-9)):
            errors.append(f"Wilson interval {report['ci']} != closed form {[lo, hi]}")
        ref = reference.Reference("bz2")
        sample = random.Random(self.seed).sample(items, self.scale.reference_folds)
        for item in sample:
            held = ids[item["id"]]
            x = self.classes[held][item["id"]]
            for label, files in self.classes.items():
                klass = [data for item_id, data in files.items() if item_id != item["id"]]
                want = ref.delta(x, klass)
                if not reference.close(item["scores"][label], want):
                    errors.append(
                        f"{item['id']} vs {label}: score {item['scores'][label]!r}, "
                        f"reference {want!r}"
                    )
        return errors


class LoocvCold(_Loocv):
    name = "loocv-cold"

    def before_op(self) -> None:
        self.cache_file.unlink(missing_ok=True)


class LoocvWarm(_Loocv):
    name = "loocv-warm"

    def prepare(self) -> None:
        self.cache_file.unlink(missing_ok=True)
        self.expected = self.collect(self.op())

    def collect(self, raw: str) -> Output:
        # A replay must add no entry to the snapshot, so its entry count is
        # part of what every replay must reproduce.
        entries = len(self.cache_file.read_text().splitlines())
        return Output((raw, entries), len(raw.encode()))

    def check(self, out: Output) -> list[str]:
        return super().check(Output(out.value[0], out.report_bytes))


# -- K-Lists on planted phrase-text classes --------------------------------


def phrase_class(rng: random.Random, alphabet: str, count: int, prefix: str) -> list[multiset.Element]:
    """Documents of DOC_BYTES drawn from one class phrasebook over the class's own letters.

    Each document strings together phrases sampled from 100, so it compresses
    better the more same-class documents sit beside it, and two classes with
    disjoint alphabets share nothing. All documents have the same length, so
    the canonical (length, bytes) order puts every document of the earlier
    alphabet first, whatever the seed.
    """
    vocab = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 8))) for _ in range(40)]
    book = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(12, 18))) for _ in range(100)]
    docs = []
    for i in range(count):
        text = ""
        while len(text) < DOC_BYTES:
            text += rng.choice(book) + " "
        docs.append(multiset.Element(text[:DOC_BYTES].encode(), id=f"{prefix}{i:02d}"))
    return docs


def _split_summary(result: partition.SplitResult) -> tuple:
    return (
        result.a.ids(),
        result.b.ids(),
        result.margin.value,
        tuple((r.a.ids(), r.b.ids(), r.margin, r.iterations, r.converged) for r in result.restarts),
    )


class KlistsZlib(Workload):
    name = "klists-zlib"
    RESTARTS = 5
    # The restart seed is fixed, not drawn from the workload seed. Under it
    # every restart starts from one document of each class (they sit at
    # canonical positions 0..n-1 and n..2n-1), so each run does the same
    # amount of search; a restart seeded inside one class takes 3 to 11
    # single-element moves depending on the data, which made run times vary
    # by more than 2x from seed to seed.
    RESTART_SEED = 12

    def build(self) -> None:
        rng = random.Random(self.seed)
        n = self.scale.docs_per_class
        a = phrase_class(rng, "abcdefghijklm", n, "a")
        b = phrase_class(rng, "nopqrstuvwxyz", n, "b")
        self.elements = a + b
        self.data = {e.id: e.data for e in self.elements}
        self.planted = {frozenset(e.id for e in a), frozenset(e.id for e in b)}

    def op(self) -> partition.SplitResult:
        calc = ncd.NcdCalculator(compressor.get_backend("zlib"), jobs=JOBS)
        cfg = partition.PartitionConfig(
            restarts=self.RESTARTS, min_size=self.scale.klists_min_size, seed=self.RESTART_SEED
        )
        return partition.klists_split(calc, multiset.Multiset(self.elements), cfg)

    def collect(self, raw: partition.SplitResult) -> Output:
        return Output(_split_summary(raw))

    def check(self, out: Output) -> list[str]:
        a_ids, b_ids, margin, restarts = out.value
        errors = []
        everything = sorted(self.data)
        for i, (ra, rb, _m, _it, _conv) in enumerate(restarts):
            if sorted(ra + rb) != everything:
                errors.append(f"restart {i}: sides do not partition the input")
            if min(len(ra), len(rb)) < self.scale.klists_min_size:
                errors.append(f"restart {i}: side sizes {len(ra)}/{len(rb)} below min_size")
        if len(restarts) != self.RESTARTS:
            errors.append(f"{len(restarts)} restarts, expected {self.RESTARTS}")
        if {frozenset(a_ids), frozenset(b_ids)} != self.planted:
            errors.append("the chosen split is not the planted one")
        ref = reference.Reference("zlib")
        want = ref.margin([self.data[i] for i in a_ids], [self.data[i] for i in b_ids])
        if not reference.close(margin, want):
            errors.append(f"margin {margin!r}, reference {want!r}")
        return errors


# -- pairwise matrix over glyph bitstreams ---------------------------------


def glyph_images(rng: np.random.Generator, kind: str, count: int) -> list[np.ndarray]:
    """Stand-ins for handwritten digits: 28x28 disks or crosses.

    Centre, radius and stroke width are drawn from continuous ranges, and
    each glyph gets its own stray ink dots and gaps in its strokes. All of
    these survive the Otsu binarization of ``image_to_bitstream``, so no two
    glyphs give the same bitstream, as with real handwriting; grey-level
    noise alone would be thresholded away.
    """
    yy, xx = np.mgrid[0:28, 0:28]
    out = []
    for _ in range(count):
        canvas = rng.integers(0, 40, size=(28, 28))
        cx, cy = rng.uniform(10.5, 17.5, size=2)
        if kind == "disk":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= rng.uniform(25, 64)
        else:
            width = rng.uniform(1.5, 3.5)
            mask = (abs(xx - cx) < width) | (abs(yy - cy) < width)
        mask &= rng.random((28, 28)) >= 0.06  # gaps in the strokes
        mask |= rng.random((28, 28)) < 0.02  # stray ink
        canvas[mask] = rng.integers(180, 255)
        out.append(canvas.astype(np.uint8))
    return out


class MatrixCli(Workload):
    name = "matrix-cli"

    @property
    def glyph_dir(self) -> Path:
        return self.workdir / "glyphs"

    @property
    def csv_file(self) -> Path:
        return self.workdir / "matrix.csv"

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.glyph_dir, ignore_errors=True)
        self.glyph_dir.mkdir(parents=True)
        self.bits: dict[str, bytes] = {}
        for kind in ("disk", "cross"):
            for i, pixels in enumerate(glyph_images(rng, kind, self.scale.glyphs_per_kind)):
                name = f"{kind}{i:03d}.bits"
                data = ingest.image_to_bitstream(ingest.GrayImage(pixels, name=name)).data
                (self.glyph_dir / name).write_bytes(data)
                self.bits[name] = data

    def before_op(self) -> None:
        self.csv_file.unlink(missing_ok=True)

    def op(self) -> str:
        return run_cli([
            "matrix", str(self.glyph_dir), "--backend", "zlib", "--jobs", str(JOBS),
            "--csv", str(self.csv_file),
        ])

    def collect(self, raw: str) -> Output:
        csv_text = self.csv_file.read_text()
        return Output((raw, csv_text), len(raw.encode()) + len(csv_text.encode()))

    def check(self, out: Output) -> list[str]:
        report_text, csv_text = out.value
        report = json.loads(report_text)
        labels = report["labels"]
        values = report["values"]
        n = len(labels)
        errors = []
        if labels != sorted(self.bits):
            return ["matrix labels are not the glyph files in name order"]
        if len(values) != n or any(len(row) != n for row in values):
            return [f"matrix is not {n}x{n}"]
        for i in range(n):
            if values[i][i] != 0.0:
                errors.append(f"diagonal entry {i} is {values[i][i]}")
            for j in range(i + 1, n):
                if values[i][j] != values[j][i]:
                    errors.append(f"entries ({i},{j}) and ({j},{i}) differ")
        rows = [line.split(",") for line in csv_text.splitlines()]
        if rows[0] != labels or len(rows) != n + 1:
            errors.append("CSV header or row count disagrees with the JSON report")
        else:
            for i, row in enumerate(rows[1:]):
                if len(row) != n or any(
                    not math.isclose(float(cell), v, rel_tol=5e-9, abs_tol=1e-300)
                    for cell, v in zip(row, values[i])
                ):
                    errors.append(f"CSV row {i} differs from the JSON beyond 9 significant digits")
        ref = reference.Reference("zlib")
        rng = random.Random(self.seed)
        for _ in range(self.scale.reference_pairs):
            i, j = rng.sample(range(n), 2)
            want = ref.pairwise(self.bits[labels[i]], self.bits[labels[j]])
            if not reference.close(values[i][j], want):
                errors.append(f"entry ({labels[i]}, {labels[j]}) {values[i][j]!r}, reference {want!r}")
        return errors[:20]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LoocvCold, LoocvWarm, KlistsZlib, MatrixCli)
}


# -- the timed loop ------------------------------------------------------


def machine_note() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jobs": JOBS,
    }


@contextlib.contextmanager
def _segment(tracer: tracing.Tracer | None, kind: str):
    if tracer is None:
        yield
    else:
        with tracer.segment(kind):
            yield


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: Scale = FULL,
    started: float | None = None,
    trace_file: Path | None = None,
) -> tuple[dict, dict]:
    """Set up, then run operations until ``seconds`` have passed.

    Returns the result (``correct``, ``attempted``, ``failed``, ``metrics``)
    and a detail record with the machine note and every sample. Untraced,
    the metrics are the end-to-end ones; traced, operations alternate
    untraced and traced, and the metrics are the per-layer ones plus the
    tracing overhead.
    """
    if started is None:
        started = time.perf_counter()
    tracer = tracing.Tracer(JOBS) if trace else None
    workload = WORKLOADS[name](seed, workdir, scale)
    workdir.mkdir(parents=True, exist_ok=True)
    import_s = time.perf_counter() - started

    build_s = []
    for _ in range(scale.setup_repeats):
        t0 = time.perf_counter()
        with _segment(tracer, "setup"):
            workload.build()
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.prepare()
    setup_s = import_s + statistics.median(build_s) + (time.perf_counter() - t0)

    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    errors: list[str] = []
    attempted = failed = completed = mismatched = 0
    traced_next = False
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and traced_next
        workload.before_op()
        with _segment(tracer if traced else None, "op"):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                raw = workload.op()
            except Exception as exc:  # one failed operation must not end the run
                raw, error = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
        attempted += 1
        if raw is None:
            failed += 1
            errors.append(error)
        else:
            walls[traced].append(t1 - t0)
            if not traced:
                cpus.append(c1 - c0)
            out = workload.collect(raw)
            if traced:
                tracer.note("cli.report", out.report_bytes)
            # Compare at once and keep only the expected output, so the
            # process's peak memory does not grow with the operations run.
            completed += 1
            if workload.expected is None:
                workload.expected = out
            elif out.value != workload.expected.value:
                mismatched += 1
            del raw, out
        traced_next = not traced_next
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break

    if workload.expected is None:
        raise OperationError(f"{name}: no operation completed: {errors[:1]}")
    correct = True
    if mismatched:
        correct = False
        errors.append(f"{mismatched} operations differ from the expected output")
    check_errors = workload.check(workload.expected)
    if check_errors:
        correct = False
        errors.extend(check_errors)
        mismatched = completed  # the outputs that matched it are as wrong as it is
    failed += mismatched
    for message in errors[:20]:
        print(f"{name}: {message}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        layers = tracer.metrics()
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = {key: (value, tracing.UNITS[key]) for key, value in layers.items()}
        if trace_file is not None:
            tracer.write(trace_file)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "machine": machine_note(),
        "import_s": import_s,
        "build_s": build_s,
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "cpu_s": cpus,
    }
    return result, detail
