"""Command-line interface.

Every subcommand prints one JSON report to stdout and a one-line human
summary to stderr. Exit codes: 0 on success; 1 on degenerate input, an input
file that cannot be read, parsed or converted, an input directory that cannot
be listed, or a stdout closed before the whole report is written (``error:
...``); 2 on a usage error (``usage error: ...``). Such an input's error
starts with its path, ``error: PATH: ...``, and so does ``image2bits``'s
refusal of an image whose bitstream, H * W * scale**2 bytes, is above
``ingest.MAX_BITSTREAM_BYTES`` (2**28). A directory holds its regular files,
symlinks followed, and ``quantize DIR`` takes those with suffix ``.csv``.
``--jobs`` bounds the worker pool and can only change wall time, so it is not
echoed into reports.

Every report is ``"command"``, then ``"config"``, then the payload, and
``main`` alone frames it. ``config`` is the one place each setting is echoed:
the backend name and the framing for the subcommands with ``--backend``, then
the subcommand's own settings and paths (``partition``: ``restarts``,
``max_iters``, ``min_size``, ``seed``; ``gen-synthetic``: ``out`` and the
manifest's ``params``). Every subcommand with ``--cache`` but ``loocv`` ends
its payload with ``"compression_jobs"``, the number of sizes compressed rather
than answered by the cache, counted after all work. A ``loocv`` report reads
the same byte for byte whatever the cache holds, so a warm replay can be
checked against a cold run.

Every flag value and every input or output path is checked at parse time,
by its argparse ``type``, so a bad one is refused, naming the flag, before
any input is read; ``--max-card`` may not exceed ``ncd.MAX_EXACT_CARD`` (16).
Inputs must exist. ``--cache``, ``--csv`` and
``--save-config`` must not name a directory and must lie in an existing one;
``--out`` must not name a file or lie under one. argparse's own errors (an
unknown flag, a missing ``--classes``) read ``usage error: ...`` too, and
``main`` returns 2 rather than raising ``SystemExit``. Without ``--backend``
the backend is bz2. The subcommand checks, naming the flag, rules that join
values, still before any work: ``--track-len LO HI`` needs LO <= HI <=
``datagen.MAX_TRACK_LEN`` (2**20 samples, so one track stays under ingest's
2**28 bytes), and no two inputs of ``quantize`` or ``image2bits`` may write
one output file. An ``OSError`` while writing an output is a usage error too.
``matrix --csv`` writes each label as its file name's own bytes, so a name
that is not UTF-8 is written as it is, where the JSON report escapes it.

A ``--cache`` snapshot starts with the line ``# ncdm-sizes v2 BACKEND``
followed by one ``sha256-hex<TAB>size`` record per line. A record's digest is
the SHA-256 of its size request: the framing mode, then the SHA-256 of each
element in canonical order, so a snapshot written under one ``--framing``
answers nothing under the other. Sizes depend on the backend, so a snapshot
written by another backend or an earlier version, or one that is missing the
header or holds a line that does not parse, is a usage error (exit 2).
So is a snapshot that cannot be read. A size has at most 15 digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .classify import METHODS, TestItem, classify_items, loocv
from .compressor import (
    DEFAULT_MAX_PAIRS, DEFAULT_SAMPLE_SEED, FRAMING_MODES, get_backend, normality_report
)
from .datagen import MAX_TRACK_LEN, CellModelParams, simulate_population, write_population
from .errors import NcdmError
from .ingest import (
    DEFAULT_SCALE,
    MAX_SYMBOLS,
    QuantizerConfig,
    fit_quantizer,
    image_to_bitstream,
    list_dir,
    load_corpus,
    quantize_timeseries,
    read_element,
    read_idx_images,
    read_pgm,
    read_test_items,
    read_timeseries_csv,
    reading,
)
from .multiset import Element, Multiset
from .ncd import DEFAULT_MAX_CARD, MAX_EXACT_CARD, NcdCalculator
from .parallel import default_jobs
from .partition import DEFAULT_K, PartitionConfig, min_class_distances, recursive_partition

class UsageError(Exception):
    """Bad paths, flag values or flag combinations; maps to exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Raises every parse error as a ``UsageError``; ``argument FLAG: `` becomes ``FLAG ``."""

    def error(self, message: str):
        raise UsageError(re.sub(r"^argument (\S+): ", r"\1 ", message))


def _arg(convert, ok, problem: str):
    """An argparse type: ``convert``, then require ``ok``; either failure says ``problem``."""

    def parse(raw: str):
        try:
            value = convert(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        except OSError as exc:  # a path the system cannot look up, such as a name too long
            raise argparse.ArgumentTypeError(f"{raw} cannot be looked up: {exc.strerror}") from exc
        raise argparse.ArgumentTypeError(problem.format(raw))

    return parse


def _at_least(low: int):
    return _arg(int, lambda n: n >= low, f"must be >= {low}, got {{}}")


def _parse_min_size(raw: str) -> int | float:
    if raw.endswith("%"):
        return float(raw[:-1]) / 100.0
    try:
        return int(raw)
    except ValueError:
        return float(raw)


_MIN_SIZE = _arg(
    _parse_min_size,
    lambda m: 0 < m < 1 if isinstance(m, float) else m >= 2,
    "must be a count >= 2, or a fraction or percentage strictly between 0 and 1, got {}",
)
_UPSILON = _arg(float, lambda u: 0 < u < math.inf, "must be positive and finite, got {}")
_SYMBOLS = _arg(int, lambda n: 2 <= n <= MAX_SYMBOLS, f"must be in [2, {MAX_SYMBOLS}], got {{}}")
_MAX_CARD = _arg(int, lambda n: 2 <= n <= MAX_EXACT_CARD, f"must be in [2, {MAX_EXACT_CARD}], got {{}}")
_METHODS = {"delta": "delta-ncd1", "min": "min-distance", **{m: m for m in METHODS}}
_METHOD = _arg(_METHODS.get, bool, f"must be one of {', '.join(_METHODS)}, got {{}}")
_BACKEND = _arg(
    lambda spec: get_backend(spec),  # looked up per call, so it can be substituted
    lambda backend: True,
    "{} is not bz2[:1-9], zlib[:1-9] or cmd:COMMAND",
)
# Path types return the string as given, so echoed paths read as typed.
_FILE = _arg(str, os.path.isfile, "{} is not a file")
_DIR = _arg(str, os.path.isdir, "{} is not a directory")
_FILE_OR_DIR = _arg(
    str, lambda p: os.path.isfile(p) or os.path.isdir(p), "{} is not a file or directory"
)
_OUT_FILE = _arg(
    str,
    lambda p: not Path(p).is_dir() and Path(p).parent.is_dir(),
    "{} is a directory or lies in a missing one",
)
_OUT_DIR = _arg(
    str,
    lambda p: next(a for a in (Path(p), *Path(p).parents) if a.exists()).is_dir(),
    "{} is a file or lies under one",
)


@contextmanager
def _writing(flag: str, path: str | Path):
    """Report an ``OSError`` while writing an output as a usage error naming its flag."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {flag} {path}: {exc}") from exc


def _gather_elements(inputs: list[str]) -> list[Element]:
    """A single directory (one element per file) or two-plus explicit files."""
    if len(inputs) == 1 and Path(inputs[0]).is_dir():
        files = list_dir(inputs[0])
        if len(files) < 2:
            raise UsageError(f"directory {Path(inputs[0])} holds {len(files)} files; need >= 2")
        return [read_element(p, p.name) for p in files]
    if len(inputs) < 2 or not all(map(os.path.isfile, inputs)):
        raise UsageError("pass a directory or at least two files")
    return [read_element(p) for p in inputs]


def _targets(out: str, sources: list[tuple[str, str]], suffix: str) -> list[Path]:
    """``out/STEM{suffix}`` for each ``(input, name)``; two inputs may not share one."""
    seen: dict[Path, str] = {}
    for source, name in sources:
        target = Path(out) / (Path(name).stem + suffix)
        if target in seen:
            raise UsageError(f"{seen[target]} and {source} would both write {target}")
        seen[target] = source
    return list(seen)


def _add_backend(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend",
        type=_BACKEND,
        default="bz2",
        help="compressor: bz2[:LEVEL], zlib[:LEVEL], or cmd:COMMAND (default: bz2)",
    )
    sub.add_argument(
        "--framing",
        choices=FRAMING_MODES,
        default=FRAMING_MODES[0],
        help="element framing; use varint for binary inputs (default: text)",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    _add_backend(sub)
    sub.add_argument(
        "--jobs",
        type=_at_least(1),
        default=default_jobs(),
        help="worker pool size (default: hardware parallelism); affects wall time only",
    )
    sub.add_argument("--cache", type=_OUT_FILE, metavar="FILE", help="persistent size-cache snapshot")


def _with_calc(handler, count_jobs: bool = True):
    """Run ``handler(args, calc)`` between loading the ``--cache`` snapshot
    into the calculator's own cache and saving it. If ``count_jobs``, its
    payload ends with the compression job count, read after all of the
    handler's work.
    """

    def run(args: argparse.Namespace) -> tuple[dict, dict, str]:
        calc = NcdCalculator(args.backend, mode=args.framing, jobs=args.jobs)
        snapshot = Path(args.cache) if args.cache else None
        if snapshot is not None and snapshot.is_file():
            try:
                calc.cache.load(snapshot)
            except (OSError, ValueError) as exc:
                raise UsageError(str(exc)) from exc
        echo, payload, summary = handler(args, calc)
        if snapshot is not None:
            with _writing("--cache", snapshot):
                calc.cache.save(snapshot)
        if count_jobs:
            payload["compression_jobs"] = calc.cache.job_count
        return echo, payload, summary

    return run


# -- subcommand handlers -----------------------------------------------


def _cmd_pair(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    x = read_element(args.file1)
    y = read_element(args.file2)
    result = calc.ncd_pairwise(x, y)
    payload = {"formula": result.formula, "value": result.value, "elements": [x.id, y.id]}
    return {}, payload, f"pairwise distance {result.value:.6f}"


def _cmd_multiset(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    ms = Multiset(_gather_elements(args.inputs))
    if args.exact:
        result = calc.ncd_exact(ms, max_card=args.max_card)
        payload = {
            "formula": result.formula,
            "value": result.value,
            "witness": list(result.witness.ids()) if result.witness else None,
            "chain": None,
        }
        summary = f"exact distance {result.value:.6f} over {len(ms)} elements"
    elif args.ncd1:
        result = calc.ncd1(ms)
        payload = {"formula": result.formula, "value": result.value, "witness": None, "chain": None}
        summary = f"ncd1 {result.value:.6f} over {len(ms)} elements"
    else:
        heuristic = calc.ncd_heuristic(ms)
        payload = heuristic.to_dict()
        summary = f"heuristic distance {heuristic.ncd.value:.6f} over {len(ms)} elements"
    return {"elements": list(ms.ids())}, payload, summary


def _cmd_matrix(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    dm = calc.distance_matrix(_gather_elements(args.inputs))
    if args.csv:
        with _writing("--csv", args.csv):
            Path(args.csv).write_text(dm.to_csv(), encoding="utf-8", errors="surrogateescape")
    payload = {"labels": list(dm.labels), "values": dm.values.tolist()}
    return {"csv": args.csv}, payload, f"{len(dm.labels)}x{len(dm.labels)} distance matrix"


def _cmd_classify(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    classes = load_corpus(args.classes)
    tests = read_test_items(args.test) if args.test else []
    items = [*tests, *(TestItem(read_element(path)) for path in args.items)]
    if not items:
        raise UsageError("no items to classify; pass files or --test")
    results = classify_items(calc, [(item, classes) for item in items], args.method)
    echo = {"method": args.method, "classes": sorted(classes)}
    payload = {"items": [result.to_dict() for result in results]}
    summary = f"classified {len(results)} items with {args.method}"
    labeled = [result for result in results if result.true_label is not None]
    if labeled:
        correct = sum(result.predicted == result.true_label for result in labeled)
        summary += f"; {correct}/{len(labeled)} labeled items correct"
    return echo, payload, summary


def _cmd_loocv(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    result = loocv(calc, load_corpus(args.classes), method=args.method)
    return {"method": args.method}, result.to_dict(), result.summary()


def _cmd_partition(args, calc: NcdCalculator) -> tuple[dict, dict, str]:
    cfg = PartitionConfig(*(getattr(args, f.name) for f in dataclasses.fields(PartitionConfig)))
    classes = load_corpus(args.classes)
    element = read_element(args.item) if args.item else None  # read before any work
    tree = recursive_partition(calc, classes, cfg, stop_margin=args.stop_margin)
    payload = tree.to_dict()
    if element is not None:
        payload["item_distances"] = {
            "id": element.id,
            "k": args.k,
            "distances": min_class_distances(calc, element, tree, k=args.k),
        }
    n_leaves = sum(len(tree.leaves(label)) for label in tree.roots)
    summary = f"partitioned {len(classes)} classes into {n_leaves} leaves"
    return dataclasses.asdict(tree.config), payload, summary


def _cmd_gen_synthetic(args) -> tuple[dict, dict, str]:
    try:
        params = CellModelParams(
            upsilon=args.upsilon,
            population_limit=args.population_limit,
            track_len_range=tuple(args.track_len),
            seed=args.seed,
        )
    except ValueError as exc:  # the flag types leave only --track-len's LO <= HI <= MAX
        raise UsageError(str(exc).replace("track_len_range", "--track-len")) from exc
    tracks = simulate_population(params, args.cells)
    with _writing("--out", args.out):
        manifest = write_population(tracks, args.out, params)
    echo = {"out": args.out, **manifest.pop("params")}
    return echo, manifest, f"wrote {len(tracks)} cell tracks to {args.out}"


def _cmd_compressor_check(args) -> tuple[dict, dict, str]:
    corpus = _gather_elements([args.corpus])
    result = normality_report(
        args.backend,
        corpus,
        tolerance=args.tolerance,
        max_pairs=args.max_pairs,
        seed=args.seed,
        mode=args.framing,
    )
    verdict = "normal within tolerance" if result.ok else "violations recorded"
    return {"seed": args.seed}, result.to_dict(), f"{args.backend.name}: {verdict}"


def _cmd_quantize(args) -> tuple[dict, dict, str]:
    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        paths.extend([f for f in list_dir(p) if f.suffix == ".csv"] if p.is_dir() else [p])
    if not paths:
        raise UsageError("no CSV inputs found")
    targets = _targets(args.out, [(str(p), p.name) for p in paths], ".sym")
    series = [read_timeseries_csv(p) for p in paths]
    if args.config:
        with reading(args.config):
            quantizer = QuantizerConfig.from_json(Path(args.config).read_text())
    else:
        with reading(", ".join(args.inputs)):  # the fit pools every input
            quantizer = fit_quantizer(series, args.symbols)
    elements = []
    for p, ts in zip(paths, series):
        with reading(p):
            elements.append(quantize_timeseries(ts, quantizer=quantizer))
    with _writing("--out", args.out):
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for target, element in zip(targets, elements):
            target.write_bytes(element.data)
    if args.save_config:
        with _writing("--save-config", args.save_config):
            Path(args.save_config).write_text(quantizer.to_json() + "\n")
    written = [str(target) for target in targets]
    echo = {"n_symbols": quantizer.n_symbols, "out": args.out, "save_config": args.save_config}
    summary = f"quantized {len(written)} series with {quantizer.n_symbols} symbols"
    return echo, {"files": written}, summary


def _cmd_image2bits(args) -> tuple[dict, dict, str]:
    named = []  # (input file, image)
    if args.idx:
        named += [(args.idx, img) for img in read_idx_images(args.idx, limit=args.limit)]
    named += [(raw, read_pgm(raw)) for raw in args.inputs]
    if not named:
        raise UsageError("no images given; pass PGM files or --idx")
    targets = _targets(args.out, [(source, img.name) for source, img in named], ".bits")
    elements = []
    for source, img in named:
        with reading(source):  # a --scale too large for the image names its file
            elements.append(image_to_bitstream(img, scale=args.scale))
    written = []
    with _writing("--out", args.out):
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for target, element in zip(targets, elements):
            target.write_bytes(element.data)
            written.append({"file": str(target), "length": len(element.data)})
    echo = {"scale": args.scale, "out": args.out}
    return echo, {"files": written}, f"binarized {len(written)} images at scale {args.scale}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncdm",
        description="Compression-based similarity over multisets of byte strings.",
    )
    parser.add_argument("--version", action="version", version=f"ncdm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pair", help="distance between two files")
    p.add_argument("file1", type=_FILE)
    p.add_argument("file2", type=_FILE)
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_pair))

    p = subs.add_parser("multiset", help="multiset distance of a directory or files")
    p.add_argument("inputs", nargs="+", type=_FILE_OR_DIR)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--heuristic", action="store_true", help="greedy chain (default)")
    style.add_argument("--exact", action="store_true", help="full subset enumeration")
    style.add_argument("--ncd1", action="store_true", help="un-maximized ratio only")
    p.add_argument("--max-card", type=_MAX_CARD, default=DEFAULT_MAX_CARD, help="cap for --exact")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_multiset))

    p = subs.add_parser("matrix", help="pairwise distance matrix")
    p.add_argument("inputs", nargs="+", type=_FILE_OR_DIR)
    p.add_argument("--csv", type=_OUT_FILE, default=None, help="also write the matrix as CSV")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_matrix))

    p = subs.add_parser("classify", help="assign items to the closest class")
    p.add_argument("items", nargs="*", type=_FILE, help="files to classify")
    p.add_argument("--classes", type=_DIR, required=True, help="directory-per-class corpus")
    p.add_argument("--test", type=_FILE_OR_DIR, help="directory of loose items or JSON manifest")
    p.add_argument("--method", type=_METHOD, default="delta", help="delta (default) or min-distance")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_classify))

    p = subs.add_parser("loocv", help="leave-one-out cross-validation")
    p.add_argument("--classes", type=_DIR, required=True)
    p.add_argument("--method", type=_METHOD, default="delta")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_loocv, count_jobs=False))

    p = subs.add_parser("partition", help="margin-guided recursive bipartitioning")
    p.add_argument("--classes", type=_DIR, required=True)
    p.add_argument("--restarts", type=_at_least(1))
    p.add_argument("--max-iters", type=_at_least(1))
    p.add_argument("--min-size", type=_MIN_SIZE, help="member count or percentage like 30%%")
    p.add_argument("--stop-margin", type=_arg(float, math.isfinite, "must be finite, got {}"))
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--item", type=_FILE, help="also score this file against the leaves")
    p.add_argument(
        "-k", type=_at_least(1), default=DEFAULT_K, help="distances kept per class for --item"
    )
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_partition), **dataclasses.asdict(PartitionConfig()))

    p = subs.add_parser("gen-synthetic", help="simulate a proliferating cell population")
    p.add_argument("--upsilon", type=_UPSILON, required=True, help="growth exponent")
    p.add_argument("--cells", type=_at_least(1), default=60)
    p.add_argument("--out", type=_OUT_DIR, required=True)
    p.add_argument("--seed", type=_at_least(0), default=CellModelParams.seed)
    p.add_argument("--population-limit", type=_at_least(1), default=CellModelParams.population_limit)
    p.add_argument(
        "--track-len",
        type=_at_least(2),
        nargs=2,
        default=CellModelParams.track_len_range,
        metavar=("LO", "HI"),
        help=f"samples per track, 2 <= LO <= HI <= {MAX_TRACK_LEN}",
    )
    p.set_defaults(handler=_cmd_gen_synthetic)

    p = subs.add_parser("compressor-check", help="normality diagnostics for a backend")
    p.add_argument("corpus", type=_DIR, help="directory of sample files")
    p.add_argument("--tolerance", type=_at_least(0), help="fixed byte slack (default: adaptive)")
    p.add_argument("--max-pairs", type=_at_least(0), default=DEFAULT_MAX_PAIRS)
    p.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED)
    _add_backend(p)
    p.set_defaults(handler=_cmd_compressor_check)

    p = subs.add_parser("quantize", help="CSV time series to symbol streams")
    p.add_argument("inputs", nargs="+", type=_FILE_OR_DIR, help="CSV files or a directory of them")
    p.add_argument("--symbols", type=_SYMBOLS, default=4)
    p.add_argument("--out", type=_OUT_DIR, required=True)
    p.add_argument("--config", type=_FILE, default=None, help="reuse a fitted quantizer (JSON)")
    p.add_argument("--save-config", type=_OUT_FILE, help="persist the fitted quantizer")
    p.set_defaults(handler=_cmd_quantize)

    p = subs.add_parser("image2bits", help="grayscale images to Otsu bitstreams")
    p.add_argument("inputs", nargs="*", type=_FILE, help="PGM (P5) files")
    p.add_argument("--idx", type=_FILE, default=None, help="IDX-style image file")
    p.add_argument("--limit", type=_at_least(1), default=None, help="cap on IDX records")
    p.add_argument("--scale", type=_at_least(1), default=DEFAULT_SCALE)
    p.add_argument("--out", type=_OUT_DIR, required=True)
    p.set_defaults(handler=_cmd_image2bits)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        echo, payload, summary = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NcdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "backend" in args:
        echo = {"backend": args.backend.name, "framing": args.framing, **echo}
    try:
        print(json.dumps({"command": args.command, "config": echo, **payload}, indent=2))
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:  # the recipe of the Python signal docs
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot fail again
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
