"""Command-line interface.

Every subcommand prints one JSON report to stdout and a one-line human
summary to stderr. Exit codes: 0 on success; 1 on degenerate input or a
malformed data file (``error: ...``); 2 on a usage error (``usage error:
...``), such as a missing input or a bad flag value, which is refused before
any work. ``--jobs`` bounds the worker pool and can only change wall time,
so it is not echoed into reports.

A ``--cache`` snapshot starts with the line ``# ncdm-sizes v2 BACKEND``
followed by one ``sha256-hex<TAB>size`` record per line. A record's digest is
the SHA-256 of its size request: the framing mode, then the SHA-256 of each
element in canonical order, so a snapshot written under one ``--framing``
answers nothing under the other. Sizes depend on the backend, so a snapshot
written by another backend or an earlier version, or one that is missing the
header or holds a line that does not parse, is a usage error (exit 2).
So is a ``--cache`` path that names a directory or lies in a missing
directory (refused before any work is done), and one that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .classify import METHODS, TestItem, classify_items, loocv
from .compressor import CompressorBackend, SizeCache, get_backend, normality_report
from .datagen import CellModelParams, simulate_population, write_population
from .errors import CorpusError, NcdmError
from .ingest import (
    MAX_SYMBOLS,
    QuantizerConfig,
    fit_quantizer,
    image_to_bitstream,
    load_corpus,
    quantize_timeseries,
    read_idx_images,
    read_pgm,
    read_timeseries_csv,
)
from .multiset import Element, Multiset
from .ncd import DEFAULT_MAX_CARD, NcdCalculator
from .parallel import default_jobs
from .partition import PartitionConfig, min_class_distances, recursive_partition

BACKEND_ENV = "NCDM_BACKEND"


class UsageError(Exception):
    """Bad paths, flag values or flag combinations; maps to exit status 2."""


@contextmanager
def _reraise(error: type[Exception], caught: type[Exception] | tuple = ValueError):
    """Re-raise a library error (a bad flag value or data file) as ``error``."""
    try:
        yield
    except caught as exc:
        raise error(str(exc)) from exc


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"input file not found: {path}")
    return p


def _require_dir(path: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"input directory not found: {path}")
    return p


def _read_element(path: Path, ident: str | None = None) -> Element:
    return Element(path.read_bytes(), id=ident if ident is not None else str(path))


def _gather_elements(inputs: list[str]) -> list[Element]:
    """A single directory (one element per file) or two-plus explicit files."""
    if len(inputs) == 1 and Path(inputs[0]).is_dir():
        root = Path(inputs[0])
        files = sorted(p for p in root.iterdir() if p.is_file())
        if len(files) < 2:
            raise UsageError(f"directory {root} holds {len(files)} files; need >= 2")
        return [_read_element(p, p.name) for p in files]
    if len(inputs) < 2:
        raise UsageError("pass a directory or at least two files")
    return [_read_element(_require_file(p)) for p in inputs]


def _add_backend(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend",
        default=None,
        help=f"compressor: bz2[:LEVEL], zlib[:LEVEL], or cmd:COMMAND "
        f"(default: ${BACKEND_ENV} or bz2)",
    )
    sub.add_argument(
        "--framing",
        choices=("text", "varint"),
        default="text",
        help="element framing; use varint for binary inputs (default: text)",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    _add_backend(sub)
    sub.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        help="worker pool size (default: hardware parallelism); affects wall time only",
    )
    sub.add_argument(
        "--cache", default=None, metavar="FILE", help="persistent size-cache snapshot"
    )


def _backend(args: argparse.Namespace) -> CompressorBackend:
    with _reraise(UsageError):
        return get_backend(args.backend or os.environ.get(BACKEND_ENV) or "bz2")


def _with_calc(handler):
    """Run ``handler(args, calc)``; load the ``--cache`` snapshot before, save it after."""

    def run(args: argparse.Namespace) -> tuple[dict, str]:
        backend = _backend(args)
        cache = SizeCache()
        snapshot = Path(args.cache) if args.cache else None
        if snapshot is not None and (snapshot.is_dir() or not snapshot.parent.is_dir()):
            raise UsageError(f"--cache {snapshot} is a directory or lies in a missing one")
        if snapshot is not None and snapshot.is_file():
            with _reraise(UsageError, (OSError, ValueError)):
                cache.load(snapshot, backend.name)
        result = handler(args, NcdCalculator(backend, mode=args.framing, cache=cache, jobs=args.jobs))
        if snapshot is not None:
            try:
                cache.save(snapshot, backend.name)
            except OSError as exc:
                raise UsageError(f"cannot write --cache {snapshot}: {exc}") from exc
        return result

    return run


def _config_echo(calc: NcdCalculator, **extra) -> dict:
    return {"backend": calc.backend.name, "framing": calc.mode, **extra}


def _normalize_method(raw: str) -> str:
    aliases = {"delta": "delta-ncd1", "min": "min-distance", **{m: m for m in METHODS}}
    if raw not in aliases:
        raise UsageError(f"unknown method {raw!r}")
    return aliases[raw]


def _parse_min_size(raw: str) -> int | float:
    if raw.endswith("%"):
        return float(raw[:-1]) / 100.0
    try:
        return int(raw)
    except ValueError:
        return float(raw)


# -- subcommand handlers -----------------------------------------------


def _cmd_pair(args, calc: NcdCalculator) -> tuple[dict, str]:
    x = _read_element(_require_file(args.file1))
    y = _read_element(_require_file(args.file2))
    result = calc.ncd_pairwise(x, y)
    report = {
        "command": "pair",
        "config": _config_echo(calc),
        "formula": result.formula,
        "value": result.value,
        "elements": [x.id, y.id],
        "compression_jobs": calc.cache.job_count,
    }
    return report, f"pairwise distance {result.value:.6f}"


def _cmd_multiset(args, calc: NcdCalculator) -> tuple[dict, str]:
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
    report = {
        "command": "multiset",
        "config": _config_echo(calc, elements=list(ms.ids())),
        **payload,
        "compression_jobs": calc.cache.job_count,
    }
    return report, summary


def _cmd_matrix(args, calc: NcdCalculator) -> tuple[dict, str]:
    dm = calc.distance_matrix(_gather_elements(args.inputs))
    if args.csv:
        Path(args.csv).write_text(dm.to_csv())
    report = {
        "command": "matrix",
        "config": _config_echo(calc),
        "labels": list(dm.labels),
        "values": [[float(v) for v in row] for row in dm.values],
        "csv": args.csv,
        "compression_jobs": calc.cache.job_count,
    }
    return report, f"{len(dm.labels)}x{len(dm.labels)} distance matrix"


def _cmd_classify(args, calc: NcdCalculator) -> tuple[dict, str]:
    method = _normalize_method(args.method)
    corpus = load_corpus(_require_dir(args.classes), args.test)
    items = list(corpus.test_items)
    for path in args.items:
        items.append(TestItem(_read_element(_require_file(path))))
    if not items:
        raise UsageError("no items to classify; pass files or --test")
    results = classify_items(calc, [(item, corpus.classes) for item in items], method)
    report = {
        "command": "classify",
        "config": _config_echo(calc, method=method, classes=sorted(corpus.classes)),
        "items": [result.to_dict() for result in results],
        "compression_jobs": calc.cache.job_count,
    }
    summary = f"classified {len(results)} items with {method}"
    labeled = [result for result in results if result.true_label is not None]
    if labeled:
        correct = sum(result.predicted == result.true_label for result in labeled)
        summary += f"; {correct}/{len(labeled)} labeled items correct"
    return report, summary


def _cmd_loocv(args, calc: NcdCalculator) -> tuple[dict, str]:
    method = _normalize_method(args.method)
    corpus = load_corpus(_require_dir(args.classes))
    result = loocv(calc, corpus, method=method, seed=args.seed)
    report = {
        "command": "loocv",
        "config": _config_echo(calc, method=method, seed=args.seed),
        **result.to_dict(),
    }
    return report, result.summary()


def _cmd_partition(args, calc: NcdCalculator) -> tuple[dict, str]:
    with _reraise(UsageError):
        cfg = PartitionConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            min_size=_parse_min_size(args.min_size),
            seed=args.seed,
        )
    if args.item and args.k < 1:
        raise UsageError("-k must be >= 1")
    classes = load_corpus(_require_dir(args.classes)).classes
    tree = recursive_partition(calc, classes, cfg, stop_margin=args.stop_margin)
    payload = tree.to_dict()
    payload["partition_config"] = payload.pop("config")  # keep the CLI echo separate
    if args.item:
        element = _read_element(_require_file(args.item))
        payload["item_distances"] = {
            "id": element.id,
            "k": args.k,
            "distances": min_class_distances(calc, element, tree, k=args.k),
        }
    n_leaves = sum(len(tree.leaves(label)) for label in tree.roots)
    report = {"command": "partition", "config": _config_echo(calc), **payload}
    return report, f"partitioned {len(classes)} classes into {n_leaves} leaves"


def _cmd_gen_synthetic(args) -> tuple[dict, str]:
    with _reraise(UsageError):
        params = CellModelParams(
            upsilon=args.upsilon,
            population_limit=args.population_limit,
            track_len_range=tuple(args.track_len),
            seed=args.seed,
        )
        tracks = simulate_population(params, args.cells)  # checks its arguments first
    manifest = write_population(tracks, args.out, params)
    report = {"command": "gen-synthetic", "out": str(args.out), **manifest}
    return report, f"wrote {len(tracks)} cell tracks to {args.out}"


def _cmd_compressor_check(args) -> tuple[dict, str]:
    backend = _backend(args)
    corpus = _gather_elements([args.corpus])
    with _reraise(UsageError):
        result = normality_report(
            backend,
            corpus,
            tolerance=args.tolerance,
            max_pairs=args.max_pairs,
            seed=args.seed,
            mode=args.framing,
        )
    report = {
        "command": "compressor-check",
        "config": {"backend": backend.name, "framing": args.framing, "seed": args.seed},
        **result.to_dict(),
    }
    verdict = "normal within tolerance" if result.ok else "violations recorded"
    return report, f"{backend.name}: {verdict}"


def _cmd_quantize(args) -> tuple[dict, str]:
    if not args.config and not 2 <= args.symbols <= MAX_SYMBOLS:
        raise UsageError(f"--symbols must be in [2, {MAX_SYMBOLS}], got {args.symbols}")
    config = _require_file(args.config) if args.config else None
    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(f for f in p.iterdir() if f.suffix == ".csv"))
        else:
            paths.append(_require_file(raw))
    if not paths:
        raise UsageError("no CSV inputs found")
    with _reraise(CorpusError):
        series = [read_timeseries_csv(p) for p in paths]
        if config:
            quantizer = QuantizerConfig.from_json(config.read_text())
        else:
            quantizer = fit_quantizer(series, args.symbols)
        elements = [quantize_timeseries(ts, quantizer=quantizer) for ts in series]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for ts, element in zip(series, elements):
        target = out_dir / (Path(ts.name).stem + ".sym")
        target.write_bytes(element.data)
        written.append(str(target))
    config_path = None
    if args.save_config:
        Path(args.save_config).write_text(quantizer.to_json() + "\n")
        config_path = args.save_config
    report = {
        "command": "quantize",
        "n_symbols": quantizer.n_symbols,
        "config": config_path,
        "files": written,
    }
    return report, f"quantized {len(written)} series with {quantizer.n_symbols} symbols"


def _cmd_image2bits(args) -> tuple[dict, str]:
    if args.scale < 1:
        raise UsageError("--scale must be >= 1")
    images = []
    with _reraise(CorpusError):
        if args.idx:
            images.extend(read_idx_images(_require_file(args.idx), limit=args.limit))
        for raw in args.inputs:
            images.append(read_pgm(_require_file(raw)))
    if not images:
        raise UsageError("no images given; pass PGM files or --idx")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for img in images:
        with _reraise(CorpusError):  # an image with no pixels
            element = image_to_bitstream(img, scale=args.scale)
        target = out_dir / (Path(img.name).stem + ".bits")
        target.write_bytes(element.data)
        written.append({"file": str(target), "length": len(element.data)})
    report = {"command": "image2bits", "scale": args.scale, "files": written}
    return report, f"binarized {len(written)} images at scale {args.scale}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdm",
        description="Compression-based similarity over multisets of byte strings.",
    )
    parser.add_argument("--version", action="version", version=f"ncdm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pair", help="distance between two files")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_pair))

    p = subs.add_parser("multiset", help="multiset distance of a directory or files")
    p.add_argument("inputs", nargs="+")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--heuristic", action="store_true", help="greedy chain (default)")
    style.add_argument("--exact", action="store_true", help="full subset enumeration")
    style.add_argument("--ncd1", action="store_true", help="un-maximized ratio only")
    p.add_argument("--max-card", type=int, default=DEFAULT_MAX_CARD, help="cap for --exact")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_multiset))

    p = subs.add_parser("matrix", help="pairwise distance matrix")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--csv", default=None, help="also write the matrix as CSV")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_matrix))

    p = subs.add_parser("classify", help="assign items to the closest class")
    p.add_argument("items", nargs="*", help="files to classify")
    p.add_argument("--classes", required=True, help="directory-per-class corpus")
    p.add_argument("--test", default=None, help="directory of loose items or JSON manifest")
    p.add_argument("--method", default="delta", help="delta (default) or min-distance")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_classify))

    p = subs.add_parser("loocv", help="leave-one-out cross-validation")
    p.add_argument("--classes", required=True)
    p.add_argument("--method", default="delta")
    p.add_argument("--seed", type=int, default=None, help="echoed into the report")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_loocv))

    p = subs.add_parser("partition", help="margin-guided recursive bipartitioning")
    p.add_argument("--classes", required=True)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--min-size", default="2", help="member count or percentage like 30%%")
    p.add_argument("--stop-margin", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--item", default=None, help="also score this file against the leaves")
    p.add_argument("-k", type=int, default=2, help="distances kept per class for --item")
    _add_common(p)
    p.set_defaults(handler=_with_calc(_cmd_partition))

    p = subs.add_parser("gen-synthetic", help="simulate a proliferating cell population")
    p.add_argument("--upsilon", type=float, required=True, help="growth exponent")
    p.add_argument("--cells", type=int, default=60)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population-limit", type=int, default=None)
    p.add_argument("--track-len", type=int, nargs=2, default=(228, 280), metavar=("LO", "HI"))
    p.set_defaults(handler=_cmd_gen_synthetic)

    p = subs.add_parser("compressor-check", help="normality diagnostics for a backend")
    p.add_argument("corpus", help="directory of sample files")
    p.add_argument("--tolerance", type=int, default=None, help="fixed byte slack (default: adaptive)")
    p.add_argument("--max-pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_backend(p)
    p.set_defaults(handler=_cmd_compressor_check)

    p = subs.add_parser("quantize", help="CSV time series to symbol streams")
    p.add_argument("inputs", nargs="+", help="CSV files or a directory of them")
    p.add_argument("--symbols", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="reuse a fitted quantizer (JSON)")
    p.add_argument("--save-config", default=None, help="persist the fitted quantizer")
    p.set_defaults(handler=_cmd_quantize)

    p = subs.add_parser("image2bits", help="grayscale images to Otsu bitstreams")
    p.add_argument("inputs", nargs="*", help="PGM (P5) files")
    p.add_argument("--idx", default=None, help="IDX-style image file")
    p.add_argument("--limit", type=int, default=None, help="cap on IDX records")
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_image2bits)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, summary = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NcdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
