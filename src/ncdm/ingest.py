"""Converters from numeric data to compressor-friendly byte strings.

Time series are quantized per feature into equal-frequency bins over a
training corpus, each bin mapping to one printable byte with features offset
into disjoint alphabet ranges (where capacity allows). Grayscale images are
upscaled, binarized at the Otsu threshold, and emitted as ASCII '0'/'1'
streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import LabeledCorpus, TestItem
from .errors import CorpusError
from .multiset import Element, Multiset

# 64 printable symbols; feature d occupies [d * n_symbols, (d+1) * n_symbols)
# modulo the alphabet size, so ranges are disjoint while D * n_symbols <= 64.
QUANT_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
MAX_SYMBOLS = len(QUANT_ALPHABET)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    values: np.ndarray  # (T, D)
    feature_names: tuple[str, ...] = ()
    name: str = ""


@dataclass(frozen=True, eq=False)
class GrayImage:
    pixels: np.ndarray  # (H, W), integers in [0, 255]
    name: str = ""


@dataclass(frozen=True)
class QuantizerConfig:
    """Per-feature bin edges, persisted so train and test quantize identically."""

    n_symbols: int
    edges: tuple[tuple[float, ...], ...]
    feature_names: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_symbols": self.n_symbols,
                "feature_names": list(self.feature_names),
                "edges": [list(e) for e in self.edges],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "QuantizerConfig":
        raw = json.loads(text)
        try:
            return cls(
                n_symbols=int(raw["n_symbols"]),
                edges=tuple(tuple(float(v) for v in e) for e in raw["edges"]),
                feature_names=tuple(raw.get("feature_names", ())),
            )
        except KeyError as exc:
            raise ValueError(f"quantizer config has no {exc} field") from None
        except TypeError as exc:
            raise ValueError(f"quantizer config is malformed: {exc}") from None


def _as_matrix(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"time series must be a non-empty T x D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("time series contains non-finite values")
    return arr


def fit_quantizer(corpus: Sequence[TimeSeries], n_symbols: int) -> QuantizerConfig:
    """Equal-frequency bin edges per feature, pooled over all corpus rows."""
    if not 2 <= n_symbols <= MAX_SYMBOLS:
        raise ValueError(f"n_symbols must be in [2, {MAX_SYMBOLS}], got {n_symbols}")
    if not corpus:
        raise ValueError("cannot fit a quantizer on an empty corpus")
    matrices = [_as_matrix(ts.values) for ts in corpus]
    width = matrices[0].shape[1]
    for ts, m in zip(corpus, matrices):
        if m.shape[1] != width:
            raise ValueError(
                f"feature count mismatch: {ts.name!r} has {m.shape[1]} columns, expected {width}"
            )
    pooled = np.concatenate(matrices, axis=0)
    quantiles = [k / n_symbols for k in range(1, n_symbols)]
    edges = tuple(
        tuple(float(v) for v in np.quantile(pooled[:, d], quantiles)) for d in range(width)
    )
    return QuantizerConfig(n_symbols, edges, tuple(corpus[0].feature_names))


def quantize_timeseries(
    ts: TimeSeries,
    n_symbols: int | None = None,
    quantizer: QuantizerConfig | None = None,
) -> Element:
    """Map a series to a printable symbol stream, time-major.

    With no prefitted ``quantizer`` the bins are fitted on the series itself.
    Bins are rank-based, so any strictly monotone per-feature transform of
    the inputs leaves the symbol stream unchanged.
    """
    if quantizer is None:
        if n_symbols is None:
            raise ValueError("pass n_symbols or a fitted quantizer")
        quantizer = fit_quantizer([ts], n_symbols)
    elif n_symbols is not None and n_symbols != quantizer.n_symbols:
        raise ValueError(
            f"n_symbols={n_symbols} disagrees with fitted quantizer "
            f"({quantizer.n_symbols})"
        )
    matrix = _as_matrix(ts.values)
    n = quantizer.n_symbols
    if matrix.shape[1] != len(quantizer.edges):
        raise ValueError(
            f"series has {matrix.shape[1]} features, quantizer expects {len(quantizer.edges)}"
        )
    symbols = np.empty(matrix.shape, dtype=np.uint8)
    for d in range(matrix.shape[1]):
        bins = np.searchsorted(np.asarray(quantizer.edges[d]), matrix[:, d], side="right")
        offset = (d * n) % MAX_SYMBOLS
        symbols[:, d] = [QUANT_ALPHABET[(offset + int(b)) % MAX_SYMBOLS] for b in bins]
    return Element(symbols.tobytes(), id=ts.name)


def otsu_threshold(pixels: np.ndarray) -> int:
    """Gray level whose split maximizes between-class variance.

    Computed in exact integer arithmetic so the argmax is reproducible
    bit-for-bit; tied maxima resolve to the midpoint of the tying range.
    A single-level image yields that level.
    """
    arr = np.asarray(pixels)
    if arr.size == 0:
        raise ValueError("empty image")
    flat = arr.ravel().astype(np.int64)
    if flat.min() < 0 or flat.max() > 255:
        raise ValueError("pixels must lie in [0, 255]")
    counts = np.bincount(flat, minlength=256).tolist()
    total = int(arr.size)
    weighted_total = sum(i * c for i, c in enumerate(counts))
    best_num = best_den = None
    tied: list[int] = []
    w0 = s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        s1 = weighted_total - s0
        num = (s0 * w1 - s1 * w0) ** 2  # between-class variance, scaled by (w0*w1*N^2)
        den = w0 * w1
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
            tied = [t]
        elif num * best_den == best_num * den:
            tied.append(t)
    if not tied:
        return int(flat[0])  # single gray level
    return (tied[0] + tied[-1]) // 2


def image_to_bitstream(img: GrayImage, scale: int = 4) -> Element:
    """Upscale, Otsu-binarize, and serialize row-major as ASCII '0'/'1'."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    arr = np.asarray(img.pixels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"image must be a 2-D pixel grid, got shape {arr.shape}")
    scaled = np.repeat(np.repeat(arr, scale, axis=0), scale, axis=1)
    threshold = otsu_threshold(scaled)
    bits = np.where(scaled > threshold, np.uint8(ord("1")), np.uint8(ord("0")))
    return Element(bits.tobytes(), id=img.name)


def read_timeseries_csv(path: str | Path) -> TimeSeries:
    """CSV with an optional header row of feature names."""
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
    names: tuple[str, ...] = ()
    skip = 0
    fields = [f.strip() for f in first.strip().split(",")]
    try:
        [float(f) for f in fields]
    except ValueError:
        names = tuple(fields)
        skip = 1
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return TimeSeries(values=values, feature_names=names, name=path.name)


def read_pgm(path: str | Path) -> GrayImage:
    """Binary PGM (P5), maxval <= 255."""
    path = Path(path)
    data = path.read_bytes()

    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        return data[start:pos]

    magic = token()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width = int(token())
    height = int(token())
    maxval = int(token())
    if maxval > 255:
        raise ValueError(f"{path}: 16-bit PGM not supported")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: truncated raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels=pixels, name=path.name)


def read_idx_images(path: str | Path, limit: int | None = None) -> list[GrayImage]:
    """IDX-style unsigned-byte image records (magic 0x00000803)."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 16:
        raise ValueError(f"{path}: too short for an IDX image file")
    magic = int.from_bytes(data[0:4], "big")
    if magic != 0x0803:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    count = int.from_bytes(data[4:8], "big")
    rows = int.from_bytes(data[8:12], "big")
    cols = int.from_bytes(data[12:16], "big")
    if limit is not None:
        count = min(count, limit)
    need = 16 + count * rows * cols
    if len(data) < need:
        raise ValueError(f"{path}: truncated raster")
    raw = np.frombuffer(data[16:need], dtype=np.uint8).reshape(count, rows, cols)
    stem = path.stem
    return [GrayImage(pixels=raw[i], name=f"{stem}-{i:05d}") for i in range(count)]


def load_corpus(classes_dir: str | Path, test_path: str | Path | None = None) -> LabeledCorpus:
    """Directory-per-class corpus; element ids are relative paths.

    ``test_path`` may be a directory of loose files (labels unknown) or a
    JSON manifest: a list of {"path": ..., "label": optional} entries with
    paths relative to the manifest's directory.
    """
    root = Path(classes_dir)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    labels = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not labels:
        raise CorpusError(f"no class subdirectories under {root}")
    classes: dict[str, Multiset] = {}
    for label in labels:
        files = sorted(p for p in (root / label).iterdir() if p.is_file())
        if not files:
            raise CorpusError(f"class directory {label!r} is empty")
        try:
            elements = [Element(p.read_bytes(), id=f"{label}/{p.name}") for p in files]
        except OSError as exc:
            raise CorpusError(f"unreadable corpus file: {exc}") from exc
        classes[label] = Multiset(elements)

    test_items: list[TestItem] = []
    if test_path is not None:
        test_path = Path(test_path)
        if test_path.is_dir():
            for p in sorted(f for f in test_path.iterdir() if f.is_file()):
                test_items.append(TestItem(Element(p.read_bytes(), id=p.name)))
        elif test_path.is_file():
            try:
                entries = json.loads(test_path.read_text())
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise CorpusError(f"test manifest {test_path} is not JSON: {exc}") from exc
            if not isinstance(entries, list):
                raise CorpusError(f"test manifest {test_path} must hold a list of entries")
            base = test_path.parent
            for entry in entries:
                if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
                    raise CorpusError(f"test manifest {test_path}: entry {entry!r} has no path")
                p = base / entry["path"]
                if not p.is_file():
                    raise CorpusError(f"manifest entry not found: {p}")
                test_items.append(
                    TestItem(Element(p.read_bytes(), id=entry["path"]), entry.get("label"))
                )
        else:
            raise CorpusError(f"test path not found: {test_path}")
    return LabeledCorpus(classes=classes, test_items=tuple(test_items))
