"""Converters from numeric data to compressor-friendly byte strings.

Time series are quantized per feature into equal-frequency bins over a
training corpus, each bin mapping to one printable byte with features offset
into disjoint alphabet ranges (where capacity allows). Grayscale images are
upscaled, binarized at the Otsu threshold, and emitted as ASCII '0'/'1'
streams.

Each value type checks itself when it is built, and each reader builds its
value under ``reading``, so a value that breaks its type's rule names its file.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .classify import TestItem
from .errors import CorpusError
from .multiset import Element, Multiset

# 64 printable symbols; feature d occupies [d * n_symbols, (d+1) * n_symbols)
# modulo the alphabet size, so ranges are disjoint while D * n_symbols <= 64.
QUANT_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
MAX_SYMBOLS = len(QUANT_ALPHABET)
_ALPHABET_BYTES = np.frombuffer(QUANT_ALPHABET, dtype=np.uint8)

DEFAULT_SCALE = 4  # pixels per side of each image pixel in a bitstream
MAX_BITSTREAM_BYTES = 2**28  # about 20,000 times a 28x28 digit at scale 4


@contextmanager
def reading(path: str | Path) -> Iterator[None]:
    """Raise an ``OSError`` or ``ValueError`` met while one input file is read,
    parsed or converted as a ``CorpusError`` whose message starts with its path."""
    try:
        yield
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise CorpusError(f"{path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class TimeSeries:
    values: np.ndarray  # (T, D)
    feature_names: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_matrix(self.values))
        _check_names(self.feature_names, self.values.shape[1], "time series")


@dataclass(frozen=True, eq=False)
class GrayImage:
    pixels: np.ndarray  # (H, W), integers in [0, 255]
    name: str = ""

    def __post_init__(self) -> None:
        if len(shape := np.shape(self.pixels)) != 2 or 0 in shape:
            raise ValueError(f"image must be a 2-D pixel grid, got shape {shape}")


@dataclass(frozen=True)
class QuantizerConfig:
    """Per-feature bin edges, persisted so train and test quantize identically."""

    n_symbols: int
    edges: tuple[tuple[float, ...], ...]
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.n_symbols
        if not 2 <= n <= MAX_SYMBOLS:
            raise ValueError(f"n_symbols must be in [2, {MAX_SYMBOLS}], got {n}")
        if not self.edges:
            raise ValueError("quantizer has no features")
        for d, edges in enumerate(self.edges):
            if len(edges) != n - 1:
                raise ValueError(f"feature {d} has {len(edges)} edges, {n} symbols need {n - 1}")
            if not np.isfinite(edges).all():
                raise ValueError(f"feature {d} has a non-finite edge")
            # equal edges are fine: a constant column fits to them
            if any(a > b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"feature {d} has descending edges")
        _check_names(self.feature_names, len(self.edges), "quantizer")

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
        if not isinstance(raw, dict):
            raise ValueError("quantizer config is malformed: not a JSON object")
        names = raw.get("feature_names", [])
        if not isinstance(names, list):
            raise ValueError(f"feature_names must be a list, got a {type(names).__name__}")
        try:
            n_symbols, edges = raw["n_symbols"], raw["edges"]
        except KeyError as exc:
            raise ValueError(f"quantizer config has no {exc} field") from None
        # Refused, not coerced: a JSON bool is a Python int, and a string is iterable.
        if type(n_symbols) is not int:
            raise ValueError(f"n_symbols must be an integer, got a {type(n_symbols).__name__}")
        if not isinstance(edges, list):
            raise ValueError(f"edges must be a list, got a {type(edges).__name__}")
        rows = []
        for d, row in enumerate(edges):
            if not isinstance(row, list) or not all(_is_number(v) for v in row):
                raise ValueError(f"feature {d}'s edges must be a list of numbers")
            try:
                rows.append(tuple(float(v) for v in row))
            except OverflowError:  # a JSON integer past the largest float
                raise ValueError(f"feature {d}'s edges hold a number too large for a float") from None
        return cls(n_symbols, tuple(rows), tuple(names))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_names(names: Sequence[str], width: int, what: str) -> None:
    """Feature names are none, or one string per feature."""
    if len(names) not in (0, width):
        raise ValueError(f"{what} has {len(names)} feature names for {width} features")
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"{what} has a feature name that is not a string")


def _as_matrix(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"time series must be a non-empty T x D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("time series contains non-finite values")
    return arr


@np.errstate(over="ignore", invalid="ignore")  # edges that overflow are refused below
def fit_quantizer(corpus: Sequence[TimeSeries], n_symbols: int) -> QuantizerConfig:
    """Equal-frequency bin edges per feature, pooled over all corpus rows; edges
    that break ``QuantizerConfig``'s rule (a column too wide for a float) are a ``CorpusError``."""
    if not corpus:
        raise ValueError("cannot fit a quantizer on an empty corpus")
    matrices = [ts.values for ts in corpus]
    width = matrices[0].shape[1]
    for ts, m in zip(corpus, matrices):
        if m.shape[1] != width:
            raise CorpusError(  # a rule across files, not a fault of one
                f"feature count mismatch: {ts.name!r} has {m.shape[1]} columns, expected {width}"
            )
    pooled = np.concatenate(matrices, axis=0)
    quantiles = [k / n_symbols for k in range(1, n_symbols)]
    edges = tuple(
        tuple(float(v) for v in np.quantile(pooled[:, d], quantiles)) for d in range(width)
    )
    try:
        return QuantizerConfig(n_symbols, edges, tuple(corpus[0].feature_names))
    except ValueError as exc:
        raise CorpusError(f"cannot fit a quantizer: {exc}") from None


def quantize_timeseries(ts: TimeSeries, quantizer: QuantizerConfig) -> Element:
    """Map a series to a printable symbol stream, time-major, with a fitted quantizer.

    Fit ``quantizer`` once over the training corpus (``fit_quantizer``): only
    streams quantized with the same bins can be compared. Bins are rank-based,
    so a strictly monotone per-feature transform of a corpus, fitted again,
    gives the same streams. A column's symbols are one indexing of the
    alphabet's bytes, ``QUANT_ALPHABET[(offset + bin) % MAX_SYMBOLS]`` per symbol.
    """
    matrix = ts.values
    n = quantizer.n_symbols
    if matrix.shape[1] != len(quantizer.edges):
        raise ValueError(
            f"series has {matrix.shape[1]} features, quantizer expects {len(quantizer.edges)}"
        )
    symbols = np.empty(matrix.shape, dtype=np.uint8)
    for d in range(matrix.shape[1]):
        bins = np.searchsorted(np.asarray(quantizer.edges[d]), matrix[:, d], side="right")
        symbols[:, d] = _ALPHABET_BYTES[(d * n + bins) % MAX_SYMBOLS]
    return Element(symbols.tobytes(), id=ts.name)


def otsu_threshold(pixels: np.ndarray) -> int:
    """Gray level whose split maximizes between-class variance.

    Computed in exact integer arithmetic so the argmax is reproducible
    bit-for-bit; tied maxima resolve to the midpoint of the tying range.
    A single-level image yields that level.

    Only occupied gray levels are visited. A split at an empty level leaves
    both classes as they were at the occupied level before it, so each
    occupied level's value holds up to the level before the next occupied
    one, and a maximum there spans that whole range: the same tying range,
    hence the same threshold, as trying all 256 levels.
    """
    arr = np.asarray(pixels)
    if arr.size == 0:
        raise ValueError("empty image")
    flat = arr.ravel().astype(np.int64)
    if flat.min() < 0 or flat.max() > 255:
        raise ValueError("pixels must lie in [0, 255]")
    counts = np.bincount(flat, minlength=256)
    levels = np.flatnonzero(counts).tolist()
    counts = counts.tolist()
    total = int(arr.size)
    weighted_total = sum(t * counts[t] for t in levels)
    best_num = best_den = None
    first = last = 0
    w0 = s0 = 0
    for t, following in zip(levels, levels[1:]):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        s1 = weighted_total - s0
        num = (s0 * w1 - s1 * w0) ** 2  # between-class variance, scaled by (w0*w1*N^2)
        den = w0 * w1
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
            first = t
            last = following - 1
        elif num * best_den == best_num * den:
            last = following - 1
    if best_num is None:
        return levels[0]  # single gray level
    return (first + last) // 2


def image_to_bitstream(img: GrayImage, scale: int = DEFAULT_SCALE) -> Element:
    """Upscale, Otsu-binarize, and serialize row-major as ASCII '0'/'1'.

    Binarizing first and upscaling the bits gives the same bytes: upscaling
    repeats every pixel ``scale**2`` times, which multiplies every class
    count and sum in ``otsu_threshold`` by one factor and leaves its exact
    comparisons, hence the threshold, unchanged. A stream of H * W * scale**2
    bytes above ``MAX_BITSTREAM_BYTES`` is refused before anything is built.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    arr = np.asarray(img.pixels)
    if (size := arr.size * scale * scale) > MAX_BITSTREAM_BYTES:
        raise ValueError(
            f"scale {scale} makes a {size}-byte bitstream; the limit is {MAX_BITSTREAM_BYTES}"
        )
    bits = np.where(arr > otsu_threshold(arr), np.uint8(ord("1")), np.uint8(ord("0")))
    scaled = np.repeat(np.repeat(bits, scale, axis=0), scale, axis=1)
    return Element(scaled.tobytes(), id=img.name)


def read_element(path: str | Path, ident: str | None = None) -> Element:
    """One input file's bytes as an element, identified by ``ident`` or its path."""
    path = Path(path)
    with reading(path):
        return Element(path.read_bytes(), id=str(path) if ident is None else ident)


def read_timeseries_csv(path: str | Path) -> TimeSeries:
    """CSV with an optional header row of feature names and finite cells."""
    path = Path(path)
    names: tuple[str, ...] = ()
    skip = 0
    with reading(path):
        with path.open() as fh:
            first = fh.readline()
        fields = [f.strip() for f in first.strip().split(",")]
        try:
            [float(f) for f in fields]
        except ValueError:
            names = tuple(fields)
            skip = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no rows, refused below
            values = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        return TimeSeries(values=values, feature_names=names, name=path.name)


def read_pgm(path: str | Path) -> GrayImage:
    """Binary PGM (P5) with a maxval in 1..255 and no pixel above it."""
    path = Path(path)
    with reading(path):
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

        def number(field: str) -> int:
            raw = token()
            if not raw.isdigit():
                got = raw.decode("latin-1")
                raise ValueError(f"PGM {field} must be a decimal number, got {got!r}")
            return int(raw)

        magic = token()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM (magic {magic!r})")
        width = number("width")
        height = number("height")
        maxval = number("maxval")
        if maxval > 255:
            raise ValueError("16-bit PGM not supported")
        if maxval == 0:
            raise ValueError("PGM maxval must be >= 1, got 0")
        pos += 1  # single whitespace after maxval
        raster = data[pos : pos + width * height]
        if len(raster) != width * height:
            raise ValueError("truncated raster")
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        if pixels.size and pixels.max() > maxval:
            raise ValueError(f"a pixel is {pixels.max()}, above the maxval {maxval}")
        return GrayImage(pixels=pixels, name=path.name)


def read_idx_images(path: str | Path, limit: int | None = None) -> list[GrayImage]:
    """IDX-style unsigned-byte image records (magic 0x00000803), at most ``limit`` of them."""
    if limit is not None and limit < 0:
        raise ValueError(f"IDX record limit must be >= 0, got {limit}")
    path = Path(path)
    with reading(path):
        data = path.read_bytes()
        if len(data) < 16:
            raise ValueError("too short for an IDX image file")
        magic = int.from_bytes(data[0:4], "big")
        if magic != 0x0803:
            raise ValueError(f"bad IDX magic 0x{magic:08x}")
        count = int.from_bytes(data[4:8], "big")
        rows = int.from_bytes(data[8:12], "big")
        cols = int.from_bytes(data[12:16], "big")
        if limit is not None:
            count = min(count, limit)
        need = 16 + count * rows * cols
        if len(data) < need:
            raise ValueError("truncated raster")
        raw = np.frombuffer(data[16:need], dtype=np.uint8).reshape(count, rows, cols)
        return [GrayImage(pixels=raw[i], name=f"{path.stem}-{i:05d}") for i in range(count)]


def list_dir(path: str | Path, dirs: bool = False) -> list[Path]:
    """The regular files of directory ``path``, or with ``dirs`` its subdirectories,
    sorted by name, symlinks followed; a directory that cannot be listed is a
    ``CorpusError`` naming it. Every directory the package reads is listed here."""
    path = Path(path)
    with reading(path), os.scandir(path) as entries:
        return sorted(path / e.name for e in entries if (e.is_dir() if dirs else e.is_file()))


def load_corpus(classes_dir: str | Path) -> dict[str, Multiset]:
    """A directory-per-class corpus, one multiset per class in name order, with
    element ids ``CLASS/FILE``; an empty class is refused as soon as it is listed."""
    root = Path(classes_dir)
    labels = [d.name for d in list_dir(root, dirs=True)]
    if not labels:
        raise CorpusError(f"no class subdirectories under {root}")
    classes: dict[str, Multiset] = {}
    for label in labels:
        if not (files := list_dir(root / label)):
            raise CorpusError(f"class {label!r} is empty")
        classes[label] = Multiset([read_element(p, f"{label}/{p.name}") for p in files])
    return classes


def read_test_items(path: str | Path) -> list[TestItem]:
    """Items to classify: a directory of loose files (ids are file names, labels
    unknown), or a JSON manifest of {"path": ..., "label": optional} entries,
    paths relative to the manifest's directory and a label a string or null."""
    path = Path(path)
    if path.is_dir():
        return [TestItem(read_element(p, p.name)) for p in list_dir(path)]
    with reading(path):
        entries = json.loads(path.read_text())
        if not isinstance(entries, list):
            raise ValueError("test manifest must hold a list of entries")
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
                raise ValueError(f"test manifest entry {entry!r} has no path")
            if not isinstance(entry.get("label"), (str, type(None))):
                raise ValueError(f"test manifest entry {entry!r} has a non-string label")
    return [
        TestItem(read_element(path.parent / e["path"], e["path"]), e.get("label")) for e in entries
    ]
