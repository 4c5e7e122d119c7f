"""Compressor backends, multiset serialization, size caching, and normality checks.

A backend only ever reports the length of its compressed output; decompression
is never needed. Sizes are measured in bytes throughout. All backends must be
deterministic so that cached sizes equal fresh ones.

A size request is keyed by its framing mode and the digests of its elements in
canonical order (``request_key``); the cache holds the SHA-256 of that key, and
the multiset is serialized only when the cache misses.

Requests that share a leading element can share its compression:
``backend.after(prefix)`` is a backend whose ``compress_len(suffix)`` equals
``compress_len(prefix + suffix)``. The base class concatenates, which is all
bz2 and ``cmd:`` can do. ``ZlibBackend`` compresses the prefix once into a
deflate state and answers each suffix from a copy of it, so a pairwise-matrix
row (``prefix_frame(x)`` followed by each framed ``y``) compresses ``x`` once.
"""

from __future__ import annotations

import bz2
import hashlib
import math
import os
import random
import re
import shlex
import subprocess
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BackendUnavailableError, SeparatorCollisionError
from .multiset import Element

SEPARATOR = b"\n"
FRAMING_MODES = ("text", "varint")
# First line of a size snapshot, followed by the name of the backend that wrote it.
# v2: records are keyed by ``content_digest(request_key(...))``.
SNAPSHOT_HEADER = "# ncdm-sizes v2"
# Seconds an external compressor may take on one request before it is killed
# and reported unavailable, so a hung ``cmd:`` command cannot hang a run.
EXTERNAL_TIMEOUT_S = 600.0
# Most singletons and triples ``normality_report`` samples, and its defaults.
SAMPLED_SINGLETONS = 50
SAMPLED_TRIPLES = 50
DEFAULT_MAX_PAIRS = 100
DEFAULT_SAMPLE_SEED = 0
# A size has at most 15 digits, so it is below 2**53 and exact as a float.
_SNAPSHOT_RECORD = re.compile(r"[0-9a-f]{64}\t[1-9][0-9]{0,14}")


class CompressorBackend:
    """Deterministic, size-only view of a real-world compressor."""

    name: str

    def compress_len(self, data: bytes) -> int:
        raise NotImplementedError

    def after(self, prefix: bytes) -> "CompressorBackend":
        """A backend whose ``compress_len(suffix)`` is ``compress_len(prefix + suffix)``."""
        return _Prefixed(self, prefix)


class _Prefixed(CompressorBackend):
    """``after`` by concatenation: every request compresses the prefix again."""

    def __init__(self, backend: CompressorBackend, prefix: bytes) -> None:
        self.name = backend.name
        self._backend, self._prefix = backend, prefix

    def compress_len(self, data: bytes) -> int:
        return self._backend.compress_len(self._prefix + data)


class Bz2Backend(CompressorBackend):
    """Block-sorting compressor; level 9 is the stock bzip2 configuration."""

    def __init__(self, level: int = 9) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"bz2 level must be 1..9, got {level}")
        self.level = level
        self.name = f"bz2-{level}"

    def compress_len(self, data: bytes) -> int:
        return len(bz2.compress(data, self.level))


class ZlibBackend(CompressorBackend):
    """Deflate compressor (32 KiB window); long-range redundancy is invisible to it."""

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be 1..9, got {level}")
        self.level = level
        self.name = f"zlib-{level}"

    def compress_len(self, data: bytes) -> int:
        return len(zlib.compress(data, self.level))

    def after(self, prefix: bytes) -> CompressorBackend:
        # A subclass that redefines compress_len must answer every request
        # itself, so it gets the concatenating view, not the checkpoint.
        if type(self).compress_len is not ZlibBackend.compress_len:
            return super().after(prefix)
        return _DeflateCheckpoint(self, prefix)


class _DeflateCheckpoint(CompressorBackend):
    """Deflate state after ``prefix``; each request copies it and compresses only its suffix.

    Sizes equal ``len(zlib.compress(prefix + suffix, level))``: both run the
    same deflate configuration, and zlib's output does not depend on how the
    input is split into ``compress`` calls. zlib does not promise that, so a
    property test pins it and ``compressor-check`` probes it on every pair it
    samples. The prefix is compressed on the first request, so a view whose
    requests all hit the cache costs nothing.
    """

    def __init__(self, backend: ZlibBackend, prefix: bytes) -> None:
        self.name, self.level = backend.name, backend.level
        self._prefix = prefix
        self._state = None
        self._prefix_out = 0
        self._lock = threading.Lock()

    def compress_len(self, data: bytes) -> int:
        with self._lock:
            if self._state is None:
                self._state = zlib.compressobj(self.level)
                self._prefix_out = len(self._state.compress(self._prefix))
            state = self._state.copy()
        return self._prefix_out + len(state.compress(data)) + len(state.flush())


class ExternalBackend(CompressorBackend):
    """Pipes data through an external command and counts the bytes it emits.

    The command must read plaintext from stdin and write the compressed
    stream to stdout. A command still running after ``EXTERNAL_TIMEOUT_S``
    is killed, and the request fails with ``BackendUnavailableError``.
    """

    def __init__(self, argv: Sequence[str]) -> None:
        if not argv:
            raise ValueError("external backend needs a non-empty command")
        self.argv = tuple(str(a) for a in argv)
        self.name = "cmd:" + " ".join(self.argv)

    def compress_len(self, data: bytes) -> int:
        try:
            proc = subprocess.run(
                self.argv,
                input=data,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                check=False,
                timeout=EXTERNAL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BackendUnavailableError(
                f"{self.name} gave no answer within {EXTERNAL_TIMEOUT_S:g} s"
            ) from exc
        except FileNotFoundError as exc:
            raise BackendUnavailableError(
                f"compressor command not found: {self.argv[0]!r}"
            ) from exc
        except OSError as exc:
            raise BackendUnavailableError(f"cannot run {self.argv[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            msg = proc.stderr.decode(errors="replace").strip()
            raise BackendUnavailableError(
                f"{self.name} exited with status {proc.returncode}: {msg[:200]}"
            )
        return len(proc.stdout)


def get_backend(spec: str) -> CompressorBackend:
    """Build a backend from a short spec string.

    Accepted forms, in any letter case: ``bz2`` or ``bzip2`` and ``zlib`` or
    ``deflate``, each optionally ``:LEVEL`` with LEVEL 1 to 9, and
    ``cmd:COMMAND ARGS...``. Anything else is a ``ValueError``.
    """
    if spec.startswith("cmd:"):
        return ExternalBackend(shlex.split(spec[4:]))
    name, _, level = spec.partition(":")
    name = name.lower()
    if name in ("bz2", "bzip2"):
        return Bz2Backend(int(level)) if level else Bz2Backend()
    if name in ("zlib", "deflate"):
        return ZlibBackend(int(level)) if level else ZlibBackend()
    raise ValueError(f"unknown backend {spec!r} (expected bz2, zlib, or cmd:...)")


def compress_len(backend: CompressorBackend, data: bytes) -> int:
    """Compressed byte length of ``data``; always positive for a sane backend."""
    n = backend.compress_len(data)
    if n <= 0:
        raise BackendUnavailableError(
            f"{backend.name} produced {n} output bytes; a compressed stream "
            "always carries a header"
        )
    return n


def encode_uvarint(n: int) -> bytes:
    """Unsigned LEB128."""
    if n < 0:
        raise ValueError("varint is unsigned")
    out = bytearray()
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def serialize_multiset(ms: Iterable[Element], mode: str = "text") -> bytes:
    """Serialize a multiset to the byte string handed to the compressor.

    Elements appear in iteration order, which for a ``Multiset`` is the
    canonical order, so any permutation of the same bag yields identical
    bytes. ``text`` mode joins elements with ``SEPARATOR`` and requires that
    no element contain it; ``varint`` mode prefixes each element with
    its LEB128-encoded length and is safe for arbitrary binary content.
    """
    if mode == "text":
        return SEPARATOR.join(check_separator(e).data for e in ms)
    if mode == "varint":
        return b"".join(encode_uvarint(len(e.data)) + e.data for e in ms)
    raise ValueError(f"unknown framing mode {mode!r}; expected one of {FRAMING_MODES}")


def serialized_len(ms: Iterable[Element], mode: str) -> int:
    """``len(serialize_multiset(ms, mode))``, without building the bytes."""
    sizes = [len(e.data) for e in ms]
    if mode == "text":
        return sum(sizes) + max(len(sizes) - 1, 0) * len(SEPARATOR)
    return sum(n + len(encode_uvarint(n)) for n in sizes)


def prefix_frame(e: Element, mode: str) -> bytes:
    """The bytes ``e`` contributes to ``serialize_multiset`` when more elements follow it.

    ``serialize_multiset((x, y), mode) == prefix_frame(x, mode) +
    serialize_multiset((y,), mode)``, so ``backend.after(prefix_frame(x, mode))``
    sizes every pair led by ``x``.
    """
    framed = serialize_multiset((e,), mode)
    return framed + SEPARATOR if mode == "text" else framed


def check_separator(e: Element) -> Element:
    if SEPARATOR in e.data:
        raise SeparatorCollisionError(
            f"element {e.id!r} contains the separator byte "
            f"{SEPARATOR!r}; use varint framing for binary data"
        )
    return e


def request_key(ms: Iterable[Element], mode: str) -> bytes:
    """Key of the size request for ``serialize_multiset(ms, mode)``.

    The framing mode followed by each element's digest in iteration order,
    so equal keys frame equal bytes and a cache hit needs no serialization.
    It reads digests only, so a ``text`` caller runs ``check_separator`` first.
    """
    if mode not in FRAMING_MODES:
        raise ValueError(f"unknown framing mode {mode!r}; expected one of {FRAMING_MODES}")
    return b"".join([mode.encode(), b":", *(e.digest for e in ms)])


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SizeCache:
    """Thread-safe map from request digest to compressed size, for one backend.

    It holds the sizes of the backend it is built with, named by ``backend``;
    its snapshots carry that name and it loads only those that do. Safe
    because backends are deterministic: duplicate inserts carry the same
    value, so last-write-wins never changes an answer. ``job_count`` counts
    distinct digests that were actually compressed, which is the unit the
    performance contracts are written in.
    """

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self._lock = threading.Lock()
        self._entries: dict[str, int] = {}
        self.lookups = 0
        self.hits = 0
        self.job_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> int | None:
        with self._lock:
            self.lookups += 1
            size = self._entries.get(digest)
            if size is not None:
                self.hits += 1
            return size

    def put(self, digest: str, size: int) -> None:
        with self._lock:
            if digest not in self._entries:
                self.job_count += 1
            self._entries[digest] = size

    def save(self, path: str | Path) -> None:
        """Snapshot as a ``SNAPSHOT_HEADER BACKEND`` line, then
        ``hex-digest<TAB>size`` lines sorted by digest.

        The snapshot is written to a temporary file in the same directory and
        renamed over ``path``, so no reader ever sees a torn snapshot.
        """
        path = Path(path)
        lines = [f"{SNAPSHOT_HEADER} {self.backend}\n"]
        lines += [f"{d}\t{s}\n" for d, s in sorted(self._entries.items())]
        tmp = path.with_name(f".ncdm-{os.getpid()}.tmp")  # fits beside any legal name
        try:
            tmp.write_text("".join(lines))
            os.replace(tmp, path)
        except BaseException:  # not `finally`: the target may have the temporary name
            tmp.unlink(missing_ok=True)
            raise

    def load(self, path: str | Path) -> int:
        """Merge a snapshot of this cache's backend; returns the number of records read.

        Loaded sizes are not compression jobs. Raises ``ValueError``, naming
        the file and the line, when the header is missing or names another
        backend, or when a record does not parse; nothing is merged then.
        """
        lines = Path(path).read_text(errors="replace").splitlines()
        expected = f"{SNAPSHOT_HEADER} {self.backend}"
        header = lines[0] if lines else ""
        if header != expected:
            raise ValueError(f"{path}:1: expected header {expected!r}, found {header[:80]!r}")
        records = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not _SNAPSHOT_RECORD.fullmatch(line):
                raise ValueError(f"{path}:{lineno}: not a digest<TAB>size record: {line[:80]!r}")
            digest, _, size = line.partition("\t")
            records[digest] = int(size)
        with self._lock:
            self._entries.update(records)
        return len(lines) - 1


def cached_compress_len(
    backend: CompressorBackend, cache: SizeCache, key: bytes, build: Callable[[], bytes]
) -> int:
    """Compressed size of the request ``key``; ``build()`` makes its bytes on a miss only."""
    digest = content_digest(key)
    size = cache.get(digest)
    if size is None:
        size = compress_len(backend, build())
        cache.put(digest, size)
    return size


def default_tolerance(n_bytes: int) -> int:
    """Byte slack allowed in normality checks on inputs totalling ``n_bytes``."""
    return 64 + math.ceil(math.log2(1 + n_bytes))


@dataclass(frozen=True)
class NormalityViolation:
    ids: tuple[str, ...]
    slack: int
    tolerance: int

    def to_dict(self) -> dict:
        return {"ids": list(self.ids), "slack": self.slack, "tolerance": self.tolerance}


@dataclass
class NormalityReport:
    """Measured deviations of a backend from the normal-compressor properties."""

    checks: dict[str, int] = field(
        default_factory=lambda: {p: 0 for p in NormalityReport.PROPERTIES}
    )
    violations: dict[str, list[NormalityViolation]] = field(
        default_factory=lambda: {p: [] for p in NormalityReport.PROPERTIES}
    )

    PROPERTIES = ("determinism", "idempotency", "monotonicity", "symmetry", "distributivity")

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "violations": {
                p: [v.to_dict() for v in self.violations[p]] for p in self.PROPERTIES
            },
        }


def _pair_at(items: Sequence, k: int) -> tuple:
    """The ``k``-th pair of ``itertools.combinations(items, 2)``, found directly."""
    n = len(items)

    def first_of_row(i: int) -> int:  # index of the pair (items[i], items[i + 1])
        return i * (2 * n - i - 1) // 2

    # The row solves first_of_row(i) <= k; the integer root may overshoot it by one.
    i = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * k)) // 2
    if first_of_row(i) > k:
        i -= 1
    return items[i], items[i + 1 + k - first_of_row(i)]


def normality_report(
    backend: CompressorBackend,
    corpus: Sequence[Element],
    tolerance: int | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    seed: int = DEFAULT_SAMPLE_SEED,
    mode: str = "text",
) -> NormalityReport:
    """Diagnose how closely a backend honors the normal-compressor properties.

    Checks, on up to ``SAMPLED_SINGLETONS`` singletons, ``max_pairs`` pairs and
    ``SAMPLED_TRIPLES`` triples drawn with ``seed``, with G the compressed size
    of the framed elements, as the distance frames them, and xy the framed
    concatenation in the given order: determinism G(x)
    equal on a second compression, and G(xy) equal when compressed through
    ``backend.after(prefix_frame(x))`` (no tolerance: cached sizes are only
    sound for a deterministic backend), idempotency |G(xx) - G(x)| <= tol,
    monotonicity G(xy) >= G(x) - tol, symmetry |G(xy) - G(yx)| <= tol, and
    distributivity G(xy) + G(z) <= G(xz) + G(yz) + tol. ``tolerance`` is a
    fixed byte slack, by default ``default_tolerance`` of the input size.
    """
    if not corpus:
        raise ValueError("normality check needs a non-empty corpus")
    if max_pairs < 0:
        raise ValueError(f"max_pairs must be >= 0, got {max_pairs}")

    rng = random.Random(seed)
    report = NormalityReport()
    sizes: dict[bytes, int] = {}  # singleton sizes by content digest

    def tol_for(n_bytes: int) -> int:
        return default_tolerance(n_bytes) if tolerance is None else tolerance

    def record(prop: str, ids: tuple[str, ...], slack: int, tol: int) -> None:
        report.checks[prop] += 1
        if slack > tol:
            report.violations[prop].append(NormalityViolation(ids, slack, tol))

    def g_single(e: Element) -> int:  # framed as the distance frames a singleton
        if e.digest not in sizes:
            sizes[e.digest] = compress_len(backend, serialize_multiset((e,), mode))
        return sizes[e.digest]

    def g_pair(x: Element, y: Element) -> int:
        # Framed in the given order, not the canonical one: symmetry is a
        # property of the backend, and canonical ordering would mask it.
        return compress_len(backend, serialize_multiset((x, y), mode))

    singles = list(corpus)
    if len(singles) > SAMPLED_SINGLETONS:
        singles = rng.sample(singles, SAMPLED_SINGLETONS)
    for x in singles:
        gx = g_single(x)
        again = compress_len(backend, serialize_multiset((x,), mode))
        record("determinism", (x.id,), abs(again - gx), 0)
        record("idempotency", (x.id, x.id), abs(g_pair(x, x) - gx), tol_for(2 * len(x.data) + 1))

    # Positions in combinations(corpus, 2): sampling them draws what sampling
    # the listed pairs would, and leaves rng in the same state.
    n_pairs = len(corpus) * (len(corpus) - 1) // 2
    drawn = range(n_pairs) if n_pairs <= max_pairs else rng.sample(range(n_pairs), max_pairs)
    for x, y in (_pair_at(corpus, k) for k in drawn):
        gxy = g_pair(x, y)
        gyx = g_pair(y, x)
        after_x = backend.after(prefix_frame(x, mode))
        drift = abs(compress_len(after_x, serialize_multiset((y,), mode)) - gxy)
        record("determinism", (x.id, y.id), drift, 0)
        tol = tol_for(len(x.data) + len(y.data) + 1)
        record("symmetry", (x.id, y.id), abs(gxy - gyx), tol)
        record("monotonicity", (x.id, y.id), g_single(x) - gxy, tol)
        record("monotonicity", (y.id, x.id), g_single(y) - gyx, tol)

    n_triples = min(SAMPLED_TRIPLES, 3 * len(corpus)) if len(corpus) >= 3 else 0
    triples = [rng.sample(range(len(corpus)), 3) for _ in range(n_triples)]
    for i, j, k in triples:
        x, y, z = corpus[i], corpus[j], corpus[k]
        slack = (g_pair(x, y) + g_single(z)) - (g_pair(x, z) + g_pair(y, z))
        tol = tol_for(len(x.data) + len(y.data) + len(z.data) + 2)
        record("distributivity", (x.id, y.id, z.id), slack, tol)
    return report
