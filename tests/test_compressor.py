import bz2
import itertools
import os
import random
import stat
import subprocess
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdm import (
    BackendUnavailableError,
    Bz2Backend,
    CompressorBackend,
    Element,
    ExternalBackend,
    Multiset,
    NcdCalculator,
    SeparatorCollisionError,
    SizeCache,
    ZlibBackend,
    compress_len,
    get_backend,
    normality_report,
    serialize_multiset,
)
from ncdm import compressor
from ncdm.cli import main
from ncdm.compressor import (
    FRAMING_MODES,
    NormalityReport,
    cached_compress_len,
    content_digest,
    default_tolerance,
    encode_uvarint,
    prefix_frame,
    request_key,
)

from .conftest import PlusOne, random_element, random_text_element


def E(data: bytes, ident: str) -> Element:
    return Element(data, ident)


# -- backends ----------------------------------------------------------


def test_compress_len_empty_input_is_small_positive():
    for backend in (Bz2Backend(), ZlibBackend()):
        n = compress_len(backend, b"")
        assert 0 < n < 32  # format header only


def test_compress_len_repetitive_input_deflate():
    # reference codec value for 10,000 repeats of 'a' at the default level
    backend = ZlibBackend()
    n = compress_len(backend, b"a" * 10_000)
    assert n < 200
    assert n == zlib.compress(b"a" * 10_000, 6).__len__()


def test_compress_len_deterministic():
    data = random_element(1, 2048, "x").data
    for backend in (Bz2Backend(), ZlibBackend()):
        assert backend.compress_len(data) == backend.compress_len(data)


def test_backend_kinds_and_names():
    assert get_backend("bz2").name == "bz2-9"
    assert get_backend("zlib:9").level == 9
    assert get_backend("cmd:gzip -9").argv == ("gzip", "-9")
    for spec in ("nonesuch", "gzip"):  # zlib is not gzip: gzip's sizes differ
        with pytest.raises(ValueError):
            get_backend(spec)


def test_external_backend_counts_stdout_bytes():
    backend = ExternalBackend(["gzip", "-9"])
    data = b"hello world " * 100
    import gzip as _gzip  # reference: size must match an in-process gzip

    expected = len(_gzip.compress(data, 9))
    # gzip embeds an mtime in the header but the size is unaffected
    assert backend.compress_len(data) == expected


def test_external_backend_missing_command():
    backend = ExternalBackend(["definitely-not-a-real-compressor"])
    with pytest.raises(BackendUnavailableError, match="not found"):
        backend.compress_len(b"data")


def test_external_backend_failing_command():
    backend = ExternalBackend(["false"])
    with pytest.raises(BackendUnavailableError, match="status"):
        backend.compress_len(b"data")


def test_hung_external_backend_times_out(monkeypatch, tmp_path, capsys):
    started = []
    popen = subprocess.Popen

    class Recording(popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    monkeypatch.setattr(compressor, "EXTERNAL_TIMEOUT_S", 0.5)
    (tmp_path / "a.txt").write_bytes(b"aaaa")
    (tmp_path / "b.txt").write_bytes(b"bbbb")
    t0 = time.monotonic()
    code = main(["pair", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                 "--backend", "cmd:sleep 30", "--jobs", "1"])
    assert code == 1
    assert time.monotonic() - t0 < 5
    assert "no answer within 0.5 s" in capsys.readouterr().err
    assert len(started) == 1
    assert started[0].returncode is not None  # killed and reaped
    with pytest.raises(ProcessLookupError):
        os.kill(started[0].pid, 0)


def test_external_backend_empty_output_rejected():
    # `cat` on empty input emits zero bytes, violating the size contract
    with pytest.raises(BackendUnavailableError, match="header"):
        compress_len(ExternalBackend(["cat"]), b"")


# -- checkpoints ---------------------------------------------------------

# Element sizes on both sides of deflate's 32 KiB window.
WINDOW_EDGES = (0, 1, 32_767, 32_768, 70_000)


def window_payload(rng: random.Random, size: int, source: bytes = b"") -> bytes:
    """Words, noise and runs copied from ``source``, so deflate finds matches
    inside the payload and back across the prefix boundary."""
    out = bytearray()
    while len(out) < size:
        kind = rng.randrange(3)
        if kind == 0 and source:
            start = rng.randrange(len(source))
            out += source[start : start + rng.randrange(3, 300)]
        elif kind == 1:
            out += rng.randbytes(rng.randrange(1, 64)).replace(b"\n", b" ")
        else:
            out += bytes(rng.choice(b"abcdefgh ") for _ in range(rng.randrange(1, 40)))
    return bytes(out[:size])


def window_pair(seed: int, x_size: int, y_size: int) -> tuple[Element, Element]:
    rng = random.Random(seed)
    x = window_payload(rng, x_size)
    return E(x, "x"), E(window_payload(rng, y_size, x), "y")


@given(
    st.integers(1, 9),
    st.sampled_from(FRAMING_MODES),
    st.sampled_from(WINDOW_EDGES),
    st.sampled_from(WINDOW_EDGES),
    st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_deflate_checkpoint_equals_one_shot(level, mode, x_size, y_size, seed):
    x, y = window_pair(seed, x_size, y_size)
    prefix = prefix_frame(x, mode)
    after_x = ZlibBackend(level).after(prefix)
    # The view is reused, so a suffix must not disturb the saved state.
    for suffix in (serialize_multiset((y,), mode), serialize_multiset((x,), mode)):
        assert compress_len(after_x, suffix) == len(zlib.compress(prefix + suffix, level))


@given(
    st.sampled_from(FRAMING_MODES),
    st.sampled_from(WINDOW_EDGES),
    st.sampled_from(WINDOW_EDGES),
    st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_bz2_after_compresses_the_concatenation(mode, x_size, y_size, seed):
    x, y = window_pair(seed, x_size, y_size)
    prefix, suffix = prefix_frame(x, mode), serialize_multiset((y,), mode)
    assert prefix + suffix == serialize_multiset((x, y), mode)
    assert compress_len(Bz2Backend(1).after(prefix), suffix) == len(bz2.compress(prefix + suffix, 1))


# -- serialization -----------------------------------------------------


def test_serialize_text_sorts_lexicographically():
    ms = Multiset([E(b"b", "1"), E(b"a", "2")])
    assert serialize_multiset(ms, "text") == b"a\nb"


def test_serialize_text_shorter_first():
    ms = Multiset([E(b"aa", "1"), E(b"b", "2")])
    assert serialize_multiset(ms, "text") == b"b\naa"


def test_serialize_preserves_duplicates():
    ms = Multiset([E(b"a", "1"), E(b"a", "2")])
    assert serialize_multiset(ms, "text") == b"a\na"


def test_serialize_text_rejects_separator_in_element():
    ms = Multiset([E(b"a\nb", "1")])
    with pytest.raises(SeparatorCollisionError):
        serialize_multiset(ms, "text")


def test_separator_collision_is_raised_before_any_cache_lookup():
    bad = Multiset([E(b"a\nb", "1"), E(b"c", "2")])
    calc = NcdCalculator(ZlibBackend(), mode="text")
    # Whatever the cache holds, here a size for the very request, is not consulted.
    calc.cache.put(content_digest(b"text:" + b"".join(e.digest for e in bad)), 7)
    for ask in (calc.g, calc.g_profile, calc.ncd1, calc.ncd_heuristic):
        with pytest.raises(SeparatorCollisionError):
            ask(bad)
    with pytest.raises(SeparatorCollisionError):
        calc.distance_matrix(bad.elements)
    assert calc.cache.lookups == 0


def test_request_key_names_framing_and_contents_not_ids():
    x, y = E(b"x", "1"), E(b"yy", "2")
    key = request_key(Multiset([x, y]), "text")
    assert key == request_key(Multiset([E(b"yy", "3"), E(b"x", "4")]), "text")
    assert key != request_key(Multiset([x, y]), "varint")
    assert key != request_key(Multiset([x]), "text")
    assert key != request_key(Multiset([x, x]), "text")
    assert request_key(Multiset([E(b"a\nb", "1")]), "varint")  # binary-safe framing
    with pytest.raises(ValueError):
        request_key(Multiset([x]), "packed")


def test_request_key_digests_are_pinned():
    # Snapshot records are keyed by these digests: a change to the key scheme
    # orphans every saved snapshot, so it must show here first.
    ms = Multiset([E(b"one fixed element", "a"), E(b"and another", "b")])
    pinned = {
        "text": "9fdd6221283826f89502a35cff1900a58442e7e62ec6a989bcd2e952984a7a23",
        "varint": "282ec49d04903713946db79bcf7763cc306c03847fb77c149ee542c58b981807",
    }
    assert {mode: content_digest(request_key(ms, mode)) for mode in pinned} == pinned


def test_serialize_unknown_mode():
    with pytest.raises(ValueError):
        serialize_multiset(Multiset(), "packed")


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Unsigned LEB128 decoder; returns (value, next offset)."""
    result = shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def split_varint_frames(blob: bytes) -> list[bytes]:
    out, pos = [], 0
    while pos < len(blob):
        length, pos = decode_uvarint(blob, pos)
        assert pos + length <= len(blob), "truncated element payload"
        out.append(blob[pos : pos + length])
        pos += length
    return out


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=0, max_size=8))
@settings(max_examples=200, deadline=None)
def test_varint_framing_round_trips(payloads):
    ms = Multiset([E(p, f"e{i}") for i, p in enumerate(payloads)])
    blob = serialize_multiset(ms, "varint")
    assert split_varint_frames(blob) == [e.data for e in ms]


@given(st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_serialization_permutation_invariant(payloads):
    elements = [E(p, f"e{i}") for i, p in enumerate(payloads)]
    rng = random.Random(0)
    shuffled = elements[:]
    rng.shuffle(shuffled)
    for mode in ("text", "varint"):
        if mode == "text" and any(b"\n" in p for p in payloads):
            continue
        assert serialize_multiset(Multiset(shuffled), mode) == serialize_multiset(
            Multiset(elements), mode
        )


@given(st.integers(min_value=0, max_value=2**40))
@settings(max_examples=200, deadline=None)
def test_uvarint_round_trip(n):
    value, offset = decode_uvarint(encode_uvarint(n))
    assert value == n
    assert offset == len(encode_uvarint(n))


# -- cache -------------------------------------------------------------


def test_cache_transparency():
    backend = Bz2Backend()
    cache = SizeCache(backend.name)
    data = random_element(2, 4096, "x").data
    key = b"request"
    first = cached_compress_len(backend, cache, key, lambda: data)
    second = cached_compress_len(backend, cache, key, lambda: data)
    assert first == second == compress_len(backend, data)
    assert cache.job_count == 1
    assert cache.hits == 1


def test_cache_snapshot_round_trip(tmp_path):
    cache = SizeCache("bz2-9")
    cache.put(content_digest(b"abc"), 11)
    cache.put(content_digest(b"def"), 22)
    path = tmp_path / "sizes.tsv"
    cache.save(path)
    header, *lines = path.read_text().splitlines()
    assert header == "# ncdm-sizes v2 bz2-9"
    assert len(lines) == 2
    assert lines == sorted(lines)  # sorted by digest
    digest, size = lines[0].split("\t")
    assert len(digest) == 64 and size.isdigit()

    fresh = SizeCache("bz2-9")
    assert fresh.load(path) == 2
    assert fresh.get(content_digest(b"abc")) == 11
    assert fresh.job_count == 0  # preloads are not compression jobs


def test_cache_snapshot_may_be_named_as_its_temporary_file(tmp_path):
    cache = SizeCache("bz2-9")
    cache.put(content_digest(b"abc"), 11)
    path = tmp_path / f".ncdm-{os.getpid()}.tmp"
    cache.save(path)
    assert SizeCache("bz2-9").load(path) == 1


def test_cache_snapshot_refuses_a_size_too_large_to_be_exact_as_a_float(tmp_path):
    path = tmp_path / "sizes.tsv"
    path.write_text(f"# ncdm-sizes v2 bz2-9\n{'0' * 64}\t{'9' * 15}\n{'1' * 64}\t{'9' * 16}\n")
    with pytest.raises(ValueError, match=":3: not a digest<TAB>size record"):
        SizeCache("bz2-9").load(path)


def test_cache_concurrent_inserts_are_safe():
    from concurrent.futures import ThreadPoolExecutor

    backend = ZlibBackend()
    cache = SizeCache(backend.name)
    data = random_element(3, 1024, "x").data
    with ThreadPoolExecutor(8) as pool:
        results = list(
            pool.map(lambda _: cached_compress_len(backend, cache, b"key", lambda: data), range(64))
        )
    assert len(set(results)) == 1
    assert cache.job_count >= 1


# -- normality ---------------------------------------------------------


def test_default_tolerance_grows_logarithmically():
    assert default_tolerance(0) == 64
    assert default_tolerance(4096) == 64 + 13
    assert default_tolerance(2**20) > default_tolerance(2**10)


def test_normality_identical_elements_no_monotonicity_violations():
    corpus = [random_text_element(4, 2048, f"x{i}") for i in range(1)] * 4
    report = normality_report(Bz2Backend(), corpus, seed=0)
    assert report.violations["monotonicity"] == []


def test_normality_random_corpus_records_counts(zlib_calc):
    corpus = [random_text_element(10 + i, 4096, f"r{i}") for i in range(8)]
    report = normality_report(Bz2Backend(), corpus, seed=1)
    for prop in report.PROPERTIES:
        assert report.checks[prop] > 0
    as_dict = report.to_dict()
    assert set(as_dict["violations"]) == set(report.PROPERTIES)


def test_normality_zero_tolerance_shows_asymmetry():
    # stream/block compressors are not byte-exactly symmetric
    corpus = [random_text_element(20 + i, 4096, f"s{i}") for i in range(8)]
    report = normality_report(Bz2Backend(), corpus, tolerance=0, seed=2)
    assert len(report.violations["symmetry"]) > 0
    for violation in report.violations["symmetry"]:
        assert violation.slack > violation.tolerance == 0


class DriftingBackend(ZlibBackend):
    """Adds one byte to every other answer: a backend the cache cannot trust."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def compress_len(self, data: bytes) -> int:
        self.calls += 1
        return super().compress_len(data) + self.calls % 2


def test_normality_determinism_probe():
    corpus = [random_text_element(30 + i, 1024, f"d{i}") for i in range(5)]
    steady = normality_report(Bz2Backend(), corpus, seed=3)
    assert steady.checks["determinism"] == 5 + 10  # singletons, then pairs
    assert steady.violations["determinism"] == []
    drifting = normality_report(DriftingBackend(), corpus, seed=3)
    assert drifting.checks["determinism"] == 5 + 10
    assert not drifting.ok
    # Each pair's checkpointed size is the third call after its one-shot
    # size, so the alternating drift shows on the singletons only.
    assert sorted(v.ids for v in drifting.violations["determinism"]) == [
        (e.id,) for e in corpus
    ]
    for violation in drifting.violations["determinism"]:
        assert violation.slack == 1 and violation.tolerance == 0


def test_normality_sizes_each_content_as_itself_whatever_its_id():
    corpus = [Element(b"x" * 64, "x"), random_text_element(31, 1024, "x")]
    report = normality_report(ZlibBackend(), corpus, tolerance=0, seed=0)
    assert report.checks["determinism"] == 2 + 1
    assert report.violations["determinism"] == []


class ChunkSensitiveBackend(ZlibBackend):
    """A deflate whose output grows by a byte when its input arrives in two parts."""

    def after(self, prefix: bytes) -> CompressorBackend:
        return PlusOne(self.level).after(prefix)


@pytest.mark.parametrize("mode", FRAMING_MODES)
def test_normality_determinism_probe_covers_checkpoints(mode):
    corpus = [random_text_element(40 + i, 1024, f"c{i}") for i in range(4)]
    assert normality_report(ZlibBackend(), corpus, seed=4, mode=mode).violations["determinism"] == []
    report = normality_report(ChunkSensitiveBackend(), corpus, seed=4, mode=mode)
    assert report.checks["determinism"] == 4 + 6
    assert sorted(v.ids for v in report.violations["determinism"]) == sorted(
        (x.id, y.id) for i, x in enumerate(corpus) for y in corpus[i + 1 :]
    )
    for violation in report.violations["determinism"]:
        assert violation.slack == 1 and violation.tolerance == 0


@pytest.mark.parametrize("mode", FRAMING_MODES)
def test_normality_frames_a_singleton_as_the_distance_does(mode):
    corpus = [random_text_element(70 + i, 512, f"i{i}") for i in range(4)]
    report = normality_report(ZlibBackend(), corpus, tolerance=0, seed=7, mode=mode)
    g = NcdCalculator(ZlibBackend(), mode=mode).g
    expected = {x.id: abs(g(Multiset([x, x])) - g(Multiset([x]))) for x in corpus}
    assert all(expected.values())  # so every check is recorded as a violation
    assert {v.ids[0]: v.slack for v in report.violations["idempotency"]} == expected


def test_pair_at_enumerates_the_combinations_in_order():
    for n in range(2, 80):
        listed = list(itertools.combinations(range(n), 2))
        assert [compressor._pair_at(range(n), k) for k in range(len(listed))] == listed


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_pair_sampling_draws_what_sampling_the_listed_pairs_draws(n, seed, k):
    listed = list(itertools.combinations(range(n), 2))
    k = min(k, len(listed))
    oracle, direct = random.Random(seed), random.Random(seed)
    expected = oracle.sample(listed, k)
    drawn = [compressor._pair_at(range(n), i) for i in direct.sample(range(len(listed)), k)]
    assert drawn == expected
    assert direct.getstate() == oracle.getstate()  # the triples that follow are drawn alike


def test_normality_checks_the_pairs_a_listed_sample_draws():
    corpus = [random_text_element(60 + i, 64, f"p{i:02d}") for i in range(30)]
    report = normality_report(ChunkSensitiveBackend(), corpus, max_pairs=20, seed=6)
    listed = random.Random(6).sample(list(itertools.combinations(corpus, 2)), 20)
    assert [v.ids for v in report.violations["determinism"]] == [(x.id, y.id) for x, y in listed]


def test_normality_samples_at_most_the_module_caps():
    corpus = [random_text_element(50 + i, 96, f"n{i:02d}") for i in range(60)]
    report = normality_report(ZlibBackend(), corpus, max_pairs=7, seed=5)
    assert tuple(report.checks) == tuple(report.violations) == NormalityReport.PROPERTIES
    assert report.checks["idempotency"] == compressor.SAMPLED_SINGLETONS == 50
    assert report.checks["distributivity"] == compressor.SAMPLED_TRIPLES == 50
    assert report.checks["determinism"] == 50 + 7
    assert report.checks["symmetry"] == 7 and report.checks["monotonicity"] == 14


def test_normality_empty_corpus_rejected():
    with pytest.raises(ValueError):
        normality_report(Bz2Backend(), [])
