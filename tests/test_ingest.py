import errno
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncdm.ingest
from ncdm import (
    CorpusError,
    GrayImage,
    QuantizerConfig,
    TimeSeries,
    fit_quantizer,
    image_to_bitstream,
    load_corpus,
    otsu_threshold,
    quantize_timeseries,
)
from ncdm.ingest import (
    MAX_SYMBOLS,
    QUANT_ALPHABET,
    read_idx_images,
    read_pgm,
    read_test_items,
    read_timeseries_csv,
)

# ----------------------------------------------------------------------
# Independent Otsu oracle: recompute the between-class variance for every
# threshold directly from pixel masks, in exact integer arithmetic, with
# the same midpoint tie rule.
# ----------------------------------------------------------------------


def oracle_otsu(pixels: np.ndarray) -> int:
    flat = [int(v) for v in np.asarray(pixels).ravel()]
    total = len(flat)
    best = None
    tied = []
    for t in range(256):
        lower = [v for v in flat if v <= t]
        upper = [v for v in flat if v > t]
        w0, w1 = len(lower), len(upper)
        if w0 == 0 or w1 == 0:
            continue
        s0, s1 = sum(lower), sum(upper)
        num = (s0 * w1 - s1 * w0) ** 2
        den = w0 * w1
        if best is None or num * best[1] > best[0] * den:
            best = (num, den)
            tied = [t]
        elif num * best[1] == best[0] * den:
            tied.append(t)
    if not tied:
        return flat[0]
    return (tied[0] + tied[-1]) // 2


# Loop oracle for the quantizer's symbol mapping: one alphabet lookup per
# symbol, as the array kernel must reproduce byte for byte.
def oracle_quantize(values: np.ndarray, quantizer: QuantizerConfig) -> bytes:
    n = quantizer.n_symbols
    symbols = np.empty(values.shape, dtype=np.uint8)
    for d in range(values.shape[1]):
        bins = np.searchsorted(np.asarray(quantizer.edges[d]), values[:, d], side="right")
        offset = (d * n) % MAX_SYMBOLS
        symbols[:, d] = [QUANT_ALPHABET[(offset + int(b)) % MAX_SYMBOLS] for b in bins]
    return symbols.tobytes()


# -- quantization -----------------------------------------------------------


# Values from a few levels make bin edges coincide with samples (ties on
# ``side="right"``); feature counts times symbols above 64 wrap the alphabet.
_CELL = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-1.0, 0.0, 0.5, 2.0]))


@settings(max_examples=200, deadline=None)
@given(
    n_symbols=st.integers(2, MAX_SYMBOLS),
    width=st.integers(1, 6),
    train=st.data(),
)
def test_quantize_matches_the_per_symbol_loop(n_symbols, width, train):
    def matrix():
        rows = train.draw(st.integers(1, 30))
        cells = train.draw(st.lists(_CELL, min_size=rows * width, max_size=rows * width))
        return np.array(cells, dtype=float).reshape(rows, width)

    fitted = fit_quantizer([TimeSeries(matrix(), name="train")], n_symbols)
    values = matrix()
    got = quantize_timeseries(TimeSeries(values, name="x"), quantizer=fitted).data
    assert got == oracle_quantize(values, fitted)


def test_constant_series_single_symbol():
    ts = TimeSeries(np.full((50, 1), 3.7), name="const")
    element = quantize_timeseries(ts, fit_quantizer([ts], 4))
    assert len(set(element.data)) == 1
    assert len(element.data) == 50


def test_equal_frequency_split_one_to_ten():
    ts = TimeSeries(np.arange(1.0, 11.0)[:, None], name="ramp")
    element = quantize_timeseries(ts, fit_quantizer([ts], 2))
    symbols = element.data
    assert symbols[:5] == symbols[0:1] * 5
    assert symbols[5:] == symbols[5:6] * 5
    assert symbols[0] != symbols[5]
    assert symbols[0] == QUANT_ALPHABET[0] and symbols[5] == QUANT_ALPHABET[1]


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(120, 3))
    ts = TimeSeries(values, name="a")
    transformed = TimeSeries(
        np.column_stack([np.exp(values[:, 0]), values[:, 1] * 7 - 2, values[:, 2] ** 3]),
        name="b",
    )
    a = quantize_timeseries(ts, fit_quantizer([ts], 5))
    b = quantize_timeseries(transformed, fit_quantizer([transformed], 5))
    assert a.data == b.data


def test_feature_offsets_disjoint_when_capacity_allows():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.normal(size=(80, 3)), name="x")
    element = quantize_timeseries(ts, fit_quantizer([ts], 4))
    per_feature = [set(element.data[d::3]) for d in range(3)]
    assert per_feature[0].isdisjoint(per_feature[1])
    assert per_feature[1].isdisjoint(per_feature[2])


def test_time_major_layout():
    values = np.array([[0.0, 100.0], [10.0, 0.0]])
    ts = TimeSeries(values, name="x")
    element = quantize_timeseries(ts, fit_quantizer([ts], 2))
    # row 0: feature0 low, feature1 high; row 1: the reverse
    assert len(element.data) == 4
    assert element.data[0:2] != element.data[2:4]


def test_corpus_fitted_edges_shared():
    rng = np.random.default_rng(3)
    corpus = [TimeSeries(rng.normal(size=(60, 2)), name=f"s{i}") for i in range(4)]
    quantizer = fit_quantizer(corpus, n_symbols=3)
    assert len(quantizer.edges) == 2
    assert all(len(e) == 2 for e in quantizer.edges)
    direct = quantize_timeseries(corpus[0], quantizer=quantizer)
    fresh = quantize_timeseries(corpus[0], quantizer=QuantizerConfig.from_json(quantizer.to_json()))
    assert direct.data == fresh.data


def test_quantizer_validation():
    ts = TimeSeries(np.zeros((5, 1)), name="x")
    with pytest.raises(ValueError):
        quantize_timeseries(ts, fit_quantizer([ts], 1))
    with pytest.raises(ValueError):
        quantize_timeseries(ts, fit_quantizer([ts], 65))
    with pytest.raises(TypeError):
        quantize_timeseries(ts)  # no quantizer
    with pytest.raises(ValueError):
        quantize_timeseries(TimeSeries(np.full((3, 1), np.nan), name="bad"), fit_quantizer([ts], 2))
    q = fit_quantizer([TimeSeries(np.zeros((5, 2)), name="f")], 4)
    with pytest.raises(ValueError):
        quantize_timeseries(ts, quantizer=q)  # feature count mismatch


@settings(max_examples=200, deadline=None)
@given(n_symbols=st.integers(2, MAX_SYMBOLS), width=st.integers(1, 3), data=st.data())
def test_a_fitted_quantizer_survives_its_own_json(n_symbols, width, data):
    rows = data.draw(st.integers(1, n_symbols + 2))  # fewer rows than symbols too
    column = st.one_of(
        st.lists(_CELL, min_size=rows, max_size=rows),
        _CELL.map(lambda v: [v] * rows),  # a constant column fits to equal edges
    )
    values = np.array([data.draw(column) for _ in range(width)], dtype=float).T
    ts = TimeSeries(values, name="s")
    fitted = fit_quantizer([ts], n_symbols)
    loaded = QuantizerConfig.from_json(fitted.to_json())
    assert loaded == fitted
    assert quantize_timeseries(ts, loaded).data == quantize_timeseries(ts, fitted).data


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TimeSeries(np.full((3, 1), np.nan)), "non-finite values"),
        (lambda: TimeSeries(np.empty((0, 2))), r"non-empty T x D matrix, got shape \(0, 2\)"),
        (lambda: TimeSeries(np.zeros((2, 2, 2))), r"got shape \(2, 2, 2\)"),
        (lambda: GrayImage(np.zeros((0, 4))), r"2-D pixel grid, got shape \(0, 4\)"),
        (lambda: GrayImage(np.zeros(4, dtype=np.uint8)), r"2-D pixel grid, got shape \(4,\)"),
        (lambda: QuantizerConfig(1, ((),)), r"n_symbols must be in \[2, 64\], got 1"),
        (lambda: QuantizerConfig(65, (tuple(range(64)),)), "got 65"),
        (lambda: QuantizerConfig(2, ()), "no features"),
        (lambda: QuantizerConfig(4, ((1.0, 2.0, 3.0), (1.0,))), "feature 1 has 1 edges, 4 symbols"),
        (lambda: QuantizerConfig(2, ((float("nan"),),)), "feature 0 has a non-finite edge"),
        (lambda: QuantizerConfig(2, ((float("inf"),),)), "feature 0 has a non-finite edge"),
        (lambda: QuantizerConfig(3, ((0.0, 1.0), (3.0, 1.0))), "feature 1 has descending edges"),
        (lambda: TimeSeries(np.zeros((2, 2)), ("a", "b", "c")), "3 feature names for 2 features"),
        (lambda: TimeSeries(np.zeros((2, 2)), ("a", 2)), "a feature name that is not a string"),
        (lambda: QuantizerConfig(2, ((1.0,), (2.0,)), ("only",)), "1 feature names for 2 features"),
        (lambda: QuantizerConfig(2, ((1.0,),), (None,)), "a feature name that is not a string"),
    ],
    ids=[
        "series-nan",
        "series-empty",
        "series-3-d",
        "image-empty",
        "image-1-d",
        "quantizer-1-symbol",
        "quantizer-65-symbols",
        "quantizer-no-features",
        "quantizer-wrong-edge-count",
        "quantizer-nan-edge",
        "quantizer-inf-edge",
        "quantizer-descending-edges",
        "series-3-names-for-2-columns",
        "series-name-not-a-string",
        "quantizer-1-name-for-2-features",
        "quantizer-name-not-a-string",
    ],
)
def test_each_value_type_checks_itself_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_series_is_stored_as_a_float_matrix():
    values = TimeSeries([1, 2, 3]).values
    assert values.dtype == float and values.tolist() == [[1.0], [2.0], [3.0]]


def test_a_fit_that_overflows_is_a_corpus_error():
    # neither series alone spans more than a float holds; pooled, the
    # quantile edges overflow, and numpy's warning must not escape
    wide = [TimeSeries(np.array([[-1e308]]), name="lo"), TimeSeries(np.array([[1e308]]), name="hi")]
    with pytest.raises(CorpusError, match="cannot fit a quantizer: feature 0 has a non-finite"):
        fit_quantizer(wide, 4)


def test_quantizer_config_names_a_missing_field():
    with pytest.raises(ValueError, match="n_symbols"):
        QuantizerConfig.from_json('{"edges": [[0.0]]}')
    with pytest.raises(ValueError, match="edges"):
        QuantizerConfig.from_json('{"n_symbols": 2}')
    with pytest.raises(ValueError, match="malformed"):
        QuantizerConfig.from_json("[2, 3]")


# -- Otsu -------------------------------------------------------------------


def test_otsu_two_level_threshold_strictly_between():
    rng = np.random.default_rng(4)
    pixels = rng.choice([50, 200], size=(28, 28)).astype(np.uint8)
    t = otsu_threshold(pixels)
    assert 50 < t < 200
    assert t == oracle_otsu(pixels)


def test_otsu_matches_oracle_on_random_images():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pixels = rng.integers(0, 256, size=(28, 28), dtype=np.uint8)
        assert otsu_threshold(pixels) == oracle_otsu(pixels)


# Images over at most six gray levels: single-level, two-level, sparse
# levels with empty ranges between them, and tied maxima.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True).flatmap(
        lambda levels: st.lists(st.sampled_from(levels), min_size=1, max_size=48)
    )
)
@example([5])
@example([0, 255])
@example([0, 0, 10, 10, 20, 20])  # splits at 0 and at 10 tie: range [0, 19]
@example([3, 3, 3, 250, 251, 251, 7])
def test_otsu_matches_oracle_on_few_level_images(pixels):
    image = np.array(pixels, dtype=np.uint8).reshape(1, -1)
    assert otsu_threshold(image) == oracle_otsu(image)


def test_otsu_degenerate_single_level():
    pixels = np.full((28, 28), 77, dtype=np.uint8)
    assert otsu_threshold(pixels) == 77


# -- bitstream ----------------------------------------------------------------


def test_bitstream_all_zero_image():
    img = GrayImage(np.zeros((28, 28), dtype=np.uint8), name="zero")
    element = image_to_bitstream(img, scale=4)
    assert element.data == b"0" * (112 * 112)


def test_bitstream_length_and_alphabet():
    rng = np.random.default_rng(6)
    img = GrayImage(rng.integers(0, 256, size=(28, 28), dtype=np.uint8), name="x")
    for scale in (1, 2, 4):
        element = image_to_bitstream(img, scale=scale)
        assert len(element.data) == 28 * 28 * scale * scale
        assert set(element.data) <= {ord("0"), ord("1")}


def test_bitstream_scale_replicates_blocks():
    img = GrayImage(np.array([[0, 255]], dtype=np.uint8), name="t")
    element = image_to_bitstream(img, scale=3)
    rows = [element.data[i * 6 : (i + 1) * 6] for i in range(3)]
    assert all(r == b"000111" for r in rows)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), scale=st.integers(1, 3), data=st.data())
def test_bitstream_equals_thresholding_the_upscaled_image(shape, scale, data):
    levels = data.draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    size = shape[0] * shape[1]
    cells = data.draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    pixels = np.array(cells, dtype=np.uint8).reshape(shape)
    scaled = np.repeat(np.repeat(pixels, scale, axis=0), scale, axis=1)
    want = np.where(scaled > oracle_otsu(scaled), np.uint8(ord("1")), np.uint8(ord("0")))
    assert image_to_bitstream(GrayImage(pixels, name="g"), scale=scale).data == want.tobytes()


def test_bitstream_rejects_bad_scale():
    img = GrayImage(np.zeros((4, 4), dtype=np.uint8), name="x")
    with pytest.raises(ValueError):
        image_to_bitstream(img, scale=0)


def test_bitstream_refuses_a_stream_above_the_limit_before_building_it(monkeypatch):
    dot = GrayImage(np.array([[200]], dtype=np.uint8), name="dot")
    with pytest.raises(ValueError, match="scale 1000000 makes a 1000000000000-byte bitstream"):
        image_to_bitstream(dot, scale=10**6)
    monkeypatch.setattr(ncdm.ingest, "MAX_BITSTREAM_BYTES", 16)
    square = GrayImage(np.arange(4, dtype=np.uint8).reshape(2, 2), name="sq")
    assert len(image_to_bitstream(square, scale=2).data) == 16  # at the limit
    with pytest.raises(ValueError, match="makes a 36-byte bitstream; the limit is 16"):
        image_to_bitstream(square, scale=3)


# -- file readers --------------------------------------------------------------


def test_read_timeseries_csv_with_and_without_header(tmp_path):
    with_header = tmp_path / "a.csv"
    with_header.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
    ts = read_timeseries_csv(with_header)
    assert ts.feature_names == ("f1", "f2")
    assert ts.values.shape == (2, 2)

    bare = tmp_path / "b.csv"
    bare.write_text("1.0,2.0\n3.0,4.0\n")
    ts2 = read_timeseries_csv(bare)
    assert ts2.feature_names == ()
    assert np.array_equal(ts2.values, ts.values)


def test_read_pgm(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# comment line\n4 3\n255\n" + pixels.tobytes())
    img = read_pgm(path)
    assert np.array_equal(img.pixels, pixels)
    assert img.name == "img.pgm"
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n4 3\n255\n")
        read_pgm(bad)


@pytest.mark.parametrize(
    "header, raster",
    [(b"P5 2 1 0\n", b"\x05\x07"), (b"P5\n2 2\n200\n", bytes([0, 200, 201, 3]))],
)
def test_read_pgm_refuses_a_pixel_above_maxval(tmp_path, header, raster):
    path = tmp_path / "img.pgm"
    path.write_bytes(header + raster)
    with pytest.raises(ValueError, match=f"^{path}: .*maxval"):
        read_pgm(path)


def test_read_idx_images(tmp_path):
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    header = (0x0803).to_bytes(4, "big") + (5).to_bytes(4, "big")
    header += (28).to_bytes(4, "big") + (28).to_bytes(4, "big")
    path = tmp_path / "digits.idx"
    path.write_bytes(header + raw.tobytes())
    images = read_idx_images(path)
    assert len(images) == 5
    assert np.array_equal(images[2].pixels, raw[2])
    assert images[2].name == "digits-00002"
    assert len(read_idx_images(path, limit=3)) == 3
    assert read_idx_images(path, limit=0) == []
    with pytest.raises(ValueError, match="limit"):
        read_idx_images(path, limit=-1)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
        read_idx_images(bad)


# -- corpus loading --------------------------------------------------------------


def make_corpus_dir(tmp_path, layout):
    root = tmp_path / "classes"
    for label, files in layout.items():
        d = root / label
        d.mkdir(parents=True)
        for name, content in files.items():
            (d / name).write_bytes(content)
    return root


def test_load_corpus_two_classes(tmp_path):
    root = make_corpus_dir(
        tmp_path,
        {
            "cats": {"a.txt": b"meow", "b.txt": b"purr", "c.txt": b"meow"},
            "dogs": {"x.txt": b"woof", "y.txt": b"bark", "z.txt": b"yip"},
        },
    )
    classes = load_corpus(root)
    assert list(classes) == ["cats", "dogs"]
    assert len(classes["cats"]) == 3
    assert classes["cats"].ids()[0].startswith("cats/")
    # duplicate contents stay distinct elements
    datas = [e.data for e in classes["cats"]]
    assert datas.count(b"meow") == 2


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(CorpusError, match=f"nope: {os.strerror(errno.ENOENT)}$"):
        load_corpus(tmp_path / "nope")


def test_load_corpus_empty_class(tmp_path):
    root = tmp_path / "classes"
    (root / "empty").mkdir(parents=True)
    with pytest.raises(CorpusError, match="empty"):
        load_corpus(root)


def test_load_corpus_test_dir_and_manifest(tmp_path):
    # a corpus's held-out half, which only classify reads
    loose = tmp_path / "test_items"
    loose.mkdir()
    (loose / "q1.txt").write_bytes(b"query")
    items = read_test_items(loose)
    assert len(items) == 1
    assert items[0].label is None

    (tmp_path / "item.bin").write_bytes(b"labeled query")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "item.bin", "label": "a"}]))
    items = read_test_items(manifest)
    assert items[0].label == "a"
    assert items[0].element.data == b"labeled query"
    manifest.write_text(json.dumps([{"path": "item.bin", "label": None}]))
    assert read_test_items(manifest)[0].label is None


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        json.dumps({"path": "item.bin"}),
        json.dumps([{"label": "a"}]),
        json.dumps([{"path": "item.bin", "label": 5}]),
    ],
    ids=["not-json", "not-a-list", "entry-without-path", "label-not-a-string"],
)
def test_load_corpus_malformed_manifest(tmp_path, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    with pytest.raises(CorpusError, match="manifest"):
        read_test_items(manifest)
