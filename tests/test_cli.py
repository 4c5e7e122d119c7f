import json
import shutil

import numpy as np
import pytest

import ncdm.compressor
from ncdm import NcdCalculator
from ncdm.cli import main

from .conftest import ALPHABET_A, ALPHABET_B, make_vocab, fragment_elements


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_class_dirs(tmp_path, per_class=4, n_words=80):
    root = tmp_path / "classes"
    for label, vocab_seed, alphabet in (("alpha", 1, ALPHABET_A), ("beta", 2, ALPHABET_B)):
        d = root / label
        d.mkdir(parents=True)
        vocab = make_vocab(vocab_seed, alphabet)
        for i, e in enumerate(fragment_elements(10 + vocab_seed, vocab, per_class, n_words=n_words)):
            (d / f"{label}{i}.txt").write_bytes(e.data)
    return root


def test_pair_identity_low(tmp_path, capsys):
    f = tmp_path / "a.txt"
    vocab = make_vocab(9, ALPHABET_A)
    f.write_bytes(fragment_elements(9, vocab, 1, n_words=400)[0].data)
    code, report, err = run(capsys, "pair", str(f), str(f), "--backend", "zlib")
    assert code == 0
    assert report["formula"] == "pairwise"
    assert report["value"] <= 0.1
    assert "pairwise" in err


def test_pair_missing_file_usage_error(tmp_path, capsys):
    code, report, err = run(capsys, "pair", str(tmp_path / "nope"), str(tmp_path / "nope"))
    assert code == 2
    assert report is None  # no partial JSON on failure
    assert "usage error" in err


def test_unknown_backend_usage_error(tmp_path, capsys):
    f = tmp_path / "a.txt"
    f.write_bytes(b"abc")
    code, report, err = run(capsys, "pair", str(f), str(f), "--backend", "nonesuch")
    assert code == 2 and report is None


def test_multiset_two_files_matches_pair(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(b"alpha beta gamma " * 40)
    b.write_bytes(b"delta epsilon zeta " * 40)
    code, pair_report, _ = run(capsys, "pair", str(a), str(b))
    code2, ms_report, _ = run(capsys, "multiset", "--heuristic", str(a), str(b))
    assert code == code2 == 0
    assert ms_report["value"] == pair_report["value"]
    assert len(ms_report["chain"]) == 1
    assert ms_report["compression_jobs"] >= 3


def test_multiset_directory_exact_and_ncd1(tmp_path, capsys):
    d = tmp_path / "items"
    d.mkdir()
    vocab = make_vocab(3, ALPHABET_A)
    for i, e in enumerate(fragment_elements(5, vocab, 4, n_words=50)):
        (d / f"e{i}.txt").write_bytes(e.data)
    code, exact, _ = run(capsys, "multiset", "--exact", str(d))
    code2, heur, _ = run(capsys, "multiset", str(d))
    code3, plain, _ = run(capsys, "multiset", "--ncd1", str(d))
    assert code == code2 == code3 == 0
    assert heur["value"] <= exact["value"] + 1e-9
    assert plain["value"] <= heur["value"] + 1e-12
    assert exact["witness"] is not None


def test_multiset_degenerate_input_exit_one(tmp_path, capsys):
    # directory with a single file cannot form a pairable multiset
    d = tmp_path / "items"
    d.mkdir()
    (d / "only.txt").write_bytes(b"solo")
    code, report, err = run(capsys, "multiset", str(d))
    assert code == 2  # too few inputs is a usage problem
    assert report is None


def test_separator_collision_exit_one(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"line one\nline two")
    b.write_bytes(b"other\ncontent")
    code, report, err = run(capsys, "pair", str(a), str(b))
    assert code == 1 and report is None
    assert "varint" in err
    code2, report2, _ = run(capsys, "pair", str(a), str(b), "--framing", "varint")
    assert code2 == 0 and 0 <= report2["value"] <= 1.1


def test_matrix_csv_output(tmp_path, capsys):
    d = tmp_path / "items"
    d.mkdir()
    vocab = make_vocab(4, ALPHABET_B)
    for i, e in enumerate(fragment_elements(6, vocab, 3, n_words=40)):
        (d / f"m{i}.txt").write_bytes(e.data)
    out_csv = tmp_path / "dist.csv"
    code, report, _ = run(capsys, "matrix", str(d), "--csv", str(out_csv))
    assert code == 0
    assert report["labels"] == ["m0.txt", "m1.txt", "m2.txt"]
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 4
    matrix = np.array(report["values"])
    assert matrix.shape == (3, 3)
    assert np.allclose(matrix, matrix.T)


def test_matrix_jobs_flag_does_not_change_output(tmp_path, capsys):
    d = tmp_path / "items"
    d.mkdir()
    vocab = make_vocab(5, ALPHABET_A)
    for i, e in enumerate(fragment_elements(7, vocab, 4, n_words=40)):
        (d / f"m{i}.txt").write_bytes(e.data)
    code, r1, _ = run(capsys, "matrix", str(d), "--jobs", "1")
    code2, r2, _ = run(capsys, "matrix", str(d), "--jobs", "4")
    assert code == code2 == 0
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_classify_items(tmp_path, capsys):
    root = write_class_dirs(tmp_path)
    query = tmp_path / "query.txt"
    vocab = make_vocab(1, ALPHABET_A)  # alpha generator
    query.write_bytes(fragment_elements(77, vocab, 1)[0].data)
    code, report, err = run(capsys, "classify", str(query), "--classes", str(root))
    assert code == 0
    assert report["items"][0]["predicted"] == "alpha"
    assert set(report["items"][0]["scores"]) == {"alpha", "beta"}


@pytest.mark.parametrize("method", ["delta", "min-distance"])
def test_classify_scores_like_a_loocv_fold(tmp_path, capsys, method):
    root = write_class_dirs(tmp_path)
    common = ("--method", method, "--backend", "zlib")
    code, report, _ = run(capsys, "loocv", "--classes", str(root), *common)
    assert code == 0
    (fold,) = [item for item in report["items"] if item["id"] == "alpha/alpha1.txt"]
    depleted = tmp_path / "depleted"
    shutil.copytree(root, depleted)
    held = tmp_path / "alpha1.txt"
    (depleted / "alpha" / "alpha1.txt").rename(held)
    code, report, _ = run(capsys, "classify", str(held), "--classes", str(depleted), *common)
    assert code == 0
    (item,) = report["items"]
    assert item["scores"] == fold["scores"]
    assert item["predicted"] == fold["predicted"]


def test_loocv_reproducible_bytes(tmp_path, capsys):
    root = write_class_dirs(tmp_path)
    code, _, _ = run(capsys, "loocv", "--classes", str(root), "--method", "delta", "--seed", "3")
    out1 = main(["loocv", "--classes", str(root), "--method", "delta", "--seed", "3"])
    first = capsys.readouterr().out
    out2 = main(["loocv", "--classes", str(root), "--method", "delta", "--seed", "3"])
    second = capsys.readouterr().out
    assert code == out1 == out2 == 0
    assert first == second  # byte-identical JSON


def test_loocv_min_distance_method(tmp_path, capsys):
    root = write_class_dirs(tmp_path)
    code, report, err = run(capsys, "loocv", "--classes", str(root), "--method", "min-distance")
    assert code == 0
    assert report["method"] == "min-distance"
    assert report["n"] == 8
    assert 0.0 <= report["accuracy"] <= 1.0
    assert "correct" in err


def test_loocv_class_too_small_exit_one(tmp_path, capsys):
    root = write_class_dirs(tmp_path, per_class=2)
    code, report, _ = run(capsys, "loocv", "--classes", str(root))
    assert code == 1 and report is None


def test_partition_tree_json(tmp_path, capsys):
    from .conftest import near_copy_class

    root = tmp_path / "classes"
    for label, seed, alphabet in (("p", 70, ALPHABET_A), ("q", 71, ALPHABET_B)):
        d = root / label
        d.mkdir(parents=True)
        for i, e in enumerate(near_copy_class(seed, alphabet, 6, prefix=label)):
            (d / f"{label}{i}.txt").write_bytes(e.data)
    code, report, _ = run(
        capsys,
        "partition",
        "--classes",
        str(root),
        "--backend",
        "zlib",
        "--min-size",
        "30%",
        "--seed",
        "1",
    )
    assert code == 0
    assert report["config"]["backend"] == "zlib-6"
    assert set(report["classes"]) == {"p", "q"}
    assert report["rng"] == "numpy-pcg64"


def test_gen_synthetic_writes_population(tmp_path, capsys):
    out = tmp_path / "cells"
    code, report, err = run(
        capsys,
        "gen-synthetic",
        "--upsilon",
        "3.0",
        "--cells",
        "4",
        "--seed",
        "5",
        "--out",
        str(out),
        "--track-len",
        "228",
        "280",
    )
    assert code == 0
    assert report["n_cells"] == 4
    assert (out / "manifest.json").is_file()
    assert len(list(out.glob("cell_*.csv"))) == 4


def test_compressor_check(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    vocab = make_vocab(6, ALPHABET_A)
    for i, e in enumerate(fragment_elements(8, vocab, 5, n_words=60)):
        (d / f"c{i}.txt").write_bytes(e.data)
    code, report, err = run(capsys, "compressor-check", str(d), "--backend", "bz2")
    assert code == 0
    assert set(report["violations"]) == {
        "determinism",
        "idempotency",
        "monotonicity",
        "symmetry",
        "distributivity",
    }
    assert report["checks"]["symmetry"] > 0
    # 5 singletons compressed twice, then each of the 10 pairs through a checkpoint.
    assert report["checks"]["symmetry"] == 10
    assert report["checks"]["determinism"] == 5 + 10
    assert report["violations"]["determinism"] == []


def test_quantize_and_config_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(8)
    csv_dir = tmp_path / "series"
    csv_dir.mkdir()
    for i in range(3):
        rows = rng.normal(size=(40, 2))
        lines = ["f0,f1"] + [f"{a:.6f},{b:.6f}" for a, b in rows]
        (csv_dir / f"s{i}.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "symbols"
    cfg_path = tmp_path / "quant.json"
    code, report, _ = run(
        capsys,
        "quantize",
        str(csv_dir),
        "--symbols",
        "4",
        "--out",
        str(out),
        "--save-config",
        str(cfg_path),
    )
    assert code == 0
    assert len(report["files"]) == 3
    assert cfg_path.is_file()
    # re-quantizing with the saved config reproduces the streams
    out2 = tmp_path / "symbols2"
    code2, report2, _ = run(
        capsys, "quantize", str(csv_dir), "--out", str(out2), "--config", str(cfg_path)
    )
    assert code2 == 0
    for f1, f2 in zip(report["files"], report2["files"]):
        from pathlib import Path

        assert Path(f1).read_bytes() == Path(f2).read_bytes()


def test_image2bits_pgm_and_idx(tmp_path, capsys):
    rng = np.random.default_rng(9)
    pgm = tmp_path / "img.pgm"
    pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    pgm.write_bytes(b"P5\n8 8\n255\n" + pixels.tobytes())
    raw = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    idx = tmp_path / "digits.idx"
    idx.write_bytes(
        (0x0803).to_bytes(4, "big")
        + (3).to_bytes(4, "big")
        + (28).to_bytes(4, "big")
        + (28).to_bytes(4, "big")
        + raw.tobytes()
    )
    out = tmp_path / "bits"
    code, report, _ = run(
        capsys, "image2bits", str(pgm), "--idx", str(idx), "--limit", "2", "--scale", "2", "--out", str(out)
    )
    assert code == 0
    assert len(report["files"]) == 3  # 2 idx records + 1 pgm
    for entry in report["files"]:
        assert entry["length"] in (28 * 28 * 4, 8 * 8 * 4)


def test_cache_file_round_trip(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(b"some shared words here " * 30)
    b.write_bytes(b"other shared words here " * 30)
    cache = tmp_path / "sizes.tsv"
    code, r1, _ = run(capsys, "pair", str(a), str(b), "--cache", str(cache))
    assert code == 0 and cache.is_file()
    code2, r2, _ = run(capsys, "pair", str(a), str(b), "--cache", str(cache))
    assert code2 == 0
    assert r2["value"] == r1["value"]
    assert r2["compression_jobs"] == 0  # everything served from the snapshot


def test_backend_env_variable(tmp_path, capsys, monkeypatch):
    f = tmp_path / "a.txt"
    f.write_bytes(b"payload " * 50)
    monkeypatch.setenv("NCDM_BACKEND", "zlib:9")
    code, report, _ = run(capsys, "pair", str(f), str(f))
    assert code == 0
    assert report["config"]["backend"] == "zlib-9"


def test_cache_from_another_backend_is_refused(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(b"some shared words here " * 30)
    b.write_bytes(b"other words, not shared " * 30)
    cache = tmp_path / "sizes.tsv"
    code, _, _ = run(capsys, "pair", str(a), str(b), "--backend", "bz2", "--cache", str(cache))
    assert code == 0
    code, report, err = run(capsys, "pair", str(a), str(b), "--backend", "zlib", "--cache", str(cache))
    assert code == 2 and report is None
    assert "bz2-9" in err and "zlib-6" in err


@pytest.mark.parametrize(
    "snapshot",
    ["abc\tnotanumber\n", "# ncdm-sizes v2 zlib-6\nabc\tnotanumber\n"],
    ids=["no-header", "bad-record"],
)
def test_malformed_cache_is_a_usage_error(tmp_path, capsys, snapshot):
    a = tmp_path / "a.txt"
    a.write_bytes(b"payload " * 50)
    cache = tmp_path / "sizes.tsv"
    cache.write_text(snapshot)
    code, report, err = run(capsys, "pair", str(a), str(a), "--backend", "zlib", "--cache", str(cache))
    assert code == 2 and report is None
    assert str(cache) in err and "Traceback" not in err


def test_snapshot_of_an_earlier_version_is_refused(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_bytes(b"payload " * 50)
    cache = tmp_path / "sizes.tsv"
    cache.write_text("# ncdm-sizes v1 zlib-6\n" + "0" * 64 + "\t11\n")
    code, report, err = run(capsys, "pair", str(a), str(a), "--backend", "zlib", "--cache", str(cache))
    assert code == 2 and report is None
    assert "# ncdm-sizes v2 zlib-6" in err and "Traceback" not in err


def test_snapshot_answers_only_its_own_framing(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_bytes(b"some shared words here " * 30)
    b.write_bytes(b"other words, not shared " * 30)
    pair = ["pair", str(a), str(b), "--backend", "zlib"]
    code, fresh, _ = run(capsys, *pair, "--framing", "varint")
    assert code == 0
    cache = tmp_path / "sizes.tsv"
    code, text, _ = run(capsys, *pair, "--framing", "text", "--cache", str(cache))
    assert code == 0 and text["value"] != fresh["value"]
    code, varint, _ = run(capsys, *pair, "--framing", "varint", "--cache", str(cache))
    assert code == 0
    assert varint["value"] == fresh["value"]
    assert varint["compression_jobs"] == fresh["compression_jobs"] == 3


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_bad_cache_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, where):
    a = tmp_path / "a.txt"
    a.write_bytes(b"payload " * 50)
    cache = tmp_path if where == "directory" else tmp_path / "missing" / "dir" / "s.tsv"
    built = []

    class RecordingCalculator(NcdCalculator):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("ncdm.cli.NcdCalculator", RecordingCalculator)
    code, report, err = run(capsys, "pair", str(a), str(a), "--backend", "zlib", "--cache", str(cache))
    assert code == 2 and report is None
    assert "usage error" in err and str(cache) in err
    assert built == []  # refused before any work
    assert not (tmp_path / "missing").exists()


# -- bad flag values and malformed data files ----------------------------------


def _count_compressions(monkeypatch) -> list[int]:
    calls = []
    real = ncdm.compressor.compress_len

    def counting(backend, data):
        calls.append(len(data))
        return real(backend, data)

    monkeypatch.setattr(ncdm.compressor, "compress_len", counting)
    return calls


@pytest.mark.parametrize(
    "flags",
    [
        ["--min-size", "abc"],
        ["--min-size", "1"],
        ["--min-size", "0%"],
        ["--min-size", "150%"],
        ["--restarts", "0"],
        ["--max-iters", "0"],
        ["-k", "0", "--item", "ITEM"],
    ],
    ids=["min-size-abc", "min-size-1", "min-size-0%", "min-size-150%", "restarts-0", "max-iters-0", "k-0"],
)
def test_partition_bad_flag_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, flags):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    calls = _count_compressions(monkeypatch)
    flags = [str(item) if f == "ITEM" else f for f in flags]
    code, report, err = run(capsys, "partition", "--classes", str(root), "--backend", "zlib", *flags)
    assert code == 2 and report is None
    assert err.startswith("usage error:")
    assert calls == []


@pytest.mark.parametrize("flags", [["--upsilon", "-1"], ["--cells", "0"]], ids=["upsilon", "cells"])
def test_gen_synthetic_bad_flag_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "cells"
    argv = ["gen-synthetic", "--upsilon", "3", "--cells", "4", "--out", str(out), *flags]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--max-pairs", "-1"]], ids=["max-pairs"])
def test_compressor_check_bad_flag_is_a_usage_error_before_any_work(
    tmp_path, capsys, monkeypatch, flags
):
    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(3):
        (d / f"c{i}.txt").write_bytes(f"sample {i} ".encode() * 20)
    calls = _count_compressions(monkeypatch)
    code, report, err = run(capsys, "compressor-check", str(d), "--backend", "zlib", *flags)
    assert code == 2 and report is None
    assert err.startswith("usage error:")
    assert calls == []


@pytest.mark.parametrize(
    "case, expected",
    [
        ("symbols-1", 2),
        ("missing-config", 2),
        ("config-without-n_symbols", 1),
        ("config-not-an-object", 1),
        ("csv-with-a-word", 1),
    ],
)
def test_quantize_bad_flag_or_data_ends_without_a_traceback(tmp_path, capsys, case, expected):
    csv = tmp_path / "s.csv"
    csv.write_text("f0,f1\n0.5,1.5\n2.5,3.5\n" + ("abc,1.0\n" if case == "csv-with-a-word" else ""))
    config = tmp_path / "quant.json"
    if case == "config-without-n_symbols":
        config.write_text(json.dumps({"edges": [[1.0], [2.0]]}))
    if case == "config-not-an-object":
        config.write_text("[4, [[1.0], [2.0]]]")
    flags = {
        "symbols-1": ["--symbols", "1"],
        "missing-config": ["--config", str(tmp_path / "nope.json")],
        "config-without-n_symbols": ["--config", str(config)],
        "config-not-an-object": ["--config", str(config)],
        "csv-with-a-word": [],
    }[case]
    out = tmp_path / "symbols"
    code, report, err = run(capsys, "quantize", str(csv), "--out", str(out), *flags)
    assert code == expected and report is None
    assert err.startswith("usage error:" if expected == 2 else "error:")
    if case == "config-without-n_symbols":
        assert "n_symbols" in err
    if case == "csv-with-a-word":
        assert err.startswith(f"error: {csv}: could not convert string 'abc'")
    assert not out.exists()


@pytest.mark.parametrize(
    "case, expected",
    [
        ("scale-0", 2),
        ("truncated-pgm", 1),
        ("empty-pgm", 1),
        ("pgm-width-not-a-number", 1),
        ("pgm-without-maxval", 1),
        ("idx-bad-magic", 1),
    ],
)
def test_image2bits_bad_flag_or_data_ends_without_a_traceback(tmp_path, capsys, case, expected):
    pgm = tmp_path / "img.pgm"
    pixels = bytes(range(64)) if case != "truncated-pgm" else bytes(range(40))
    pgm.write_bytes({
        "empty-pgm": b"P5\n0 0\n255\n",
        "pgm-width-not-a-number": b"P5\nx 8\n255\n" + pixels,
        "pgm-without-maxval": b"P5\n8 8\n",
    }.get(case, b"P5\n8 8\n255\n" + pixels))
    idx = tmp_path / "digits.idx"
    idx.write_bytes(b"\x00\x00\x08\x01" + (1).to_bytes(4, "big") + b"\x00\x00\x00\x02" * 2 + b"\x00" * 4)
    flags = {
        "scale-0": [str(pgm), "--scale", "0"],
        "truncated-pgm": [str(pgm)],
        "empty-pgm": [str(pgm)],
        "pgm-width-not-a-number": [str(pgm)],
        "pgm-without-maxval": [str(pgm)],
        "idx-bad-magic": ["--idx", str(idx)],
    }[case]
    out = tmp_path / "bits"
    code, report, err = run(capsys, "image2bits", "--out", str(out), *flags)
    assert code == expected and report is None
    assert err.startswith("usage error:" if expected == 2 else "error:")
    if case == "pgm-width-not-a-number":
        assert err.startswith(f"error: {pgm}: PGM width must be a decimal number, got 'x'")
    if case == "pgm-without-maxval":
        assert err.startswith(f"error: {pgm}: PGM maxval must be a decimal number, got ''")
    assert not out.exists()
