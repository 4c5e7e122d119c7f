import contextlib
import errno
import io
import json
import os
import re
import shutil
import sys
import tempfile
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncdm.datagen
from ncdm import (
    Element,
    NcdCalculator,
    PartitionConfig,
    get_backend,
    load_corpus,
    min_class_distances,
    recursive_partition,
)
from ncdm.cli import main
from ncdm.datagen import MAX_TRACK_LEN

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


def test_matrix_csv_writes_each_label_as_its_file_names_bytes(tmp_path, capsys):
    d = tmp_path / "items"
    d.mkdir()
    names = [b"\xffa.txt", b"b.txt", "c\u00e9.txt".encode()]  # not UTF-8, ASCII, UTF-8
    for name in names:
        (d / os.fsdecode(name)).write_bytes(b"alpha beta gamma " * 5 + name)
    out_csv = tmp_path / "u.csv"
    code, report, _ = run(capsys, "matrix", str(d), "--backend", "zlib", "--csv", str(out_csv))
    assert code == 0
    header = out_csv.read_bytes().split(b"\n")[0]
    assert header == b",".join(os.fsencode(label) for label in report["labels"])
    assert sorted(header.split(b",")) == sorted(names)


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
    code, _, _ = run(capsys, "loocv", "--classes", str(root), "--method", "delta")
    out1 = main(["loocv", "--classes", str(root), "--method", "delta"])
    first = capsys.readouterr().out
    out2 = main(["loocv", "--classes", str(root), "--method", "delta"])
    second = capsys.readouterr().out
    assert code == out1 == out2 == 0
    assert first == second  # byte-identical JSON


def test_loocv_min_distance_method(tmp_path, capsys):
    root = write_class_dirs(tmp_path)
    code, report, err = run(capsys, "loocv", "--classes", str(root), "--method", "min-distance")
    assert code == 0
    assert report["config"]["method"] == "min-distance"
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


# -- the report frame ---------------------------------------------------------


def _frame_argv(command, root, item):
    return {
        "pair": ["pair", str(item), str(next((root / "alpha").iterdir()))],
        "multiset": ["multiset", str(root / "alpha")],
        "matrix": ["matrix", str(root / "beta")],
        "classify": ["classify", str(item), "--classes", str(root)],
        "loocv": ["loocv", "--classes", str(root)],
        "partition": ["partition", "--classes", str(root), "--item", str(item)],
    }[command]


@pytest.mark.parametrize("command", ["pair", "multiset", "matrix", "classify", "loocv", "partition"])
def test_every_compressing_report_has_one_frame(tmp_path, capsys, command):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    code, report, _ = run(capsys, *_frame_argv(command, root, item), "--backend", "zlib")
    assert code == 0
    keys = list(report)
    assert keys[:2] == ["command", "config"]
    assert report["command"] == command
    assert list(report["config"])[:2] == ["backend", "framing"]
    if command == "loocv":
        assert "compression_jobs" not in report
    else:
        assert keys[-1] == "compression_jobs" and report["compression_jobs"] > 0


@pytest.mark.parametrize(
    "command",
    [
        "pair",
        "multiset",
        "matrix",
        "classify",
        "loocv",
        "partition",
        "compressor-check",
        "gen-synthetic",
        "quantize",
        "image2bits",
    ],
)
def test_each_setting_is_stated_once_in_config(tmp_path, capsys, command):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    (tmp_path / "s.csv").write_text("f0,f1\n0.5,1.5\n2.5,3.5\n")
    (tmp_path / "img.pgm").write_bytes(b"P5\n2 2\n255\n\x01\x80\x03\xa8")
    out, saved = str(tmp_path / "out"), str(tmp_path / "q.json")
    argv = {
        "compressor-check": ["compressor-check", str(root / "alpha"), "--backend", "zlib"],
        "gen-synthetic": ["gen-synthetic", "--upsilon", "1", "--cells", "1", "--track-len", "3", "4"],
        "quantize": ["quantize", str(tmp_path / "s.csv"), "--save-config", saved],
        "image2bits": ["image2bits", str(tmp_path / "img.pgm")],
    }.get(command) or [*_frame_argv(command, root, item), "--backend", "zlib"]
    if command in ("gen-synthetic", "quantize", "image2bits"):
        argv += ["--out", out]
    code, report, _ = run(capsys, *argv)
    assert code == 0
    assert list(report)[:2] == ["command", "config"]
    assert set(report) & set(report["config"]) == set()
    if command == "gen-synthetic":
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert report["config"] == {"out": out, **manifest.pop("params")}
        assert {key: report[key] for key in manifest} == manifest
    expected = {
        "partition": {
            "backend": "zlib-6",
            "framing": "text",
            "restarts": 5,
            "max_iters": 100,
            "min_size": 2,
            "seed": 0,
        },
        "matrix": {"backend": "zlib-6", "framing": "text", "csv": None},
        "quantize": {"n_symbols": 4, "out": out, "save_config": saved},
        "image2bits": {"scale": 4, "out": out},
    }
    if command in expected:
        assert report["config"] == expected[command]
    if command == "partition":
        assert "partition_config" not in json.dumps(report)


@pytest.mark.parametrize("jobs", [1, 2])
def test_partition_compression_jobs_counts_the_whole_run(tmp_path, capsys, jobs):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    argv = [*_frame_argv("partition", root, item), "--backend", "zlib", "--jobs", str(jobs)]
    cache = ["--cache", str(tmp_path / "sizes.tsv")]
    code, cold, _ = run(capsys, *argv, *cache)
    assert code == 0
    calc = NcdCalculator(get_backend("zlib"), jobs=jobs)
    tree = recursive_partition(calc, load_corpus(root), PartitionConfig(min_size=2))
    min_class_distances(calc, Element(item.read_bytes(), id=str(item)), tree, k=2)
    assert cold["compression_jobs"] == calc.cache.job_count > 0  # --item scoring included
    code, warm, _ = run(capsys, *argv, *cache)
    assert code == 0 and warm["compression_jobs"] == 0
    assert {**warm, "compression_jobs": cold["compression_jobs"]} == cold


@pytest.mark.parametrize("jobs", [1, 2])
def test_loocv_report_does_not_depend_on_the_cache(tmp_path, capsys, jobs):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    argv = ["loocv", "--classes", str(root), "--backend", "zlib", "--jobs", str(jobs)]
    cache = ["--cache", str(tmp_path / "sizes.tsv")]
    outputs = []
    for _ in range(2):  # cold, then a warm replay
        assert main([*argv, *cache]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    assert report["command"] == "compressor-check"
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
    (csv_dir / "sub.csv").mkdir()  # not a series: a directory input is its regular files
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


def test_pair_without_backend_uses_bz2(tmp_path, capsys, monkeypatch):
    f = tmp_path / "a.txt"
    f.write_bytes(b"payload " * 50)
    monkeypatch.setenv("NCDM_BACKEND", "zlib:9")  # no variable picks the backend
    code, report, _ = run(capsys, "pair", str(f), str(f))
    assert code == 0
    assert report["config"]["backend"] == "bz2-9"


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
    assert err.startswith("usage error:") and "Traceback" not in err
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


@pytest.mark.parametrize("where", ["directory", "missing-parent", "name-too-long"])
def test_bad_cache_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, where):
    a = tmp_path / "a.txt"
    a.write_bytes(b"payload " * 50)
    cache = {
        "directory": tmp_path,
        "missing-parent": tmp_path / "missing" / "dir" / "s.tsv",
        "name-too-long": tmp_path / ("s" * 256),
    }[where]
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


def test_a_cache_name_of_legal_length_is_saved_and_loaded(tmp_path, capsys):
    (tmp_path / "a.txt").write_bytes(b"some shared words here " * 30)
    (tmp_path / "b.txt").write_bytes(b"other words, not shared " * 30)
    cache = tmp_path / ("s" * 250)  # a legal name with no room left to lengthen it
    argv = ["pair", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--backend", "zlib"]
    code, cold, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0 and cold["compression_jobs"] == 3, err
    code, warm, _ = run(capsys, *argv, "--cache", str(cache))
    assert code == 0 and warm["compression_jobs"] == 0 and warm["value"] == cold["value"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", cache.name]


# -- bad flag values and malformed data files ----------------------------------


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
        ["--stop-margin", "nan"],
        ["--stop-margin", "inf"],
        ["--item", "MISSING"],
        ["--seed", "-1"],
    ],
    ids=[
        "min-size-abc",
        "min-size-1",
        "min-size-0%",
        "min-size-150%",
        "restarts-0",
        "max-iters-0",
        "k-0",
        "stop-margin-nan",
        "stop-margin-inf",
        "item-missing",
        "seed-negative",
    ],
)
def test_partition_bad_flag_is_a_usage_error_before_any_work(tmp_path, capsys, compressions, flags):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    flags = [{"ITEM": str(item), "MISSING": str(tmp_path / "missing.txt")}.get(f, f) for f in flags]
    code, report, err = run(capsys, "partition", "--classes", str(root), "--backend", "zlib", *flags)
    assert code == 2 and report is None
    assert err.startswith("usage error:")
    assert compressions == []
    assert flags[0] in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--upsilon", "-1"],
        ["--cells", "0"],
        ["--upsilon", "nan"],
        ["--upsilon", "inf"],
        ["--population-limit", "0"],
        ["--seed", "-1"],
        ["--track-len", "9", "5"],
        ["--track-len", "2", "2000000"],
    ],
    ids=[
        "upsilon",
        "cells",
        "upsilon-nan",
        "upsilon-inf",
        "population-limit-0",
        "seed-negative",
        "track-len-descending",
        "track-len-above-max",
    ],
)
def test_gen_synthetic_bad_flag_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "cells"
    argv = ["gen-synthetic", "--upsilon", "3", "--cells", "4", "--out", str(out), *flags]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.startswith(f"usage error: {flags[0]} ")
    assert not out.exists()
    assert flags[0] in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["classify", "ITEM"], "delta-ncd1 needs >= 2 members per class; class 'a' has 1"),
        (["partition"], "a margin needs >= 2 members per class; class 'a' has 1"),
        (
            ["partition", "--stop-margin", "0", "--item", "ITEM"],
            "delta-ncd1 needs >= 2 members per class; class 'a leaf 0' has 1",
        ),
        (["classify", "ITEM", "--method", "min"], None),
    ],
    ids=["classify-delta", "partition", "partition-item", "classify-min"],
)
def test_a_class_too_small_for_the_rule_is_named(tmp_path, capsys, argv, refusal):
    root = tmp_path / "classes"
    (root / "a").mkdir(parents=True)
    (root / "b").mkdir()
    (root / "a" / "a0.txt").write_bytes(b"the one member of class a")
    for i in range(3):
        (root / "b" / f"b{i}.txt").write_bytes(f"member {i} of class b".encode())
    item = tmp_path / "q.txt"
    item.write_bytes(b"an item to score")
    argv = [str(item) if a == "ITEM" else a for a in argv]
    code, report, err = run(capsys, *argv, "--classes", str(root), "--backend", "zlib")
    if refusal is None:  # min-distance scores a one-member class
        assert code == 0 and report["items"][0]["predicted"] in ("a", "b")
    else:
        assert code == 1 and report is None and err == f"error: {refusal}\n"


@contextlib.contextmanager
def _affordable_simulation(max_tracks: int, max_len: int = 60):
    """Fail, rather than exhaust memory, if a run simulates more or longer tracks than this."""
    real = ncdm.datagen._make_features
    made = []

    def guarded(rng, t0, lifespan, r0, params):
        made.append(params.track_len_range)
        assert len(made) <= max_tracks and params.track_len_range[1] <= max_len, made
        return real(rng, t0, lifespan, r0, params)

    with unittest.mock.patch.object(ncdm.datagen, "_make_features", guarded):
        yield


def test_gen_synthetic_refuses_a_track_too_long_to_allocate(tmp_path, capsys):
    out = tmp_path / "cells"
    huge = str(10**12)
    argv = ["gen-synthetic", "--upsilon", "1", "--cells", "1", "--track-len", huge, huge]
    with _affordable_simulation(max_tracks=0):  # refused before any track is made
        code, report, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and report is None
    assert err.startswith("usage error: --track-len") and str(MAX_TRACK_LEN) in err
    assert "Traceback" not in err and not out.exists()


# Valid gen-synthetic values stay small: <= 3 cells of <= 60 samples. A huge
# --population-limit or --seed is valid and cheap, a huge --cells is valid
# and not cheap, so only a huge --track-len value is drawn as a bad one.
_SMALL_RUN = st.fixed_dictionaries(
    {
        "--upsilon": st.floats(1e-3, 1e3).map(repr),
        "--cells": st.integers(1, 3).map(str),
        "LO": st.integers(2, 60).map(str),
        "HI": st.integers(2, 60).map(str),
        "--population-limit": st.none() | st.integers(1, 10**12).map(str),
        "--seed": st.integers(0, 2**128).map(str),
    }
)
_BAD_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e400", "", "x", "2.5"]),
    st.integers(max_value=-1).map(str),
)
_BAD_VALUES = st.dictionaries(
    st.sampled_from(["--upsilon", "--cells", "--population-limit", "--seed"]), _BAD_NUMBER
) | st.dictionaries(
    st.sampled_from(["LO", "HI"]), _BAD_NUMBER | st.integers(MAX_TRACK_LEN + 1).map(str)
)


@settings(max_examples=120, deadline=None)
@given(values=_SMALL_RUN, bad=_BAD_VALUES)
def test_gen_synthetic_exits_0_or_2_for_any_flag_values(values, bad):
    values = {**values, **bad}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cells"
        argv = ["gen-synthetic", "--track-len", values.pop("LO"), values.pop("HI")]
        argv += [f"{flag}={value}" for flag, value in values.items() if value is not None]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with _affordable_simulation(max_tracks=20):
                code = main([*argv, "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2)
        if code == 0:
            assert json.loads(stdout.getvalue())["n_cells"] == int(values["--cells"])
            assert (out / "manifest.json").is_file()
        else:
            assert err.startswith("usage error:") and err.count("\n") == 1
            assert stdout.getvalue() == "" and not out.exists()


# -- mutated input files --------------------------------------------------------


def _valid_input(kind: str, tmp: Path) -> tuple[bytes, list, list[bytes], list[str]]:
    """A valid input of ``kind``, the spans of its fields (headers, numbers, lists,
    strings), values to set them to (0, huge, negative, not a number), and the
    command that reads it from ``tmp/IN``."""
    src, out = str(tmp / "IN"), str(tmp / "out")
    if kind == "pgm":
        data = b"P5\n4 3\n255\n" + bytes(range(0, 240, 20))
        spans = [m.span() for m in re.finditer(rb"\d+", data[:11])]
        return data, spans, [b"0", b"9" * 30, b"-1", b"x"], ["image2bits", src, "--out", out]
    if kind == "idx":
        data = b"".join(n.to_bytes(4, "big") for n in (0x0803, 2, 2, 3)) + bytes(range(12))
        spans = [(i, i + 4) for i in range(0, 16, 4)]
        values = [bytes(4), b"\xff" * 4, b"\x80\x00\x00\x00", b"x!z?"]
        return data, spans, values, ["image2bits", "--idx", src, "--out", out]
    numbers = [b"0", b"9" * 400, b"-1", b"x"]
    if kind == "csv":
        data = b"f0,f1\n0.5,1.5\n2.5,-3.5\n4,5e2\n"
        spans = [m.span() for m in re.finditer(rb"[^,\n]+", data)]
        return data, spans, numbers, ["quantize", src, "--symbols", "3", "--out", out]
    if kind == "quantizer":
        (tmp / "s.csv").write_bytes(b"f0,f1\n0.5,1.5\n2.5,-3.5\n")
        data = json.dumps({"n_symbols": 2, "feature_names": ["f0", "f1"], "edges": [[1.0], [-2.0]]})
        data = data.encode()
        # each number, inside an edges row or not, then each row whole
        patterns = rb"-?[\d.]+", rb"\[[^][]*\]"
        spans = [m.span() for pattern in patterns for m in re.finditer(pattern, data)]
        return data, spans, numbers, ["quantize", str(tmp / "s.csv"), "--config", src, "--out", out]
    if kind == "manifest":
        for label, words in (("alpha", "aa ab"), ("beta", "zz zy")):
            (tmp / label).mkdir()
            for i in range(2):
                (tmp / label / f"{i}.txt").write_text(f"{words} {i} {words}")
        (tmp / "q.txt").write_text("aa ab aa")
        data = json.dumps([{"path": "q.txt", "label": "alpha"}, {"path": "alpha/0.txt"}]).encode()
        spans = [m.span(1) for m in re.finditer(rb': ("[^"]*")', data)]
        argv = ["classify", "--classes", str(tmp), "--test", src, "--backend", "zlib"]
        return data, spans, numbers, [*argv, "--jobs", "1"]
    argv = ["matrix", "--backend", "zlib", "--jobs", "1", "--cache", src]
    for name in ("a", "b", "c"):
        (tmp / f"{name}.txt").write_bytes(f"{name} alpha beta {name} gamma {name}".encode() * 4)
        argv.append(str(tmp / f"{name}.txt"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    data = (tmp / "IN").read_bytes()
    spans = [m.span() for m in re.finditer(rb"v2|(?<=\t)\d+", data)]
    return data, spans, numbers, argv


# (how, where, what): a byte flip (xor), a truncation, or a field set to a value.
_MUTATION = st.tuples(
    st.sampled_from(["flip", "truncate", "field"]), st.integers(0, 2**16), st.integers(1, 255)
)


@settings(max_examples=150, deadline=None)
@example(kind="quantizer", mutations=[("field", 3, 1)])  # feature 0's edge set to 9 * 400 digits
@given(
    kind=st.sampled_from(["pgm", "idx", "cache", "csv", "quantizer", "manifest"]),
    mutations=st.lists(_MUTATION, min_size=1, max_size=3),
)
def test_a_mutated_input_file_exits_0_1_or_2_with_one_line(kind, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, spans, values, argv = _valid_input(kind, tmp)
        for how, at, byte in mutations:
            if how == "flip" and data:
                i = at % len(data)
                data = data[:i] + bytes([data[i] ^ byte]) + data[i + 1 :]
            elif how == "truncate":
                data = data[: at % (len(data) + 1)]
            elif how == "field" and (fields := [s for s in spans if s[1] <= len(data)]):
                start, end = fields[at % len(fields)]
                data = data[:start] + values[byte % len(values)] + data[end:]
                spans = []  # the other spans moved
        (tmp / "IN").write_bytes(data)
        before = _tree(tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), err
        if code != 0:
            assert err.count("\n") == 1 and err.startswith(("error:", "usage error:")), err
            assert stdout.getvalue() == ""
            assert _tree(tmp) == before  # no output file, and the snapshot is untouched


@pytest.mark.parametrize(
    "flags", [["--max-pairs", "-1"], ["--tolerance", "-1"]], ids=["max-pairs", "tolerance"]
)
def test_compressor_check_bad_flag_is_a_usage_error_before_any_work(
    tmp_path, capsys, compressions, flags
):
    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(3):
        (d / f"c{i}.txt").write_bytes(f"sample {i} ".encode() * 20)
    code, report, err = run(capsys, "compressor-check", str(d), "--backend", "zlib", *flags)
    assert code == 2 and report is None
    assert err.startswith("usage error:")
    assert compressions == []
    assert flags[0] in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case, expected",
    [
        ("symbols-1", 2),
        ("missing-config", 2),
        ("config-without-n_symbols", 1),
        ("config-not-an-object", 1),
        ("config-not-json", 1),
        ("csv-with-a-word", 1),
        ("csv-with-nan", 1),
        ("csv-under-a-3-feature-config", 1),
        ("csv-not-utf-8", 1),
        ("csv-header-only", 1),
        ("config-n_symbols-0", 1),
        ("config-nan-edge", 1),
        ("config-descending-edges", 1),
        ("config-wrong-edge-count", 1),
        ("config-no-features", 1),
        ("csv-overflowing-column", 1),
        ("csv-3-names-for-2-columns", 1),
        ("config-1-name-for-2-features", 1),
        ("config-names-a-string", 1),
        ("config-edges-row-a-string", 1),
        ("config-n_symbols-a-fraction", 1),
        ("config-n_symbols-a-string", 1),
        ("config-edge-a-string", 1),
        ("config-edge-too-large-for-a-float", 1),
    ],
)
def test_quantize_bad_flag_or_data_ends_without_a_traceback(tmp_path, capsys, case, expected):
    csv = tmp_path / "s.csv"
    extra = {"csv-with-a-word": "abc,1.0\n", "csv-with-nan": "nan,1.0\n"}.get(case, "")
    csv.write_text("f0,f1\n0.5,1.5\n2.5,3.5\n" + extra)
    if case == "csv-not-utf-8":
        csv.write_bytes(b"f0,f1\n\xff,1.5\n")
    if case == "csv-header-only":
        csv.write_text("f0,f1\n")
    if case == "csv-overflowing-column":  # its quantile edges overflow to [inf, -inf, -inf]
        csv.write_text("f0,f1\n-1e308,1.5\n1e308,3.5\n")
    if case == "csv-3-names-for-2-columns":
        csv.write_text("a,b,c\n0.5,1.5\n2.5,3.5\n")
    config = tmp_path / "quant.json"
    if case == "config-without-n_symbols":
        config.write_text(json.dumps({"edges": [[1.0], [2.0]]}))
    if case == "config-not-an-object":
        config.write_text("[4, [[1.0], [2.0]]]")
    if case == "config-not-json":
        config.write_text('{"n_symbols": 4,')
    if case == "csv-under-a-3-feature-config":
        config.write_text(json.dumps({"n_symbols": 2, "edges": [[1.0], [2.0], [3.0]]}))
    bad_quantizers = {
        "config-n_symbols-0": '{"n_symbols": 0, "edges": [[1.0], [1.0]]}',
        "config-nan-edge": '{"n_symbols": 2, "edges": [[NaN], [1.0]]}',
        "config-descending-edges": '{"n_symbols": 3, "edges": [[3.0, 1.0], [1.0, 2.0]]}',
        "config-wrong-edge-count": '{"n_symbols": 4, "edges": [[1.0], [2.0]]}',
        "config-no-features": '{"n_symbols": 2, "edges": []}',
        "config-1-name-for-2-features": '{"n_symbols": 2, "feature_names": ["only"], "edges": [[1], [2]]}',
        "config-names-a-string": '{"n_symbols": 2, "feature_names": "xy", "edges": [[1.0], [2.0]]}',
        # refused, not coerced into a config that loads
        "config-edges-row-a-string": '{"n_symbols": 3, "edges": ["12", "34"]}',
        "config-n_symbols-a-fraction": '{"n_symbols": 2.9, "edges": [[1.0], [2.0]]}',
        "config-n_symbols-a-string": '{"n_symbols": "2", "edges": [[1.0], [2.0]]}',
        "config-edge-a-string": '{"n_symbols": 2, "edges": [["0.5"], [2.0]]}',
        "config-edge-too-large-for-a-float": '{"n_symbols": 2, "edges": [[1%s], [2.0]]}' % ("0" * 400),
    }
    if case in bad_quantizers:
        config.write_text(bad_quantizers[case])
    flags = {
        "symbols-1": ["--symbols", "1"],
        "missing-config": ["--config", str(tmp_path / "nope.json")],
        "config-without-n_symbols": ["--config", str(config)],
        "config-not-an-object": ["--config", str(config)],
        "config-not-json": ["--config", str(config)],
        "csv-with-a-word": [],
        "csv-with-nan": [],
        "csv-under-a-3-feature-config": ["--config", str(config)],
        "csv-not-utf-8": [],
        "csv-header-only": [],
        **{bad: ["--config", str(config)] for bad in bad_quantizers},
        "csv-overflowing-column": [],
        "csv-3-names-for-2-columns": ["--save-config", str(config)],
    }[case]
    out = tmp_path / "symbols"
    code, report, err = run(capsys, "quantize", str(csv), "--out", str(out), *flags)
    assert code == expected and report is None
    assert err.startswith("usage error:" if expected == 2 else "error:")
    if expected == 1:
        assert err.startswith(f"error: {config if case.startswith('config') else csv}: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
    if case == "config-without-n_symbols":
        assert "n_symbols" in err
    if case == "csv-with-a-word":
        assert err.startswith(f"error: {csv}: could not convert string 'abc'")
    if case == "config-edge-too-large-for-a-float":
        assert err == f"error: {config}: feature 0's edges hold a number too large for a float\n"
    if case == "csv-3-names-for-2-columns":
        assert err == f"error: {csv}: time series has 3 feature names for 2 features\n"
        assert not config.exists()  # no --save-config written
    assert not out.exists()
    if case.startswith("csv-"):
        assert err.startswith(f"error: {csv}: ") and len(err.splitlines()) == 1  # no warning


@pytest.mark.parametrize(
    "case, expected",
    [
        ("scale-0", 2),
        ("truncated-pgm", 1),
        ("empty-pgm", 1),
        ("pgm-width-not-a-number", 1),
        ("pgm-without-maxval", 1),
        ("idx-bad-magic", 1),
        ("pgm-maxval-0", 1),
        ("pgm-pixel-above-maxval", 1),
        ("limit--1", 2),
        ("limit-0", 2),
        ("two-pgms-one-output", 2),
        ("idx-zero-rows", 1),
        ("scale-too-large", 1),
    ],
)
def test_image2bits_bad_flag_or_data_ends_without_a_traceback(tmp_path, capsys, case, expected):
    pgm = tmp_path / "img.pgm"
    pixels = bytes(range(64)) if case != "truncated-pgm" else bytes(range(40))
    pgm.write_bytes({
        "empty-pgm": b"P5\n0 0\n255\n",
        "pgm-width-not-a-number": b"P5\nx 8\n255\n" + pixels,
        "pgm-without-maxval": b"P5\n8 8\n",
        "pgm-maxval-0": b"P5 2 1 0\n\x05\x07",
        "pgm-pixel-above-maxval": b"P5\n8 8\n62\n" + pixels,
        "scale-too-large": b"P5\n1 1\n255\n\x80",
    }.get(case, b"P5\n8 8\n255\n" + pixels))
    idx = tmp_path / "digits.idx"
    idx.write_bytes(b"\x00\x00\x08\x01" + (1).to_bytes(4, "big") + b"\x00\x00\x00\x02" * 2 + b"\x00" * 4)
    if case == "idx-zero-rows":  # one record of 0 x 2 pixels
        idx.write_bytes(b"\x00\x00\x08\x03" + b"".join(n.to_bytes(4, "big") for n in (1, 0, 2)))
    good_idx = tmp_path / "three.idx"
    good_idx.write_bytes(b"\x00\x00\x08\x03" + (3).to_bytes(4, "big") + b"\x00\x00\x00\x02" * 2 + bytes(12))
    other = tmp_path / "d2" / "img.pgm"
    other.parent.mkdir()
    other.write_bytes(pgm.read_bytes())
    flags = {
        "scale-0": [str(pgm), "--scale", "0"],
        "truncated-pgm": [str(pgm)],
        "empty-pgm": [str(pgm)],
        "pgm-width-not-a-number": [str(pgm)],
        "pgm-without-maxval": [str(pgm)],
        "idx-bad-magic": ["--idx", str(idx)],
        "pgm-maxval-0": [str(pgm)],
        "pgm-pixel-above-maxval": [str(pgm)],
        "limit--1": ["--idx", str(good_idx), "--limit", "-1"],
        "limit-0": ["--idx", str(good_idx), "--limit", "0"],
        "two-pgms-one-output": [str(pgm), str(other)],
        "idx-zero-rows": ["--idx", str(idx)],
        "scale-too-large": [str(pgm), "--scale", "1000000"],
    }[case]
    out = tmp_path / "bits"
    code, report, err = run(capsys, "image2bits", "--out", str(out), *flags)
    assert code == expected and report is None
    assert err.startswith("usage error:" if expected == 2 else "error:")
    if expected == 1:
        assert err.startswith(f"error: {idx if case.startswith('idx') else pgm}: ")
        assert "Traceback" not in err
    if case == "pgm-width-not-a-number":
        assert err.startswith(f"error: {pgm}: PGM width must be a decimal number, got 'x'")
    if case == "pgm-without-maxval":
        assert err.startswith(f"error: {pgm}: PGM maxval must be a decimal number, got ''")
    if case == "idx-zero-rows":
        assert err.startswith(f"error: {idx}: image must be a 2-D pixel grid, got shape (0, 2)")
    if case.startswith("limit-"):
        assert err.startswith("usage error: --limit must be >= 1")
    if case == "scale-too-large":
        assert err.startswith(f"error: {pgm}: scale 1000000 makes a 1000000000000-byte")
    assert not out.exists()
    if case == "two-pgms-one-output":
        assert f"{pgm} and {other} would both write {out / 'img.bits'}" in err


def test_closed_stdout_exits_one_without_a_traceback(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(b"alpha beta gamma " * 40)
    b.write_bytes(b"delta epsilon zeta " * 40)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone, as after `| head -c 1`
    stdout = open(write_end, "w")  # its writes raise BrokenPipeError
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["pair", str(a), str(b), "--backend", "zlib"])
    finally:
        stdout.close()
    assert code == 1
    assert capsys.readouterr().err == "error: stdout was closed before the report was written\n"


def test_quantize_two_inputs_that_write_one_file_are_refused(tmp_path, capsys):
    for d in ("d1", "d2"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "s.csv").write_text("f0,f1\n0.5,1.5\n2.5,3.5\n")
    first, second, out = tmp_path / "d1" / "s.csv", tmp_path / "d2" / "s.csv", tmp_path / "q"
    code, report, err = run(capsys, "quantize", str(first), str(second), "--out", str(out))
    assert code == 2 and report is None
    assert err.startswith(f"usage error: {first} and {second} would both write {out / 's.sym'}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pair", "multiset", "matrix", "classify", "loocv", "partition"])
def test_jobs_below_one_is_a_usage_error_before_any_work(tmp_path, capsys, compressions, command):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    cache = tmp_path / "sizes.tsv"
    before = _tree(tmp_path)
    argv = [*_frame_argv(command, root, item), "--backend", "zlib", "--cache", str(cache)]
    code, report, err = run(capsys, *argv, "--jobs", "0")
    assert code == 2 and report is None
    assert err.startswith("usage error: --jobs must be >= 1, got 0") and "Traceback" not in err
    assert compressions == []
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["loocv", "--classes", "ROOT", "--seed", "3"], "--seed"),
        (["loocv", "--backend", "zlib"], "--classes"),
        (["pair", "ITEM", "ITEM", "--framing", "bits"], "--framing"),
        (["multiset", "ITEM", "ITEM", "--exact", "--ncd1"], "--ncd1"),
        (["multiset", "ITEM", "ITEM", "--exact", "--max-card", "1"], "--max-card"),
        (["multiset", "ITEM", "ITEM", "--exact", "--max-card", "17"], "--max-card"),
        (["classify", "ITEM", "--classes", "ROOT", "--test", "MISSING"], "--test"),
        (["classify", "ITEM", "--classes", "ROOT", "--method", "nearest"], "--method"),
        (["pair", "ITEM", "ITEM", "--backend", "zlib:12"], "--backend"),
        (["pair", "ITEM", "ITEM", "--backend", "gzip"], "--backend"),
        (["pair", "ITEM", "ITEM", "--unknown"], "--unknown"),
    ],
    ids=[
        "loocv-seed",
        "no-classes",
        "framing-choice",
        "exclusive-styles",
        "max-card-1",
        "max-card-17",
        "test-missing",
        "method-unknown",
        "backend-level",
        "backend-gzip",
        "unknown-flag",
    ],
)
def test_every_parse_error_is_a_usage_error(tmp_path, capsys, compressions, argv, flag):
    root = write_class_dirs(tmp_path, per_class=4, n_words=40)
    item = tmp_path / "item.txt"
    item.write_bytes(b"an item to score " * 10)
    places = {"ROOT": str(root), "ITEM": str(item), "MISSING": str(tmp_path / "missing")}
    code, report, err = run(capsys, *[places.get(a, a) for a in argv])  # returns, no SystemExit
    assert code == 2 and report is None
    assert err.startswith("usage error: ") and flag in err and "Traceback" not in err
    if flag == "--max-card":
        assert err.startswith("usage error: --max-card ")
    assert compressions == []


# -- output paths ----------------------------------------------------------------


def _tree(root):
    return {str(p): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize(
    "command, flag, target",
    [
        ("matrix", "--csv", "missing-dir"),
        ("matrix", "--csv", "is-a-dir"),
        ("matrix", "--csv", "name-too-long"),
        ("quantize", "--save-config", "missing-dir"),
        ("quantize", "--save-config", "is-a-dir"),
        ("quantize", "--save-config", "name-too-long"),
        ("quantize", "--out", "is-a-file"),
        ("quantize", "--out", "name-too-long"),
        ("image2bits", "--out", "is-a-file"),
        ("image2bits", "--out", "under-a-file"),
        ("image2bits", "--out", "name-too-long"),
        ("gen-synthetic", "--out", "is-a-file"),
        ("gen-synthetic", "--out", "name-too-long"),
    ],
)
def test_bad_output_path_is_refused_before_any_work(tmp_path, capsys, compressions, command, flag, target):
    (tmp_path / "a.txt").write_bytes(b"some shared words here " * 30)
    (tmp_path / "b.txt").write_bytes(b"other words, not shared " * 30)
    (tmp_path / "s.csv").write_text("f0,f1\n0.5,1.5\n2.5,3.5\n")
    (tmp_path / "img.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(range(64)))
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_bytes(b"keep me")
    path = {
        "missing-dir": tmp_path / "nodir" / "x",
        "is-a-dir": tmp_path / "adir",
        "is-a-file": tmp_path / "afile",
        "under-a-file": tmp_path / "afile" / "sub",
        "name-too-long": tmp_path / ("x" * 256),
    }[target]
    argv = {
        "matrix": ["matrix", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--backend", "zlib"],
        "quantize": ["quantize", str(tmp_path / "s.csv"), "--out", str(tmp_path / "q")],
        "image2bits": ["image2bits", str(tmp_path / "img.pgm")],
        "gen-synthetic": ["gen-synthetic", "--upsilon", "3", "--cells", "2"],
    }[command]
    before = _tree(tmp_path)
    code, report, err = run(capsys, *argv, flag, str(path))
    assert code == 2 and report is None
    assert err.startswith(f"usage error: {flag} {path} ") and "Traceback" not in err
    assert compressions == []
    assert _tree(tmp_path) == before  # nothing written, nothing left behind


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
def test_failed_write_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "a.txt").write_bytes(b"some shared words here " * 30)
    (tmp_path / "b.txt").write_bytes(b"other words, not shared " * 30)
    argv = ["matrix", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--backend", "zlib"]
    code, report, err = run(capsys, *argv, "--csv", "/dev/full")
    assert code == 2 and report is None
    assert err.startswith("usage error: cannot write --csv /dev/full: ") and "Traceback" not in err


# -- input files -----------------------------------------------------------------

UNREADABLE = Path("/proc/self/mem")  # a regular file whose read fails with EIO, for root too


@pytest.mark.skipif(not UNREADABLE.exists(), reason="needs /proc")
@pytest.mark.parametrize(
    "argv, blamed",
    [
        (["pair", "{bad}", "{item}"], "{bad}"),
        (["multiset", "{item}", "{bad}"], "{bad}"),
        (["matrix", "{item}", "{bad}"], "{bad}"),
        (["classify", "{bad}", "--classes", "{root}"], "{bad}"),
        (["classify", "--classes", "{root}", "--test", "{loose}"], "{loose}/bad.txt"),
        (["classify", "--classes", "{root}", "--test", "{manifest}"], "{bad}"),
        (["loocv", "--classes", "{badroot}"], "{badroot}/alpha/bad.txt"),
        (["partition", "--classes", "{badroot}"], "{badroot}/alpha/bad.txt"),
        (["partition", "--classes", "{root}", "--item", "{bad}"], "{bad}"),
        (["quantize", "{bad}", "--out", "{out}"], "{bad}"),
        (["quantize", "{csv}", "--config", "{bad}", "--out", "{out}"], "{bad}"),
        (["image2bits", "{bad}", "--out", "{out}"], "{bad}"),
        (["image2bits", "--idx", "{bad}", "--out", "{out}"], "{bad}"),
    ],
    ids=[
        "pair",
        "multiset",
        "matrix",
        "classify-item",
        "classify-test-dir",
        "classify-manifest-entry",
        "loocv-class-file",
        "partition-class-file",
        "partition-item",
        "quantize-csv",
        "quantize-config",
        "image2bits-pgm",
        "image2bits-idx",
    ],
)
def test_unreadable_input_file_is_an_error_naming_it(tmp_path, capsys, compressions, argv, blamed):
    root = write_class_dirs(tmp_path, per_class=3, n_words=30)
    bad_root = tmp_path / "badclasses"
    shutil.copytree(root, bad_root)
    (bad_root / "alpha" / "bad.txt").symlink_to(UNREADABLE)
    (tmp_path / "bad.txt").symlink_to(UNREADABLE)
    (tmp_path / "loose").mkdir()
    (tmp_path / "loose" / "bad.txt").symlink_to(UNREADABLE)
    (tmp_path / "manifest.json").write_text(json.dumps([{"path": "bad.txt", "label": "alpha"}]))
    (tmp_path / "item.txt").write_bytes(b"an item to score " * 10)
    (tmp_path / "s.csv").write_text("f0,f1\n0.5,1.5\n2.5,3.5\n")
    places = {
        "bad": tmp_path / "bad.txt",
        "item": tmp_path / "item.txt",
        "root": root,
        "badroot": bad_root,
        "loose": tmp_path / "loose",
        "manifest": tmp_path / "manifest.json",
        "csv": tmp_path / "s.csv",
        "out": tmp_path / "out",
    }
    code, report, err = run(capsys, *[a.format(**places) for a in argv])
    assert code == 1 and report is None
    assert err.startswith(f"error: {blamed.format(**places)}: ") and "Traceback" not in err
    assert compressions == []  # every input is read before any work
    assert not (tmp_path / "out").exists()


UNLISTABLE = Path("/proc/1/map_files")  # a directory that only CAP_SYS_ADMIN may list


def _can_list(path: Path) -> bool:
    try:
        os.listdir(path)
    except OSError:
        return False
    return True


@pytest.mark.skipif(
    not UNLISTABLE.is_dir() or _can_list(UNLISTABLE), reason="needs a directory that cannot be listed"
)
@pytest.mark.parametrize(
    "argv, blamed",
    [
        (["matrix", "{bad}"], "{bad}"),
        (["multiset", "{bad}"], "{bad}"),
        (["compressor-check", "{bad}"], "{bad}"),
        (["loocv", "--classes", "{bad}"], "{bad}"),
        (["loocv", "--classes", "{badroot}"], "{badroot}/alpha"),
        (["partition", "--classes", "{bad}"], "{bad}"),
        (["classify", "--classes", "{root}", "--test", "{bad}"], "{bad}"),
        (["quantize", "{bad}", "--out", "{out}"], "{bad}"),
    ],
    ids=[
        "matrix",
        "multiset",
        "compressor-check",
        "loocv-root",
        "loocv-class-dir",
        "partition-root",
        "classify-test-dir",
        "quantize",
    ],
)
def test_unlistable_input_directory_is_an_error_naming_it(
    tmp_path, capsys, compressions, argv, blamed
):
    root = write_class_dirs(tmp_path, per_class=3, n_words=30)
    bad_root = tmp_path / "badclasses"
    shutil.copytree(root, bad_root)
    shutil.rmtree(bad_root / "alpha")
    (bad_root / "alpha").symlink_to(UNLISTABLE)  # a class directory, through a symlink
    (tmp_path / "bad").symlink_to(UNLISTABLE)
    places = {"bad": tmp_path / "bad", "root": root, "badroot": bad_root, "out": tmp_path / "out"}
    code, report, err = run(capsys, *[a.format(**places) for a in argv])
    assert code == 1 and report is None
    assert err == f"error: {blamed.format(**places)}: {os.strerror(errno.EACCES)}\n"
    assert compressions == []
    assert not (tmp_path / "out").exists()


def test_a_test_manifest_label_that_is_not_a_string_is_refused(tmp_path, capsys):
    root = write_class_dirs(tmp_path, per_class=3, n_words=30)
    (tmp_path / "q.txt").write_bytes(b"an item to score " * 10)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": "q.txt", "label": 5}]))  # never equal to a class name
    argv = ["classify", "--classes", str(root), "--test", str(manifest), "--backend", "zlib"]
    code, report, err = run(capsys, *argv)
    assert code == 1 and report is None
    assert err.startswith(f"error: {manifest}: test manifest entry") and len(err.splitlines()) == 1
