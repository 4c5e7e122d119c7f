"""Tests of the benchmark itself, at toy scale.

Run with ``PYTHONPATH=src python -m pytest -q bench``. Each workload runs end
to end in seconds; the fault-injection tests show that the checks catch a
backend whose sizes are off by one byte and that the traced run refuses to
report when a wrapped name has gone.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import ncdm.cli
from ncdm import compressor, ncd

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# loocv-warm and klists-zlib are left out of BENCHMARK.json but still run by
# name, so their checks are tested with the rest.
NAMES = list(workloads.WORKLOADS)

# Counts that depend only on the inputs, so two traced runs must agree exactly.
DETERMINISTIC = [
    name
    for name in tracing.UNITS
    if name.split(".")[0] in ("compressor", "ncd", "parallel")
    and not name.endswith("_s")
    and name != "parallel.utilisation"
]


def run(name: str, tmp_path: Path, trace: bool = False, seed: int = 3) -> tuple[dict, dict]:
    return workloads.run_workload(
        name, seed, 0, trace, tmp_path / name, scale=workloads.TOY,
        trace_file=tmp_path / f"{name}.jsonl.gz",
    )


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(NAMES) - {"loocv-warm", "klists-zlib"}
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_checks_pass(name, tmp_path):
    result, detail = run(name, tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["machine"]["jobs"] == 2


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = run(name, tmp_path / "a", trace=True)
    second, _ = run(name, tmp_path / "b", trace=True)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(tracing.UNITS)
    for metric in DETERMINISTIC:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert (tmp_path / "a" / f"{name}.jsonl.gz").is_file()


def test_traced_run_sees_each_layer(tmp_path):
    layers = {name: run(name, tmp_path, trace=True)[0]["metrics"] for name in NAMES}
    value = {w: {k: m["value"] for k, m in metrics.items()} for w, metrics in layers.items()}
    assert value["loocv-cold"]["compressor.compress_calls"] > 0
    assert value["loocv-warm"]["compressor.compress_calls"] == 0
    assert value["loocv-warm"]["compressor.snapshot_load_s"] > 0
    assert value["loocv-warm"]["datagen.simulate_s"] > 0
    assert value["klists-zlib"]["partition.iterations"] >= 5
    assert value["klists-zlib"]["parallel.pools_started"] > 0
    assert value["matrix-cli"]["cli.report_mb"] > 0
    assert value["matrix-cli"]["ingest.bitstream_s"] > 0
    # every glyph bitstream is distinct: one compression per glyph and per pair
    glyphs = 2 * workloads.TOY.glyphs_per_kind
    assert value["matrix-cli"]["compressor.compress_calls"] == glyphs + glyphs * (glyphs - 1) // 2
    for metrics in value.values():
        assert 0 < metrics["parallel.utilisation"] <= 1
        assert 0 < metrics["ncd.unique_request_ratio"] <= 1


class OffByOne(compressor.ZlibBackend):
    """Reports every compressed size one byte too long."""

    def compress_len(self, data: bytes) -> int:
        return len(zlib.compress(data, self.level)) + 1


class Bz2OffByOne(compressor.Bz2Backend):
    def compress_len(self, data: bytes) -> int:
        return super().compress_len(data) + 1


@pytest.mark.parametrize("name", NAMES)
def test_reference_checks_catch_sizes_one_byte_off(name, tmp_path, monkeypatch):
    def faulty(spec: str) -> compressor.CompressorBackend:
        return Bz2OffByOne() if spec.startswith("bz2") else OffByOne()

    monkeypatch.setattr(compressor, "get_backend", faulty)
    monkeypatch.setattr(ncdm.cli, "get_backend", faulty)
    result, _ = run(name, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_traced_run_fails_when_a_wrapped_name_is_missing(tmp_path, monkeypatch):
    monkeypatch.delattr(ncd, "serialize_multiset")
    with pytest.raises(tracing.MissingTargetError, match="serialize_multiset"):
        run("klists-zlib", tmp_path, trace=True)


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "matrix-cli", "--seed", "1",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no ncdm sources" in proc.stderr
    assert proc.stdout == ""


def test_command_refuses_another_run_length():
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "matrix-cli",
         "--seconds", str(SPEC["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr
    assert proc.stdout == ""
