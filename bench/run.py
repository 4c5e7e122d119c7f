"""Benchmark for ncdm: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                       # every workload, end-to-end table
    python3 bench/run.py --trace 1             # every workload, per-layer table
    python3 bench/run.py --workload loocv-warm --seed 3 --trace 0

With ``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the machine, the seed and every sample. The exit status is
1 when an operation failed or a check did not pass. Every run lasts
``run_seconds`` of BENCHMARK.json; ``--seconds`` may only repeat that value,
so two runs never measure different lengths. The program is imported from
``src/`` of the checkout that holds this file; without it the command exits
with status 2.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# loocv-warm and klists-zlib run by name only; BENCHMARK.json leaves them out
# because their wall time is not steady on a shared VM (see README.md).
WORKLOAD_NAMES = ("loocv-cold", "loocv-warm", "klists-zlib", "matrix-cli")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: those in BENCHMARK.json, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="how long the operations run; must equal run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds of BENCHMARK.json ({SPEC['run_seconds']})")
    return args


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import ncdm

    if Path(ncdm.__file__).resolve().parent != (SRC / "ncdm").resolve():
        print(f"error: imported ncdm from {ncdm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT_DIR / f"work-{tag}"
    try:
        result, detail = workloads.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            started=STARTED,
            trace_file=OUT_DIR / f"trace-{tag}.jsonl.gz",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload of BENCHMARK.json in its own process, so one's peak
    memory cannot carry into another's."""
    results = {}
    status = 0
    for name in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            status = 1
        if len(lines) < 2:
            continue
        results[name] = {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}
        result = results[name]["result"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:14.6f} {entry['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"results-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncdm" / "__init__.py").is_file():
        print(f"error: no ncdm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
