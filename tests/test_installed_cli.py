"""Run tests/installed_cli.sh, the checks that need a real ``ncdm`` process.

CI runs the script against the installed ``ncdm``. Here an ``ncdm`` shim that
runs ``python -m ncdm`` on this checkout's ``src/`` stands first on ``PATH``,
so every check in the script runs wherever the suite does.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = "tests/installed_cli.sh"


def test_installed_cli_script_passes_through_an_ncdm_shim(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    src, python = shlex.quote(str(ROOT / "src")), shlex.quote(sys.executable)
    (bin_dir / "ncdm").write_text(f'#!/bin/sh\nPYTHONPATH={src} exec {python} -m ncdm "$@"\n')
    (bin_dir / "ncdm").chmod(0o755)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"}
    env.pop("PYTHONHASHSEED", None)  # each process draws its own, as in CI
    result = subprocess.run(
        ["bash", str(ROOT / SCRIPT)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _run_bodies(workflow: str) -> list[str]:
    """Each ``run:`` of a workflow, with the lines of its block, read as text."""
    lines = workflow.splitlines()
    bodies = []
    for i, line in enumerate(lines):
        if re.match(r"\s*(- )?run:", line):
            indent, body = line.index("run:"), [line]
            for more in lines[i + 1 :]:
                if more.strip() and len(more) - len(more.lstrip()) <= indent:
                    break
                body.append(more)
            bodies.append("\n".join(body))
    return bodies


def test_the_workflow_runs_the_script_and_calls_no_ncdm_itself():
    bodies = _run_bodies((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert [body for body in bodies if SCRIPT in body] != []
    assert [body for body in bodies if re.search(r"\bncdm\b", body)] == []  # checks go in the script
