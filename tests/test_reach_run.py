"""scripts/reach_run.py traces src/wellpose under a run and reports the
functions it never reaches and its line counts."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach_run.py"


def test_verify_alone_reaches_its_command_and_not_the_others():
    proc = subprocess.run([sys.executable, str(SCRIPT), "verify"], capture_output=True,
                          text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "runs: verify (exit 0)"
    reached, executable = map(int, re.fullmatch(
        r"reached (\d+) of (\d+) executable lines in src/wellpose", lines[-1]).groups())
    assert 0 < reached < executable
    unreached = {line.split()[0] for line in lines[2:-1]}
    assert int(re.fullmatch(r"unreached functions \((\d+)\):", lines[1])[1]) == len(unreached)
    assert "wellpose.cli:_cmd_vime" in unreached
    assert "wellpose.cli:_cmd_steckin" in unreached
    assert "wellpose.cli:_cmd_verify" not in unreached
    assert "wellpose.verify:run_all" not in unreached


def test_an_unknown_run_is_a_usage_error():
    proc = subprocess.run([sys.executable, str(SCRIPT), "nope"], capture_output=True,
                          text=True, check=False, timeout=60)
    assert proc.returncode == 2 and "unknown run(s): nope" in proc.stderr
