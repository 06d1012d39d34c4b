#!/usr/bin/env python3
"""Run the CLI commands with default arguments and keep every output.

Usage: python3 scripts/cli_snapshot.py OUTDIR [COMMAND ...]

Each command (default: vime, vime_steps10, vime_steps11, modulus,
modulus_repeated_eps, perturb, steckin, steckin_l1, steckin_euclidean,
steckin_polygon_awkward, steckin_linf_ten, steckin_tiny_eps, verify) runs
in a fresh interpreter against the ``src`` tree of the checkout this
script belongs to, with OUTDIR as working directory and ``--out
COMMAND``.  Its stdout, stderr and exit
code go to COMMAND/console.txt beside the files it writes.
vime_steps10 and vime_steps11 run ``vime --steps 10`` and
``--steps 11``, whose step counts leave remainders 1 and 2 mod 3, so the
ends of the middle third fall between grid points.  steckin_l1 and
steckin_euclidean run ``steckin`` on the instance files beside this
script: an l1 polytope and a euclidean segment.  steckin_polygon_awkward
runs a euclidean polygon whose vertex list repeats a vertex, puts three
vertices on one edge and one inside, with witnesses outside, inside
and exactly on an edge.  steckin_linf_ten runs the sup-norm segment
with the ten witnesses of
steckin_linf_ten_witnesses.json, which run out the default budget after
eight steps: it exits 4 and writes only ledger.json, so the early-stop
path is compared too.  modulus_repeated_eps
(``--eps-grid 0.1,0.1``) and steckin_tiny_eps (``--eps-total 1e-320``,
whose default delta grid underflows) exit 2, and keep those two
messages under the comparison.  Paths in the outputs are relative, so
two checkouts compare with one ``diff -r``:

    python3 A/scripts/cli_snapshot.py snapA
    python3 B/scripts/cli_snapshot.py snapB
    diff -r snapA snapB
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# snapshot name -> CLI arguments before --out
RUNS = {
    "vime": ["vime"],
    "vime_steps10": ["vime", "--steps", "10"],
    "vime_steps11": ["vime", "--steps", "11"],
    "modulus": ["modulus"],
    "modulus_repeated_eps": ["modulus", "--eps-grid", "0.1,0.1"],
    "perturb": ["perturb"],
    "steckin": ["steckin"],
    "steckin_l1": ["steckin", "--instance", str(HERE / "steckin_l1_polytope.json")],
    "steckin_euclidean": ["steckin", "--instance", str(HERE / "steckin_euclidean_segment.json")],
    "steckin_polygon_awkward": ["steckin", "--instance",
                                str(HERE / "steckin_polygon_awkward.json")],
    "steckin_linf_ten": ["steckin", "--instance", str(HERE / "steckin_linf_ten_witnesses.json")],
    "steckin_tiny_eps": ["steckin", "--eps-total", "1e-320"],
    "verify": ["verify"],
}


def snapshot(outdir: Path, command: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wellpose.cli", *RUNS[command], "--out", command],
        cwd=outdir, env=env, capture_output=True, text=True, check=False)
    (outdir / command).mkdir(exist_ok=True)
    (outdir / command / "console.txt").write_text(
        f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("commands", nargs="*", metavar="COMMAND",
                    help=f"subset of {', '.join(RUNS)}")
    args = ap.parse_args()
    unknown = sorted(set(args.commands) - set(RUNS))
    if unknown:
        ap.error(f"unknown command(s): {', '.join(unknown)}")
    args.outdir.mkdir(parents=True, exist_ok=True)
    for command in args.commands or RUNS:
        code = snapshot(args.outdir, command)
        print(f"{command}: exit {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
