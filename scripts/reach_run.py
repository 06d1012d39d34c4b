#!/usr/bin/env python3
"""Trace which lines and functions of src/wellpose a set of runs reaches.

Usage: python3 scripts/reach_run.py [RUN ...]

Every run executes in this interpreter, under a line tracer
(sys.settrace) that records frames of src/wellpose only.  The runs
(default: all of them, in this order) are:

- each cli_snapshot.py RUNS entry: wellpose.cli.main with its arguments
  and --out in a temporary directory;
- run_vime_demo and run_steckin_renorm, the scripts beside this one, at
  their default arguments;
- renorm, sublevel and family: every job of that perfbench workload (one
  per reference key in perfbench/reference), run once.

The library is imported under the tracer, so module-level lines count
as reached only if some run imports them.  A line is executable when the
compiler gives it code (the line tables of a module's code objects); a
function is reached when some run calls it.  The script prints every
function that no run reaches, as module:qualname and its first line,
then the reached and executable line counts.
"""

import argparse
import contextlib
import inspect
import io
import runpy
import sys
import tempfile
from pathlib import Path

from cli_snapshot import RUNS as CLI_RUNS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCH = HERE.parent / "perfbench"
SCRIPTS = ("run_vime_demo", "run_steckin_renorm")
WORKLOADS = ("renorm", "sublevel", "family")
ALL_RUNS = (*CLI_RUNS, *SCRIPTS, *WORKLOADS)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _is_function(code) -> bool:
    # class bodies and comprehensions are code objects too, but not functions
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and not code.co_name.startswith("<")


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


class Reach:
    """Lines and functions of the files under src/wellpose that ran."""

    def __init__(self):
        self.files = {str(p): p for p in sorted((SRC / "wellpose").glob("*.py"))}
        self.lines: set[tuple[str, int]] = set()
        self.called: set[tuple[str, int, str]] = set()

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        self.called.add((code.co_filename, code.co_firstlineno, _qualname(code)))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._trace)
        try:
            yield
        finally:
            sys.settrace(None)

    def report(self) -> str:
        executable = set()
        unreached = []
        for name, path in self.files.items():
            module = "wellpose." + path.stem
            for code in _code_objects(compile(path.read_text(), name, "exec")):
                executable.update((name, line) for _, _, line in code.co_lines() if line is not None)
                key = (name, code.co_firstlineno, _qualname(code))
                if _is_function(code) and key not in self.called:
                    unreached.append(f"  {module}:{key[2]} (line {key[1]})")
        reached = len(self.lines & executable)
        executable = len(executable)
        return "\n".join([f"unreached functions ({len(unreached)}):", *unreached,
                          f"reached {reached} of {executable} executable lines in src/wellpose"])


def _run_cli(name: str, outdir: Path) -> str:
    from wellpose import cli

    return f"exit {cli.main([*CLI_RUNS[name], '--out', str(outdir / name)])}"


def _run_script(name: str) -> str:
    path = HERE / f"{name}.py"
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return f"exit {exc.code}"
    finally:
        sys.argv = argv
    return "exit 0"


def _run_workload(name: str) -> str:
    import workloads

    jobs = list({j["key"]: j for c in workloads.strata(name) for j in c}.values())
    inputs = workloads.setup(name, jobs)
    for job in jobs:
        workloads.RUN[name](inputs, job)
    return f"{len(jobs)} jobs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="*", metavar="RUN", help=f"subset of {', '.join(ALL_RUNS)}")
    args = ap.parse_args()
    unknown = sorted(set(args.runs) - set(ALL_RUNS))
    if unknown:
        ap.error(f"unknown run(s): {', '.join(unknown)}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    reach = Reach()
    done = []
    with tempfile.TemporaryDirectory() as tmp, reach.tracing():
        for name in [r for r in ALL_RUNS if not args.runs or r in args.runs]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if name in CLI_RUNS:
                    outcome = _run_cli(name, Path(tmp))
                elif name in SCRIPTS:
                    outcome = _run_script(name)
                else:
                    outcome = _run_workload(name)
            done.append(f"{name} ({outcome})")
    print("runs: " + ", ".join(done))
    print(reach.report())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
