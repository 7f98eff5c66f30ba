"""List the lines of `src/padd` that no shipped path runs.

    python3 scripts/traffic.py
    python3 scripts/traffic.py --seeds 1 2

Under one `sys.settrace`, in this interpreter, it runs every shipped path:
the CLI's `solve` (text, `--json`, `--csv`), `verify` and `fixed-bundle`
(at half the box, text and `--json`) on every file in `fixtures/configs`,
`hardness` (text and `--json`) on every file in `fixtures/graphs`,
`overfit` (text, `--json`, `--csv`), `reproduce` into a temporary
directory, one pass of each bench workload per seed (default 1), and each
script in `demos/`.  Output goes to a buffer; a path that refuses its
input counts as run, and one that raises is named on stderr.

Only frames of `src/padd` are traced.  For each function (by its code
object's qualified name, lambdas and comprehensions on their own) it
prints the executable lines that never ran, `never called` when none ran,
then a one-line summary.  A function whose lines all ran is not listed.
The executable lines are those the compiler gives instructions to.

Exit code: 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padd"
WORKLOADS = ("closed_form", "general_ray", "graph_hardness")


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> dict[str, set[int]]:
    """{`module.qualname`: its executable line numbers} for the functions of one source file."""
    module = path.stem
    out = {}
    for code in _code_objects(compile(path.read_text(), str(path), "exec")):
        if code.co_name == "<module>":
            continue
        lines = {line for _, _, line in code.co_lines() if line is not None}
        out.setdefault(f"{module}.{code.co_qualname}", set()).update(lines)
    return out


class Tracer:
    """Records the (file, `module.qualname`, line) triples that run in frames
    of `src/padd`: a `def` line runs in the enclosing body and, on each
    call, in the function itself."""

    def __init__(self):
        self.seen: set[tuple[str, str, int]] = set()
        self._prefix = str(SRC) + "/"
        self._names: dict[types.CodeType, tuple[str, str]] = {}  # code -> (file, `module.qualname`)

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        if code not in self._names:
            self._names[code] = code.co_filename, f"{Path(code.co_filename).stem}.{code.co_qualname}"
        self.seen.add((*self._names[code], frame.f_lineno))  # the call line, which no line event reports
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((*self._names[frame.f_code], frame.f_lineno))
        return self._local


def _quiet(what: str, fn, *args):
    """`fn(*args)` with its output discarded; an exception is named on stderr and the run goes on."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return fn(*args)
    except (Exception, SystemExit) as exc:
        print(f"raised: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc


def shipped_paths(seeds) -> None:
    """Run every shipped path once, output discarded."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from padd.cli import main

    def cli(*argv):
        _quiet(" ".join(argv), main, list(argv))

    for path in sorted((ROOT / "fixtures" / "configs").glob("*.json")):
        for extra in ([], ["--json"], ["--csv"]):
            cli("solve", str(path), *extra)
        cli("verify", str(path))
        upper = json.loads(path.read_text())["domain"]["upper"]
        bundle = ",".join(repr(b / 2.0) for b in upper)
        for extra in ([], ["--json"]):
            cli("fixed-bundle", str(path), "--bundle", bundle, *extra)
    for path in sorted((ROOT / "fixtures" / "graphs").iterdir()):
        for extra in ([], ["--json"]):
            cli("hardness", str(path), *extra)
    for extra in ([], ["--json"], ["--csv"]):
        cli("overfit", "--epsilon", "0.05", *extra)
    with tempfile.TemporaryDirectory() as out:
        cli("reproduce", "--out", out)

    import workloads

    for name in WORKLOADS:
        for seed in seeds:
            state = {}
            for op in workloads.build(name, seed).ops:
                state[op.name] = _quiet(f"{name} seed {seed} {op.name}", op.run, state)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _quiet(demo.name, runpy.run_path, str(demo), {}, "__main__")


def _ranges(lines) -> str:
    """`1, 3-5, 9` for the sorted line numbers."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="bench workload seeds (default 1)")
    args = parser.parse_args(argv)

    tracer = Tracer()
    sys.settrace(tracer)
    try:
        shipped_paths(args.seeds)
    finally:
        sys.settrace(None)

    total = listed = never_called = 0
    for path in sorted(SRC.glob("*.py")):
        for name, lines in executable_lines(path).items():
            total += 1
            never = {line for line in lines if (str(path), name, line) not in tracer.seen}
            if never:
                listed += 1
                never_called += never == lines
                print(f"{name}: {'never called' if never == lines else _ranges(never)}")
    print(f"{listed} of {total} functions have lines that never ran, {never_called} of them never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
