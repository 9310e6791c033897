"""Compare the reports of two source checkouts byte for byte.

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR

Each report of ``REPORTS`` runs in a fresh interpreter with
``PYTHONPATH=<dir>/src`` and ``<dir>`` as working directory, once per
checkout, on stdout: a list is a CLI command, run with ``--format
json-lines``, and a string a Python program (``suite_report``); a module
file is named relative to the checkout.  A report is identical when both
its stdout bytes and its exit code agree.
Prints one line per report and the ``src/`` line count of each side; exits
1 when any report differs, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

SCAN = ["--kmax", "5", "--t-scan=-10..10"]


def suite_report(module: str, max_input_mdeg: int, max_size: int) -> str:
    """A program printing ``json.dumps`` of the commutator suite's report on
    ``module``, an expression over ``builtin``, ``module_from_text``, ``Q``
    and ``Path``."""
    return (
        "import json\n"
        "from pathlib import Path\n"
        "from e16verma.exactnum import Q\n"
        "from e16verma.gmodule import builtin, module_from_text\n"
        "from e16verma.verma import commutator_suite\n"
        f"print(json.dumps(commutator_suite({module}, {max_input_mdeg}, {max_size})))\n"
    )


REPORTS: dict[str, list[str] | str] = {
    "verify-bound trivial": ["verify-bound", "--module", "trivial", *SCAN],
    "verify-bound vector": ["verify-bound", "--module", "vector", *SCAN],
    "verify-bound adjoint": ["verify-bound", "--module", "adjoint", *SCAN],
    "verify-bound vector, non-integer t": [
        "verify-bound", "--module", "vector", "--kmax", "3", "--t-scan=7/3,1+i,-1,5"],
    # p = 1048589 divides the first t's denominator, so it has no image mod
    # p and every block takes the exact path at a non-real t
    "verify-bound vector, t with no image mod p": [
        "verify-bound", "--module", "vector", "--kmax", "2",
        "--t-scan=1/1048589+2/1048589*i,5"],
    "find-singular trivial": ["find-singular", "--module", "trivial", *SCAN],
    "find-singular vector": ["find-singular", "--module", "vector", *SCAN],
    "reproduce-proof": ["reproduce-proof"],
    "reproduce-proof --verbose": ["reproduce-proof", "--verbose"],
    "check-algebra": ["check-algebra"],
    "check-algebra --inject-fault": ["check-algebra", "--inject-fault"],
    # other Jacobi degrees split the tables into other closure and Jacobi reads
    "check-algebra --max-degree 6": ["check-algebra", "--max-degree", "6"],
    "check-algebra --max-degree 0": ["check-algebra", "--max-degree", "0"],
    # the failure names at a second Jacobi range
    "check-algebra --inject-fault --max-degree 2": [
        "check-algebra", "--inject-fault", "--max-degree", "2"],
    # the smallest Jacobi range, beside the full Theta-onto check
    "check-algebra --max-degree -2": ["check-algebra", "--max-degree", "-2"],
    # repeated t, then a new one: a report that pairs its results with the
    # scan before duplicates are dropped shifts every t after the repeats
    "verify-bound vector, repeated t": [
        "verify-bound", "--module", "vector", "--kmax", "2", "--t-scan=5,-1..5,5,6"],
    "find-singular vector, repeated t": [
        "find-singular", "--module", "vector", "--kmax", "2", "--t-scan=5,-1..5,5,6"],
    # a 15-dimensional module with its S0 rows, in find-singular's records
    "find-singular adjoint": ["find-singular", "--module", "adjoint", "--kmax", "2"],
    "verify-bound module file --with-s0": [
        "verify-bound", "--module", "tests/data/vector_scaled.json", "--kmax", "1",
        "--t-scan=5", "--with-s0"],
    # its matrices admit no class labels, so every block is screened as one
    # class
    "verify-bound rotated vector module file": [
        "verify-bound", "--module", "tests/data/vector_rotated.json", "--kmax", "2",
        "--t-scan=-3..3"],
    # the commutator suite is no CLI command; its reports as JSON
    "commutator suite vector 7/3": suite_report('builtin("vector", Q(7, 3))', 2, 3),
    "commutator suite adjoint 2": suite_report('builtin("adjoint", Q(2))', 1, 2),
    "commutator suite module file": suite_report(
        'module_from_text(Path("tests/data/vector_scaled.json").read_text())', 2, 1),
}


def run_report(tree: Path, argv: list[str] | str) -> tuple[int, bytes]:
    """(exit code, stdout) of one report of the checkout: a json-lines CLI
    report for a list, the output of the Python program for a string."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    if isinstance(argv, str):
        args = ["-c", argv]
    else:
        args = ["-m", "e16verma.cli", *argv, "--format", "json-lines"]
    proc = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, check=False)
    return proc.returncode, proc.stdout


def src_lines(tree: Path) -> int:
    """Lines of the Python files under the checkout's ``src/``."""
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((Path(tree) / "src").rglob("*.py")))


def compare(parent: Path, change: Path,
            reports: dict[str, list[str] | str] = REPORTS) -> Iterator[tuple[str, bool]]:
    """(report name, identical) per report, as each pair of runs ends."""
    for name, argv in reports.items():
        yield name, run_report(parent, argv) == run_report(change, argv)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_reports.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = map(Path, args)
    same = True
    for name, ok in compare(parent, change):
        same &= ok
        print(f"{'identical' if ok else 'DIFFERENT'}  {name}", flush=True)
    print(f"src/ lines: parent {src_lines(parent)}, change {src_lines(change)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
