"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The slowest test runs one full vector-scan pass (about 25 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import passes  # noqa: E402
import tracing  # noqa: E402


def test_seed_makes_the_inputs():
    assert passes.workload_inputs("algebra-oracle", 0) == {"t_gen": "7/3"}
    cands = passes.t_gen_candidates()
    assert len(set(cands)) == len(cands)
    assert all(c.denominator in (2, 3, 4, 5) and abs(c.numerator) <= 20 for c in cands)
    for name in passes.WORKLOADS:
        assert passes.workload_inputs(name, 5) == passes.workload_inputs(name, 5)
    scans = {tuple(passes.workload_inputs("bound-vector-scan", s)["t_scan"])
             for s in range(5)}
    assert len(scans) == 5
    assert all(sorted(map(int, s)) == list(range(-10, 11)) for s in scans)
    t_gens = {passes.workload_inputs("algebra-oracle", s)["t_gen"] for s in range(5)}
    assert len(t_gens) == 5
    assert all(Fraction(t).denominator > 1 for t in t_gens)


def _scan_report(t_scan: list[str]):
    from e16verma import cli

    out = ROOT / ".perfbench_work" / "test-scan.report"
    out.parent.mkdir(exist_ok=True)
    try:
        argv = passes.scan_argv({"module": "vector", "kmax": 5, "t_scan": t_scan})
        return passes._run_cli(cli, argv, out)
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)


def test_scan_check_rejects_a_corrupted_reference():
    ref = passes.load_reference()["vector"]
    rc, records = _scan_report(["5", "0"])
    assert passes.check_scan(records, rc, ["5", "0"], ref) == (2, [])

    bad = json.loads(json.dumps(ref))
    bad["kernel_dims"]["5"]["1"] = 2
    attempted, failures = passes.check_scan(records, rc, ["5", "0"], bad)
    assert attempted == 2 and len(failures) == 1
    assert failures[0].startswith("t=5: d1: kernel_dim 1 != 2")

    # a failed summary fails every t-value of the run
    flipped = [dict(r, ok=False) if r["record"] == "summary" else r for r in records]
    assert len(passes.check_scan(flipped, 1, ["5", "0"], ref)[1]) == 2


def test_oracle_checks_reject_wrong_reports():
    steps = [{"record": "step", "name": f"s{n}", "ok": True} for n in range(14)]
    summary = [{"record": "summary", "ok": True, "exit": 0}]
    assert passes.check_proof_report(steps + summary, 0) == []
    assert passes.check_proof_report(steps[1:] + summary, 0)
    good = {"ok": True, "failures": [], "pairs_checked": 1764}
    assert passes.check_commutator(good) == []
    assert passes.check_commutator(dict(good, pairs_checked=1763))
    want = passes.load_reference()["check_algebra"]
    checks = [{"record": "check", "name": n, "ok": True, "counts": c}
              for n, c in want.items()]
    assert passes.check_algebra_report(checks + summary, 0, want) == []
    checks[0] = dict(checks[0], counts={"degree": -1})
    assert passes.check_algebra_report(checks + summary, 0, want)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_without_the_package_source(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "--workload", "bound-vector-scan", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_fails_on_a_corrupted_reference(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["vector"]["kernel_dims"]["-1"]["1"] = 19
    ref_path.write_text(json.dumps(ref))
    proc = _run(tmp_path, "--workload", "bound-vector-scan", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (21, 1)
    assert not (tmp_path / ".perfbench_work").exists()
