"""Benchmark of the e16verma exact-verification workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  Workloads (see ``BENCHMARK.json``
for why each was chosen):

  bound-vector-scan    verify-bound --module vector --kmax 5 over t = -10..10
                       in seed order
  bound-adjoint-point  verify-bound --module adjoint --kmax 4 --t-scan 2
  algebra-oracle       check-algebra, reproduce-proof and the commutator
                       suite on the vector module at a seed-drawn t

Every pass runs in a fresh interpreter with E16VERMA_WORKERS=1, so its peak
RSS is its own, and its outputs are checked against ``reference.json``.

--trace 0 (end-to-end): untraced passes until --seconds have been measured
(at least one), with set-up probes (interpreter start, import, builtin
module) before and after them.  Reports the medians of wall_s, cpu_s,
peak_rss_mb and setup_s.

--trace 1 (per layer): one untraced pass, one traced pass (layer spans) and
one counting pass (Q(i) operations and brackets).  Reports self seconds and
counts per layer, the tracing overhead (traced minus untraced wall) and the
remainder of the traced wall that no layer span covers.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detailed report (samples, quartiles, seed, inputs, environment).  Exit code:
0 when every output checked, 1 when a check failed, 2 when the run could
not be made (no ``src/e16verma`` here, a pass crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from passes import WORKLOADS
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-up probes per end-to-end run, half before and half after the passes so
# that their median spans the run's load rather than one moment of it
SETUP_PROBES = 10
DEADLINE_S = 170.0  # every run must end within 180 s


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns its result object."""
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{workload}.{mode}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), E16VERMA_WORKERS="1")
    spawned = _clock()
    spec = {"workload": workload, "seed": seed, "mode": mode,
            "out": str(out), "spawned": spawned}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - _clock()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RunError(f"{workload} {mode} pass ran past the deadline") from None
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise RunError(f"{workload} {mode} pass exited {proc.returncode}: "
                       + " | ".join(tail))
    result = json.loads(out.read_text())
    if not Path(result["package_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RunError(f"imported e16verma from {result['package_file']}, not {SRC}")
    return result


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count (quartiles need two samples)."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment(first: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **first["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": 1,
        "workers_pinned": "E16VERMA_WORKERS=1",
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    def probe() -> float:
        return run_pass(workload, seed, "setup", deadline)["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(run_pass(workload, seed, "plain", deadline))
        measured += passes[-1]["wall_s"]
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
    samples = {key: [p[key] for p in passes]
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]}
               for k, v in samples.items()}
    detail = {k: summarize(v) for k, v in samples.items()}
    return passes, metrics, detail


def per_layer(workload: str, seed: int, deadline: float):
    plain = run_pass(workload, seed, "plain", deadline)
    traced = run_pass(workload, seed, "traced", deadline)
    counted = run_pass(workload, seed, "count", deadline)
    layers = layer_metrics(traced, plain["wall_s"], counted["counts"])
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "count_pass_wall_s": counted["wall_s"], "spans": len(traced["spans"])}
    return [plain, traced, counted], metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "e16verma" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'e16verma'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = _clock() + DEADLINE_S
    try:
        if ns.trace:
            passes, metrics, detail = per_layer(ns.workload, ns.seed, deadline)
        else:
            passes, metrics, detail = end_to_end(
                ns.workload, ns.seed, ns.seconds, deadline)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "inputs": passes[0]["inputs"],
        "environment": environment(passes[0]),
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
        "samples": detail,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
