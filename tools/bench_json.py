"""Alternating parent/change benchmark pairs, summarised into BENCH_<n>.json.

    python3 tools/bench_json.py pairs PARENT_DIR CHANGE_DIR --workload W \
        --seeds 1-10 >> pairs.jsonl
    python3 tools/bench_json.py write --parent COMMIT --src-tree TREE \
        --out BENCH_<n>.json pairs.jsonl [--confirmation confirm.jsonl]

``pairs`` runs ``perfbench/run.py --trace 0`` once per seed in each of two
source checkouts, the parent first on odd seeds and the change first on
even seeds, and prints one line per run: {"workload", "seed", "side",
"result"}, with ``result`` the last line that ``perfbench/run.py`` prints.

``write`` reads such lines and writes, per workload and end-to-end metric,
both sides' median, quartiles and IQR over the per-run medians, and in how
many pairs the change was lower, with the operations attempted and failed.
TREE is the git tree id of the measured ``src/`` (``git rev-parse
<commit>:src``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SCHEMA = "e16verma-bench/1"
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
SIDES = ("parent", "change")
SECONDS = 20
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"
ORDER = "alternating: parent first on odd seeds, change first on even seeds"


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (linear interpolation, as
    numpy.percentile) and their distance, rounded to 4 places."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    q1, med, q3 = (round(float(x), 4) for x in (q1, med, q3))
    return {"median": med, "q1": q1, "q3": q3, "iqr": round(q3 - q1, 4)}


def summarise(runs: list[dict]) -> dict:
    """{workload: {"seeds", "pairs", "operations", "metrics"}} over the
    seeds that have a run on both sides."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by = {(r["seed"], r["side"]): r["result"] for r in runs if r["workload"] == w}
        seeds = sorted(s for s in {s for s, _ in by} if all((s, side) in by for side in SIDES))
        entry = {"seeds": seeds, "pairs": len(seeds), "operations": {}, "metrics": {}}
        for side in SIDES:
            entry["operations"][side] = {
                k: sum(by[(s, side)][k] for s in seeds) for k in ("attempted", "failed")}
        for m in METRICS:
            value = {key: by[key]["metrics"][m]["value"] for key in by}
            rec = {"unit": by[(seeds[0], "parent")]["metrics"][m]["unit"]}
            for side in SIDES:
                rec[side] = quartiles([value[(s, side)] for s in seeds])
            rec["change_lower_in"] = sum(
                value[(s, "change")] < value[(s, "parent")] for s in seeds)
            entry["metrics"][m] = rec
        out[w] = entry
    return out


def bench_document(parent: str, src_tree: str, runs: list[dict],
                   confirmation: list[dict] | None = None) -> dict:
    bench = {
        "schema": SCHEMA,
        "parent_commit": parent,
        "change_src_tree": src_tree,
        "versions": {"python": sys.version.split()[0], "numpy": version("numpy"),
                     "scipy": version("scipy")},
        "hardware": "shared 2-vCPU VM",
        "command": COMMAND,
        "order": ORDER,
        "quartiles": "linear interpolation (numpy.percentile default), over the per-run medians",
        "workloads": summarise(runs),
    }
    if confirmation:
        bench["confirmation"] = summarise(confirmation)
    return bench


def _read_runs(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_pairs(parent_dir: str, change_dir: str, workload: str, seeds: list[int]):
    """Yield one run line per side and seed, in alternating order."""
    dirs = {"parent": parent_dir, "change": change_dir}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                cwd=dirs[side], capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            yield {"workload": workload, "seed": seed, "side": side, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs, print run lines")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    w = sub.add_parser("write", help="summarise run lines into a BENCH file")
    w.add_argument("runs")
    w.add_argument("--parent", required=True, help="the parent commit")
    w.add_argument("--src-tree", required=True, help="git tree id of the change's src/")
    w.add_argument("--out", required=True)
    w.add_argument("--confirmation", default=None, help="run lines on fresh seeds")
    ns = parser.parse_args(argv)
    if ns.cmd == "pairs":
        for line in run_pairs(ns.parent_dir, ns.change_dir, ns.workload,
                              _seed_range(ns.seeds)):
            print(json.dumps(line), flush=True)
        return 0
    confirmation = _read_runs(ns.confirmation) if ns.confirmation else None
    bench = bench_document(ns.parent, ns.src_tree, _read_runs(ns.runs), confirmation)
    Path(ns.out).write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
