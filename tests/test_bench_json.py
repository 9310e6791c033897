"""The BENCH_<n>.json writer in tools/: medians, quartiles and the pairs won
on a two-pair fixture."""

import importlib.util
import json
import random
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _result(wall, rss, attempted=21, failed=0):
    metrics = {"wall_s": (wall, "s"), "cpu_s": (wall + 0.5, "s"),
               "peak_rss_mb": (rss, "MB"), "setup_s": (0.1, "s")}
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


# two alternating pairs: the change wins the wall time of seed 1 only, and
# the peak RSS of neither
FIXTURE = [
    {"workload": "w", "seed": 1, "side": "parent", "result": _result(3.0, 70.0)},
    {"workload": "w", "seed": 1, "side": "change", "result": _result(2.0, 71.0)},
    {"workload": "w", "seed": 2, "side": "change", "result": _result(4.5, 71.0, failed=1)},
    {"workload": "w", "seed": 2, "side": "parent", "result": _result(4.0, 70.0)},
]


def test_two_pair_fixture_summary(tmp_path):
    runs = tmp_path / "pairs.jsonl"
    runs.write_text("".join(json.dumps(r) + "\n" for r in FIXTURE))
    out = tmp_path / "BENCH.json"
    assert bench_json.main(["write", str(runs), "--parent", "abc",
                            "--src-tree", "def", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["schema"] == "e16verma-bench/1"
    assert (bench["parent_commit"], bench["change_src_tree"]) == ("abc", "def")
    assert "confirmation" not in bench
    w = bench["workloads"]["w"]
    assert (w["seeds"], w["pairs"]) == ([1, 2], 2)
    assert w["operations"] == {"parent": {"attempted": 42, "failed": 0},
                               "change": {"attempted": 42, "failed": 1}}
    wall = w["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"median": 3.5, "q1": 3.25, "q3": 3.75, "iqr": 0.5}
    assert wall["change"] == {"median": 3.25, "q1": 2.625, "q3": 3.875, "iqr": 1.25}
    assert wall["change_lower_in"] == 1
    assert w["metrics"]["cpu_s"]["change_lower_in"] == 1
    assert w["metrics"]["peak_rss_mb"]["change_lower_in"] == 0
    assert w["metrics"]["peak_rss_mb"]["parent"]["iqr"] == 0.0


def test_unpaired_seed_is_left_out():
    runs = FIXTURE + [{"workload": "w", "seed": 3, "side": "parent",
                       "result": _result(1.0, 1.0)}]
    assert bench_json.summarise(runs)["w"]["seeds"] == [1, 2]


def test_quartiles_match_numpy_percentile():
    rng = random.Random(10)
    for n in range(1, 12):
        values = [rng.uniform(0, 10) for _ in range(n)]
        q1, med, q3 = (round(float(x), 4) for x in np.percentile(values, [25, 50, 75]))
        got = bench_json.quartiles(values)
        assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3)
