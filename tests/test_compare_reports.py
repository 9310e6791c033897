"""The report comparison in tools/: a tree matches itself, and a tree whose
report differs is caught."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_reports", ROOT / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

CHEAP = {"verify-bound trivial": ["verify-bound", "--module", "trivial",
                                  "--kmax", "1", "--t-scan=0"]}


def test_tree_against_itself_is_identical():
    assert dict(compare_reports.compare(ROOT, ROOT, CHEAP)) == {
        "verify-bound trivial": True}


def test_a_changed_report_is_different(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "e16verma" / "cli.py"
    text = cli.read_text()
    assert 'SCHEMA = "e16verma/1"' in text
    cli.write_text(text.replace('SCHEMA = "e16verma/1"', 'SCHEMA = "e16verma/x"'))
    assert dict(compare_reports.compare(ROOT, tmp_path, CHEAP)) == {
        "verify-bound trivial": False}
    assert compare_reports.src_lines(tmp_path) == compare_reports.src_lines(ROOT)


def test_suite_reports_run():
    # a program that fails prints nothing on both sides, which would compare
    # as identical; each suite report is the suite's clean JSON report
    suites = {name: program for name, program in compare_reports.REPORTS.items()
              if isinstance(program, str)}
    assert len(suites) == 3
    for name, program in suites.items():
        rc, out = compare_reports.run_report(ROOT, program)
        assert rc == 0, name
        report = json.loads(out)
        assert report["ok"] and not report["failures"], name
