"""End-to-end tests of the command-line interface: exit codes, report
formats, usage errors, the fault-injection hook, and the scan loop."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e16verma import cli, contact, singular, verma
from e16verma.contact import ContactElement, contact_bracket
from e16verma.exactnum import Q
from e16verma.gmodule import builtin, module_to_text
from e16verma.grassmann import mask_of

DATA = Path(__file__).parent / "data"


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_records(out):
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["schema"] == "e16verma/1" for r in recs)
    return recs


# ---------------------------------------------------------------------------
# reproduce-proof
# ---------------------------------------------------------------------------

def test_reproduce_proof_passes_and_lists_steps(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce-proof"])
    assert rc == 0
    for name in ("alfa", "beta", "gamma", "delta", "tecres", "tecres2",
                 "tecres3", "row-vj1", "row-vj2", "row-vjl1",
                 "b2-linear-independence"):
        assert f"step {name}: ok" in out
    assert "RESULT: PASS" in out
    assert "defaults: kmax=5, max-degree=4, t-scan=-10..10" in out


def test_reproduce_proof_s0_flag_changes_nothing(capsys):
    rc1, out1, _ = run_cli(capsys, ["reproduce-proof", "--with-s0",
                                    "--format", "json-lines"])
    rc2, out2, _ = run_cli(capsys, ["reproduce-proof", "--no-with-s0",
                                    "--format", "json-lines"])
    assert rc1 == rc2 == 0
    body1 = [r for r in json_records(out1) if r["record"] != "header"]
    body2 = [r for r in json_records(out2) if r["record"] != "header"]
    assert body1 == body2


@pytest.mark.parametrize("helper, fake, failed", [
    ("_sign_1_plus_I", lambda size: 1,
     {"alfa", "beta", "gamma", "delta", "b2-linear-independence"}),
    ("_theta_layer", lambda vv, p: {}, {"s2-blocks-threeway"}),
])
def test_reproduce_proof_fails_on_a_faulty_extraction(capsys, monkeypatch,
                                                      helper, fake, failed):
    monkeypatch.setattr(singular, helper, fake)
    rc, out, _ = run_cli(capsys, ["reproduce-proof", "--format", "json-lines"])
    assert rc == 1
    recs = json_records(out)
    assert {r["name"] for r in recs if r["record"] == "step" and not r["ok"]} == failed
    assert recs[-1] == {"record": "summary", "ok": False, "exit": 1,
                        "schema": "e16verma/1"}


# ---------------------------------------------------------------------------
# check-algebra
# ---------------------------------------------------------------------------

def test_check_algebra_passes(capsys):
    rc, out, _ = run_cli(capsys, ["check-algebra", "--max-degree", "2"])
    assert rc == 0
    assert "check jacobi: ok" in out
    assert "check closure: ok" in out
    assert "check root-system: ok" in out
    assert "triples_checked=" in out
    assert "pairs_closed=" in out
    assert "RESULT: PASS" in out


def test_check_algebra_fault_injection_detected_and_restored(capsys):
    rc, out, _ = run_cli(
        capsys, ["check-algebra", "--max-degree", "2", "--inject-fault"]
    )
    assert rc == 1
    assert "check jacobi: FAIL" in out
    # a named basis triple involving the corrupted bracket is reported
    assert "xi[12]" in out and "xi[1]" in out
    assert "RESULT: FAIL" in out
    # the hook restored the clean bracket
    assert contact.contact_bracket is contact_bracket
    x12 = ContactElement.monomial(0, (1, 2))
    x1 = ContactElement.monomial(0, (1,))
    assert contact_bracket(x12, x1) == ContactElement.monomial(0, (2,))


def test_check_algebra_grading_fault_fails_both_grading_records(capsys, monkeypatch):
    # [t, b] = 2 b becomes 3 b for one degree-2 basis element in the raw
    # brackets, the fault of
    # test_contact::test_wrong_grading_eigenvalue_fails_grading
    assert contact._basis_elements_at_degree(0)[0] == contact.GRADING_T
    orig = contact._raw_brackets

    def patched(d1, d2):
        re, im = orig(d1, d2)
        if (d1, d2) == (0, 2):
            re, im = re.copy(), im.copy()
            re[0, 5], im[0, 5] = re[0, 5] * 3 // 2, im[0, 5] * 3 // 2
        return re, im

    monkeypatch.setattr(contact, "_raw_brackets", patched)
    rc, out, _ = run_cli(capsys, ["check-algebra", "--max-degree", "2",
                                  "--format", "json-lines"])
    assert rc == 1
    checks = {r["name"]: r for r in json_records(out) if r["record"] == "check"}
    assert checks["grading"]["ok"] is False
    assert checks["t-grading"]["ok"] is False
    assert checks["t-grading"]["counts"] == {"degree": 6}


def test_check_algebra_rejects_a_max_degree_below_the_grading(capsys):
    # degree -2 is the lowest of E(1,6): -2 checks the one triple
    # (Theta, Theta, Theta), and anything lower would check none
    rc, out, err = run_cli(capsys, ["check-algebra", "--max-degree", "-3"])
    assert rc == 2 and not out
    assert "--max-degree -3 is below -2" in err
    rc, out, _ = run_cli(capsys, ["check-algebra", "--max-degree", "-2",
                                  "--format", "json-lines"])
    assert rc == 0
    checks = {r["name"]: r for r in json_records(out) if r["record"] == "check"}
    assert checks["jacobi"]["ok"] is True
    assert checks["jacobi"]["counts"] == {"degree": -2, "triples_checked": 1}


@pytest.mark.parametrize("argv, target, reason", [
    (["check-algebra", "--max-degree", "-2"], "missing/dir/x.txt", "No such file or directory"),
    (["reproduce-proof"], ".", "Is a directory"),
])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, argv, target, reason):
    # exit 1 means a check failed, so a report that cannot be written exits 2
    path = str(tmp_path / target)
    rc, out, err = run_cli(capsys, [*argv, "--out", path])
    assert rc == 2 and not out
    assert err.startswith(f"error: cannot write report to {path!r}: ")
    assert reason in err


def test_unwritable_out_path_fails_before_the_run(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "reproduce_proof_steps", lambda **kw: calls.append(kw))
    rc, out, err = run_cli(capsys, ["reproduce-proof", "--out", str(tmp_path)])
    assert rc == 2 and not out and not calls
    assert err.startswith(f"error: cannot write report to {str(tmp_path)!r}: ")


def test_out_path_check_leaves_files_as_they_were(capsys, tmp_path):
    # a run that fails after the check neither truncates an existing report
    # nor leaves a new empty one behind
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("kept\n")
    for path in (old, new):
        rc, _, err = run_cli(capsys, ["check-algebra", "--max-degree", "-3",
                                      "--out", str(path)])
        assert rc == 2 and "--max-degree -3 is below -2" in err
    assert old.read_text() == "kept\n" and not new.exists()


def _checkout_env():
    """The environment of a fresh interpreter that imports this checkout's
    ``e16verma``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _scipy_modules_after(commands, then=""):
    """Run cli.main on each argv in a fresh interpreter, writing to the null
    device, then the statements ``then``; returns the last stdout line: the
    exit codes and every scipy module then loaded."""
    script = (
        "import sys\n"
        "from e16verma import cli\n"
        f"codes = [cli.main(argv + ['--out', sys.argv[1]]) for argv in {commands!r}]\n"
        f"{then}\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, os.devnull],
        env=_checkout_env(), capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_algebra_and_proof_commands_never_import_scipy():
    # importing scipy.sparse raises check-algebra's peak RSS by about 20 MB;
    # the package depends on numpy alone, and scipy serves only the tests'
    # references
    assert _scipy_modules_after([["check-algebra"], ["reproduce-proof"]]) == "[0, 0] []"


def test_scan_commands_never_import_scipy():
    # the screen's sketch compressor is plain numpy, so the whole scan path
    # runs without scipy
    scan = ["--module", "vector", "--kmax", "2", "--t-scan=-1..1"]
    commands = [["verify-bound", *scan], ["find-singular", *scan]]
    assert _scipy_modules_after(commands) == "[0, 0] []"


def test_commands_and_commutator_suite_never_import_scipy():
    # the suite's action slices and products are numpy cells, so nothing the
    # package runs needs scipy
    scan = ["--module", "vector", "--kmax", "1", "--t-scan=-1..1"]
    commands = [["check-algebra"], ["reproduce-proof"],
                ["verify-bound", *scan], ["find-singular", *scan]]
    suite = (
        "from e16verma.exactnum import Q\n"
        "from e16verma.gmodule import builtin\n"
        "from e16verma.verma import commutator_suite\n"
        "assert commutator_suite(builtin('vector', Q(7, 3)), max_input_mdeg=1,"
        " max_size=1)['ok']"
    )
    assert _scipy_modules_after(commands, suite) == "[0, 0, 0, 0] []"


# ---------------------------------------------------------------------------
# verify-bound
# ---------------------------------------------------------------------------

def test_verify_bound_trivial_tabulates_dimensions(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["verify-bound", "--module", "trivial", "--t-scan", "0,2,7/3",
         "--kmax", "1"],
    )
    assert rc == 0
    assert "t=0  total=7  d0:1  d1:6" in out
    assert "t=2  total=11  d0:1  d3:10" in out
    assert "t=7/3  total=1  d0:1" in out
    assert "RESULT: PASS" in out


def test_verify_bound_json_lines_covers_every_degree(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["verify-bound", "--module", "trivial", "--t-scan", "0,2",
         "--kmax", "1", "--format", "json-lines"],
    )
    assert rc == 0
    recs = json_records(out)
    kernels = [r for r in recs if r["record"] == "kernel"]
    # degrees 0..(2*kmax+6) for each scanned eigenvalue
    assert {(r["t_scalar"], r["degree"]) for r in kernels} == {
        (c, d) for c in ("0", "2") for d in range(9)
    }
    summary = [r for r in recs if r["record"] == "summary"]
    assert summary == [{"record": "summary", "ok": True, "exit": 0,
                        "schema": "e16verma/1"}]


def test_verify_bound_with_s0_shrinks_kernels(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["verify-bound", "--module", "trivial", "--t-scan", "0", "--kmax", "1",
         "--with-s0"],
    )
    assert rc == 0
    assert "t=0  total=2  d0:1  d1:1" in out


def test_verify_bound_module_file(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(module_to_text(builtin("vector", Q(0))))
    rc, out, _ = run_cli(
        capsys,
        ["verify-bound", "--module", str(path), "--t-scan", "5", "--kmax", "1"],
    )
    assert rc == 0
    assert "t=5  total=7  d0:6  d1:1" in out


def test_verify_bound_invalid_commutators_rejected_before_assembly(
    tmp_path, capsys
):
    doc = json.loads(module_to_text(builtin("vector", Q(0))))
    doc["entries"][0]["value"] = "17"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(
        capsys, ["verify-bound", "--module", str(path), "--t-scan", "5"]
    )
    assert rc == 2
    assert "validation failed before assembly" in err
    assert "xi[" in err  # names the first failing commutator


def test_module_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "parse.json"
    path.write_text('{"dim": 6,\n "t_scalar": "0",\n entries: []}\n')
    rc, _, err = run_cli(
        capsys, ["verify-bound", "--module", str(path), "--t-scan", "5"]
    )
    assert rc == 2
    assert "line 3" in err


def _run_cli_process(argv, cwd):
    """(exit code, stderr) of the CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "e16verma.cli", *argv], cwd=cwd,
                          env=_checkout_env(), capture_output=True, text=True, check=False)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("where", ["t-scan", "value", "t_scalar"])
def test_zero_denominator_is_an_input_error(where, tmp_path):
    doc = json.loads(module_to_text(builtin("vector", Q(0))))
    if where == "value":
        doc["entries"][0]["value"] = "1/0"
    if where == "t_scalar":
        doc["t_scalar"] = "2/0"
    (tmp_path / "mod.json").write_text(json.dumps(doc))
    t_scan = "--t-scan=1/0" if where == "t-scan" else "--t-scan=5"
    rc, err = _run_cli_process(["verify-bound", "--module", "mod.json", "--kmax", "0",
                                t_scan], tmp_path)
    assert rc == 2
    assert err.startswith("error: ") and "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify-bound", "find-singular"])
def test_negative_kmax_is_a_usage_error(command, tmp_path):
    # below 0 the ansatz has no Theta-power, and the scan would check nothing
    rc, err = _run_cli_process([command, "--module", "vector", "--kmax", "-1",
                                "--t-scan", "1"], tmp_path)
    assert rc == 2
    assert err == "error: --kmax -1 is below 0, the lowest Theta-power\n"


def test_unknown_module_name_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, ["verify-bound", "--module", "nosuch", "--t-scan", "0"]
    )
    assert rc == 2
    assert "neither a builtin" in err


# ---------------------------------------------------------------------------
# find-singular
# ---------------------------------------------------------------------------

def test_find_singular_trivial_reports_degree_zero_vector(capsys):
    rc, out, _ = run_cli(
        capsys, ["find-singular", "--module", "trivial", "--t-scan", "0",
                 "--kmax", "1"],
    )
    assert rc == 0
    assert "vector t=0 degree=0 weight=(0, 0, 0)" in out
    assert "T-coords: eta[123456] (x) [(1) e0]" in out
    assert "m-coords: eta[] (x) [(1) e0]" in out


def test_find_singular_empty_scan_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, ["find-singular", "--module", "trivial", "--t-scan", ""]
    )
    assert rc == 2
    assert "t-scan is empty" in err


def test_bad_scalar_in_scan_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, ["find-singular", "--module", "trivial", "--t-scan", "2,x+"]
    )
    assert rc == 2
    assert "bad scalar" in err


def test_descending_range_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, ["find-singular", "--module", "trivial", "--t-scan", "3..1"]
    )
    assert rc == 2
    assert "descending range" in err


def test_find_singular_assembles_each_block_once(capsys, monkeypatch):
    calls = []
    assemble = singular.assemble_degree_block

    def counted(*args, **kwargs):
        calls.append(args[2])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(singular, "assemble_degree_block", counted)
    rc, out, _ = run_cli(capsys, ["find-singular", "--module", "trivial",
                                  "--kmax", "1", "--t-scan", "0,2,5"])
    assert rc == 0
    assert "vector t=" in out
    # m-degrees 0 .. 2*kmax + 6, one assembly each for the whole scan
    assert calls == list(range(2 * 1 + 7))


def _flip_object_level_t_term(monkeypatch):
    """Flip the sign of the lambda t-term of xi_1 on eta_{23456} in the
    object-level action only: the assembled blocks keep the true signs, so
    the re-check of the vector module's t = 5 singular vector disagrees."""
    real = verma.action_terms

    def flipped(l_mask, i_mask):
        terms = real(l_mask, i_mask)
        if (l_mask, i_mask) == (mask_of((1,)), mask_of((2, 3, 4, 5, 6))):
            terms = tuple((j, dth, om, op, -c if op == verma.OP_T else c)
                          for j, dth, om, op, c in terms)
        return terms

    monkeypatch.setattr(verma, "action_terms", flipped)


def test_failed_recheck_is_a_counterexample_not_a_traceback(capsys, monkeypatch):
    argv = ["--module", "vector", "--kmax", "1", "--t-scan", "5",
            "--format", "json-lines"]
    _flip_object_level_t_term(monkeypatch)
    rc, out, _ = run_cli(capsys, ["verify-bound"] + argv)
    assert rc == 1
    recs = json_records(out)
    ces = [r for r in recs if r["record"] == "counterexample"]
    assert [(r["t_scalar"], r["degree"], r["conditions_ok"]) for r in ces] == [
        ("5", 1, False)]
    assert recs[-1] == {"record": "summary", "ok": False, "exit": 1,
                        "schema": "e16verma/1"}
    rc, out, _ = run_cli(capsys, ["find-singular"] + argv)
    assert rc == 1
    recs = json_records(out)
    assert [(r["t_scalar"], r["degree"]) for r in recs
            if r["record"] == "counterexample"] == [("5", 1)]
    assert not any(r["record"] == "vector" and r["degree"] == 1 for r in recs)
    assert recs[-1]["ok"] is False
    # the text rendering names the failed re-check
    rc, out, _ = run_cli(capsys, ["verify-bound"] + argv[:-2])
    assert rc == 1
    assert "COUNTEREXAMPLE t=5 degree=1 shape_ok=True constraints_ok=True " \
           "conditions_ok=False" in out


# json-lines reports of the scan above, recorded before the report records
# had one constructor each: every field of the kernel, scan and
# counterexample records of a failing scan, byte for byte
FAILED_GOLDEN = {
    "golden_verify_vector_flipped.jsonl": "verify-bound",
    "golden_find_vector_flipped.jsonl": "find-singular",
}


@pytest.mark.parametrize("name", sorted(FAILED_GOLDEN))
def test_failed_records_match_golden(name, capsys, monkeypatch):
    _flip_object_level_t_term(monkeypatch)
    rc, out, _ = run_cli(capsys, [FAILED_GOLDEN[name], "--module", "vector", "--kmax", "1",
                                  "--t-scan=-1..5", "--format", "json-lines"])
    assert rc == 1
    assert out.encode() == (DATA / name).read_bytes()


def test_failed_shape_reaches_the_kernel_record(capsys, monkeypatch):
    # every kernel vector fails the degree shapes: the flag of its block's
    # kernel record falls, while a screened block keeps all three flags up
    monkeypatch.setattr(singular, "shape_compliant", lambda vv: (False, True))
    rc, out, _ = run_cli(capsys, ["verify-bound", "--module", "vector", "--kmax", "1",
                                  "--t-scan", "5", "--format", "json-lines"])
    assert rc == 1
    recs = json_records(out)
    flags = {r["degree"]: (r["screened"], r["shape_ok"], r["constraints_ok"], r["audit_ok"])
             for r in recs if r["record"] == "kernel"}
    assert flags[1] == (False, False, True, True)
    assert flags[2] == (True, True, True, True)
    assert {(r["degree"], r["shape_ok"]) for r in recs
            if r["record"] == "counterexample"} == {(0, False), (1, False)}


def test_failed_recheck_on_a_multi_t_scan(capsys, monkeypatch):
    """The object-side flip on a scan of seven t: the row-less degree-0
    block is checked at two t only, and the records are those of the
    per-t scan: six failed vectors at t = -1 and one at t = 5, all in
    degree 1."""
    argv = ["--module", "vector", "--kmax", "1", "--t-scan=-1..5",
            "--format", "json-lines"]
    _flip_object_level_t_term(monkeypatch)
    rc, out, _ = run_cli(capsys, ["verify-bound"] + argv)
    assert rc == 1
    ces = [r for r in json_records(out) if r["record"] == "counterexample"]
    assert [(r["t_scalar"], r["degree"], r["conditions_ok"], r["audit_failures"])
            for r in ces] == [("-1", 1, False, [])] * 6 + [("5", 1, False, [])]
    rc, out, _ = run_cli(capsys, ["find-singular"] + argv)
    assert rc == 1
    assert [(r["t_scalar"], r["degree"]) for r in json_records(out)
            if r["record"] == "counterexample"] == [("-1", 1), ("5", 1)]


def test_nonzero_residual_is_a_counterexample_not_a_traceback(capsys, monkeypatch):
    """A wrong exact kernel: ``nullspace`` doubles the first entry of each
    basis vector.  The object-level re-check is made to accept everything,
    so only the block residual can see the fault."""
    real = singular.nullspace

    def wrong(rows, columns):
        return [{**vec, min(vec): vec[min(vec)] * 2} for vec in real(rows, columns)]

    monkeypatch.setattr(singular, "nullspace", wrong)
    monkeypatch.setattr(singular, "conditions_hold", lambda vv, include_S0=False: True)
    argv = ["--module", "vector", "--kmax", "1", "--t-scan", "5",
            "--format", "json-lines"]
    rc, out, _ = run_cli(capsys, ["verify-bound"] + argv)
    assert rc == 1
    recs = json_records(out)
    ces = [r for r in recs if r["record"] == "counterexample"]
    # the row-less degree-0 block annihilates every vector; degree 1 holds
    # the t = 5 singular vector
    assert [(r["t_scalar"], r["degree"], r["conditions_ok"]) for r in ces] == [
        ("5", 1, False)]
    assert recs[-1]["ok"] is False
    # find-singular adds the S0 rows, so degree 0 has rows too, and every
    # kernel vector is a counterexample
    rc, out, _ = run_cli(capsys, ["find-singular"] + argv)
    assert rc == 1
    recs = json_records(out)
    assert [(r["t_scalar"], r["degree"]) for r in recs
            if r["record"] == "counterexample"] == [("5", 0), ("5", 1)]
    assert not any(r["record"] == "vector" for r in recs)


# ---------------------------------------------------------------------------
# shared report plumbing
# ---------------------------------------------------------------------------

def test_out_flag_writes_identical_report(tmp_path, capsys):
    argv = ["verify-bound", "--module", "trivial", "--t-scan", "0",
            "--kmax", "1"]
    rc1, out1, _ = run_cli(capsys, argv)
    path = tmp_path / "report.txt"
    rc2, out2, _ = run_cli(capsys, argv + ["--out", str(path)])
    assert rc1 == rc2 == 0
    assert "result: PASS" in out2
    assert path.read_text() == out1


def test_reports_are_deterministic(capsys):
    argv = ["verify-bound", "--module", "vector", "--t-scan=-1,5",
            "--kmax", "1", "--format", "json-lines"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


# json-lines reports recorded before the vectorised block assembler (the
# vector find-singular one before the shared scan loop); any refactor of the
# assembly, screen, kernels or scan must reproduce them byte for byte
GOLDEN = {
    "golden_verify_vector_kmax2.jsonl":
        ["verify-bound", "--module", "vector", "--kmax", "2", "--t-scan=-2..6"],
    "golden_verify_adjoint_kmax2_s0.jsonl":
        ["verify-bound", "--module", "adjoint", "--kmax", "2", "--t-scan", "2",
         "--with-s0"],
    "golden_find_trivial.jsonl":
        ["find-singular", "--module", "trivial", "--t-scan", "0,2"],
    "golden_find_vector_kmax2.jsonl":
        ["find-singular", "--module", "vector", "--kmax", "2", "--t-scan=-2..6"],
    "golden_check_algebra.jsonl": ["check-algebra"],
    "golden_check_algebra_fault.jsonl": ["check-algebra", "--inject-fault"],
    "golden_reproduce_proof_verbose.jsonl": ["reproduce-proof", "--verbose"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden(name, capsys):
    want = (DATA / name).read_bytes()
    rc, out, _ = run_cli(capsys, GOLDEN[name] + ["--format", "json-lines"])
    assert rc == json.loads(want.splitlines()[-1])["exit"]
    assert out.encode() == want


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
