"""Command-line interface.

Subcommands
-----------
check-algebra    bracket identities (super-Jacobi, closure, skew, grading),
                 the t/Theta grading suite, and the root-system dictionary
verify-bound     per-degree kernels of the singular-vector conditions over a
                 scan of t-eigenvalues, checked against the structural
                 degree bound
find-singular    explicit singular vectors (highest-weight rows included by
                 default), with degrees and weights, rendered in both
                 coordinate systems
reproduce-proof  exact reproduction of the extraction steps behind the
                 degree bound

Exit codes: 0 every check passed, 1 at least one check failed, 2 usage or
input-format error.  Reports are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter
from pathlib import Path

from . import contact
from .contact import check_L1_L2_L3, check_jacobi_closure, check_root_system
from .exactnum import GaussianRational, Q, scalar_from_text, scalar_to_text
from .gmodule import (
    BUILTIN_NAMES,
    ModuleFormatError,
    ModuleSpec,
    builtin,
    module_from_text,
    validate,
)
from .grassmann import mask_of
from .singular import _as_scan, reproduce_proof_steps, singular_vectors, verify_bound

SCHEMA = "e16verma/1"
DEFAULTS = {"kmax": 5, "t-scan": "-10..10", "max-degree": 4}

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or bad input files; maps to exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def parse_t_scan(text: str) -> list[GaussianRational]:
    """Parse a comma-separated scan: exact scalars ('7/3', '1+2*i') and/or
    inclusive integer ranges ('a..b'), in order.  Duplicates are kept; the
    scans of ``singular`` drop them."""
    values: list[GaussianRational] = []
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        if ".." in token:
            lo_txt, _, hi_txt = token.partition("..")
            try:
                lo, hi = int(lo_txt), int(hi_txt)
            except ValueError:
                raise UsageError(f"bad range {token!r} in t-scan (want a..b)") from None
            if lo > hi:
                raise UsageError(f"descending range {token!r} in t-scan")
            values.extend(Q(n) for n in range(lo, hi + 1))
        else:
            try:
                values.append(scalar_from_text(token))
            except ValueError as e:
                raise UsageError(f"bad scalar {token!r} in t-scan: {e}") from None
    if not values:
        raise UsageError("t-scan is empty; give scalars and/or a..b ranges")
    return values


def load_module(spec_text: str) -> ModuleSpec:
    """Resolve --module: a builtin name, or a path to a module file, whose
    commutators are validated before any assembly.  The module's t is 0;
    the scan supplies each t-eigenvalue."""
    if spec_text in BUILTIN_NAMES:
        return builtin(spec_text, Q(0))
    path = Path(spec_text)
    if not path.exists():
        raise UsageError(
            f"module {spec_text!r} is neither a builtin "
            f"({', '.join(BUILTIN_NAMES)}) nor an existing file"
        )
    try:
        text = path.read_text()
    except OSError as e:
        raise UsageError(f"cannot read module file {spec_text!r}: {e}") from None
    try:
        spec = module_from_text(text, name=path.stem)
    except ModuleFormatError as e:
        raise UsageError(f"module file {path.stem!r}: {e}") from None
    rep = validate(spec)
    if not rep["ok"]:
        raise UsageError(
            "module validation failed before assembly: "
            f"first failing commutator {rep['first_failure']}"
        )
    return ModuleSpec(spec.dim, Q(0), spec.xi_action, name=spec.name)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def header_record(command: str, config: dict) -> dict:
    return {
        "record": "header",
        "command": command,
        "defaults": dict(DEFAULTS),
        "config": config,
    }


def _run_scan(ns: argparse.Namespace, run) -> tuple[dict, list[GaussianRational], object]:
    """The header record, the t-scan (duplicates dropped) and the result of
    ``run`` (``verify_bound`` or ``singular_vectors``) of a scan command."""
    if ns.kmax < 0:
        raise UsageError(f"--kmax {ns.kmax} is below 0, the lowest Theta-power")
    module = load_module(ns.module)
    # "workers" is always 1; the field stays for the stability of the schema
    config = {
        "module": module.name,
        "kmax": ns.kmax,
        "t-scan": ns.t_scan,
        "with-s0": "yes" if ns.with_s0 else "no",
        "workers": 1,
        "format": ns.format,
    }
    scan = _as_scan(parse_t_scan(ns.t_scan))
    try:
        result = run(module, k_max=ns.kmax, t_scan=scan, include_S0=ns.with_s0)
    except OverflowError as e:
        # a module whose entries overflow the int64 block format is an input
        # the assembler cannot take
        raise UsageError(str(e)) from None
    return header_record(ns.command, config), scan, result


def summary_record(ok: bool) -> dict:
    return {"record": "summary", "ok": bool(ok), "exit": 0 if ok else 1}


def _kv(d: dict) -> str:
    return ", ".join(f"{k}={d[k]}" for k in sorted(d))


def record_to_text(rec: dict) -> list[str]:
    kind = rec["record"]
    if kind == "header":
        return [
            f"e16verma {rec['command']}",
            f"schema: {SCHEMA}",
            f"defaults: {_kv(rec['defaults'])}",
            f"config: {_kv(rec['config'])}",
        ]
    if kind == "check":
        status = "ok" if rec["ok"] else "FAIL"
        counts = f" ({_kv(rec['counts'])})" if rec.get("counts") else ""
        lines = [f"check {rec['name']}: {status}{counts}"]
        for f in rec.get("failures", [])[:10]:
            lines.append(f"  failure: {f}")
        extra = len(rec.get("failures", [])) - 10
        if extra > 0:
            lines.append(f"  ... and {extra} more")
        return lines
    if kind == "scan":
        dims = rec["kernel_dims"]
        if dims:
            tab = "  ".join(f"d{d}:{n}" for d, n in sorted(
                ((int(k), v) for k, v in dims.items())
            ))
        else:
            tab = "no kernel"
        return [f"t={rec['t_scalar']}  total={rec['kernel_total']}  {tab}"]
    if kind == "kernel":
        return []  # per-degree detail is carried in json-lines output only
    if kind == "counterexample":
        flags = " ".join(f"{k}={rec[k]}" for k in
                         ("shape_ok", "constraints_ok", "conditions_ok") if k in rec)
        return [
            f"COUNTEREXAMPLE t={rec['t_scalar']} degree={rec['degree']} {flags}",
            f"  T-coords: {rec['vector_T']}",
            f"  m-coords: {rec['vector_m']}",
        ]
    if kind == "vector":
        w = rec["weight"]
        weight = "(" + ", ".join(w) + ")" if w is not None else "none"
        return [
            f"vector t={rec['t_scalar']} degree={rec['degree']} weight={weight}",
            f"  T-coords: {rec['vector_T']}",
            f"  m-coords: {rec['vector_m']}",
        ]
    if kind == "step":
        line = f"step {rec['name']}: {'ok' if rec['ok'] else 'FAIL'}"
        out = [line]
        if rec.get("note"):
            out.append(f"  note: {rec['note']}")
        return out
    if kind == "summary":
        return [f"RESULT: {'PASS' if rec['ok'] else 'FAIL'}"]
    return [json.dumps(rec, sort_keys=True)]


def render_report(records: list[dict], fmt: str) -> str:
    if fmt == "json-lines":
        lines = []
        for rec in records:
            body = dict(rec)
            body["schema"] = SCHEMA
            lines.append(json.dumps(body, sort_keys=True))
        return "\n".join(lines) + "\n"
    lines = []
    for rec in records:
        lines.extend(record_to_text(rec))
    return "\n".join(lines) + "\n"


def _check_writable(path: str) -> None:
    """Raise UsageError unless the report can be written to ``path``, before
    the run: an existing file keeps its contents, and a new one is removed
    again until ``emit`` writes it."""
    out = Path(path)
    existed = out.exists()
    try:
        out.open("a").close()
    except OSError as e:
        raise UsageError(f"cannot write report to {path!r}: {e}") from None
    if not existed:
        out.unlink()


def emit(records: list[dict], ns: argparse.Namespace, ok: bool) -> int:
    text = render_report(records, ns.format)
    if ns.out:
        try:
            Path(ns.out).write_text(text)
        except OSError as e:
            raise UsageError(f"cannot write report to {ns.out!r}: {e}") from None
        print(
            f"wrote {len(records)} record(s) to {ns.out}; "
            f"result: {'PASS' if ok else 'FAIL'}"
        )
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _check(name: str, ok: bool, failures=(), **counts) -> dict:
    return {"record": "check", "name": name, "ok": ok, "counts": counts,
            "failures": [str(f) for f in failures]}


def _scan_record(t_text: str, dims: dict[str, int]) -> dict:
    """The kernel dimension of each degree with a kernel, and their sum."""
    return {"record": "scan", "t_scalar": t_text,
            "kernel_total": sum(dims.values()), "kernel_dims": dims}


def _counterexample(fields: dict) -> dict:
    """A vector that failed a check, from a ``verify_bound`` counterexample or
    a ``singular_vectors`` vector: its fields but the module, the weight and
    the vector object, with the audit failures as text."""
    rec = {k: v for k, v in fields.items() if k not in ("module", "weight", "vector")}
    if "audit_failures" in rec:
        rec["audit_failures"] = [str(f) for f in rec["audit_failures"]]
    return {"record": "counterexample", **rec}


def _vector_record(c_text: str, v: dict) -> dict:
    w = v["weight"]
    return {
        "record": "vector",
        "t_scalar": c_text,
        "degree": v["degree"],
        "weight": None if w is None else [scalar_to_text(x) for x in w],
        "vector_T": v["vector_T"],
        "vector_m": v["vector_m"],
    }


# ---------------------------------------------------------------------------
# check-algebra
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _bracket_fault():
    """The --inject-fault self-test hook: for the duration, [xi_12, xi_1]
    gains a sign in ``contact._raw_brackets``, the one bracket stage of every
    check-algebra verdict but the object-level root system.  The fault is
    bilinear, and ``contact_bracket`` stays true."""
    orig = contact._raw_brackets
    # the basis elements of these generators are the bare monomials
    x = contact._basis_generators(0).index((0, mask_of((1, 2))))
    y = contact._basis_generators(-1).index((0, mask_of((1,))))

    def corrupted(d1, d2):
        re, im = orig(d1, d2)
        if (d1, d2) == (0, -1):
            re, im = re.copy(), im.copy()
            re[x, y], im[x, y] = -re[x, y], -im[x, y]
        return re, im

    contact._raw_brackets = corrupted
    try:
        yield
    finally:
        contact._raw_brackets = orig


def cmd_check_algebra(ns: argparse.Namespace) -> tuple[list[dict], bool]:
    if ns.max_degree < -2:
        raise UsageError(f"--max-degree {ns.max_degree} is below -2, the lowest degree")
    jacobi_degree = ns.max_degree
    closure_degree = max(6, ns.max_degree)
    config = {
        "max-degree": ns.max_degree,
        "closure-degree": closure_degree,
        "inject-fault": "yes" if ns.inject_fault else "no",
        "format": ns.format,
    }
    records = [header_record("check-algebra", config)]

    hook = _bracket_fault() if ns.inject_fault else contextlib.nullcontext()
    with hook:
        jc = check_jacobi_closure(jacobi_degree=jacobi_degree, closure_degree=closure_degree)
        theta = check_L1_L2_L3(closure_degree)
        roots = check_root_system()

    records += [
        _check("jacobi", jc["jacobi_ok"],
               [" | ".join(t) for t in jc["jacobi_named"]] or jc["jacobi_failures"],
               degree=jacobi_degree, triples_checked=jc["triples_checked"]),
        _check("closure", jc["closure_ok"], jc["closure_failures"],
               degree=closure_degree, pairs_closed=jc["pairs_closed"]),
        _check("skew", jc["skew_ok"]),
        _check("grading", jc["grading_ok"]),
        _check("t-grading", jc["grading_ok"], degree=closure_degree),
        _check("theta-onto", theta["theta_ok"], theta["failures"]),
        _check("root-system", roots["ok"], roots["failures"]),
    ]
    ok = all(r["ok"] for r in records if r["record"] == "check")
    records.append(summary_record(ok))
    return records, ok


# ---------------------------------------------------------------------------
# verify-bound
# ---------------------------------------------------------------------------

def cmd_verify_bound(ns: argparse.Namespace) -> tuple[list[dict], bool]:
    header, _, report = _run_scan(ns, verify_bound)
    records = [header]
    for c_text in report["t_scan"]:
        degrees = sorted(report["per_c"][c_text]["degrees"].items())
        # a screened block leaves out the flags of the vectors it never had
        records.extend({"record": "kernel", "t_scalar": c_text, "degree": d, "shape_ok": True,
                        "constraints_ok": True, "audit_ok": True, **info}
                       for d, info in degrees)
        records.append(_scan_record(c_text, {
            str(d): info["kernel_dim"] for d, info in degrees if info["kernel_dim"]}))
    records.extend(_counterexample(ce) for ce in report["counterexamples"])
    records.append(summary_record(report["ok"]))
    return records, report["ok"]


# ---------------------------------------------------------------------------
# find-singular
# ---------------------------------------------------------------------------

def cmd_find_singular(ns: argparse.Namespace) -> tuple[list[dict], bool]:
    header, scan, per_t = _run_scan(ns, singular_vectors)
    records = [header]
    failed = []  # assembled kernel vectors that fail the re-check
    for c, vectors in zip(scan, per_t):
        c_text = scalar_to_text(c)
        failed.extend(_counterexample({**v, "t_scalar": c_text})
                      for v in vectors if not v["conditions_ok"])
        recs = [_vector_record(c_text, v) for v in vectors if v["conditions_ok"]]
        records.extend(recs)
        records.append(_scan_record(c_text, Counter(str(r["degree"]) for r in recs)))
    records.extend(failed)
    records.append(summary_record(not failed))
    return records, not failed


# ---------------------------------------------------------------------------
# reproduce-proof
# ---------------------------------------------------------------------------

def cmd_reproduce_proof(ns: argparse.Namespace) -> tuple[list[dict], bool]:
    config = {
        "with-s0": "yes" if ns.with_s0 else "no",
        "verbose": "yes" if ns.verbose else "no",
        "format": ns.format,
        "s0-note": "extraction steps do not involve highest-weight rows",
    }
    records = [header_record("reproduce-proof", config)]
    report = reproduce_proof_steps(verbose=ns.verbose)
    detail = report.get("detail", {})
    for name, ok in report["steps"].items():
        rec = {"record": "step", "name": name, "ok": bool(ok)}
        if ns.verbose and name in detail:
            rec["note"] = detail[name]
        records.append(rec)
    records.append(summary_record(report["ok"]))
    return records, report["ok"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, module: bool, scan: bool,
                s0_default: bool | None) -> None:
    if module:
        sub.add_argument(
            "--module",
            default="trivial",
            help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or module-file path",
        )
    if scan:
        sub.add_argument(
            "--t-scan",
            default=DEFAULTS["t-scan"],
            help="comma-separated exact scalars and/or a..b integer ranges "
                 "(use --t-scan=-10..10 for values starting with a minus)",
        )
        sub.add_argument("--kmax", type=int, default=DEFAULTS["kmax"],
                         help="largest Theta-power in the ansatz")
    if s0_default is not None:
        sub.add_argument(
            "--with-s0",
            action=argparse.BooleanOptionalAction,
            default=s0_default,
            help="include the highest-weight rows in the linear system",
        )
    sub.add_argument("--format", choices=("text", "json-lines"), default="text")
    sub.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e16verma",
        description="exact singular-vector toolkit for the E(1,6) Verma modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", help="bracket/grading/root-system suites")
    p.add_argument("--max-degree", type=int, default=DEFAULTS["max-degree"],
                   help="largest degree entering the super-Jacobi suite")
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test hook: corrupt one bracket and expect failure")
    _add_common(p, module=False, scan=False, s0_default=None)
    p.set_defaults(func=cmd_check_algebra)

    p = sub.add_parser("verify-bound", help="kernel scan against the degree bound")
    _add_common(p, module=True, scan=True, s0_default=False)
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("find-singular", help="list explicit singular vectors")
    _add_common(p, module=True, scan=True, s0_default=True)
    p.set_defaults(func=cmd_find_singular)

    p = sub.add_parser("reproduce-proof", help="re-derive the proof extractions")
    p.add_argument("--verbose", action="store_true",
                   help="per-equation notes in the report")
    _add_common(p, module=False, scan=False, s0_default=False)
    p.set_defaults(func=cmd_reproduce_proof)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.out:
            _check_writable(ns.out)
        records, ok = ns.func(ns)
        return emit(records, ns, ok)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
