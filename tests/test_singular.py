"""Constraint assembly, kernels, the degree bound, and proof-step checks."""

import pickle

import pytest

from e16verma import singular
from e16verma._linalg import nullspace
from e16verma.exactnum import ONE, Q, QI, ZERO, scalar_to_text
from e16verma.gmodule import ModuleSpec, builtin
from e16verma.grassmann import FULL_MASK, MASKS_BY_SIZE, N_INDICES, mask_of, word_of
from e16verma.singular import (
    CONDITION_MASKS,
    SHAPE_SUPPORT,
    UnknownIndex,
    assemble_degree_block,
    audit_technical_identities,
    combined_action,
    conditions_hold,
    exact_block_kernel,
    kernel_vector_to_verma,
    reproduce_proof_steps,
    screen_block_zero_kernel,
    shape_compliant,
    singular_vectors,
    verify_bound,
    weight_of,
    _positive_root_pairs,
)
from e16verma.verma import VermaVector, coefficient_functionals, lambda_action_T, mdeg

C = Q(7, 3)


TOY_COLS = [UnknownIndex(0, 0, n) for n in range(4)]


def _toy_rows(rows):
    return [{TOY_COLS[i]: v for i, v in row.items()} for row in rows]


def _blocks(module, k_max):
    return [
        assemble_degree_block(module, k_max, degree)
        for degree in range(2 * k_max + N_INDICES + 1)
    ]


def test_kernel_zero_matrix_full_dim():
    basis = nullspace([], TOY_COLS)
    assert len(basis) == 4


def test_kernel_identity_trivial():
    assert nullspace(_toy_rows([{i: ONE} for i in range(4)]), TOY_COLS) == []


def test_kernel_rank_two_three_rows():
    # rows: x0 + 2 x1 + x3, x1 - x2, and their combination (rank 2)
    r1 = {0: ONE, 1: Q(2), 3: ONE}
    r2 = {1: ONE, 2: -ONE}
    r3 = {0: ONE, 1: Q(5), 2: Q(-3), 3: ONE}
    basis = nullspace(_toy_rows([r1, r2, r3]), TOY_COLS)
    assert len(basis) == 2
    u = {UnknownIndex(0, 0, n): v for n, v in
         {0: Q(-2), 1: ONE, 2: ONE}.items()}
    w = {UnknownIndex(0, 0, n): v for n, v in {0: -ONE, 3: ONE}.items()}
    assert basis == [u, w]


def test_trivial_kmax0_documented_row():
    triv = builtin("trivial", C)
    blocks = _blocks(triv, 0)
    assert sum(block.ncols for block in blocks) == 64
    target = UnknownIndex(0, 0, 0)
    block = blocks[mdeg(0, 0)]
    # the documented row: the eta_j coefficient of the L = (j) condition at
    # lambda^1 is +-(c - 5) v_{empty,0}
    hits = [
        (key, row)
        for key, row in block.exact_rows(C)
        if key[0] == "S2" and key[1] == 1 and key[3] == 1
        and key[4] == 0 and key[5] == key[2]
    ]
    assert len(hits) == 6
    for _, row in hits:
        assert [block.columns[cpos] for cpos in row] == [target]
        assert row[block.columns.index(target)] in (C - Q(5), Q(5) - C)


def test_every_row_nonzero_and_homogeneous():
    vec = builtin("vector", C)
    nrows = 0
    for block in _blocks(vec, 2):
        rows = block.exact_rows(C)
        assert len(rows) == block.nrows
        nrows += block.nrows
        for key, row in rows:
            assert row, f"empty row {key}"
            degs = {mdeg(block.columns[cpos].k, block.columns[cpos].mask)
                    for cpos in row}
            assert degs == {block.degree}, f"row {key} mixes m-degrees {degs}"
    assert nrows > 0


def test_assemble_deterministic():
    triv = builtin("trivial", C)
    for a, b in zip(_blocks(triv, 1), _blocks(triv, 1)):
        assert a.columns == b.columns
        assert a.codes.tolist() == b.codes.tolist()
        for got, want in zip(a.cells(), b.cells()):
            assert got.tolist() == want.tolist()
        assert a.exact_rows(C) == b.exact_rows(C)


def test_trivial_kernel_is_vacuum():
    triv = builtin("trivial", C)
    pairs = [pair for block in _blocks(triv, 0)
             for pair in exact_block_kernel(block, C)]
    assert all(residual_ok for _, residual_ok in pairs)
    basis = [vec for vec, _ in pairs]
    assert len(basis) == 1
    (vec,) = basis
    assert set(vec) == {UnknownIndex(0, FULL_MASK, 0)}
    vv = kernel_vector_to_verma(vec, triv)
    assert conditions_hold(vv)
    assert shape_compliant(vv) == (True, True)


def test_combined_action_matches_blockwise_rows():
    """The assembled rows must agree with the object-level combined
    polynomial on a unit unknown."""
    vec = builtin("vector", C)
    k, mask, coord = 1, mask_of((2, 5)), 3
    degree = mdeg(k, mask)
    block = assemble_degree_block(vec, 2, degree)
    u = UnknownIndex(k, mask, coord)
    upos = block.columns.index(u)
    vv = VermaVector.unit(vec, k, mask, coord)
    from e16verma.grassmann import word_of

    for key, row in block.exact_rows(vec.t_scalar):
        val = row.get(upos)
        if val is None:
            continue
        tag, l_size, l_mask, j, out_k, out_mask, out_coord = key
        if tag == "S0":
            continue
        P = combined_action(word_of(l_mask), vv)
        got = P.coefficient(j).data.get((out_k, out_mask), {}).get(out_coord, ZERO)
        assert got == val


def test_screen_agrees_with_exact_kernel():
    triv = builtin("trivial", C)
    for degree in range(0, 9):
        block = assemble_degree_block(triv, 2, degree)
        for c in (Q(0), Q(2), Q(5)):
            certified = screen_block_zero_kernel(block, c)
            dim = len(exact_block_kernel(block, c))
            if certified:
                assert dim == 0


def test_verify_bound_trivial():
    rep = verify_bound(builtin("trivial", Q(0)), k_max=3, t_scan=[Q(0), Q(2), Q(5)])
    assert rep["ok"]
    assert rep["counterexamples"] == []
    # the degree-0 vacuum is always in the kernel
    for c in ("0", "2", "5"):
        assert rep["per_c"][c]["degrees"][0]["kernel_dim"] == 1
    # c = 2 has the degree-3 resonance
    assert rep["per_c"]["2"]["degrees"][3]["kernel_dim"] == 10
    assert rep["per_c"]["0"]["degrees"][1]["kernel_dim"] == 6


def test_verify_bound_vector_known_kernels():
    rep = verify_bound(builtin("vector", Q(0)), k_max=3, t_scan=[Q(-1), Q(5)])
    assert rep["ok"]
    assert rep["per_c"]["-1"]["degrees"][1]["kernel_dim"] == 20
    assert rep["per_c"]["5"]["degrees"][1]["kernel_dim"] == 1
    for c in ("-1", "5"):
        assert rep["per_c"][c]["degrees"][0]["kernel_dim"] == 6


def test_verify_bound_lists_counterexamples_in_scan_order(monkeypatch):
    # the scan runs degree-outer; the report still lists t by t in scan
    # order, degrees ascending within each t
    monkeypatch.setattr(singular, "shape_compliant", lambda vv: (False, False))
    rep = verify_bound(builtin("vector", Q(0)), k_max=1, t_scan=[Q(5), Q(-1)])
    assert not rep["ok"]
    got = [(ce["t_scalar"], ce["degree"]) for ce in rep["counterexamples"]]
    want = [
        (t, d)
        for t in ("5", "-1")
        for d, info in sorted(rep["per_c"][t]["degrees"].items())
        for _ in range(info["kernel_dim"])
    ]
    assert got == want
    assert {t for t, _ in got} == {"5", "-1"}
    assert len({d for _, d in got}) > 1


def test_kernel_vectors_reverified_through_action():
    vec = builtin("vector", Q(5))
    block = assemble_degree_block(vec, 3, 1)
    ((basis, residual_ok),) = exact_block_kernel(block, Q(5))
    assert residual_ok
    vv = kernel_vector_to_verma(basis, vec)
    # direct S1-S3 re-check through the lambda-action
    assert conditions_hold(vv)
    # and the technical identities
    assert audit_technical_identities(vv)["ok"]


def test_shape_table_vs_itemized_constraints():
    triv = builtin("trivial", C)
    # vacuum: allowed
    ok = VermaVector.unit(triv, 0, FULL_MASK, 0)
    assert shape_compliant(ok) == (True, True)
    # Theta^2 eta_I with |I| = 2 sits in the degree-8 working shape but
    # violates the itemized constraint v_{I,2} = 0 for |I| <= 4
    top = VermaVector.unit(triv, 2, mask_of((1, 2)), 0)
    assert shape_compliant(top) == (True, False)
    # Theta^3 anything is out
    bad = VermaVector.unit(triv, 3, FULL_MASK, 0)
    assert shape_compliant(bad) == (False, False)
    # mixed degrees are not a single shape
    mixed = ok + VermaVector.unit(triv, 0, mask_of((2, 3, 4, 5, 6)), 0)
    assert shape_compliant(mixed)[0] is False


def test_shape_support_table_consistency():
    for d, pairs in SHAPE_SUPPORT.items():
        for (k, size) in pairs:
            assert 2 * k + 6 - size == d
            assert any(m.bit_count() == size for m in MASKS_BY_SIZE[size])


def test_singular_vectors_trivial_c0_weights():
    triv = builtin("trivial", Q(0))
    vs = singular_vectors(triv, k_max=2, t_scan=[Q(0)], include_S0=True)[0]
    assert vs, "expected at least the vacuum"
    degrees = sorted(v["degree"] for v in vs)
    assert degrees[0] == 0
    for v in vs:
        assert v["weight"] is not None, "S0 kernel vectors must be weight vectors"
        assert conditions_hold(v["vector"], include_S0=True)
    vac = [v for v in vs if v["degree"] == 0]
    assert len(vac) == 1
    assert vac[0]["weight"] == (ZERO, ZERO, ZERO)
    # the raw output round-trips through pickle unchanged
    assert pickle.loads(pickle.dumps(vs)) == vs


def test_s0_shrinks_kernel():
    triv = builtin("trivial", Q(0))
    with_s0 = singular_vectors(triv, k_max=1, t_scan=[Q(0)], include_S0=True)[0]
    block = assemble_degree_block(triv, 1, 1, include_S0=False)
    free = exact_block_kernel(block, Q(0))
    s0_deg1 = [v for v in with_s0 if v["degree"] == 1]
    assert len(free) == 6
    assert len(s0_deg1) < len(free)


def test_weight_of_eigen_combination():
    triv = builtin("trivial", Q(0))
    v1 = VermaVector.unit(triv, 0, mask_of((1, 3, 4, 5, 6)), 0)
    v2 = VermaVector.unit(triv, 0, mask_of((2, 3, 4, 5, 6)), 0)
    # H_1 rotates the pair {1, 2}: single eta-monomials are not weight
    # vectors, the i-twisted combination is (weight (1, 0, 0))
    assert weight_of(v1) is None
    assert weight_of(v2 + v1.scale(QI(0, 1))) == (ONE, ZERO, ZERO)


def test_reproduce_proof_steps_all_green():
    rep = reproduce_proof_steps(verbose=True)
    assert rep["ok"], rep
    expected = {
        "alfa",
        "beta",
        "gamma",
        "delta",
        "s2-blocks-threeway",
        "tecres",
        "tecres2",
        "tecres3",
        "row-vj1",
        "row-vj2",
        "row-vjl1",
        "l3-rows",
        "force-v-empty",
        "b2-linear-independence",
    }
    assert set(rep["steps"]) == expected
    assert all(rep["steps"].values())


def test_audit_fails_on_non_solution():
    vec = builtin("vector", C)
    junk = VermaVector.unit(vec, 1, mask_of((1, 2)), 0)
    assert not conditions_hold(junk)
    rep = audit_technical_identities(junk)
    assert not rep["ok"]


def test_combined_action_needs_small_L():
    vec = builtin("vector", C)
    vv = VermaVector.unit(vec, 0, 0, 0)
    with pytest.raises(ValueError):
        combined_action((1, 2, 3, 4), vv)
    with pytest.raises(ValueError):
        combined_action((1, 1), vv)


# ---------------------------------------------------------------------------
# the row-less block: checked at two t of a scan, valid at every t
# ---------------------------------------------------------------------------

MIXED_SCAN = [Q(-1), Q(0), Q(2), Q(5), C, QI(1, 1)]


def _records_at(report, t):
    return (report["per_c"][t],
            [ce for ce in report["counterexamples"] if ce["t_scalar"] == t])


def _per_t_reports(module, t_scan, **kwargs):
    return {scalar_to_text(c): verify_bound(module, t_scan=[c], **kwargs) for c in t_scan}


def test_duplicate_t_is_scanned_once(monkeypatch):
    monkeypatch.setattr(singular, "shape_compliant", lambda vv: (False, False))
    triv = builtin("trivial", Q(0))
    rep = verify_bound(triv, k_max=0, t_scan=[Q(2), Q(2)])
    once = verify_bound(triv, k_max=0, t_scan=[Q(2)])
    assert rep["t_scan"] == ["2"]
    assert len(rep["counterexamples"]) == 11
    assert rep == once
    assert singular._as_scan([Q(2), C, QI(2, 0), Q(14, 6), Q(0)]) == [Q(2), C, Q(0)]


def test_rowless_block_is_checked_at_two_t(monkeypatch):
    calls = {"conditions_hold": 0, "audit_technical_identities": 0}
    for name in calls:
        real = getattr(singular, name)

        def counted(vv, *args, _real=real, _name=name, **kwargs):
            calls[_name] += min(vv.mdegrees()) == 0
            return _real(vv, *args, **kwargs)

        monkeypatch.setattr(singular, name, counted)
    rep = verify_bound(builtin("vector", Q(0)), k_max=1,
                       t_scan=[Q(n) for n in range(-3, 4)])
    assert rep["ok"]
    assert all(rep["per_c"][t]["degrees"][0]["kernel_dim"] == 6 for t in rep["t_scan"])
    # six degree-0 vectors at the first two t, none at the other five
    assert calls == {"conditions_hold": 12, "audit_technical_identities": 12}


@pytest.mark.parametrize("name", ["trivial", "vector"])
def test_scan_records_equal_one_t_scans(name):
    module = builtin(name, Q(0))
    rep = verify_bound(module, k_max=2, t_scan=MIXED_SCAN)
    for t, single in _per_t_reports(module, MIXED_SCAN, k_max=2).items():
        assert _records_at(rep, t) == _records_at(single, t)
    found = singular_vectors(module, k_max=2, t_scan=MIXED_SCAN)
    for c, vectors in zip(MIXED_SCAN, found):
        (single,) = singular_vectors(module, k_max=2, t_scan=[c])
        assert [{**v, "vector": None} for v in vectors] == \
            [{**v, "vector": None} for v in single]


@pytest.mark.parametrize("check", ["conditions_hold", "audit_technical_identities"])
@pytest.mark.parametrize("bad_pos", [0, 1])
def test_rowless_fault_at_one_of_two_t_gives_per_t_records(monkeypatch, check, bad_pos):
    """A check that fails only at the first, or only at the second, t of the
    scan sends the row-less block back to the per-t path: the records are
    those of one-t scans under the same fault."""
    t_scan = [Q(5), Q(-1), Q(2)]
    bad = t_scan[bad_pos]
    real = getattr(singular, check)
    if check == "conditions_hold":
        def faulty(vv, include_S0=False):
            return vv.module.t_scalar != bad and real(vv, include_S0=include_S0)
    else:
        def faulty(vv):
            if vv.module.t_scalar == bad:
                return {"ok": False, "failures": [("fault",)]}
            return real(vv)
    monkeypatch.setattr(singular, check, faulty)
    vec = builtin("vector", Q(0))
    rep = verify_bound(vec, k_max=1, t_scan=t_scan)
    singles = _per_t_reports(vec, t_scan, k_max=1)
    assert rep["counterexamples"] == [
        ce for single in singles.values() for ce in single["counterexamples"]]
    for t, single in singles.items():
        assert _records_at(rep, t) == _records_at(single, t)
    failed = {(ce["t_scalar"], ce["degree"]) for ce in rep["counterexamples"]}
    assert (scalar_to_text(bad), 0) in failed
    assert {t for t, _ in failed} == {scalar_to_text(bad)}


def _flat_values(module, vec, c):
    """Every quantity that the re-check and the audit read off the row-less
    kernel vector vec at t = c, as {key: value}."""
    vv = kernel_vector_to_verma(vec, ModuleSpec(module.dim, c, module.xi_action))
    out = {}
    for l_mask in CONDITION_MASKS:
        for j, coeff in combined_action(word_of(l_mask), vv).coeffs.items():
            for key, fv in coeff.data.items():
                out.update({("cond", l_mask, j, key, x): v for x, v in fv.items()})
    for idx, combo in _positive_root_pairs():
        for a, b, _ in combo:
            part = lambda_action_T((min(a, b), max(a, b)), vv).coefficient(0)
            for key, fv in part.data.items():
                out.update({("S0", idx, a, b, key, x): v for x, v in fv.items()})
    words = [()] + [(j,) for j in range(1, N_INDICES + 1)] + [
        word_of(m) for m in MASKS_BY_SIZE[3]]
    for word in words:
        for fam, flat in coefficient_functionals(word, vv).items():
            for mask, fv in flat.items():
                out.update({("func", word, fam, mask, x): v for x, v in fv.items()})
    return out


@pytest.mark.parametrize("name", ["trivial", "vector", "adjoint"])
def test_rowless_checks_are_of_degree_one_in_t(name):
    """The two-point proof of ``_scan_kernels`` rests on every re-checked
    quantity of a row-less kernel vector being X + c*Y in the t-eigenvalue
    c: f(c) = f(0) + c*(f(1) - f(0)) exactly, at non-integer and Gaussian c
    too."""
    module = builtin(name, Q(0))
    block = assemble_degree_block(module, 2, 0)
    assert block.nrows == 0
    kernel = exact_block_kernel(block, Q(0))
    assert len(kernel) == module.dim
    for vec, residual_ok in kernel:
        assert residual_ok
        f0, f1 = (_flat_values(module, vec, c) for c in (ZERO, ONE))
        for c in (C, QI(1, 1)):
            fc = _flat_values(module, vec, c)
            for key in f0.keys() | f1.keys() | fc.keys():
                x, y = f0.get(key, ZERO), f1.get(key, ZERO)
                assert fc.get(key, ZERO) == x + c * (y - x), key
