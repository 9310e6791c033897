"""Unit tests for the contact superalgebra and E(1,6)."""

import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from e16verma import cli, contact, gmodule
from e16verma.contact import (
    ContactElement,
    GRADING_T,
    THETA,
    check_L1_L2_L3,
    check_jacobi_closure,
    check_root_system,
    contact_bracket,
    e16_basis,
    e16_membership,
    e16_project,
    monomial_degree,
    op_A,
    root_datum,
    _basis_elements_at_degree,
    _basis_generators,
    _grouped_entries,
    _joined_sum,
)
from e16verma.exactnum import IUNIT, Q, QI
from e16verma.grassmann import MASKS_BY_SIZE, mask_of

C = ContactElement.monomial


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_grading_element_eigenvalues():
    for k, word in [(0, (1,)), (1, (1, 2)), (2, ()), (0, (1, 2, 3)), (3, (2, 4, 6))]:
        b = C(k, word)
        d = 2 * k + len(word) - 2
        assert contact_bracket(GRADING_T, b) == b.scale(Q(d))
        assert monomial_degree(k, mask_of(word)) == d


def test_bracket_frozen_examples():
    # [xi_i, xi_j] = -delta_ij
    assert contact_bracket(C(0, (1,)), C(0, (1,))) == C(0, ()).scale(Q(-1))
    assert not contact_bracket(C(0, (1,)), C(0, (2,)))
    # so(6)-type products
    assert contact_bracket(C(0, (1, 2)), C(0, (1,))) == C(0, (2,))
    assert contact_bracket(C(0, (1, 2)), C(0, (1, 3))) == C(0, (2, 3))
    # a mixed example computed by hand from the monomial formula:
    # [t xi_1, xi_12]: first part ((2-1)*0 - 1*(2-2)) = 0; second part
    # (-1)^1 t (d_1 xi_1)(d_1 xi_12) = -t * 1 * xi_2
    assert contact_bracket(C(1, (1,)), C(0, (1, 2))) == C(1, (2,)).scale(Q(-1))


def test_bracket_bilinear_and_parity_degree():
    a = C(1, (1, 3)) + C(0, (2,)).scale(QI(1, 2))
    b = C(0, (1, 2, 3)).scale(Q(3, 7)) - C(2, ())
    c = C(0, (5,))
    lhs = contact_bracket(a + b.scale(Q(5)), c)
    rhs = contact_bracket(a, c) + contact_bracket(b, c).scale(Q(5))
    assert lhs == rhs


def test_bracket_super_skew_on_monomials():
    monos = [
        C(0, ()), C(1, ()), C(0, (1,)), C(0, (3,)), C(1, (2,)),
        C(0, (1, 2)), C(0, (2, 5)), C(1, (1, 4)),
        C(0, (1, 2, 3)), C(0, (2, 4, 6)), C(1, (1, 5, 6)),
    ]
    for x in monos:
        px = next(iter(x.data))[1].bit_count() & 1
        for y in monos:
            py = next(iter(y.data))[1].bit_count() & 1
            sgn = -1 if px and py else 1
            assert contact_bracket(x, y) == contact_bracket(y, x).scale(Q(-sgn))


# ---------------------------------------------------------------------------
# the A operator and membership
# ---------------------------------------------------------------------------

def test_op_A_frozen_examples():
    assert not op_A(C(0, ()))            # three t-derivatives of t^0 xi_*
    assert not op_A(C(0, (1,)))          # two t-derivatives of t^0 (...)
    assert op_A(C(0, (1, 2, 3))) == C(0, (4, 5, 6))
    assert op_A(C(1, (1, 2))) == C(0, (3, 4, 5, 6)).scale(Q(-1))
    # integration side: |L| = 4 integrates once
    assert op_A(C(0, (1, 2, 3, 4))) == C(1, (5, 6))
    assert op_A(C(1, (1, 2, 3, 4))) == C(2, (5, 6)).scale(Q(1, 2))


def test_projection_examples():
    assert e16_project(C(0, (1,))) == C(0, (1,))
    assert e16_project(C(0, (1, 2, 3))) == C(0, (1, 2, 3)) - C(0, (4, 5, 6)).scale(IUNIT)


def test_membership_frozen_examples():
    member = C(0, (1, 2, 3, 4)) - C(1, (5, 6)).scale(IUNIT)
    res = e16_membership(member, 8)
    assert res.ok and not res.residual

    not_member = C(0, (1, 2, 3)) + C(0, (4, 5, 6))
    res = e16_membership(not_member, 8)
    assert not res.ok and res.residual

    half_i = C(0, (1, 2, 3, 4)) + C(1, (5, 6)).scale(QI(0, Fraction(1, 2)))
    res = e16_membership(half_i, 8)
    assert not res.ok

    # a lone generator monomial: its coordinate is 1, and the residual is
    # what its basis element adds, i A(t^4 xi_1)
    res = e16_membership(C(4, (1,)), 8)
    assert not res.ok and res.residual == op_A(C(4, (1,))).scale(IUNIT)


def test_membership_reconstructs_coordinates():
    basis = e16_basis(4)
    combo = ContactElement()
    weights = [Q(j + 1, 3) if j % 2 else QI(1, -j) for j in range(len(basis))]
    for b, w in zip(basis, weights):
        combo = combo + b.scale(w)
    res = e16_membership(combo, 4)
    assert res.ok
    assert set(res.coords) == set(range(-2, 5))
    pos = 0
    for d in range(-2, 5):
        dim = len(_basis_generators(d))
        want = {j: w for j, w in enumerate(weights[pos:pos + dim]) if w}
        assert res.coords[d] == want
        pos += dim
    assert pos == len(basis)


def test_degree_solver_rejects_a_dependent_basis(monkeypatch):
    # with every 3-set kept, complementary 3-sets give proportional basis
    # elements, and each one carries the other's generator monomial
    gens = contact._basis_generators
    without_1 = tuple((1, mask) for mask in MASKS_BY_SIZE[3] if not mask & 1)
    monkeypatch.setattr(contact, "_basis_generators",
                        lambda d: gens(d) + without_1 if d == 3 else gens(d))
    contact._basis_elements_at_degree.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not unitriangular"):
            contact._basis_elements_at_degree(3)
    finally:
        contact._basis_elements_at_degree.cache_clear()


def test_complement_three_sets_are_proportional():
    # (Id - iA) of complementary 3-sets span the same line
    x = e16_project(C(2, (1, 2, 3)))
    y = e16_project(C(2, (4, 5, 6)))
    # find scalar c with y = c x on the first common monomial
    key = next(iter(x.data))
    c = y.data[key] / x.data[key]
    assert y == x.scale(c)


def test_basis_graded_dimensions():
    dims = [len(_basis_generators(d)) for d in range(-2, 9)]
    assert dims == [1, 6, 16, 16, 16, 16, 16, 16, 16, 16, 16]
    assert len(e16_basis(6)) == 1 + 6 + 7 * 16
    # homogeneity of each basis element
    for b in e16_basis(4):
        assert len(b.degrees()) == 1


def test_basis_brackets_stay_inside():
    basis = e16_basis(2)
    for x in basis:
        for y in basis:
            br = contact_bracket(x, y)
            if br:
                assert e16_membership(br, 8).ok


def test_theta_is_lowering_element():
    report = check_L1_L2_L3(4)
    assert report["ok"], report["failures"]


def test_theta_rank_check_catches_a_repeated_image(monkeypatch):
    # [Theta, b1] := [Theta, b0] on the degree-2 basis: the 16 images span
    # only 15 dimensions of g_0, which an eliminator must see
    b0, b1 = _basis_elements_at_degree(2)[:2]
    orig = contact.contact_bracket

    def repeated(x, y):
        return orig(x, b0 if x == THETA and y == b1 else y)

    monkeypatch.setattr(contact, "contact_bracket", repeated)
    report = check_L1_L2_L3(4)
    assert not report["theta_ok"]
    assert report["failures"] == [("theta_rank", 2, 15, 16)]


# ---------------------------------------------------------------------------
# root datum
# ---------------------------------------------------------------------------

def test_cartan_and_root_vector_shapes():
    rd = root_datum()
    assert len(rd.cartan) == 3
    assert len(rd.root_vectors) == 12
    assert len(rd.positive_roots) == 6
    # the simple roots of so(6)
    for r in ((1, -1, 0), (0, 1, -1), (0, 1, 1)):
        assert r in rd.positive_roots


def test_single_root_eigen_relation():
    rd = root_datum()
    vec = rd.root_vectors[(1, -1, 0)]
    assert contact_bracket(rd.cartan[0], vec) == vec
    assert contact_bracket(rd.cartan[1], vec) == vec.scale(Q(-1))
    assert contact_bracket(rd.cartan[2], vec) == ContactElement()


def test_root_system_report():
    report = check_root_system()
    assert report["ok"], report["failures"]


def test_so6_dictionary_fault_fails_root_system(monkeypatch, capsys):
    # xi_12 acts on the vector module as -E_(12) - E_(21): symmetric, so
    # [xi_12, xi_13] = xi_23 no longer holds for the matrices
    builtin = gmodule.builtin

    def flipped(name, t_scalar):
        spec = builtin(name, t_scalar)
        action = {**spec.xi_action, (1, 2): {**spec.xi_action[(1, 2)], (1, 0): Q(-1)}}
        return gmodule.ModuleSpec(spec.dim, spec.t_scalar, action, name=spec.name)

    monkeypatch.setattr(gmodule, "builtin", flipped)
    assert check_root_system() == {
        "ok": False, "failures": [("so6_dictionary", "[xi[12], xi[13]]")]}
    rc = cli.main(["check-algebra", "--max-degree", "-2", "--format", "json-lines"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 1
    assert [r for r in records if r["record"] == "check" and not r["ok"]] == [
        {"record": "check", "name": "root-system", "ok": False, "counts": {},
         "failures": ["('so6_dictionary', '[xi[12], xi[13]]')"],
         "schema": "e16verma/1"}]


# ---------------------------------------------------------------------------
# Jacobi sparse join
# ---------------------------------------------------------------------------

def _cells(re, im, den):
    """The cell table {(x, y): {e: (re + i im) / den}} of a dense table."""
    cells = {}
    for x, y, e in zip(*np.nonzero((re != 0) | (im != 0))):
        value = QI(Fraction(int(re[x, y, e]), den), Fraction(int(im[x, y, e]), den))
        cells.setdefault((int(x), int(y)), {})[int(e)] = value
    return cells


def _dense(cells, shape):
    """A cell table as dense (re, im, den) int64 arrays over the lcm of its
    denominators (reference)."""
    den = math.lcm(1, *(v.triple[2] for cell in cells.values() for v in cell.values()))
    re, im = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    for (x, y), cell in cells.items():
        for e, v in cell.items():
            a, b, d = v.triple
            re[x, y, e], im[x, y, e] = a * (den // d), b * (den // d)
    return re, im, den


def _einsum_compose(left, right, order):
    """Dense four-einsum contraction of two (re, im, den) tables (reference)."""
    lre, lim, lden = left
    rre, rim, rden = right
    lmax = max(int(np.abs(lre).max(initial=0)), int(np.abs(lim).max(initial=0)))
    rmax = max(int(np.abs(rre).max(initial=0)), int(np.abs(rim).max(initial=0)))
    contracted = max(lre.shape[-1], 1)
    if lmax * rmax * contracted >= 2**62:
        lre, lim = lre.astype(object), lim.astype(object)
        rre, rim = rre.astype(object), rim.astype(object)
    re = np.einsum(order, lre, rre) - np.einsum(order, lim, rim)
    im = np.einsum(order, lre, rim) + np.einsum(order, lim, rre)
    return re, im, lden * rden


def _join_compose(left, right, order, lshape, rshape):
    """left . right of two cell tables of shapes lshape and rshape by
    _joined_sum, for einsum ``order`` with the left's last axis contracted:
    one term of sign 1, reshaped to the output axes."""
    inputs, output = order.split("->")
    lsub, rsub = inputs.split(",")
    e_axis = rsub.index(lsub[2])
    kept = lsub[:2] + rsub.replace(lsub[2], "")
    size = dict(zip(lsub + rsub, lshape + rshape))
    shape = tuple(size[ch] for ch in output)
    re, im, den = _joined_sum(
        [(_grouped_entries(left, lshape[2], 2),
          _grouped_entries(right, rshape[e_axis], e_axis),
          tuple(output.index(ch) for ch in kept), 1)], shape)
    return re.reshape(shape), im.reshape(shape), den


@pytest.mark.parametrize("scale", [1, 2**29])
def test_joined_sum_matches_einsum_reference(scale):
    rng = np.random.default_rng(6)

    def table(shape):
        re, im = (rng.integers(-40, 40, shape) * (rng.random(shape) < 0.3) * scale
                  for _ in range(2))
        return _cells(re, im, int(rng.integers(1, 9)))

    cases = [
        ("yze,xef->xyzf", (3, 4, 5), (6, 5, 7)),
        ("xye,ezf->xyzf", (3, 4, 5), (5, 6, 7)),
        ("xze,yef->xyzf", (3, 4, 5), (6, 5, 7)),
        ("xye,ezf->xyzf", (3, 4, 0), (0, 6, 7)),
        ("xze,yef->xyzf", (0, 4, 5), (6, 5, 7)),
        ("yze,xef->xyzf", (16, 16, 16), (16, 16, 16)),
    ]
    for order, lshape, rshape in cases:
        left, right = table(lshape), table(rshape)
        got = _join_compose(left, right, order, lshape, rshape)
        want = _einsum_compose(_dense(left, lshape), _dense(right, rshape), order)
        assert got[2] == want[2]
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape and g.dtype == w.dtype, order
            assert np.array_equal(g, w), order
    # the large scale drives the 16^3 case onto exact Python integers
    assert (got[0].dtype == object) == (scale > 1)


# ---------------------------------------------------------------------------
# check_jacobi_closure: one bracket per tabled pair, and every verdict fails
# ---------------------------------------------------------------------------

def _patch_bracket(monkeypatch, d1, x, d2, y, value):
    """contact_bracket returns value(true bracket) on the ordered basis pair
    (element x of degree d1, element y of degree d2), the true bracket
    elsewhere."""
    bx, by = _basis_elements_at_degree(d1)[x], _basis_elements_at_degree(d2)[y]
    orig = contact.contact_bracket

    def patched(f, g):
        out = orig(f, g)
        return value(out) if f == bx and g == by else out

    monkeypatch.setattr(contact, "contact_bracket", patched)


def test_jacobi_closure_brackets_each_read_pair_once(monkeypatch):
    calls = []
    orig = contact.contact_bracket
    monkeypatch.setattr(contact, "contact_bracket",
                        lambda f, g: calls.append(1) or orig(f, g))
    jc = check_jacobi_closure(4, 6)
    assert jc["ok"]
    # all ordered basis pairs of degrees -2..8 (151 elements) but the 16
    # degree pairs in 5..8 x 5..8, which no check reads
    assert len(calls) == 151**2 - 16 * 16 * 16 == 18705


def test_bracket_outside_e16_fails_skew_and_jacobi(monkeypatch):
    # this degree-3 x degree-4 pair brackets to 0; t^4 xi_1 has degree 7 but
    # is not in E(1,6), so its table cell cannot hold it.  Degree 7 is past
    # the closure range, so skew and Jacobi must fail on the cell themselves
    b3, b4 = _basis_elements_at_degree(3)[6], _basis_elements_at_degree(4)[1]
    assert not contact_bracket(b3, b4)
    _patch_bracket(monkeypatch, 3, 6, 4, 1, lambda _: C(4, (1,)))
    jc = check_jacobi_closure(4, 6)
    assert not jc["skew_ok"] and not jc["jacobi_ok"] and not jc["ok"]
    assert jc["closure_ok"] and jc["grading_ok"]


def test_negated_bracket_fails_skew(monkeypatch):
    b1, b2 = _basis_elements_at_degree(1)[0], _basis_elements_at_degree(2)[4]
    assert contact_bracket(b1, b2)
    _patch_bracket(monkeypatch, 1, 0, 2, 4, lambda out: -out)
    jc = check_jacobi_closure(1, 2)
    assert not jc["skew_ok"] and not jc["ok"]
    assert jc["closure_ok"] and jc["grading_ok"]


def test_wrong_grading_eigenvalue_fails_grading(monkeypatch):
    # [t, b] = 2 b at degree 2 becomes 3 b for one basis element
    assert _basis_elements_at_degree(0)[0] == GRADING_T
    _patch_bracket(monkeypatch, 0, 0, 2, 5, lambda out: out.scale(Q(3, 2)))
    jc = check_jacobi_closure(1, 2)
    assert not jc["grading_ok"] and not jc["ok"]
    assert jc["closure_ok"]


def _dense_jacobi_failures(tables, jacobi_degree):
    """check_jacobi_closure's Jacobi verdict recomputed by dense einsum
    contractions of the same cells (reference for the sparse join)."""

    def table(d1, d2):
        # brackets into degree < -2 vanish: an empty table
        cells = tables.cells[(d1, d2)] if min(d1, d2) >= -2 else {}
        return _dense(cells, tuple(map(contact._dim, (d1, d2, d1 + d2))))

    failures = []
    for d1, d2, d3 in product(range(-2, jacobi_degree + 1), repeat=3):
        sgn = -1 if (d1 & 1) and (d2 & 1) else 1
        terms = [
            (_einsum_compose(table(d2, d3), table(d1, d2 + d3), "yze,xef->xyzf"), 1),
            (_einsum_compose(table(d1, d2), table(d1 + d2, d3), "xye,ezf->xyzf"), -1),
            (_einsum_compose(table(d1, d3), table(d2, d1 + d3), "xze,yef->xyzf"), -sgn),
        ]
        lcm = math.lcm(*(den for (_, _, den), _ in terms))
        # a term below the grading floor is an empty array of another shape
        terms = [(t, s * (lcm // t[2])) for t, s in terms if t[0].size]
        re = sum(s * t_re for (t_re, _, _), s in terms)
        im = sum(s * t_im for (_, t_im, _), s in terms)
        nz = np.flatnonzero((re != 0) | (im != 0))
        reads = {(d2, d3), (d1, d2 + d3), (d1, d2), (d1 + d2, d3), (d1, d3),
                 (d2, d1 + d3)}
        if nz.size or reads & tables.failed_pairs:
            failures.append(((d1, d2, d3), nz[:5].tolist()))
    return failures


@pytest.mark.parametrize("fault", ["cli-hook", "doubled-cell"])
def test_jacobi_failures_match_dense_reference(monkeypatch, fault):
    # the sparse join names the same failing triples and the same first
    # flat indices as dense einsum contractions of the very same tables
    built = []
    tables_cls = contact._StructureTables
    monkeypatch.setattr(contact, "_StructureTables",
                        lambda pairs: built.append(tables_cls(pairs)) or built[-1])
    if fault == "cli-hook":
        with cli._bracket_fault():
            jc = check_jacobi_closure(4, 6)
            assert not built[0].failures
    else:
        # [xi_12, xi_2] = xi_1 doubled: still in E(1,6), so the table
        # holds the wrong cell and no membership failure flags it
        _patch_bracket(monkeypatch, 0, 1, -1, 1, lambda out: out.scale(Q(2)))
        jc = check_jacobi_closure(4, 6)
        assert not built[0].failures
    assert len(built) == 1
    assert not jc["jacobi_ok"]
    assert jc["jacobi_failures"] == _dense_jacobi_failures(built[0], 4)
