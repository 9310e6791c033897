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
    # check_L1_L2_L3 reads the cells of b_-2 = 1, whose images span as Theta's
    assert THETA == _basis_elements_at_degree(-2)[0].scale(Q(-1, 2))
    report = check_L1_L2_L3(4)
    assert report["ok"], report["failures"]


def test_theta_rank_check_catches_a_repeated_image(monkeypatch):
    # [b_-2, b1] := [b_-2, b0] on the degree-2 basis in the raw brackets: the
    # 16 images span only 15 dimensions of g_0, which an eliminator must see
    re0, im0 = (v[0, 0] for v in contact._raw_brackets(-2, 2))
    _patch_raw(monkeypatch, -2, 0, 2, 1, lambda re, im: (re0, im0))
    report = check_L1_L2_L3(4)
    assert not report["theta_ok"]
    assert report["failures"] == [("theta_rank", 2, 15, 16)]


def test_theta_check_lists_an_image_outside_e16(monkeypatch):
    # [b_-2, b0] := xi_1234 on the degree-4 basis: a degree-2 monomial with
    # no generator coefficient, so not in E(1,6).  The image adds no row,
    # and the other 15 span 15 of g_2's 16 dimensions
    _patch_raw(monkeypatch, -2, 0, 4, 0,
               lambda re, im: (np.eye(64, dtype=np.int64)[mask_of((1, 2, 3, 4))], 0 * im))
    report = check_L1_L2_L3(4)
    assert not report["theta_ok"] and not report["ok"]
    assert report["failures"] == [("theta_image_outside", 4), ("theta_rank", 4, 15, 16)]


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

def _sparse(re, im):
    """A dense (re, im) table as cells (idx, re, im) of its nonzero entries."""
    idx = np.argwhere((re != 0) | (im != 0))
    return idx, re[tuple(idx.T)], im[tuple(idx.T)]


def _dense(cells, shape):
    """Cells (idx, re, im) as a dense (re, im) table of the given shape
    (reference)."""
    idx, *values = cells
    dense = tuple(np.zeros(shape, dtype=v.dtype) for v in values)
    for d, v in zip(dense, values):
        d[tuple(idx.T)] = v
    return dense


def _einsum_compose(left, right, order):
    """Dense four-einsum contraction of two (re, im) tables (reference)."""
    lre, lim = left
    rre, rim = right
    lmax = max(int(np.abs(lre).max(initial=0)), int(np.abs(lim).max(initial=0)))
    rmax = max(int(np.abs(rre).max(initial=0)), int(np.abs(rim).max(initial=0)))
    contracted = max(lre.shape[-1], 1)
    if lmax * rmax * contracted >= 2**62:
        lre, lim = lre.astype(object), lim.astype(object)
        rre, rim = rre.astype(object), rim.astype(object)
    re = np.einsum(order, lre, rre) - np.einsum(order, lim, rim)
    im = np.einsum(order, lre, rim) + np.einsum(order, lim, rre)
    return re, im


def _join_compose(left, right, order):
    """left . right of two (re, im) tables by _joined_sum, for einsum
    ``order`` with the left's last axis contracted: one term of sign 1,
    reshaped to the output axes."""
    inputs, output = order.split("->")
    lsub, rsub = inputs.split(",")
    e_axis = rsub.index(lsub[2])
    kept = lsub[:2] + rsub.replace(lsub[2], "")
    size = dict(zip(lsub + rsub, left[0].shape + right[0].shape))
    shape = tuple(size[ch] for ch in output)
    re, im = _joined_sum(
        [(_grouped_entries(_sparse(*left), left[0].shape[2], 2),
          _grouped_entries(_sparse(*right), right[0].shape[e_axis], e_axis),
          tuple(output.index(ch) for ch in kept), 1)], shape)
    return re.reshape(shape), im.reshape(shape)


@pytest.mark.parametrize("scale", [1, 2**29])
def test_joined_sum_matches_einsum_reference(scale):
    rng = np.random.default_rng(6)

    def table(shape):
        return tuple(rng.integers(-40, 40, shape) * (rng.random(shape) < 0.3) * scale
                     for _ in range(2))

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
        got = _join_compose(left, right, order)
        want = _einsum_compose(left, right, order)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype, order
            assert np.array_equal(g, w), order
    # the large scale drives the 16^3 case onto exact Python integers
    assert (got[0].dtype == object) == (scale > 1)


# ---------------------------------------------------------------------------
# structure tables: integer monomial tables against object-level brackets
# ---------------------------------------------------------------------------

def _built_tables(monkeypatch):
    """The _StructureTables objects that check_jacobi_closure builds."""
    built = []
    tables_cls = contact._StructureTables
    monkeypatch.setattr(contact, "_StructureTables",
                        lambda pairs: built.append(tables_cls(pairs)) or built[-1])
    return built


def _patch_raw(monkeypatch, d1, x, d2, y, value):
    """The raw-bracket stage returns value(re, im) on the cell of the ordered
    basis pair (element x of degree d1, element y of degree d2), the true
    cells elsewhere.  A cell is [b_x, b_y] as Gaussian integers over the 64
    xi-masks at degree d1 + d2."""
    orig = contact._raw_brackets

    def patched(a, b):
        re, im = orig(a, b)
        if (a, b) == (d1, d2):
            re, im = re.copy(), im.copy()
            re[x, y], im[x, y] = value(re[x, y], im[x, y])
        return re, im

    monkeypatch.setattr(contact, "_raw_brackets", patched)


def _outside_e16(re, im):
    """t^4 xi_1: degree 7, but not in E(1,6)."""
    return np.eye(64, dtype=np.int64)[mask_of((1,))], 0 * im


@pytest.mark.parametrize("degrees, fault", [((4, 6), None), ((6, 6), None),
                                            ((4, 6), "outside")])
def test_cells_equal_object_level_brackets(monkeypatch, degrees, fault):
    # every cell of every tabled degree pair equals contact_bracket followed
    # by e16_membership, and the same pairs fail membership
    built = _built_tables(monkeypatch)
    if fault:
        _patch_raw(monkeypatch, 3, 6, 4, 1, _outside_e16)
    check_jacobi_closure(*degrees)
    (tables,) = built
    failures = []
    for (d1, d2), (idx, re, im) in tables.cells.items():
        got = {}
        for (x, y, e), a, b in zip(idx.tolist(), re, im):
            got.setdefault((x, y), {})[e] = QI(int(a), int(b))
        want = {}
        for x, bx in enumerate(_basis_elements_at_degree(d1)):
            for y, by in enumerate(_basis_elements_at_degree(d2)):
                br = C(4, (1,)) if fault and (d1, x, d2, y) == (3, 6, 4, 1) else (
                    contact_bracket(bx, by))
                res = e16_membership(br, d1 + d2) if d1 + d2 >= -2 else None
                if br and (res is None or not res.ok or set(res.coords) - {d1 + d2}):
                    failures.append((d1, d2, x, y))
                elif br:
                    want[(x, y)] = res.coords[d1 + d2]
        assert got == want, (d1, d2)
    assert tables.failures == failures == ([(3, 4, 6, 1)] if fault else [])


def test_jacobi_closure_brackets_each_read_pair_once(monkeypatch):
    # the table build brackets through the raw-bracket stage alone, once per
    # tabled degree pair, and never object-level
    calls, raw = [], []
    orig, orig_raw = contact.contact_bracket, contact._raw_brackets
    monkeypatch.setattr(contact, "contact_bracket",
                        lambda f, g: calls.append(1) or orig(f, g))
    monkeypatch.setattr(contact, "_raw_brackets",
                        lambda d1, d2: raw.append((d1, d2)) or orig_raw(d1, d2))
    jc = check_jacobi_closure(4, 6)
    assert jc["ok"]
    assert not calls
    # all ordered degree pairs in -2..8 but the 16 in 5..8 x 5..8, which no
    # check reads
    assert len(raw) == len(set(raw)) == 11**2 - 16 == 105
    assert set(raw) == {p for p in product(range(-2, 9), repeat=2) if min(p) < 5}


@pytest.mark.parametrize("scale", [2**51, 2**56])
def test_structure_tables_switch_to_python_integers_past_the_bound(monkeypatch, scale):
    # mask signs scaled by `scale` scale every bracket: a Lie superalgebra
    # still (closure, skew and Jacobi hold), with [t, b] = scale deg(b) b.
    # Its products pass 2**62, which int64 would wrap: at 2**51 in the
    # membership residual, at 2**56 in the raw brackets too
    built = _built_tables(monkeypatch)
    clean = check_jacobi_closure(1, 2)
    signs, orig_raw = contact._mask_signs(), contact._raw_brackets
    raw_dtypes = set()

    def raw(d1, d2):
        out = orig_raw(d1, d2)
        raw_dtypes.add(out[0].dtype)
        return out

    monkeypatch.setattr(contact, "_mask_signs", lambda: scale * signs)
    monkeypatch.setattr(contact, "_raw_brackets", raw)
    assert check_jacobi_closure(1, 2) == dict(clean, grading_ok=False, ok=False)
    assert (np.dtype(object) in raw_dtypes) == (scale == 2**56)
    clean_tables, tables = built
    assert any(re.dtype == object for _, re, _ in tables.cells.values())
    assert tables.cells.keys() == clean_tables.cells.keys()
    for pair, (idx, re, im) in tables.cells.items():
        clean_idx, clean_re, clean_im = clean_tables.cells[pair]
        assert np.array_equal(idx, clean_idx), pair
        assert np.array_equal(re, scale * clean_re.astype(object)), pair
        assert np.array_equal(im, scale * clean_im.astype(object)), pair


# ---------------------------------------------------------------------------
# check_jacobi_closure: every verdict fails
# ---------------------------------------------------------------------------

def test_bracket_outside_e16_fails_skew_and_jacobi(monkeypatch):
    # this degree-3 x degree-4 pair brackets to 0; t^4 xi_1 has degree 7 but
    # is not in E(1,6), so its table cell cannot hold it.  Degree 7 is past
    # the closure range, so skew and Jacobi must fail on the cell themselves
    b3, b4 = _basis_elements_at_degree(3)[6], _basis_elements_at_degree(4)[1]
    assert not contact_bracket(b3, b4)
    _patch_raw(monkeypatch, 3, 6, 4, 1, _outside_e16)
    jc = check_jacobi_closure(4, 6)
    assert not jc["skew_ok"] and not jc["jacobi_ok"] and not jc["ok"]
    assert jc["closure_ok"] and jc["grading_ok"]


def test_negated_bracket_fails_skew(monkeypatch):
    b1, b2 = _basis_elements_at_degree(1)[0], _basis_elements_at_degree(2)[4]
    assert contact_bracket(b1, b2)
    _patch_raw(monkeypatch, 1, 0, 2, 4, lambda re, im: (-re, -im))
    jc = check_jacobi_closure(1, 2)
    assert not jc["skew_ok"] and not jc["ok"]
    assert jc["closure_ok"] and jc["grading_ok"]


def test_wrong_grading_eigenvalue_fails_grading(monkeypatch):
    # [t, b] = 2 b at degree 2 becomes 3 b for one basis element (2 b has
    # even Gaussian-integer entries, so 3/2 of it is exact), (2 + 2i) b,
    # whose real part is still right, or 0, which leaves out a coordinate
    assert _basis_elements_at_degree(0)[0] == GRADING_T
    for value in (lambda re, im: (re * 3 // 2, im * 3 // 2),
                  lambda re, im: (re - im, im + re),
                  lambda re, im: (0 * re, 0 * im)):
        with monkeypatch.context() as patch:
            _patch_raw(patch, 0, 0, 2, 5, value)
            jc = check_jacobi_closure(1, 2)
        assert not jc["grading_ok"] and not jc["ok"]
        assert jc["closure_ok"]


def _dense_jacobi_failures(tables, jacobi_degree):
    """check_jacobi_closure's Jacobi verdict recomputed by dense einsum
    contractions of the same cells (reference for the sparse join), and the
    text of the first three basis triples (x, y, z) whose Jacobi sum is
    nonzero, in degree-triple order and then in C order."""

    def table(d1, d2):
        shape = tuple(map(contact._dim, (d1, d2, d1 + d2)))
        if min(d1, d2) >= -2:
            return _dense(tables.cells[(d1, d2)], shape)
        # brackets into degree < -2 vanish: an empty table
        return np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)

    failures, triples = [], []
    for d1, d2, d3 in product(range(-2, jacobi_degree + 1), repeat=3):
        sgn = -1 if (d1 & 1) and (d2 & 1) else 1
        terms = [
            (_einsum_compose(table(d2, d3), table(d1, d2 + d3), "yze,xef->xyzf"), 1),
            (_einsum_compose(table(d1, d2), table(d1 + d2, d3), "xye,ezf->xyzf"), -1),
            (_einsum_compose(table(d1, d3), table(d2, d1 + d3), "xze,yef->xyzf"), -sgn),
        ]
        # a term below the grading floor is an empty array of another shape
        terms = [(t, s) for t, s in terms if t[0].size]
        re = sum(s * t_re for (t_re, _), s in terms)
        im = sum(s * t_im for (_, t_im), s in terms)
        nz = np.flatnonzero((re != 0) | (im != 0))
        reads = {(d2, d3), (d1, d2 + d3), (d1, d2), (d1 + d2, d3), (d1, d3),
                 (d2, d1 + d3)}
        if nz.size or reads & tables.failed_pairs:
            failures.append(((d1, d2, d3), nz[:5].tolist()))
        if nz.size:
            nonzero = ((re != 0) | (im != 0)).any(axis=3)
            triples += [((d1, d2, d3), xyz) for xyz in np.argwhere(nonzero)]
    named = [tuple(repr(_basis_elements_at_degree(d)[k]) for d, k in zip(degrees, xyz))
             for degrees, xyz in triples[:3]]
    return failures, named


@pytest.mark.parametrize("fault", ["cli-hook", "doubled-cell", "two-term-cell"])
def test_jacobi_failures_match_dense_reference(monkeypatch, fault):
    # the sparse join names the same failing triples and the same first
    # flat indices as dense einsum contractions of the very same tables
    built = _built_tables(monkeypatch)
    if fault == "cli-hook":
        raw = contact._raw_brackets
        with cli._bracket_fault():
            # the hook corrupts the raw-bracket stage only
            assert contact.contact_bracket is contact_bracket
            jc = check_jacobi_closure(4, 6)
            assert not built[0].failures
        assert contact._raw_brackets is raw
    else:
        # [xi_12, xi_2] = xi_1 doubled, or xi_1 + xi_3 + xi_5: still in
        # E(1,6), so the table holds the wrong cell and no membership failure
        # flags it.  The second gives the first failing basis triple two
        # nonzero coordinates, so it is named once, not twice
        xi35 = np.eye(64, dtype=np.int64)[[mask_of((3,)), mask_of((5,))]].sum(axis=0)
        _patch_raw(monkeypatch, 0, 1, -1, 1, {
            "doubled-cell": lambda re, im: (2 * re, 2 * im),
            "two-term-cell": lambda re, im: (re + xi35, im)}[fault])
        jc = check_jacobi_closure(4, 6)
        assert not built[0].failures
    assert len(built) == 1
    assert not jc["jacobi_ok"]
    failures, named = _dense_jacobi_failures(built[0], 4)
    assert jc["jacobi_failures"] == failures
    # the names are the first three distinct failing basis triples
    assert len(named) == 3
    assert jc["jacobi_named"] == named
