"""The coefficient-functional ledger against the literal per-vector sums it
replaced (kept here as the reference), and a fault in one of its sign
tables caught by the reconstruction identity and by the audit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e16verma import verma
from e16verma.exactnum import Q, QI, ZERO
from e16verma.gmodule import builtin
from e16verma.grassmann import (
    ALL_MASKS,
    MASKS_BY_SIZE,
    N_INDICES,
    derive_mask,
    hodge_modified,
    mask_of,
    merge_sign,
    normalize,
    triangle_sign,
    word_of,
)
from e16verma.singular import (
    assemble_degree_block,
    audit_technical_identities,
    exact_block_kernel,
    kernel_vector_to_verma,
)
from e16verma.verma import (
    FORMAL,
    UnsupportedDegreeError,
    VermaVector,
    coefficient_functionals,
    flat_scale,
    lambda_action_T,
    reconstruct_from_functionals,
)


# ---------------------------------------------------------------------------
# reference: the literal sums, re-derived for every vector
# ---------------------------------------------------------------------------

def _reference_functionals_for_mask(l_mask, m, p):
    """The four families a, b, B, C of xi_L at Theta-level p, literal sums."""
    module = m.module
    l = l_mask.bit_count()
    minus_l = -1 if l & 1 else 1
    out = {"a": {}, "b": {}, "B": {}, "C": {}}

    def put(family, mask, fvec, c):
        if not c or not fvec:
            return
        tgt = out[family].setdefault(mask, {})
        for cc, v in fvec.items():
            sv = tgt.get(cc, ZERO) + v * Q(c)
            if sv:
                tgt[cc] = sv
            else:
                tgt.pop(cc, None)
        if not tgt:
            out[family].pop(mask)

    for i_mask in ALL_MASKS:
        v = m.data.get((p, i_mask))
        if not v:
            continue
        size_i = i_mask.bit_count()
        g_sign = triangle_sign(l) * (-1 if (l * size_i) & 1 else 1)
        disjoint = not l_mask & i_mask
        union = l_mask | i_mask

        # a_p: (l-2)(xi_L * eta_I) (x) v
        if disjoint and l != 2:
            put("a", union, v, (l - 2) * merge_sign(l_mask, i_mask) * g_sign)

        # b_p: -(-1)^l sum_i (d_i xi_L * d_i eta_I) (x) v
        for i in word_of(l_mask & i_mask):
            s1, lm = derive_mask(i, l_mask)
            s2, im = derive_mask(i, i_mask)
            if lm & im:
                continue
            put("b", lm | im, v, -minus_l * s1 * s2 * merge_sign(lm, im) * g_sign)
        #      - sum_{r<s} (d_r d_s xi_L * eta_I) (x) xi_s xi_r . v
        l_word = word_of(l_mask)
        for ai in range(len(l_word)):
            for bi in range(ai + 1, len(l_word)):
                rr, ss = l_word[ai], l_word[bi]
                s_s, l1 = derive_mask(ss, l_mask)
                s_r, l2 = derive_mask(rr, l1)
                if l2 & i_mask:
                    continue
                w = module.act_xi_pair(ss, rr, v)
                put("b", l2 | i_mask, w, -s_s * s_r * merge_sign(l2, i_mask) * g_sign)

        # B_p: (xi_L * eta_I) (x) t.v
        if disjoint:
            put("B", union, module.act_t(v), merge_sign(l_mask, i_mask) * g_sign)
        #      -(-1)^l sum_i d_i(xi_{L i} * eta_I) (x) v
        for i in range(1, N_INDICES + 1):
            bit = 1 << (i - 1)
            if l_mask & bit or i_mask & bit or (l_mask & i_mask):
                continue
            append_sign = merge_sign(l_mask, bit)
            star_sign = merge_sign(l_mask | bit, i_mask)
            d_sign, om = derive_mask(i, l_mask | bit | i_mask)
            put("B", om, v, -minus_l * append_sign * star_sign * d_sign * g_sign)
        #      +(-1)^l sum_{i != j} (d_i xi_{L j} * eta_I) (x) xi_j xi_i . v
        for j in range(1, N_INDICES + 1):
            bit_j = 1 << (j - 1)
            if l_mask & bit_j:
                continue
            append_sign = merge_sign(l_mask, bit_j)
            lj = l_mask | bit_j
            for i in word_of(l_mask):
                s_i, mj = derive_mask(i, lj)
                if mj & i_mask:
                    continue
                w = module.act_xi_pair(j, i, v)
                put("B", mj | i_mask, w,
                    minus_l * append_sign * s_i * merge_sign(mj, i_mask) * g_sign)

        # C_p: -sum_{i<j} (xi_{L i j} * eta_I) (x) xi_j xi_i . v
        for i in range(1, N_INDICES + 1):
            bit_i = 1 << (i - 1)
            if l_mask & bit_i:
                continue
            for j in range(i + 1, N_INDICES + 1):
                bit_j = 1 << (j - 1)
                if l_mask & bit_j:
                    continue
                lij = l_mask | bit_i | bit_j
                if lij & i_mask:
                    continue
                append_sign = merge_sign(l_mask, bit_i | bit_j)
                w = module.act_xi_pair(j, i, v)
                put("C", lij | i_mask, w,
                    -append_sign * merge_sign(lij, i_mask) * g_sign)
    return out


def _reference_coefficient_functionals(L, m):
    if m.theta_degree() > 4:
        raise UnsupportedDegreeError(
            "the coefficient-functional view covers Theta-degree <= 4 only"
        )
    word = tuple(L)
    sign, sword = normalize(word)
    if sign == 0:
        raise ValueError(f"repeated index in L: {word}")
    l_mask = mask_of(sword)
    dual_sign, dual_mask = hodge_modified(l_mask)
    out = {}
    for p in range(5):
        fams = _reference_functionals_for_mask(l_mask, m, p)
        for fam, val in fams.items():
            out[(fam, p)] = flat_scale(val, Q(sign))
        dfams = _reference_functionals_for_mask(dual_mask, m, p)
        for fam, val in dfams.items():
            out[(fam + "d", p)] = flat_scale(val, Q(sign * dual_sign))
    return out


# ---------------------------------------------------------------------------
# the tabulated ledger equals the reference
# ---------------------------------------------------------------------------

# every L with |L| <= 3, in canonical order and reversed (a sign for |L| >= 2)
_WORDS = tuple(
    w for size in range(4) for mask in MASKS_BY_SIZE[size]
    for w in dict.fromkeys((word_of(mask), word_of(mask)[::-1]))
)

_MODULES = {
    "vector": builtin("vector", Q(7, 3)),
    "adjoint": builtin("adjoint", QI(-1, 2)),
    "formal": FORMAL,
}

_scalars = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3))
_monomials = st.tuples(st.integers(0, 4), st.sampled_from(ALL_MASKS))


@st.composite
def _vectors(draw, name):
    module = _MODULES[name]
    data = {}
    for k, mask in draw(st.lists(_monomials, min_size=1, max_size=5)):
        fv = data.setdefault((k, mask), {})
        for _ in range(draw(st.integers(1, 3))):
            if module is FORMAL:
                coord = ("v", draw(st.integers(0, 4)), draw(st.sampled_from(ALL_MASKS)))
            else:
                coord = draw(st.integers(0, module.dim - 1))
            fv[coord] = fv.get(coord, ZERO) + draw(_scalars)
    return VermaVector(module, data)


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_tabulated_functionals_equal_literal_sums(name):
    @settings(max_examples=40, deadline=None)
    @given(_vectors(name))
    def check(m):
        for L in _WORDS:
            got = coefficient_functionals(L, m)
            want = _reference_coefficient_functionals(L, m)
            assert list(got) == list(want), L
            for key in want:
                assert got[key] == want[key], (L, key)

    check()


def test_tabulated_functionals_reject_what_the_reference_rejects():
    m = VermaVector.unit(_MODULES["vector"], 5, 0, 0)
    for ledger in (coefficient_functionals, _reference_coefficient_functionals):
        with pytest.raises(UnsupportedDegreeError):
            ledger((1,), m)
        with pytest.raises(ValueError):
            ledger((2, 2), VermaVector.unit(_MODULES["vector"], 0, 0, 0))


# ---------------------------------------------------------------------------
# fault: one flipped coefficient in one table
# ---------------------------------------------------------------------------

XI1 = mask_of((1,))
ETA_23456 = mask_of((2, 3, 4, 5, 6))


def _flip_one_table_coefficient(monkeypatch):
    """Flip the first B-family coefficient (the t-term) of the table of xi_1
    on eta_{23456}; every other table stays as derived."""
    real = verma._functional_terms
    table = real(XI1, ETA_23456)
    n = next(n for n, term in enumerate(table) if term[0] == "B")
    fam, om, op, c = table[n]
    assert op == verma.OP_T
    bad = table[:n] + ((fam, om, op, -c),) + table[n + 1:]

    def flipped(l_mask, i_mask):
        return bad if (l_mask, i_mask) == (XI1, ETA_23456) else real(l_mask, i_mask)

    monkeypatch.setattr(verma, "_functional_terms", flipped)


def test_flipped_table_coefficient_breaks_reconstruction(monkeypatch):
    vec = _MODULES["vector"]
    m = VermaVector(vec, {(0, ETA_23456): {0: Q(1)}, (1, ETA_23456): {2: QI(1, 1)},
                          (0, mask_of((1, 2))): {3: Q(2)}})
    for L in ((1,), (2,)):
        assert reconstruct_from_functionals(
            coefficient_functionals(L, m), vec) == lambda_action_T(L, m)
    _flip_one_table_coefficient(monkeypatch)
    assert reconstruct_from_functionals(
        coefficient_functionals((1,), m), vec) != lambda_action_T((1,), m)
    # a word whose tables are untouched still reconstructs
    assert reconstruct_from_functionals(
        coefficient_functionals((2,), m), vec) == lambda_action_T((2,), m)


def test_flipped_table_coefficient_fails_the_audit(monkeypatch):
    vec = builtin("vector", Q(5))
    block = assemble_degree_block(vec, 1, 1)
    ((basis, residual_ok),) = exact_block_kernel(block, Q(5))
    assert residual_ok
    vv = kernel_vector_to_verma(basis, vec)
    assert (0, ETA_23456) in vv.data
    assert audit_technical_identities(vv)["ok"]
    _flip_one_table_coefficient(monkeypatch)
    rep = audit_technical_identities(vv)
    assert not rep["ok"]
    assert ("i", 1, 0) in rep["failures"]  # B0 + b1 for L = (1)
