"""Induced-module action: eta rewriting, the lambda-action, the commutator
oracle, coefficient functionals, and mixed-basis extraction."""

import random
from math import comb
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from e16verma.exactnum import GaussianRational, ONE, Q, QI, ZERO
from e16verma.gmodule import ModuleSpec, builtin, module_from_text
from e16verma.grassmann import (
    ALL_MASKS,
    FULL_MASK,
    N_INDICES,
    derive_mask,
    eta_bar,
    mask_of,
    mono_product,
    normalize,
    word_of,
)
from e16verma.verma import (
    ActionMatrixSlice,
    ActionPolynomial,
    FORMAL,
    UnsupportedDegreeError,
    VermaVector,
    coefficient_functionals,
    commutator_suite,
    formal_state,
    ind_monomials,
    lambda_action_T,
    mdeg,
    mixed_cells,
    reconstruct_from_functionals,
    render_vermavector,
    t_inverse,
)

C = Q(7, 3)  # generic t-eigenvalue used throughout


def vec(module):
    return builtin("vector", C) if module == "vector" else builtin(module, C)


# ---------------------------------------------------------------------------
# eta rewriting
# ---------------------------------------------------------------------------

def eta_word_normalize(word: Iterable[int]) -> tuple[int, int, int]:
    """Normalize an eta word with repetitions: (sign, Theta-power, mask).

    Processes left to right; inserting eta_x past the elements currently
    greater than x contributes (-1) per swap, and meeting an existing eta_x
    turns the pair into a central Theta.
    """
    sign = 1
    theta = 0
    mask = 0
    for x in word:
        if not 1 <= x <= N_INDICES:
            raise ValueError(f"eta index out of range: {x}")
        bit = 1 << (x - 1)
        greater = mask & ~((bit << 1) - 1)
        if greater.bit_count() & 1:
            sign = -sign
        if mask & bit:
            mask &= ~bit
            theta += 1
        else:
            mask |= bit
    return sign, theta, mask


def test_eta_word_examples():
    assert eta_word_normalize((1, 1)) == (1, 1, 0)
    assert eta_word_normalize((2, 1)) == (-1, 0, mask_of((1, 2)))
    assert eta_word_normalize((1, 2, 1)) == (-1, 1, mask_of((2,)))
    assert eta_word_normalize(()) == (1, 0, 0)
    assert eta_word_normalize((3, 1, 2)) == (1, 0, mask_of((1, 2, 3)))


def _brute_reduce(word, rng):
    """Reduce an eta word by random adjacent rewrites: swap descents with a
    sign, collapse equal neighbours into a Theta."""
    sign, theta = 1, 0
    w = list(word)
    while True:
        sites = [
            n for n in range(len(w) - 1) if w[n] > w[n + 1] or w[n] == w[n + 1]
        ]
        if not sites:
            return sign, theta, mask_of(w)
        n = rng.choice(sites)
        if w[n] == w[n + 1]:
            del w[n : n + 2]
            theta += 1
        else:
            w[n], w[n + 1] = w[n + 1], w[n]
            sign = -sign


def test_eta_confluence_exhaustive():
    rng = random.Random(20260817)
    alphabet = (1, 2, 3)
    words = [()]
    for _ in range(4):
        words = [w + (x,) for w in words for x in alphabet] + words
    for w in set(words):
        expect = eta_word_normalize(w)
        for _ in range(5):
            assert _brute_reduce(w, rng) == expect, w


def test_eta_confluence_random_long():
    rng = random.Random(7)
    for _ in range(200):
        w = tuple(rng.randint(1, 6) for _ in range(rng.randint(5, 9)))
        expect = eta_word_normalize(w)
        for _ in range(3):
            assert _brute_reduce(w, rng) == expect, w


# ---------------------------------------------------------------------------
# the action: frozen examples
# ---------------------------------------------------------------------------

def test_action_trivial_module_lowering_one():
    m = builtin("trivial", C)
    x = VermaVector.unit(m, 0, 0, 0)  # eta_[] (x) v
    P = lambda_action_T((1,), x)
    expect0 = VermaVector(m, {(1, mask_of((1,))): {0: ONE}})  # Theta eta[1]
    expect1 = VermaVector(m, {(0, mask_of((1,))): {0: Q(5) - C}})
    assert P.coefficient(0) == expect0
    assert P.coefficient(1) == expect1
    assert P.lambda_degree() == 1


def test_action_trivial_module_raising_one():
    m = builtin("trivial", C)
    x = VermaVector.unit(m, 0, mask_of((1,)), 0)  # eta[1] (x) v
    P = lambda_action_T((1,), x)
    assert P.coefficient(0) == VermaVector.unit(m, 0, 0, 0)
    assert not P.coefficient(1)
    assert not P.coefficient(2)


def test_action_empty_word_general_identity():
    """Phi_[](lambda)(eta_I (x) v) = -2 Theta eta_I (x) v
    + lambda (eta_I (x) t.v - (6-|I|) eta_I (x) v)
    - lambda^2 sum_{i<j} (xi_ij * eta_I) (x) xi_ji . v, checked on the
    6-dimensional module."""
    m = vec("vector")
    for i_mask in (0, mask_of((1, 3)), mask_of((2, 4, 5)), FULL_MASK):
        for coord in (0, 3):
            x = VermaVector.unit(m, 0, i_mask, coord)
            P = lambda_action_T((), x)
            v = {coord: ONE}
            size = i_mask.bit_count()

            assert P.coefficient(0) == VermaVector(
                m, {(1, i_mask): {coord: Q(-2)}}
            )

            lam1 = VermaVector(m, {(0, i_mask): m.act_t(v)}) + VermaVector(
                m, {(0, i_mask): {coord: Q(-(6 - size))}}
            )
            assert P.coefficient(1) == lam1

            lam2 = VermaVector(m)
            for i in range(1, 7):
                for j in range(i + 1, 7):
                    sgn, u = mono_product(mask_of((i, j)), i_mask)
                    if not sgn:
                        continue
                    w = m.act_xi_pair(j, i, v)
                    lam2 = lam2 + VermaVector(m, {(0, u): w}).scale(Q(-sgn))
            assert P.coefficient(2) == lam2


def test_action_word_sign_and_repeats():
    m = vec("vector")
    x = VermaVector.unit(m, 1, mask_of((3, 4)), 2)
    a = lambda_action_T((1, 2), x)
    b = lambda_action_T((2, 1), x)
    assert a == b.scale(Q(-1))
    with pytest.raises(ValueError):
        lambda_action_T((1, 1), x)


def test_action_theta_extension_binomial():
    """The action on Theta^k m0 is the k = 0 action times (lambda+Theta)^k."""
    from math import comb

    m = vec("vector")
    rng = random.Random(11)
    for _ in range(10):
        i_mask = rng.choice(ALL_MASKS)
        coord = rng.randrange(6)
        L = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
        k = rng.randint(1, 3)
        base = VermaVector.unit(m, 0, i_mask, coord)
        lifted = VermaVector.unit(m, k, i_mask, coord)
        P0 = lambda_action_T(L, base)
        expect: dict[int, VermaVector] = {}
        for j, vv in P0.coeffs.items():
            for r in range(k + 1):
                shifted = VermaVector(
                    m,
                    {
                        (kk + k - r, mask): dict(fv)
                        for (kk, mask), fv in vv.data.items()
                    },
                ).scale(Q(comb(k, r)))
                cur = expect.get(j + r)
                expect[j + r] = shifted if cur is None else cur + shifted
        P = lambda_action_T(L, lifted)
        assert P == ActionPolynomial(m, expect)


def test_action_degree_compatibility():
    """On a homogeneous input of m-degree d the lambda^j coefficient is
    homogeneous of m-degree d - (2j + |L| - 2)."""
    m = vec("vector")
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(0, 3)
        i_mask = rng.choice(ALL_MASKS)
        size = rng.randint(0, 3)
        L = tuple(sorted(rng.sample(range(1, 7), size)))
        d = mdeg(k, i_mask)
        x = VermaVector.unit(m, k, i_mask, rng.randrange(6))
        for j, vv in lambda_action_T(L, x).coeffs.items():
            assert vv.mdegrees() == {d - (2 * j + size - 2)}


def test_action_linearity():
    m = vec("vector")
    x = VermaVector.unit(m, 0, mask_of((2, 3)), 1)
    y = VermaVector.unit(m, 1, mask_of((5,)), 4)
    c = QI(2, -3)
    lhs = lambda_action_T((1, 4), x.scale(c) + y)
    rhs = lambda_action_T((1, 4), x).scale(c) + lambda_action_T((1, 4), y)
    assert lhs == rhs


def test_ind_monomials_counts():
    assert len(ind_monomials(4)) == 80
    assert len(ind_monomials(8)) == 208
    assert ind_monomials(0) == [(0, FULL_MASK)]
    for k, mask in ind_monomials(6):
        assert mdeg(k, mask) <= 6


# ---------------------------------------------------------------------------
# commutator oracle (object level)
# ---------------------------------------------------------------------------

def commutator_oracle(f: Iterable[int], g: Iterable[int], m: VermaVector) -> dict:
    """Check [Phi_f(lambda), Phi_g(mu)] m = Phi_{[f_lambda g]}(lambda+mu) m
    as an exact identity of (lambda, mu)-polynomials with values in Ind(F).

    The lambda-bracket of the monomials f = xi_F (|F| = r), g = xi_G:
        [f_lambda g] = (r-2) d(f g) + (-1)^r sum_i (d_i f)(d_i g)
                       + lambda (r+s-4) f g,
    and a t-derivative d acts on the lambda side as multiplication by
    -(lambda); after substituting lambda -> lambda + mu this gives the
    right-hand side assembled below.
    """
    f_word, g_word = tuple(f), tuple(g)
    sf, fw = normalize(f_word)
    sg, gw = normalize(g_word)
    if sf == 0 or sg == 0:
        raise ValueError("repeated indices in a monomial word")
    f_mask, g_mask = mask_of(fw), mask_of(gw)
    r, s = f_mask.bit_count(), g_mask.bit_count()
    module = m.module

    # LHS cells {(a, b): VermaVector}
    lhs: dict[tuple[int, int], VermaVector] = {}

    def acc(store, key, vv):
        if not vv:
            return
        cur = store.get(key)
        cur = vv if cur is None else cur + vv
        if cur:
            store[key] = cur
        else:
            store.pop(key, None)

    inner_g = lambda_action_T(g_word, m)
    for b, vv in inner_g.coeffs.items():
        outer = lambda_action_T(f_word, vv)
        for a, vv2 in outer.coeffs.items():
            acc(lhs, (a, b), vv2)
    sgn = Q(-1 if (r & 1) and (s & 1) else 1)
    inner_f = lambda_action_T(f_word, m)
    for a, vv in inner_f.coeffs.items():
        outer = lambda_action_T(g_word, vv)
        for b, vv2 in outer.coeffs.items():
            acc(lhs, (a, b), vv2.scale(-sgn))

    # RHS cells
    rhs: dict[tuple[int, int], VermaVector] = {}

    def add_shifted(poly: ActionPolynomial, weight: GaussianRational,
                    dl: int, dm: int) -> None:
        """weight * lambda^dl mu^dm * poly(lambda+mu), spread binomially."""
        for n, vv in poly.coeffs.items():
            for a in range(n + 1):
                c = weight * Q(comb(n, a))
                acc(rhs, (a + dl, n - a + dm), vv.scale(c))

    s_fg, k_mask = mono_product(f_mask, g_mask)
    if s_fg:
        poly = lambda_action_T(word_of(k_mask), m).scale(Q(s_fg))
        if r != 2:
            # (r-2) d(fg): the derivative contributes -(lambda+mu)
            add_shifted(poly, Q(-(r - 2)), 1, 0)
            add_shifted(poly, Q(-(r - 2)), 0, 1)
        if r + s != 4:
            add_shifted(poly, Q(r + s - 4), 1, 0)
    for i in word_of(f_mask & g_mask):
        s1, fm = derive_mask(i, f_mask)
        s2, gm = derive_mask(i, g_mask)
        s3, km = mono_product(fm, gm)
        if not s3:
            continue
        c = (-1 if r & 1 else 1) * s1 * s2 * s3
        poly = lambda_action_T(word_of(km), m)
        add_shifted(poly, Q(c), 0, 0)

    # overall word-normalization signs
    total_sign = Q(sf * sg)
    rhs = {key: vv.scale(total_sign) for key, vv in rhs.items()}

    diff_cells = []
    for key in sorted(set(lhs) | set(rhs)):
        a = lhs.get(key, VermaVector(module))
        bb = rhs.get(key, VermaVector(module))
        if a != bb:
            diff_cells.append(key)
    return {
        "ok": not diff_cells,
        "cells_compared": len(set(lhs) | set(rhs)),
        "mismatched_cells": diff_cells,
    }


def test_commutator_oracle_pairs():
    m = vec("vector")
    states = [
        VermaVector.unit(m, 0, FULL_MASK, 0),
        VermaVector.unit(m, 1, mask_of((1, 2, 4, 6)), 3),
        VermaVector.unit(m, 2, FULL_MASK, 5)
        + VermaVector.unit(m, 0, mask_of((2, 3)), 1).scale(QI(1, 1)),
    ]
    pairs = [
        ((), ()),
        ((1,), (1,)),
        ((1,), (2,)),
        ((1, 2), (1,)),
        ((1, 2), (3, 4)),
        ((1, 2, 3), (3, 4, 5)),
        ((2, 3, 5), (2, 3, 5)),
    ]
    nonvacuous = 0
    for f, g in pairs:
        for x in states:
            rep = commutator_oracle(f, g, x)
            assert rep["ok"], (f, g, rep)
            nonvacuous += rep["cells_compared"]
    # for several pairs both sides vanish identically ([xi_12, xi_34] has a
    # zero bracket and the operators commute), but not for all of them
    assert nonvacuous > 0


def test_commutator_oracle_detects_wrong_module():
    """A representation with one flipped sign breaks the operator identity."""
    from e16verma.gmodule import ModuleSpec

    good = vec("vector")
    bad_action = {k: dict(v) for k, v in good.xi_action.items()}
    bad_action[(1, 2)] = {k: -v for k, v in bad_action[(1, 2)].items()}
    bad = ModuleSpec(dim=6, t_scalar=C, xi_action=bad_action, name="broken")
    x = VermaVector.unit(bad, 0, mask_of((3, 4, 5, 6)), 0)
    rep = commutator_oracle((1, 2), (2, 3), x)
    assert not rep["ok"]


def test_commutator_oracle_trivial_identity_pair():
    m = builtin("trivial", Q(4))
    x = VermaVector.unit(m, 1, mask_of((1, 2)), 0)
    rep = commutator_oracle((), (), x)
    assert rep["ok"]


# ---------------------------------------------------------------------------
# coefficient functionals
# ---------------------------------------------------------------------------

def _random_state(module, rng, n_max, n_terms=6):
    data = {}
    for _ in range(n_terms):
        k = rng.randint(0, n_max)
        mask = rng.choice(ALL_MASKS)
        coord = rng.randrange(module.dim)
        fv = data.setdefault((k, mask), {})
        fv[coord] = fv.get(coord, ZERO) + QI(rng.randint(-3, 3), rng.randint(-2, 2))
    return VermaVector(module, data)


def test_functionals_vanish_above_input_theta_degree():
    m = vec("vector")
    x = VermaVector.unit(m, 0, mask_of((1, 2)), 0)
    funcs = coefficient_functionals((3,), x)
    for (fam, p), val in funcs.items():
        if p >= 1:
            assert not val, (fam, p)


def test_functionals_reject_high_theta_degree():
    m = vec("vector")
    x = VermaVector.unit(m, 5, FULL_MASK, 0)
    with pytest.raises(UnsupportedDegreeError):
        coefficient_functionals((1,), x)


def test_functionals_trivial_module_no_c():
    m = builtin("trivial", C)
    rng = random.Random(3)
    x = _random_state(m, rng, 2)
    funcs = coefficient_functionals((1, 2, 3), x)
    for p in range(5):
        assert not funcs[("C", p)]
        assert not funcs[("Cd", p)]


@pytest.mark.parametrize("L", [(), (1,), (3,), (1, 2), (2, 5), (1, 2, 3), (2, 4, 6)])
def test_reconstruction_identity_random_states(L):
    m = vec("vector")
    rng = random.Random(hash(L) & 0xFFFF)
    for n_max in (0, 2, 4):
        x = _random_state(m, rng, n_max)
        funcs = coefficient_functionals(L, x)
        assert reconstruct_from_functionals(funcs, m) == lambda_action_T(L, x)


def test_reconstruction_identity_formal():
    x = formal_state(2, masks=[0, mask_of((1,)), mask_of((2, 3)), FULL_MASK])
    for L in ((), (2,), (1, 3), (4, 5, 6)):
        funcs = coefficient_functionals(L, x)
        assert reconstruct_from_functionals(funcs, FORMAL) == lambda_action_T(L, x)


def test_formal_module_single_layer():
    x = formal_state(1)
    P = lambda_action_T((1, 2), x)
    assert P
    with pytest.raises(ValueError):
        lambda_action_T((1,), P.coefficient(0))


# ---------------------------------------------------------------------------
# mixed coefficients
# ---------------------------------------------------------------------------

def test_mixed_coefficient_theta_example():
    m = vec("vector")
    w = {2: ONE}
    P = ActionPolynomial(m, {0: VermaVector(m, {(1, 0): w})})  # Theta (x) w
    assert mixed_cells(P).get((0, 1), {}) == {0: w}
    assert mixed_cells(P).get((1, 0), {}) == {0: {2: -ONE}}
    assert mixed_cells(P).get((0, 0), {}) == {}


def test_mixed_coefficient_lambda2_theta2_example():
    m = vec("vector")
    w = {0: ONE}
    P = ActionPolynomial(m, {2: VermaVector(m, {(2, 0): w})})
    assert mixed_cells(P).get((2, 2), {}) == {0: w}
    assert mixed_cells(P).get((3, 1), {}) == {0: {0: Q(-2)}}
    assert mixed_cells(P).get((4, 0), {}) == {0: w}
    assert mixed_cells(P).get((2, 0), {}) == {}


def test_mixed_cells_evaluation_consistency():
    m = vec("vector")
    rng = random.Random(99)
    x = _random_state(m, rng, 3)
    # the action of xi_14, and random lambda-powers over Theta-powers up to 4
    polys = [lambda_action_T((1, 4), x),
             ActionPolynomial(m, {j: _random_state(m, rng, 4) for j in range(4)})]
    points = [(Q(2), Q(5)), (QI(1, 1), Q(-3)), (Q(0), Q(1, 2)), (Q(-7, 3), QI(2, -5) * Q(1, 4))]
    for P in polys:
        cells = mixed_cells(P)
        for lam0, mu0 in points:
            theta0 = mu0 - lam0
            # direct: evaluate lambda, then substitute Theta numerically
            direct: dict[int, dict] = {}
            ev = P.evaluate_lambda(lam0)
            for (k, mask), fv in ev.data.items():
                acc = direct.setdefault(mask, {})
                scale = theta0 ** k if k else ONE
                for c, v in fv.items():
                    s = acc.get(c, ZERO) + v * scale
                    if s:
                        acc[c] = s
                    else:
                        acc.pop(c, None)
            direct = {mask: fv for mask, fv in direct.items() if fv}
            # via cells, at (lambda, mu = lambda + Theta)
            via: dict[int, dict] = {}
            for (a, s_), flat in cells.items():
                w = (lam0 ** a if a else ONE) * (mu0 ** s_ if s_ else ONE)
                for mask, fv in flat.items():
                    acc = via.setdefault(mask, {})
                    for c, v in fv.items():
                        t = acc.get(c, ZERO) + v * w
                        if t:
                            acc[c] = t
                        else:
                            acc.pop(c, None)
            via = {mask: fv for mask, fv in via.items() if fv}
            assert direct == via


# ---------------------------------------------------------------------------
# rendering / coordinate change
# ---------------------------------------------------------------------------

def _t_forward(vv):
    """T: Theta^k eta_I (x) v -> Theta^k bar(eta_I) (x) v."""
    out = VermaVector(vv.module)
    for (k, mask), fv in vv.data.items():
        sign, comp = eta_bar(mask)
        out = out + VermaVector(vv.module, {(k, comp): fv}).scale(Q(sign))
    return out


def test_t_inverse_round_trip():
    m = vec("vector")
    for mask in ALL_MASKS:
        x = VermaVector.unit(m, 2, mask, 1)
        assert _t_forward(t_inverse(x)) == x
        assert t_inverse(_t_forward(x)) == x


def test_render_strings():
    m = vec("vector")
    x = VermaVector(m, {(1, mask_of((1, 3))): {2: QI(0, 1)}})
    s = render_vermavector(x)
    assert "Theta" in s and "eta[13]" in s and "(i) e2" in s
    y = formal_state(0, masks=[mask_of((2,))])
    assert "v[2,0]" in render_vermavector(y)
    P = lambda_action_T((1,), y)
    assert "lambda" in repr(P) or not P.coeffs


# ---------------------------------------------------------------------------
# matrix slice vs object action
# ---------------------------------------------------------------------------

def test_matrix_slice_matches_object_action():
    m = vec("vector")
    sl = ActionMatrixSlice(m, max_mdeg=8)
    rng = random.Random(17)
    for _ in range(12):
        n_mono = rng.randrange(len(sl.monomials))
        k, i_mask = sl.monomials[n_mono]
        if mdeg(k, i_mask) > 4:
            continue
        coord = rng.randrange(6)
        col = sl.flat(n_mono, coord)
        size = rng.randint(0, 3)
        L_mask = mask_of(tuple(sorted(rng.sample(range(1, 7), size))))
        mats = sl.matrices(L_mask)
        P = lambda_action_T(word_of(L_mask), VermaVector.unit(m, k, i_mask, coord))
        for j, vv in P.coeffs.items():
            rows, cols, re, im = mats[j]
            sel = cols == col
            rebuilt = {}
            for flat_idx, x, y in zip(rows[sel].tolist(), re[sel].tolist(),
                                      im[sel].tolist()):
                kk, mm = sl.monomials[flat_idx // 6]
                rebuilt[(kk, mm, flat_idx % 6)] = QI(x, y) / Q(sl.den)
            expect = {
                (kk, mm, cc): v
                for (kk, mm), fv in vv.data.items()
                for cc, v in fv.items()
                for kk, mm in [(kk, mm)]
            }
            assert rebuilt == expect


@pytest.mark.parametrize("name", ["vector", "vector_scaled.json"])
def test_matrix_slice_stores_no_explicit_zero(name):
    # a cell's re can be nonzero while its im is 0, but a cell whose parts
    # both cancel is dropped, so the commutator suite joins no zero term; a
    # non-real t gives the t op both parts
    if name == "vector":
        module = builtin("vector", QI(1, 2))
    else:
        spec = module_from_text((Path(__file__).parent / "data" / name).read_text())
        module = ModuleSpec(spec.dim, C + QI(0, 1), spec.xi_action, name=spec.name)
    sl = ActionMatrixSlice(module, max_mdeg=4)
    cells = [c for l_mask in ALL_MASKS for c in sl.matrices(l_mask).values()]
    assert cells
    for _, _, re, im in cells:
        assert np.all((re != 0) | (im != 0))


def test_commutator_suite_small():
    m = vec("vector")
    rep = commutator_suite(m, max_input_mdeg=2, max_size=1)
    assert rep["ok"], rep["failures"]
    assert rep["pairs_checked"] == 49
