"""Grassmann sign-table unit tests: normalization, products, derivatives,
Hodge duals, star products.  ``normalize`` is checked against a brute-force
permutation parity and is the oracle for the merge signs; the product,
derivative and dual identities are checked on ``mono_product`` and
``derive_mask`` signs.  Sign oracles were derived by hand and frozen.
"""

from __future__ import annotations

import itertools

import pytest

from e16verma.grassmann import (
    ALL_MASKS,
    FULL_MASK,
    N_INDICES,
    derive_mask,
    eta_bar,
    hodge_modified,
    mask_of,
    merge_sign,
    mono_product,
    monomial_to_text,
    normalize,
    triangle_sign,
    word_of,
)


def brute_sign(word):
    """Parity of the sorting permutation, computed independently."""
    w = list(word)
    if len(set(w)) != len(w):
        return 0
    sign = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                sign = -sign
    return sign


def test_normalize_examples():
    assert normalize((1, 3, 2)) == (-1, (1, 2, 3))
    assert normalize((2, 1)) == (-1, (1, 2))
    assert normalize(()) == (1, ())
    assert normalize((4,)) == (1, (4,))
    sign, _ = normalize((1, 2, 1))
    assert sign == 0


def test_normalize_against_brute_force():
    for length in range(5):
        for word in itertools.product(range(1, 5), repeat=length):
            sign, sorted_word = normalize(word)
            assert sign == brute_sign(word)
            if sign != 0:
                assert sorted_word == tuple(sorted(word))


def test_mask_word_round_trip():
    for mask in ALL_MASKS:
        assert mask_of(word_of(mask)) == mask


def test_product_example():
    # xi_13 * xi_2 = -xi_123
    assert mono_product(mask_of((1, 3)), mask_of((2,))) == (-1, mask_of((1, 2, 3)))


def test_product_square_zero():
    a = mask_of((1, 2))
    assert mono_product(a, a) == (0, 0)


def test_product_associativity_total_degree_at_most_six():
    count = 0
    for a, b, c in itertools.product(ALL_MASKS, repeat=3):
        if a.bit_count() + b.bit_count() + c.bit_count() > N_INDICES:
            continue
        s_ab, ab = mono_product(a, b)
        s_bc, bc = mono_product(b, c)
        s_left, left = mono_product(ab, c)
        s_right, right = mono_product(a, bc)
        assert s_ab * s_left == s_bc * s_right
        if s_ab * s_left:
            assert left == right == a | b | c
        count += 1
    assert count > 1000  # the sweep actually covered the range


def test_product_anticommutation_on_odd_generators():
    for i in range(1, N_INDICES + 1):
        for j in range(1, N_INDICES + 1):
            s_ij, out_ij = mono_product(mask_of((i,)), mask_of((j,)))
            s_ji, out_ji = mono_product(mask_of((j,)), mask_of((i,)))
            assert s_ij + s_ji == 0
            assert (s_ij == 0) == (i == j)
            assert out_ij == out_ji


def _derive_twice(i, j, mask):
    """d_i d_j on a monomial (d_j applied first): (sign, mask)."""
    s_j, rest = derive_mask(j, mask)
    s_i, out = derive_mask(i, rest) if s_j else (0, 0)
    return s_i * s_j, out


def test_derive_example():
    # d_2 xi_12 = -xi_1  (index 2 sits in slot 2: sign (-1)^(2+1))
    a = mask_of((1, 2))
    assert derive_mask(2, a) == (-1, mask_of((1,)))
    assert derive_mask(1, a) == (1, mask_of((2,)))
    assert derive_mask(3, a) == (0, 0)


def test_derive_anticommutation_all_monomials():
    for mask in ALL_MASKS:
        for i in range(1, N_INDICES + 1):
            for j in range(1, N_INDICES + 1):
                s_ij, out_ij = _derive_twice(i, j, mask)
                s_ji, out_ji = _derive_twice(j, i, mask)
                assert s_ij + s_ji == 0
                if s_ij:
                    assert out_ij == out_ji == mask & ~mask_of((i, j))


def test_derive_seq_order():
    # d_{12} = d_1 d_2 with d_2 applied first:
    # d_2 xi_12 = -xi_1, then d_1(-xi_1) = -1
    a = mask_of((1, 2))
    assert _derive_twice(1, 2, a) == (-1, 0)
    # leibniz-free sanity: d_{21} gives the opposite sign
    assert _derive_twice(2, 1, a) == (1, 0)


def test_hodge_modified_examples():
    sign, comp = hodge_modified(mask_of((1, 2)))
    assert (sign, word_of(comp)) == (1, (3, 4, 5, 6))
    sign, comp = hodge_modified(mask_of((1, 3)))
    assert (sign, word_of(comp)) == (-1, (2, 4, 5, 6))
    sign, comp = hodge_modified(mask_of((1,)))
    assert (sign, word_of(comp)) == (1, (2, 3, 4, 5, 6))


def test_hodge_defining_identities_all_monomials():
    for mask in ALL_MASKS:
        sign, comp = hodge_modified(mask)
        # xi_I xi*_I = xi_full, with the sign read off the sorted word
        assert mono_product(mask, comp) == (sign, FULL_MASK)
        assert normalize(word_of(mask) + word_of(comp))[0] == sign


def test_eta_bar_parity_relation():
    # bar(eta_I) = (-1)^|I| eta*_I for every I
    for mask in ALL_MASKS:
        sb, cb = eta_bar(mask)
        sm, cm = hodge_modified(mask)
        assert cb == cm
        assert sb == (-1) ** mask.bit_count() * sm


def test_eta_bar_defining_identity():
    # bar(eta_I) * xi_I = eta_full, where * is the eta-xi star product
    for mask in ALL_MASKS:
        sign, comp = eta_bar(mask)
        s2, out = mono_product(comp, mask)
        assert s2 != 0
        assert out == FULL_MASK
        assert sign * s2 == 1


def test_star_examples():
    # xi_2 * eta_13 = -eta_123
    sign, out = mono_product(mask_of((2,)), mask_of((1, 3)))
    assert (sign, word_of(out)) == (-1, (1, 2, 3))
    # intersecting sets give zero
    assert mono_product(mask_of((1,)), mask_of((1, 3))) == (0, 0)
    # eta_13 * xi_2: moving xi_2 across eta_13 costs (-1)^(|I||J|)
    # relative to the other order
    s1, o1 = mono_product(mask_of((1, 3)), mask_of((2,)))
    assert o1 == mask_of((1, 2, 3))
    assert s1 == sign * (-1) ** (1 * 2)


def test_star_order_swap_parity():
    for i_mask in ALL_MASKS:
        for j_mask in ALL_MASKS:
            if i_mask & j_mask:
                continue
            s_ij, out_ij = mono_product(i_mask, j_mask)
            s_ji, out_ji = mono_product(j_mask, i_mask)
            assert out_ij == out_ji
            assert s_ij == s_ji * (-1) ** (i_mask.bit_count() * j_mask.bit_count())


def test_monomial_text_round_trip():
    assert monomial_to_text(mask_of((1, 3, 5))) == "xi[135]"
    assert monomial_to_text(0) == "1"
    for mask in ALL_MASKS[1:]:
        text = monomial_to_text(mask)
        assert text.startswith("xi[") and text.endswith("]")
        assert mask_of(int(ch) for ch in text[3:-1]) == mask


def test_merge_sign_matches_normalize():
    for a_mask in ALL_MASKS:
        for b_mask in ALL_MASKS:
            if a_mask & b_mask:
                continue
            word = word_of(a_mask) + word_of(b_mask)
            sign, _ = normalize(word)
            assert merge_sign(a_mask, b_mask) == sign


def test_mono_product_table():
    for a_mask in ALL_MASKS:
        for b_mask in ALL_MASKS:
            sign, out = mono_product(a_mask, b_mask)
            if a_mask & b_mask:
                assert (sign, out) == (0, 0)
            else:
                assert (sign, word_of(out)) == normalize(word_of(a_mask) + word_of(b_mask))


def test_triangle_sign_is_the_sign_of_reversing_l_plus_one_indices():
    # reversing n indices has sign (-1)^(n(n-1)/2); n = l + 1 gives l(l+1)/2
    for l in range(N_INDICES):
        assert triangle_sign(l) == normalize(range(l + 1, 0, -1))[0]
    assert [triangle_sign(l) for l in range(4)] == [1, -1, -1, 1]


def _bit_word(mask):
    """The indices of the set bits of mask, lowest first, by a bit loop."""
    return tuple(i + 1 for i in range(N_INDICES) if mask >> i & 1)


def _bit_merge_sign(a, b):
    """(-1)^(number of pairs (x in a, y in b) with x > y), by a bit loop."""
    inversions = sum(1 for x in _bit_word(a) for y in _bit_word(b) if x > y)
    return -1 if inversions & 1 else 1


def _bit_derive(i, mask):
    """d_i by the bit loop: (-1)^(indices of mask below i), i removed."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return 0, 0
    below = sum(1 for j in range(1, i) if mask >> (j - 1) & 1)
    return (-1 if below & 1 else 1), mask & ~bit


def test_tabulated_helpers_equal_their_bit_loop_definitions():
    for mask in ALL_MASKS:
        assert word_of(mask) == _bit_word(mask)
        for i in range(1, N_INDICES + 1):
            assert derive_mask(i, mask) == _bit_derive(i, mask), (i, mask)
        for other in ALL_MASKS:
            assert merge_sign(mask, other) == _bit_merge_sign(mask, other), (mask, other)


def test_derive_mask_refuses_an_index_outside_the_generators():
    # the table is indexed by i - 1, so index 0 must not wrap to row -1
    for i in (0, -1, N_INDICES + 1):
        with pytest.raises(ValueError):
            derive_mask(i, FULL_MASK)
