"""Unit tests for the exact linear algebra and the modular eliminator,
both in ``_linalg``; the blocked float64 eliminator against a Python-int
reference."""

import random

import numpy as np
import pytest
import sympy

from e16verma._linalg import (
    SCREEN_P,
    SCREEN_R,
    ExactRREF,
    _back_substitute,
    _check_float64_sum,
    _forward_eliminate,
    _modp_image,
    nullspace,
)
from e16verma.exactnum import ONE, Q, QI, ZERO


def rank(rows):
    """Rank through the one exact eliminator."""
    rref = ExactRREF()
    for row in rows:
        rref.add_row(row)
    return rref.rank


def test_nullspace_simple_plane():
    # x + y + z = 0 over columns [0,1,2]
    rows = [{0: ONE, 1: ONE, 2: ONE}]
    ker = nullspace(rows, [0, 1, 2])
    assert len(ker) == 2
    for v in ker:
        total = sum((v.get(c, ZERO) for c in (0, 1, 2)), ZERO)
        assert not total


def test_nullspace_unconstrained_column_is_free():
    rows = [{0: ONE, 1: Q(2)}]
    ker = nullspace(rows, [0, 1, 2])
    assert len(ker) == 2
    assert any(v == {2: ONE} for v in ker)


def test_nullspace_rejects_stray_columns():
    with pytest.raises(ValueError):
        nullspace([{5: ONE}], [0, 1])


def test_rank_and_dependent_rows():
    rows = [
        {0: ONE, 1: ONE},
        {0: Q(2), 1: Q(2)},
        {1: QI(0, 1)},
    ]
    assert rank(rows) == 2


def test_exact_rref_kernel_matches_brute_force():
    rng = random.Random(20260817)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                if rng.random() < 0.6:
                    row[c] = QI(rng.randint(-3, 3), rng.randint(-2, 2))
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        ker = nullspace(rows, list(range(ncols)))
        #each kernel vector annihilates every row
        for v in ker:
            for row in rows:
                acc = ZERO
                for c, coef in row.items():
                    acc = acc + coef * v.get(c, ZERO)
                assert not acc
        # rank-nullity
        assert rank(rows) + len(ker) == ncols


def test_primality_and_sqrt_minus_one():
    assert sympy.isprime(SCREEN_P)
    assert SCREEN_P % 4 == 1
    assert SCREEN_R * SCREEN_R % SCREEN_P == SCREEN_P - 1
    # the float64 guard's documented n <= 8191 keeps every sum exact
    assert 8191 * (SCREEN_P - 1) ** 2 < 1 << 53


def test_modp_matches_exact_rank_generically():
    rng = random.Random(7)
    singular = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        rows = [
            {
                c: QI(rng.randint(-4, 4), rng.randint(-4, 4))
                for c in range(n)
                if rng.random() < 0.7
            }
            for _ in range(n)
        ]
        if trial % 4 == 0 and n > 1:
            # a dependent last row: a Q(i) multiple of the first
            rows[-1] = {c: v * QI(2, -1) for c, v in rows[0].items()}
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        exact = rank(rows)
        m = np.array(
            [[_modp_image(row.get(c, ZERO)) for c in range(n)] for row in rows],
            dtype=np.int64,
        )
        full = _forward_eliminate(m) != 0
        # a nonzero determinant mod p certifies full rank over Q(i) ...
        assert not full or exact == n
        # ... and with entries this small the screening prime never loses rank
        assert full == (exact == n)
        singular += exact < n
    assert singular >= 10


# ---------------------------------------------------------------------------
# the blocked float64 eliminator against Python integers
# ---------------------------------------------------------------------------

def _reference_eliminate(rows):
    """Forward elimination mod SCREEN_P on Python ints with the screen's
    pivot rule (the first nonzero residue): (det, rows), rows reduced and
    upper triangular on the leading n x n part, or (0, None) at the first
    column without a pivot."""
    p = SCREEN_P
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det, a


def _reference_back_substitute(a):
    """U^{-1} C mod SCREEN_P on Python ints, for the rows [U | C] of
    ``_reference_eliminate``."""
    p = SCREEN_P
    n = len(a)
    x = [None] * n
    for k in reversed(range(n)):
        acc = a[k][n:]
        for j in range(k + 1, n):
            acc = [(v - a[k][j] * w) % p for v, w in zip(acc, x[j])]
        inv = pow(a[k][k], p - 2, p)
        x[k] = [v * inv % p for v in acc]
    return x


def _eliminator_cases():
    """(name, n, matrix) over the panel edges 1, 31, 32, 33 and 67, square
    and n x 2n, with residues drawn from [0, p) and many equal to p - 1."""
    p = SCREEN_P
    rng = np.random.default_rng(20261019)
    for n in (1, 31, 32, 33, 67):
        for width in (n, 2 * n):
            def draw():
                m = rng.integers(0, p, size=(n, width), dtype=np.int64)
                m[rng.random((n, width)) < 0.3] = p - 1
                return m

            yield "random", n, draw()
            # zero leading entries: the first rows offer no pivot for the
            # first columns, so the early steps all swap rows
            m = draw()
            m[: n // 3 + 1, : n // 2] = 0
            yield "zero-leading", n, m
            if n < 3:
                continue
            # row k agrees on its first k + 1 entries with a combination of
            # the rows above it, so its residue vanishes at column k, inside
            # a later panel, and a row below becomes the pivot
            k = (2 * n) // 3
            m = draw()
            c = rng.integers(0, p, size=k, dtype=np.int64)
            m[k, : k + 1] = np.array(
                [sum(int(ci) * int(v) for ci, v in zip(c, m[:k, j])) % p
                 for j in range(k + 1)], dtype=np.int64)
            yield "late-swap", n, m
            # a dependent row: singular, whatever the trailing columns hold
            m = draw()
            m[n - 1, :n] = (m[0, :n] * 3 + m[1, :n] * (p - 1)) % p
            yield "dependent-row", n, m
            # column k is a combination of the columns before it, so it has
            # no pivot once they are eliminated
            m = draw()
            m[:, k] = (m[:, 0] * 5 + m[:, k - 1] * (p - 1)) % p
            yield "pivot-free-column", n, m


def test_blocked_elimination_matches_python_int_reference():
    checked = singular = 0
    for name, n, m in _eliminator_cases():
        det, ref = _reference_eliminate(m.tolist())
        work = m.astype(np.float64)
        assert _forward_eliminate(work) == det, (name, n, m.shape)
        checked += 1
        if not det:
            singular += 1
            continue
        ref = np.array(ref, dtype=np.int64)
        # U, reduced, and the trailing columns under the same row operations
        assert np.array_equal(np.triu(work[:, :n]).astype(np.int64),
                              np.triu(ref[:, :n])), (name, n)
        assert np.array_equal(work[:, n:].astype(np.int64), ref[:, n:]), (name, n)
        if m.shape[1] == 2 * n:
            x = _back_substitute(work)
            assert np.array_equal(x.astype(np.int64),
                                  np.array(_reference_back_substitute(ref.tolist()),
                                           dtype=np.int64)), (name, n)
    assert singular >= 16 and checked - singular >= 20


def test_float64_guard_raises_at_the_first_inexact_size():
    p = SCREEN_P
    first = -(-(1 << 53) // (p - 1) ** 2)  # least n with n (p-1)^2 >= 2^53
    assert first == 8192
    _check_float64_sum(first - 1)
    with pytest.raises(OverflowError):
        _check_float64_sum(first)
    # broadcast views: the eliminators see the shape, nothing is allocated
    zeros = np.broadcast_to(np.float64(0), (first - 1, first - 1))
    assert _forward_eliminate(zeros) == 0  # the first column has no pivot
    with pytest.raises(OverflowError):
        _forward_eliminate(np.broadcast_to(np.float64(0), (first, first)))
    with pytest.raises(OverflowError):
        _back_substitute(np.broadcast_to(np.float64(1), (first, 2 * first)))
