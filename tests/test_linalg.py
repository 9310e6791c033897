"""Unit tests for the exact linear algebra and the modular eliminator,
both in ``_linalg``."""

import random

import numpy as np
import pytest

from e16verma._linalg import (
    SCREEN_P,
    SCREEN_R,
    ExactRREF,
    _forward_eliminate,
    _is_probable_prime,
    _modp_image,
    _sqrt_minus_one,
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
    assert _is_probable_prime(2147483629)
    assert not _is_probable_prime(2147483629 - 2)  # even
    assert _is_probable_prime(13)
    r = _sqrt_minus_one(13)
    assert r * r % 13 == 12
    assert _is_probable_prime(SCREEN_P)
    assert SCREEN_P % 4 == 1
    assert SCREEN_R * SCREEN_R % SCREEN_P == SCREEN_P - 1


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
