"""The modular screen: streamed compressor, forward eliminator and pencil
determinant, checked against the four-product compressor with Gauss-Jordan
rank that the screen replaced (kept here as the reference), against sympy
determinants, and by counting eliminations."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from e16verma import _linalg, singular
from e16verma._linalg import (
    SCREEN_P,
    SCREEN_R,
    _check_int64_sum,
    _modp_image,
    _pencil_determinant,
)
from e16verma.exactnum import Q, QI
from e16verma.gmodule import builtin
from e16verma.singular import (
    DegreeBlock,
    UnknownIndex,
    _block_screen_data,
    assemble_degree_block,
    exact_block_kernel,
    screen_block_zero_kernel,
    verify_bound,
)

SCAN = [Q(n) for n in range(-10, 11)] + [Q(7, 3), QI(1, 2)]


# ---------------------------------------------------------------------------
# reference: dense ncols x nrows compressor, four products, Gauss-Jordan rank
# ---------------------------------------------------------------------------

def _reference_images(block):
    """(sb_re, sb_im, st_re, st_im): the four compressed parts."""
    from scipy.sparse import coo_matrix

    p = SCREEN_P
    n, rcount = block.ncols, block.nrows
    rng = np.random.default_rng(0xE16 + 7919 * block.degree + n)
    R = rng.integers(0, p, size=(n, rcount), dtype=np.int64)

    def compress(vals):
        A = coo_matrix(
            ((vals % p).astype(np.int64), (block.r_idx, block.c_idx)),
            shape=(rcount, n),
        ).tocsr()
        return np.asarray((A.T @ R.T).T % p, dtype=np.int64)

    return (
        compress(block.b_re),
        compress(block.b_im),
        compress(block.t_re),
        compress(block.t_im),
    )


def _reference_rank(mat, p, need):
    """Row-reduce a dense int64 matrix mod p; returns the rank, stopping
    early once it cannot reach `need`."""
    m = mat % p
    nrows, ncols = m.shape
    rank = 0
    row = 0
    for col in range(ncols):
        if ncols - col < need - rank:
            return rank
        piv = None
        for rr in range(row, nrows):
            if m[rr, col]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        inv = pow(int(m[row, col]), p - 2, p)
        m[row] = (m[row] * inv) % p
        nz = np.nonzero(m[:, col])[0]
        nz = nz[nz != row]
        if nz.size:
            m[nz] = (m[nz] - np.outer(m[nz, col], m[row])) % p
        rank += 1
        row += 1
        if rank == need or row == nrows:
            break
    return rank


def _modp_scalar(x, p: int) -> int | None:
    """A Fraction mod p, the way the screen reduced scalars before."""
    num = x.numerator % p
    den = x.denominator % p
    if den == 0:
        return None
    return (num * pow(den, p - 2, p)) % p


def _reference_screen(block, c, images):
    if block.ncols == 0:
        return True
    if block.nrows < block.ncols:
        return False
    p = SCREEN_P
    cre = _modp_scalar(c.re, p)
    cim = _modp_scalar(c.im, p)
    if cre is None or cim is None:
        return False
    sb_re, sb_im, st_re, st_im = images
    s_re = (sb_re + cre * st_re - cim * st_im) % p
    s_im = (sb_im + cre * st_im + cim * st_re) % p
    z = (s_re + SCREEN_R * s_im) % p
    return _reference_rank(z, p, block.ncols) == block.ncols


def _blocks(name, k_max):
    module = builtin(name, Q(0))
    return [assemble_degree_block(module, k_max, d) for d in range(2 * k_max + 7)]


def _gamma(c):
    p = SCREEN_P
    return (_modp_scalar(c.re, p) + SCREEN_R * _modp_scalar(c.im, p)) % p


def test_modp_image_matches_componentwise_reduction():
    p = SCREEN_P
    for c in SCAN + [QI(Fraction(1, p), 3), QI(5, Fraction(2, 3 * p)),
                     QI(Fraction(-4, 9), Fraction(5, 6))]:
        cre, cim = _modp_scalar(c.re, p), _modp_scalar(c.im, p)
        want = None if cre is None or cim is None else (cre + SCREEN_R * cim) % p
        assert _modp_image(c) == want, c


def _sympy_det(B, T, gamma):
    return int(sympy.Matrix((B + gamma * T) % SCREEN_P).det()) % SCREEN_P


# ---------------------------------------------------------------------------
# equivalence with the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,k_max", [("trivial", 5), ("vector", 3)])
def test_screen_decisions_match_reference(name, k_max):
    certified = refused = 0
    for block in _blocks(name, k_max):
        images = (
            _reference_images(block) if block.ncols and block.nrows >= block.ncols
            else None
        )
        for c in SCAN:
            got = screen_block_zero_kernel(block, c)
            assert got == _reference_screen(block, c, images), (block.degree, c)
            certified += got
            refused += not got
    # both outcomes occur, so equality is checked in both directions
    assert certified and refused


@pytest.mark.parametrize("degree", [4, 16, 9])
def test_chunked_images_equal_reference(monkeypatch, degree):
    block = assemble_degree_block(builtin("trivial", Q(0)), 5, degree)
    if degree != 9:
        assert block.nrows % 2 == 1
    sb_re, sb_im, st_re, st_im = _reference_images(block)
    p = SCREEN_P
    ref_B = (sb_re + SCREEN_R * sb_im) % p
    ref_T = (st_re + SCREEN_R * st_im) % p
    for rows_per_chunk in (1, 2, 3, 7, block.ncols, block.ncols + 5):
        monkeypatch.setattr(singular, "_COMPRESS_CHUNK", rows_per_chunk * block.nrows)
        B, T = _block_screen_data(block)
        assert np.array_equal(B, ref_B)
        assert np.array_equal(T, ref_T)


# ---------------------------------------------------------------------------
# the pencil determinant against sympy
# ---------------------------------------------------------------------------

def test_pencil_determinant_matches_sympy_on_random_pencils():
    rng = np.random.default_rng(11)
    p = SCREEN_P
    gammas = (0, 1, 5, p - 1, 123456)
    for n in (1, 2, 3, 5, 8):
        for _ in range(3):
            B = rng.integers(0, p, size=(n, n), dtype=np.int64)
            T = rng.integers(0, p, size=(n, n), dtype=np.int64)
            det = _pencil_determinant(B, T, (7,))
            for gamma in gammas:
                assert det(gamma) == _sympy_det(B, T, gamma)
            assert det.coeffs[-1] == int(sympy.Matrix(T).det()) % p


def test_pencil_determinant_with_singular_T_and_singular_base():
    rng = np.random.default_rng(12)
    p = SCREEN_P
    n = 6
    B = rng.integers(0, p, size=(n, n), dtype=np.int64)
    T = rng.integers(0, p, size=(n, n), dtype=np.int64)
    T[:, 2] = (3 * T[:, 0] + T[:, 1]) % p  # rank(T) = n - 1: D has degree < n
    B[:, 4] = 0  # gamma = 0 is a root
    det = _pencil_determinant(B, T, (0, 99))
    assert det.base == 99
    assert det.coeffs[-1] == 0
    for gamma in (0, 1, 2, 99, p - 3):
        assert det(gamma) == _sympy_det(B, T, gamma)
    assert det(0) == 0


def test_pencil_of_trivial_degree_one_has_irregular_zero():
    block = assemble_degree_block(builtin("trivial", Q(0)), 5, 1)
    B, T = _block_screen_data(block)
    assert not B.any()  # rank(B) = 0, so gamma = 0 is not a regular point
    det = _pencil_determinant(B, T, (0, 5))
    assert det.base == 5
    for gamma in (0, 1, 2, 5, 7):
        assert det(gamma) == _sympy_det(B, T, gamma)
    # through the screen: t = 0 first (a root), the pencil built at t = 1
    decisions = [screen_block_zero_kernel(block, Q(n)) for n in (0, 1, 2, 0, -3)]
    assert decisions == [False, True, True, False, True]
    assert block._screen.det is not None
    assert block._screen.det.base == _gamma(Q(1))


def test_identically_singular_pencil_refuses_every_t():
    # column 2 is never touched, so the kernel is nonzero at every t
    columns = tuple(UnknownIndex(0, 0, n) for n in range(3))
    entries = [
        (0, 0, 1, 0, 0, 0),
        (1, 1, 0, 1, 1, 0),
        (2, 0, 2, 0, 0, 1),
        (3, 1, 0, 0, 3, 0),
    ]
    block = DegreeBlock(0, columns, [0] * 4, range(4), *zip(*entries))
    B, T = _block_screen_data(block)
    assert _pencil_determinant(B, T, (0, 1, 2, 3)) is None
    for c in SCAN:
        assert not screen_block_zero_kernel(block, c)
        assert len(exact_block_kernel(block, c)) >= 1
    assert block._screen.det is None


# ---------------------------------------------------------------------------
# overflow guard
# ---------------------------------------------------------------------------

def test_int64_guard_raises_on_overflowing_sums(monkeypatch):
    limit = (1 << 63) // (SCREEN_P - 1) ** 2
    _check_int64_sum(limit)
    with pytest.raises(OverflowError):
        _check_int64_sum(limit + 1)
    # with a 31-bit prime three products already overflow: every product
    # sum of the screen must refuse to run
    monkeypatch.setattr(_linalg, "SCREEN_P", 2**31 - 1)
    square = np.ones((3, 3), dtype=np.int64)
    for step in (
        lambda: _linalg._forward_eliminate(square.copy()),
        lambda: _linalg._back_substitute(np.ones((3, 6), dtype=np.int64)),
        lambda: _linalg._hessenberg(square.copy()),
        lambda: _linalg._hessenberg_charpoly(square.copy()),
        lambda: _block_screen_data(
            assemble_degree_block(builtin("trivial", Q(0)), 3, 3)
        ),
    ):
        with pytest.raises(OverflowError):
            step()


# ---------------------------------------------------------------------------
# work done per block, counted
# ---------------------------------------------------------------------------

def test_scan_eliminates_once_per_block_then_evaluates(monkeypatch):
    current = {}
    first = Counter()
    later = Counter()
    in_pencil = Counter()
    pencils = Counter()
    seen = set()

    screen = singular.screen_block_zero_kernel
    eliminate = _linalg._forward_eliminate
    build = _linalg._pencil_determinant

    def counted_screen(block, c):
        current["block"] = block.degree
        current["first"] = block.degree not in seen
        seen.add(block.degree)
        return screen(block, c)

    def counted_eliminate(m):
        d = current["block"]
        if current.get("pencil"):
            in_pencil[d] += 1
        elif current["first"]:
            first[d] += 1
        else:
            later[d] += 1
        return eliminate(m)

    def counted_build(B, T, base_points):
        current["pencil"] = True
        try:
            pencils[current["block"]] += 1
            return build(B, T, base_points)
        finally:
            current["pencil"] = False

    monkeypatch.setattr(singular, "screen_block_zero_kernel", counted_screen)
    monkeypatch.setattr(_linalg, "_forward_eliminate", counted_eliminate)
    monkeypatch.setattr(_linalg, "_pencil_determinant", counted_build)
    rep = verify_bound(builtin("vector", Q(0)), k_max=3, audit=False)
    assert rep["ok"]
    screened = set(first)
    # every block with at least as many rows as columns reaches the eliminator
    assert screened == set(range(1, 13))
    assert all(first[d] == 1 for d in screened)
    assert all(pencils[d] == 1 for d in screened)
    assert all(in_pencil[d] == 1 for d in screened)
    assert not later
