"""Exact linear algebra over Q(i), and the mod-p routines of the screen.

Exact side: ``ExactRREF`` is the one exact eliminator.  Rows are sparse maps
``{column key: GaussianRational}``.  Column keys may be any sortable
hashable values (integers, tuples); ``nullspace`` takes an explicit column
universe so that completely unconstrained columns still show up as free
directions.

Modular side: the constant screening prime SCREEN_P = 1 (mod 4) and the
root SCREEN_R of -1 mod SCREEN_P give the ring map a + b i -> a + SCREEN_R b
(mod p) of Z[i] onto F_p (``_modp_image`` for scalars).  Forward
elimination, back substitution, the Hessenberg form and its characteristic
polynomial give det(B + gamma T) of a pencil over F_p as a polynomial in
gamma (``_pencil_determinant``).  How a degree block is compressed to a pencil,
and when it is screened, is ``singular``'s.

Forward elimination and back substitution are blocked and run on float64
words (Dumas, Giorgi & Pernet, "Dense linear algebra over word-size prime
fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).  Each panel of
_PANEL columns is eliminated column by column, and the rest of the matrix
gets the panel's update as one product.  Only the factors of a product are
reduced mod p; an entry accumulates up to n unreduced products, each below
(p - 1)^2, and every such integer is exact in float64 while n (p - 1)^2 <
2^53 (``_check_float64_sum``: n <= 8191 at SCREEN_P).  The products are
``np.einsum`` calls, never a float64 BLAS product (``@``, ``np.dot``,
``np.matmul``, ``np.tensordot``): a multi-threaded BLAS can spend many times
the CPU of one einsum on these panel shapes, and the screen sets no thread
count.  The Hessenberg form and its characteristic polynomial stay int64,
guarded by ``_check_int64_sum``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .exactnum import GaussianRational, ONE, accumulate

__all__ = [
    "ExactRREF",
    "nullspace",
    "SCREEN_P",
    "SCREEN_R",
]

ColKey = Hashable


class ExactRREF:
    """Incrementally maintained reduced row echelon form over Q(i).

    Invariant after every ``add_row``: each stored row is 1 on its pivot
    column, and no stored row contains any other row's pivot column.  The
    pivot entry itself is not stored, so ``pivot_rows[c]`` holds the row
    minus e_c.  Pivot columns are chosen as the minimum (by sort order)
    column of the reduced row, which makes the result deterministic.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[ColKey, dict[ColKey, GaussianRational]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict[ColKey, GaussianRational]) -> dict[ColKey, GaussianRational]:
        """Return the residue of ``row`` modulo the current row space."""
        row = {c: v for c, v in row.items() if v}
        # each stored row holds no pivot column, so subtracting it after
        # popping its pivot's coefficient clears that column and no other
        for col in sorted(set(row) & set(self.pivot_rows)):
            accumulate(row, self.pivot_rows[col].items(), -row.pop(col))
        return row

    def add_row(self, row: dict[ColKey, GaussianRational]) -> bool:
        """Insert a row; returns True when the rank increased."""
        red = self.reduce(row)
        if not red:
            return False
        pivot = min(red)
        inv = red.pop(pivot).inverse()
        red = {c: v * inv for c, v in red.items()}
        # keep full RREF: clear the new pivot column from every stored row
        for prow in self.pivot_rows.values():
            factor = prow.pop(pivot, None)
            if factor:
                accumulate(prow, red.items(), -factor)
        self.pivot_rows[pivot] = red
        return True

    def kernel(self, columns: Sequence[ColKey]) -> list[dict[ColKey, GaussianRational]]:
        """Kernel basis over the given column universe, one vector per free
        column, with a 1 in the free position (deterministic order)."""
        free = [c for c in sorted(columns) if c not in self.pivot_rows]
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column keys in universe")
        vectors = []
        for f in free:
            vec: dict[ColKey, GaussianRational] = {f: ONE}
            for pcol, prow in self.pivot_rows.items():
                coef = prow.get(f)
                if coef:
                    vec[pcol] = -coef
            vectors.append(vec)
        return vectors


def nullspace(
    rows: Iterable[dict[ColKey, GaussianRational]], columns: Sequence[ColKey]
) -> list[dict[ColKey, GaussianRational]]:
    """Exact kernel basis of the system ``sum_c row[c] x_c = 0``."""
    col_set = set(columns)
    rref = ExactRREF()
    for row in rows:
        extra = set(row) - col_set
        if extra:
            raise ValueError(f"row uses columns outside the universe: {sorted(extra)[:3]}")
        rref.add_row(row)
    return rref.kernel(columns)


# ---------------------------------------------------------------------------
# the modular screen over F_p: prime, ring map, int64 guard, elimination
# ---------------------------------------------------------------------------

# a prime below 2^21 congruent to 1 mod 4, and a square root of -1 mod it:
# small enough that the screen's int64 product sums stay far inside int64
# (see _check_int64_sum) and its float64 sums exact (see _check_float64_sum)
SCREEN_P, SCREEN_R = 1048589, 1009596


def _modp_image(c: GaussianRational) -> int | None:
    """Image of c in F_p (p = SCREEN_P) under i -> SCREEN_R; None when p
    divides its denominator."""
    a, b, d = c.triple
    p = SCREEN_P
    if d % p == 0:
        return None
    return (a + SCREEN_R * b) * pow(d, p - 2, p) % p


def _check_int64_sum(terms: int) -> None:
    """Raise OverflowError unless a sum of ``terms`` products, each below
    (SCREEN_P - 1)^2, is certain to fit in int64."""
    if terms * (SCREEN_P - 1) ** 2 >= 1 << 63:
        raise OverflowError(
            f"a sum of {terms} products mod {SCREEN_P} can overflow int64"
        )


def _check_float64_sum(terms: int) -> None:
    """Raise OverflowError unless a sum of ``terms`` products, each below
    (SCREEN_P - 1)^2, is certain to stay an exact integer in float64."""
    if terms * (SCREEN_P - 1) ** 2 >= 1 << 53:
        raise OverflowError(
            f"a sum of {terms} products mod {SCREEN_P} can leave float64's "
            "exact integers"
        )


# columns per panel of the blocked elimination
_PANEL = 32


def _forward_eliminate(m: np.ndarray) -> int:
    """Determinant mod SCREEN_P of the leading n x n part of the n-row
    float64 residue matrix ``m``, by blocked forward elimination in place.

    Panel by panel of _PANEL columns: factorise the panel with row pivoting
    (the first nonzero residue, L kept below the diagonal), solve its rows
    of the trailing columns for U12 through L's unit lower triangle, and
    subtract L21 U12 from the trailing rows as one product.  Every factor is
    reduced before it is multiplied, and the other entries accumulate
    unreduced products (at most n of them, checked against float64).
    Returns 0 at the first column without a pivot.  Otherwise the upper
    triangle of the leading part holds U, reduced, and any further columns
    of ``m`` carry the same row operations, reduced too.
    """
    p = SCREEN_P
    n = m.shape[0]
    _check_float64_sum(n)
    det = 1
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for k in range(k0, k1):
            col = m[k:, k] % p
            nz = np.flatnonzero(col)
            if not nz.size:
                return 0
            piv = int(nz[0])
            if piv:
                m[[k, k + piv], k0:] = m[[k + piv, k], k0:]
                col[[0, piv]] = col[[piv, 0]]
                det = -det
            row = m[k, k:k1] % p
            m[k, k:k1] = row
            pivot = int(row[0])
            det = det * pivot % p
            mult = col[1:] * pow(pivot, p - 2, p) % p
            m[k + 1:, k] = mult
            m[k + 1:, k + 1:k1] -= np.multiply.outer(mult, row[1:])
        u12 = m[k0:k1, k1:]
        for i in range(k1 - k0):
            u12[i] %= p
            u12[i + 1:] -= np.multiply.outer(m[k0 + i + 1:k1, k0 + i], u12[i])
        if k1 < n:
            # einsum, not a BLAS product: see the module docstring
            m[k1:, k1:] -= np.einsum("ik,kj->ij", m[k1:, k0:k1], u12)
    return det


def _back_substitute(m: np.ndarray) -> np.ndarray:
    """U^{-1} C mod SCREEN_P for a float64 matrix [U | C] that
    ``_forward_eliminate`` left with a nonzero determinant, panel by panel
    from the last; C is overwritten, reduced, and returned."""
    p = SCREEN_P
    n = m.shape[0]
    _check_float64_sum(n)
    x = m[:, n:]
    for k0 in reversed(range(0, n, _PANEL)):
        k1 = min(k0 + _PANEL, n)
        for k in range(k1 - 1, k0 - 1, -1):
            x[k] = x[k] % p * pow(int(m[k, k]), p - 2, p) % p
            x[k0:k] -= np.multiply.outer(m[k0:k, k], x[k])
        if k0:
            x[:k0] -= np.einsum("ik,kj->ij", m[:k0, k0:k1], x[k0:k1])
    return x


def _hessenberg(h: np.ndarray) -> np.ndarray:
    """Upper Hessenberg form of the reduced square matrix ``h`` mod
    SCREEN_P, by elementary similarity transforms in place."""
    p = SCREEN_P
    n = h.shape[0]
    _check_int64_sum(n)
    for k in range(n - 2):
        nz = np.flatnonzero(h[k + 1:, k])
        if not nz.size:
            continue
        i = k + 1 + int(nz[0])
        if i != k + 1:
            h[[k + 1, i]] = h[[i, k + 1]]
            h[:, [k + 1, i]] = h[:, [i, k + 1]]
        u = h[k + 2:, k] * pow(int(h[k + 1, k]), p - 2, p) % p
        # rows j > k+1 lose u_j times row k+1; column k+1 gains u_j times
        # column j, so the transform stays a similarity
        h[k + 2:, k:] -= np.multiply.outer(u, h[k + 1, k:])
        h[k + 2:, k:] %= p
        h[:, k + 1] += h[:, k + 2:] @ u
        h[:, k + 1] %= p
    return h


def _hessenberg_charpoly(h: np.ndarray) -> np.ndarray:
    """Coefficients, constant term first, of det(x I - h) mod SCREEN_P for
    an upper Hessenberg ``h`` (Cohen, *A Course in Computational Algebraic
    Number Theory*, Algorithm 2.2.9)."""
    p = SCREEN_P
    n = h.shape[0]
    _check_int64_sum(n)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    chain = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        # p_m = (x - h_mm) p_{m-1}
        #       - sum_{i<m} h_im (prod_{i<j<=m} h_{j,j-1}) p_{i-1}
        acc = np.zeros(m + 1, dtype=np.int64)
        acc[1:] = polys[m - 1, :m]
        acc[:m] -= h[m - 1, m - 1] * polys[m - 1, :m]
        if m > 1:
            chain = np.append(chain, 1) * h[m - 1, m - 2] % p
            coef = h[:m - 1, m - 1] * chain % p
            acc[:m - 1] -= coef @ polys[:m - 1, :m - 1]
        polys[m, :m + 1] = acc % p
    return polys[n]


class _PencilDeterminant(NamedTuple):
    """D(gamma) = det(B + gamma T) mod SCREEN_P, stored as its coefficients
    in gamma - base (constant term first)."""

    base: int
    coeffs: tuple

    def __call__(self, gamma: int) -> int:
        p = SCREEN_P
        mu = (gamma - self.base) % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * mu + c) % p
        return acc


def _pencil_determinant(B: np.ndarray, T: np.ndarray, base_points):
    """det(B + gamma T) mod SCREEN_P as a polynomial in gamma, or None when
    B + gamma T is singular at every base point (always so when the pencil
    is identically singular).

    At a regular base point g0, with M0 = B + g0 T and X = M0^{-1} T,
    det(B + gamma T) = det(M0) det(I + mu X) for mu = gamma - g0, and
    det(I + mu X) = sum_j a_{n-j} (-mu)^j for the characteristic
    polynomial sum_k a_k x^k of X, taken through X's Hessenberg form.
    """
    p = SCREEN_P
    n = B.shape[0]
    for base in base_points:
        aug = np.hstack(((B + base * T) % p, T)).astype(np.float64)
        det0 = _forward_eliminate(aug)
        if det0:
            break
    else:
        return None
    x = _back_substitute(aug).astype(np.int64)
    charpoly = _hessenberg_charpoly(_hessenberg(x))
    coeffs = tuple(
        det0 * int(charpoly[n - j]) * (-1) ** j % p for j in range(n + 1)
    )
    return _PencilDeterminant(base, coeffs)
