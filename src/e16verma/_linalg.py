"""Exact linear algebra over Q(i), plus the number theory of the screen.

Rows are sparse maps ``{column key: GaussianRational}``.  Column keys may be
any sortable hashable values (integers, tuples); the kernel routines take an
explicit column universe so that completely unconstrained columns still show
up as free directions.

``is_probable_prime`` and ``sqrt_minus_one`` pick the prime p = 1 (mod 4)
and the root r of -1 for the ring map a + b i -> a + r b (mod p) on which
the modular screen in ``singular`` runs.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Sequence

from .exactnum import GaussianRational, ONE, ZERO

__all__ = [
    "ExactRREF",
    "nullspace",
    "rank",
    "is_probable_prime",
    "sqrt_minus_one",
]

ColKey = Hashable


class ExactRREF:
    """Incrementally maintained reduced row echelon form over Q(i).

    Invariant after every ``add_row``: each stored row has coefficient 1 on
    its pivot column, and no stored row contains any other row's pivot
    column.  Pivot columns are chosen as the minimum (by sort order) column
    of the reduced row, which makes the result deterministic.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[ColKey, dict[ColKey, GaussianRational]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict[ColKey, GaussianRational]) -> dict[ColKey, GaussianRational]:
        """Return the residue of ``row`` modulo the current row space."""
        row = {c: v for c, v in row.items() if v}
        for col in sorted(set(row) & set(self.pivot_rows)):
            factor = row.pop(col, None)
            if not factor:
                continue
            for c2, v2 in self.pivot_rows[col].items():
                if c2 == col:
                    continue
                s = row.get(c2, ZERO) - factor * v2
                if s:
                    row[c2] = s
                else:
                    row.pop(c2, None)
        return row

    def add_row(self, row: dict[ColKey, GaussianRational]) -> bool:
        """Insert a row; returns True when the rank increased."""
        red = self.reduce(row)
        if not red:
            return False
        pivot = min(red)
        inv = red[pivot].inverse()
        red = {c: v * inv for c, v in red.items()}
        # keep full RREF: clear the new pivot column from every stored row
        for prow in self.pivot_rows.values():
            factor = prow.get(pivot)
            if not factor:
                continue
            for c2, v2 in red.items():
                s = prow.get(c2, ZERO) - factor * v2
                if s:
                    prow[c2] = s
                else:
                    prow.pop(c2, None)
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


def rank(rows: Iterable[dict[ColKey, GaussianRational]]) -> int:
    rref = ExactRREF()
    for row in rows:
        rref.add_row(row)
    return rref.rank


# ---------------------------------------------------------------------------
# primes for the modular screen
# ---------------------------------------------------------------------------

def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin with fixed small bases plus random rounds."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(0xE16)
    bases = list(small) + [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod p, for prime p = 1 (mod 4)."""
    if p % 4 != 1:
        raise ValueError("need p = 1 (mod 4)")
    for a in range(2, 1000):
        r = pow(a, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("no fourth-power nonresidue found in range")
