"""Sign tables of the Grassmann superalgebra on six odd generators xi_1..xi_6.

The algebra itself is never stored: callers keep their own sparse maps and
ask this module for the sign and the result mask of one monomial operation.

Conventions
-----------
* An *index word* is a tuple of indices from {1..6}, possibly unsorted or
  with repetitions; its canonical form is a strictly increasing tuple plus
  the sign of the sorting permutation (0 if an index repeats): ``normalize``.
* Every canonical monomial is a 6-bit mask: bit (i-1) set means xi_i is
  present (``mask_of``, ``word_of``).  A xi-monomial in a report has the
  text form "xi[135]" (``monomial_to_text``); the empty one renders as "1".
* Product of monomials: ``mono_product`` (sign from ``merge_sign``, 0 when
  the sets meet).  The same signs give the star products between xi- and
  eta-monomials with disjoint index sets, xi_I * eta_J = eta_I eta_J and
  eta_J * xi_I = eta_J eta_I.
* Partial derivative (``derive_mask``): d_i xi_{i1..ik} = (-1)^(j+1)
  xi_{..without i_j..} when i = i_j, else 0.  A derivative sequence
  d_I = d_{i1} ... d_{ik} composes with the rightmost factor applied first.
* Modified Hodge dual xi*_I (``hodge_modified``): the unique monomial with
  xi_I xi*_I = xi_full; it also gives eta*_I with xi_I * eta*_I = eta_full.
  ``eta_bar`` gives bar(eta_I) = (-1)^|I| eta*_I.
* ``triangle_sign(l)`` = (-1)^(l(l+1)/2), the sign the A operator and the
  dual half of a condition carry for a monomial of size l.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "N_INDICES",
    "FULL_MASK",
    "IndexWord",
    "normalize",
    "mask_of",
    "word_of",
    "merge_sign",
    "mono_product",
    "derive_mask",
    "hodge_modified",
    "eta_bar",
    "triangle_sign",
    "monomial_to_text",
    "ALL_MASKS",
    "MASKS_BY_SIZE",
]

# Configuration point: number of odd generators.  The whole package is
# written for 6 (the algebra it models is tied to six), but the sign
# machinery below only depends on this constant.
N_INDICES = 6
FULL_MASK = (1 << N_INDICES) - 1

IndexWord = tuple[int, ...]

ALL_MASKS: tuple[int, ...] = tuple(range(FULL_MASK + 1))


MASKS_BY_SIZE: tuple[tuple[int, ...], ...] = tuple(
    tuple(m for m in ALL_MASKS if m.bit_count() == s) for s in range(N_INDICES + 1)
)


def normalize(word: Iterable[int]) -> tuple[int, IndexWord]:
    """Sort an index word; return (sign, sorted word), sign 0 on repeats."""
    w = tuple(word)
    for i in w:
        if not 1 <= i <= N_INDICES:
            raise ValueError(f"index {i} outside 1..{N_INDICES}")
    if len(set(w)) != len(w):
        return 0, tuple(sorted(set(w)))
    sign = 1
    lst = list(w)
    # insertion sort, counting transpositions: fine for words of length <= 6
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


def mask_of(word: Iterable[int]) -> int:
    mask = 0
    for i in word:
        if not 1 <= i <= N_INDICES:
            raise ValueError(f"index {i} outside 1..{N_INDICES}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


def _cross_inversions(a: int, b: int) -> int:
    """Number of pairs (x in a, y in b) with x > y."""
    inv = 0
    for bit in range(N_INDICES):
        if b >> bit & 1:
            inv += (a & ~((1 << (bit + 1)) - 1)).bit_count()
    return inv


# Tables that ``verma``'s hot loops index directly: _WORDS[mask] = word_of(mask);
# _MERGE_SIGN[a][b], the sign of sorting the concatenation (sorted a, sorted
# b), meaningful for disjoint masks; _DERIVE[i - 1][mask] = derive_mask(i, mask).
_WORDS: tuple[IndexWord, ...] = tuple(
    tuple(i + 1 for i in range(N_INDICES) if mask >> i & 1) for mask in ALL_MASKS
)
_MERGE_SIGN: list[list[int]] = [
    [1 - 2 * (_cross_inversions(a, b) & 1) for b in ALL_MASKS] for a in ALL_MASKS
]
_DERIVE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple((1 - 2 * ((mask & (bit - 1)).bit_count() & 1), mask & ~bit) if mask & bit
          else (0, 0) for mask in ALL_MASKS)
    for bit in (1 << i for i in range(N_INDICES))
)


def word_of(mask: int) -> IndexWord:
    return _WORDS[mask]


def merge_sign(a: int, b: int) -> int:
    return _MERGE_SIGN[a][b]


def mono_product(a: int, b: int) -> tuple[int, int]:
    """Product of canonical monomials: (sign, union mask), sign 0 if they meet."""
    if a & b:
        return 0, 0
    return _MERGE_SIGN[a][b], a | b


def derive_mask(i: int, mask: int) -> tuple[int, int]:
    """d_i on a canonical monomial: (sign, mask without i), sign 0 if absent."""
    if not 1 <= i <= N_INDICES:
        raise ValueError(f"index {i} outside 1..{N_INDICES}")
    return _DERIVE[i - 1][mask]


# ---------------------------------------------------------------------------
# Hodge duals (xi-side and eta-side) as (sign, complement mask) pairs
# ---------------------------------------------------------------------------

def hodge_modified(mask: int) -> tuple[int, int]:
    """xi*_I: (sign, complement mask) with xi_I xi*_I = xi_full."""
    comp = FULL_MASK & ~mask
    # xi_I xi_comp = merge_sign(I, comp) xi_full, so the dual carries the
    # same sign (it squares to 1).
    return _MERGE_SIGN[mask][comp], comp


def eta_bar(mask: int) -> tuple[int, int]:
    """bar(eta_I) = (-1)^|I| eta*_I: (sign, complement mask)."""
    sign, comp = hodge_modified(mask)
    if mask.bit_count() & 1:
        sign = -sign
    return sign, comp


def triangle_sign(l: int) -> int:
    """(-1)^(l(l+1)/2)."""
    return -1 if (l * (l + 1) // 2) & 1 else 1


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def monomial_to_text(mask: int) -> str:
    if mask == 0:
        return "1"
    return f"xi[{''.join(str(i) for i in word_of(mask))}]"

