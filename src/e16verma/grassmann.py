"""The Grassmann superalgebra on six odd generators xi_1..xi_6.

Conventions
-----------
* An *index word* is a tuple of indices from {1..6}, possibly unsorted or
  with repetitions; its canonical form is a strictly increasing tuple plus
  the sign of the sorting permutation (0 if an index repeats).
* Internally every canonical monomial is a 6-bit mask: bit (i-1) set means
  xi_i is present.  Index sets in reports use the text forms "xi[135]" /
  "eta[135]"; the empty monomial renders as "1".
* Partial derivative: d_i xi_{i1..ik} = (-1)^(j+1) xi_{..without i_j..} when
  i = i_j, else 0.  A derivative sequence d_I = d_{i1} ... d_{ik} composes
  with the rightmost factor applied first.
* Modified Hodge dual xi*_I: the unique monomial with xi_I xi*_I = xi_full.
  Hodge bar: bar(xi_I) xi_I = xi_full.  The same sign tables serve the
  eta-side duals (eta*_I with xi_I * eta*_I = eta_full, and
  bar(eta_I) = (-1)^|I| eta*_I).
* Star products between xi- and eta-monomials with disjoint index sets:
  xi_I * eta_J = eta_I eta_J and eta_J * xi_I = eta_J eta_I (zero when the
  sets meet); both reduce to signed eta-monomials on the union.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .exactnum import GaussianRational, ONE, ZERO, Q, scalar_to_text

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
    "GrassmannElement",
    "gr_product",
    "derive",
    "derive_seq",
    "hodge_modified",
    "hodge_bar",
    "eta_modified",
    "eta_bar",
    "star",
    "star_eta_xi",
    "monomial_to_text",
    "monomial_from_text",
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


def word_of(mask: int) -> IndexWord:
    return tuple(i + 1 for i in range(N_INDICES) if mask >> i & 1)


def _cross_inversions(a: int, b: int) -> int:
    """Number of pairs (x in a, y in b) with x > y."""
    inv = 0
    for bit in range(N_INDICES):
        if b >> bit & 1:
            inv += (a & ~((1 << (bit + 1)) - 1)).bit_count()
    return inv


# merge_sign[a][b]: sign of reordering the concatenation (sorted a, sorted b)
# into one sorted word; only meaningful for disjoint masks.
_MERGE_SIGN: list[list[int]] = [
    [1 - 2 * (_cross_inversions(a, b) & 1) for b in ALL_MASKS] for a in ALL_MASKS
]


def merge_sign(a: int, b: int) -> int:
    return _MERGE_SIGN[a][b]


def mono_product(a: int, b: int) -> tuple[int, int]:
    """Product of canonical monomials: (sign, union mask), sign 0 if they meet."""
    if a & b:
        return 0, 0
    return _MERGE_SIGN[a][b], a | b


def derive_mask(i: int, mask: int) -> tuple[int, int]:
    """d_i on a canonical monomial: (sign, mask without i), sign 0 if absent."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return 0, 0
    sign = 1 - 2 * ((mask & (bit - 1)).bit_count() & 1)
    return sign, mask & ~bit


class GrassmannElement:
    """Sparse element of the Grassmann algebra: {monomial mask: coefficient}."""

    __slots__ = ("data",)

    def __init__(self, data: dict[int, GaussianRational] | None = None):
        clean: dict[int, GaussianRational] = {}
        if data:
            for mask, coef in data.items():
                if not 0 <= mask <= FULL_MASK:
                    raise ValueError(f"monomial mask {mask} out of range")
                coef = GaussianRational(coef) if not isinstance(coef, GaussianRational) else coef
                if coef:
                    clean[mask] = coef
        self.data = clean

    @classmethod
    def monomial(cls, word: Iterable[int], coef=ONE) -> "GrassmannElement":
        sign, sorted_word = normalize(word)
        if sign == 0:
            return cls()
        return cls({mask_of(sorted_word): Q(sign) * coef})

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.data == other.data

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        out = dict(self.data)
        for mask, coef in other.data.items():
            s = out.get(mask, ZERO) + coef
            if s:
                out[mask] = s
            else:
                out.pop(mask, None)
        res = GrassmannElement.__new__(GrassmannElement)
        res.data = out
        return res

    def __neg__(self) -> "GrassmannElement":
        res = GrassmannElement.__new__(GrassmannElement)
        res.data = {m: -c for m, c in self.data.items()}
        return res

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def scale(self, coef) -> "GrassmannElement":
        coef = coef if isinstance(coef, GaussianRational) else GaussianRational(coef)
        if not coef:
            return GrassmannElement()
        res = GrassmannElement.__new__(GrassmannElement)
        res.data = {m: c * coef for m, c in self.data.items()}
        return res

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        return iter(sorted(self.data.items()))

    def __repr__(self) -> str:
        if not self.data:
            return "0"
        parts = []
        for mask, coef in sorted(self.data.items()):
            parts.append(f"({scalar_to_text(coef)})*{monomial_to_text(mask)}")
        return " + ".join(parts)


def gr_product(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    out: dict[int, GaussianRational] = {}
    for ma, ca in a.data.items():
        for mb, cb in b.data.items():
            if ma & mb:
                continue
            sign = _MERGE_SIGN[ma][mb]
            key = ma | mb
            term = ca * cb
            if sign < 0:
                term = -term
            s = out.get(key, ZERO) + term
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    res = GrassmannElement.__new__(GrassmannElement)
    res.data = out
    return res


def derive(i: int, a: GrassmannElement) -> GrassmannElement:
    if not 1 <= i <= N_INDICES:
        raise ValueError(f"index {i} outside 1..{N_INDICES}")
    out: dict[int, GaussianRational] = {}
    for mask, coef in a.data.items():
        sign, rest = derive_mask(i, mask)
        if sign == 0:
            continue
        term = coef if sign > 0 else -coef
        s = out.get(rest, ZERO) + term
        if s:
            out[rest] = s
        else:
            out.pop(rest, None)
    res = GrassmannElement.__new__(GrassmannElement)
    res.data = out
    return res


def derive_seq(word: Iterable[int], a: GrassmannElement) -> GrassmannElement:
    """d_I = d_{i1} d_{i2} ... d_{ik}: rightmost derivative applied first."""
    for i in reversed(tuple(word)):
        a = derive(i, a)
    return a


# ---------------------------------------------------------------------------
# Hodge duals (xi-side and eta-side) as (sign, complement mask) pairs
# ---------------------------------------------------------------------------

def hodge_modified(mask_or_word) -> tuple[int, int]:
    """xi*_I: (sign, complement mask) with xi_I xi*_I = xi_full."""
    mask = mask_or_word if isinstance(mask_or_word, int) else mask_of(mask_or_word)
    comp = FULL_MASK & ~mask
    # xi_I xi_comp = merge_sign(I, comp) xi_full, so the dual carries the
    # same sign (it squares to 1).
    return _MERGE_SIGN[mask][comp], comp


def hodge_bar(mask_or_word) -> tuple[int, int]:
    """bar(xi_I): (sign, complement mask) with bar(xi_I) xi_I = xi_full."""
    mask = mask_or_word if isinstance(mask_or_word, int) else mask_of(mask_or_word)
    comp = FULL_MASK & ~mask
    return _MERGE_SIGN[comp][mask], comp


def eta_modified(mask_or_word) -> tuple[int, int]:
    """eta*_I: (sign, complement mask) with xi_I * eta*_I = eta_full."""
    return hodge_modified(mask_or_word)


def eta_bar(mask_or_word) -> tuple[int, int]:
    """bar(eta_I) = (-1)^|I| eta*_I: (sign, complement mask)."""
    mask = mask_or_word if isinstance(mask_or_word, int) else mask_of(mask_or_word)
    sign, comp = hodge_modified(mask)
    if mask.bit_count() & 1:
        sign = -sign
    return sign, comp


# ---------------------------------------------------------------------------
# star products (both orders); inputs are canonical masks or index words
# ---------------------------------------------------------------------------

def star(xi_mask_or_word, eta_mask_or_word) -> tuple[int, int]:
    """xi_I * eta_J = eta_I eta_J: (sign, union mask), sign 0 if sets meet."""
    i_mask = xi_mask_or_word if isinstance(xi_mask_or_word, int) else mask_of(xi_mask_or_word)
    j_mask = eta_mask_or_word if isinstance(eta_mask_or_word, int) else mask_of(eta_mask_or_word)
    if i_mask & j_mask:
        return 0, 0
    return _MERGE_SIGN[i_mask][j_mask], i_mask | j_mask


def star_eta_xi(eta_mask_or_word, xi_mask_or_word) -> tuple[int, int]:
    """eta_J * xi_I = eta_J eta_I: (sign, union mask), sign 0 if sets meet."""
    j_mask = eta_mask_or_word if isinstance(eta_mask_or_word, int) else mask_of(eta_mask_or_word)
    i_mask = xi_mask_or_word if isinstance(xi_mask_or_word, int) else mask_of(xi_mask_or_word)
    if i_mask & j_mask:
        return 0, 0
    return _MERGE_SIGN[j_mask][i_mask], i_mask | j_mask


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def monomial_to_text(mask: int, kind: str = "xi") -> str:
    if kind not in ("xi", "eta"):
        raise ValueError("kind must be 'xi' or 'eta'")
    if mask == 0:
        return "1"
    digits = "".join(str(i) for i in word_of(mask))
    return f"{kind}[{digits}]"


def monomial_from_text(text: str) -> tuple[str, int]:
    """Parse "xi[135]" / "eta[135]" / "1" into (kind, mask); "1" -> ("", 0)."""
    s = text.strip()
    if s == "1":
        return "", 0
    for kind in ("xi", "eta"):
        if s.startswith(kind + "[") and s.endswith("]"):
            digits = s[len(kind) + 1 : -1]
            if not digits.isdigit() and digits != "":
                raise ValueError(f"bad monomial text {text!r}")
            word = tuple(int(ch) for ch in digits)
            if tuple(sorted(word)) != word or len(set(word)) != len(word):
                raise ValueError(f"monomial indices must be strictly increasing: {text!r}")
            return kind, mask_of(word)
    raise ValueError(f"bad monomial text {text!r}")
