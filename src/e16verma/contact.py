"""The contact superalgebra on C[t] (x) Lambda(6) and the subalgebra E(1,6).

Conventions
-----------
* A ``ContactElement`` is a sparse map ``(t-exponent k, xi-monomial mask) ->
  coefficient`` over Q(i).
* Grading: deg(t^m xi_I) = 2m + |I| - 2; parity = |I| mod 2.
* Bracket on monomials f = t^m xi_I, g = t^n xi_J:

      [f, g] = ((2-|I|) n - m (2-|J|)) t^(m+n-1) xi_I xi_J
               + (-1)^|I| t^(m+n) sum_i (d_i xi_I)(d_i xi_J).

  (This is the contact bracket [f,g] = (2f - sum xi_i d_i f) dt(g)
  - dt(f) (2g - sum xi_i d_i g) + (-1)^p(f) sum_i d_i(f) d_i(g), evaluated
  on monomials where the Euler operator gives |I| f.)
* The linear operator A maps t^k xi_L to
  (-1)^(|L|(|L|+1)/2) (d/dt)^(3-|L|) (t^k xi*_L), where a negative power of
  d/dt means integration in t (t^k -> t^(k+1)/(k+1), constant of
  integration zero).  E(1,6) is the image of (Id - i A); concretely it is
  spanned by the elements (Id - i A)(t^k xi_L) with |L| <= 3.

  For |L| = 3 the spanning family is linearly dependent: complementary
  3-sets give proportional images (A pairs them with opposite signs), so
  the returned *basis* keeps only 3-sets containing the index 1.  The
  resulting graded dimensions are 1 (deg -2), 6 (deg -1), 16 (each deg >= 0).
* Each basis element b = (Id - i A)(t^k xi_L) has coefficient 1 on its
  generator monomial t^k xi_L and its other monomials belong to no generator
  (|L*| >= 4, or a 3-set without the index 1).  So the basis is unitriangular
  on the generator monomials: the coordinates of an element x are its
  generator coefficients, and x lies in E(1,6) exactly when
  x - sum_j c_j b_j vanishes.
* The distinguished elements: t (the grading element, degree 0) and
  Theta = -1/2 (degree -2; brackets [Theta, g_i] recover g_(i-2)).
* Cartan subalgebra of the so(6) part: H_l = -i xi_(2l-1, 2l); root
  vectors E_(+-eps_l +- eps_j) are the standard complex combinations of
  xi_(ab) fixed by the defining formulas below; a weight/root is stored as
  an integer triple of eigenvalues (alpha(H_1), alpha(H_2), alpha(H_3)).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby
from typing import Iterable, Iterator

import numpy as np

from ._linalg import ExactRREF
from .exactnum import GaussianRational, IUNIT, ONE, Q, QI, accumulate, scalar_to_text
from .grassmann import (
    ALL_MASKS,
    FULL_MASK,
    MASKS_BY_SIZE,
    N_INDICES,
    derive_mask,
    hodge_modified,
    mask_of,
    mono_product,
    monomial_to_text,
    triangle_sign,
)

__all__ = [
    "ContactElement",
    "contact_bracket",
    "monomial_degree",
    "THETA",
    "GRADING_T",
    "op_A",
    "e16_project",
    "e16_basis",
    "e16_membership",
    "MembershipResult",
    "check_L1_L2_L3",
    "RootDatum",
    "root_datum",
    "check_root_system",
    "check_jacobi_closure",
]


def monomial_degree(k: int, mask: int) -> int:
    return 2 * k + mask.bit_count() - 2


class ContactElement:
    """Sparse element of C[t] (x) Lambda(6): {(t-exp, xi-mask): coefficient}."""

    __slots__ = ("data",)

    def __init__(self, data: dict[tuple[int, int], GaussianRational] | None = None):
        clean: dict[tuple[int, int], GaussianRational] = {}
        if data:
            for (k, mask), coef in data.items():
                if k < 0:
                    raise ValueError("negative t-exponent")
                if not 0 <= mask <= FULL_MASK:
                    raise ValueError("xi-mask out of range")
                coef = coef if isinstance(coef, GaussianRational) else GaussianRational(coef)
                if coef:
                    clean[(k, mask)] = coef
        self.data = clean

    @classmethod
    def monomial(cls, k: int, word_or_mask, coef=ONE) -> "ContactElement":
        mask = word_or_mask if isinstance(word_or_mask, int) else mask_of(word_or_mask)
        return cls({(k, mask): coef})

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactElement):
            return NotImplemented
        return self.data == other.data

    def __add__(self, other: "ContactElement") -> "ContactElement":
        res = ContactElement.__new__(ContactElement)
        res.data = accumulate(dict(self.data), other.data.items())
        return res

    def __neg__(self) -> "ContactElement":
        res = ContactElement.__new__(ContactElement)
        res.data = {k: -c for k, c in self.data.items()}
        return res

    def __sub__(self, other: "ContactElement") -> "ContactElement":
        return self + (-other)

    def scale(self, coef) -> "ContactElement":
        coef = coef if isinstance(coef, GaussianRational) else GaussianRational(coef)
        if not coef:
            return ContactElement()
        res = ContactElement.__new__(ContactElement)
        res.data = {k: c * coef for k, c in self.data.items()}
        return res

    def items(self) -> Iterator[tuple[tuple[int, int], GaussianRational]]:
        return iter(sorted(self.data.items()))

    def degrees(self) -> set[int]:
        return {monomial_degree(k, mask) for (k, mask) in self.data}

    def __repr__(self) -> str:
        if not self.data:
            return "0"
        parts = []
        for (k, mask), coef in sorted(self.data.items()):
            mono = []
            if k == 1:
                mono.append("t")
            elif k > 1:
                mono.append(f"t^{k}")
            if mask:
                mono.append(monomial_to_text(mask))
            body = " ".join(mono) if mono else "1"
            parts.append(f"({scalar_to_text(coef)}) {body}")
        return " + ".join(parts)


THETA = ContactElement({(0, 0): Q(-1, 2)})
GRADING_T = ContactElement({(1, 0): ONE})


def contact_bracket(f: ContactElement, g: ContactElement) -> ContactElement:
    res = ContactElement.__new__(ContactElement)
    res.data = accumulate({}, _bracket_terms(f, g))
    return res


def _bracket_terms(f: ContactElement, g: ContactElement):
    """The (key, value) terms of [f, g] on monomials, before summing."""
    for (m, i_mask), cf in f.data.items():
        size_i = i_mask.bit_count()
        for (n, j_mask), cg in g.data.items():
            size_j = j_mask.bit_count()
            coef = cf * cg
            # first part: ((2-|I|) n - m (2-|J|)) t^(m+n-1) xi_I xi_J
            factor = (2 - size_i) * n - m * (2 - size_j)
            if factor:
                sign, union = mono_product(i_mask, j_mask)
                if sign:
                    yield (m + n - 1, union), coef * Q(factor * sign)
            # second part: (-1)^|I| t^(m+n) sum_i (d_i xi_I)(d_i xi_J)
            shared = i_mask & j_mask
            if shared:
                for bit in range(N_INDICES):
                    if not shared >> bit & 1:
                        continue
                    s1, rest_i = derive_mask(bit + 1, i_mask)
                    s2, rest_j = derive_mask(bit + 1, j_mask)
                    s3, union = mono_product(rest_i, rest_j)
                    if not s3:
                        continue
                    total = s1 * s2 * s3 * (-1 if size_i & 1 else 1)
                    yield (m + n, union), coef * Q(total)


# ---------------------------------------------------------------------------
# the A operator and E(1,6)
# ---------------------------------------------------------------------------

def op_A(x: ContactElement) -> ContactElement:
    """A(t^k xi_L) = (-1)^(|L|(|L|+1)/2) (d/dt)^(3-|L|) (t^k xi*_L).

    Negative derivative powers integrate (with zero constant term).
    """
    out = ContactElement()
    for (k, mask), coef in x.data.items():
        size = mask.bit_count()
        hsign, comp = hodge_modified(mask)
        power = 3 - size
        c = Fraction(1)
        new_k = k
        if power >= 0:
            for _ in range(power):
                c *= new_k
                new_k -= 1
            if c == 0:
                continue
        else:
            for _ in range(-power):
                new_k += 1
                c /= new_k
        scal = coef * Q(c * hsign * triangle_sign(size))
        out = out + ContactElement({(new_k, comp): scal})
    return out


def e16_project(x: ContactElement) -> ContactElement:
    """(Id - i A)(x); its image spans E(1,6)."""
    return x - op_A(x).scale(IUNIT)


@lru_cache(maxsize=None)
def _basis_generators(degree: int) -> tuple[tuple[int, int], ...]:
    """Generator monomials (t-exp, mask) whose projections span degree d."""
    gens: list[tuple[int, int]] = []
    if degree < -2:
        return ()
    for size in range(4):
        k2 = degree - size + 2
        if k2 < 0 or k2 % 2:
            continue
        k = k2 // 2
        for mask in MASKS_BY_SIZE[size]:
            # complementary 3-sets give proportional projections; keep the
            # half containing index 1 so the family is a basis
            if size == 3 and not mask & 1:
                continue
            gens.append((k, mask))
    return tuple(gens)


@lru_cache(maxsize=None)
def _basis_elements_at_degree(degree: int) -> tuple[ContactElement, ...]:
    """The degree-d basis (Id - i A)(t^k xi_L) over ``_basis_generators``.

    Raises AssertionError unless each element has coefficient 1 on its own
    generator monomial and none on the others: the unitriangular form that
    ``e16_membership`` reads coordinates from."""
    gens = _basis_generators(degree)
    basis = tuple(e16_project(ContactElement.monomial(k, mask)) for k, mask in gens)
    for gen, b in zip(gens, basis):
        if {key: c for key, c in b.data.items() if key in gens} != {gen: ONE}:
            raise AssertionError(
                f"degree-{degree} basis is not unitriangular on its generator monomials"
            )
    return basis


def e16_basis(max_degree: int) -> list[ContactElement]:
    """Graded basis of E(1,6) through max_degree, ordered by degree then
    by (t-exponent, mask) of the generating monomial."""
    if max_degree < -2:
        raise ValueError("max_degree must be at least -2")
    out: list[ContactElement] = []
    for d in range(-2, max_degree + 1):
        out.extend(_basis_elements_at_degree(d))
    return out


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    # coordinates per degree: {degree: {position in e16_basis(degree slice): coeff}}
    coords: dict[int, dict[int, GaussianRational]]
    residual: "ContactElement"


def e16_membership(x: ContactElement, max_degree: int) -> MembershipResult:
    """Decompose x in the graded basis of E(1,6) up to max_degree.  The
    coordinates c_j are x's generator coefficients, and x is a member when
    the residual x - sum_j c_j b_j vanishes; otherwise that nonzero residual
    is the certificate."""
    coords: dict[int, dict[int, GaussianRational]] = {}
    residual = dict(x.data)
    for d in sorted(x.degrees()):
        if d < -2 or d > max_degree:
            continue
        dcoords = {j: x.data[gen] for j, gen in enumerate(_basis_generators(d))
                   if gen in x.data}
        basis = _basis_elements_at_degree(d)
        for j, c in dcoords.items():
            accumulate(residual, basis[j].data.items(), -c)
        if dcoords:
            coords[d] = dcoords
    if residual:
        # report only the residual; partial coordinates are not meaningful
        return MembershipResult(False, {}, ContactElement(residual))
    return MembershipResult(True, coords, ContactElement())


# ---------------------------------------------------------------------------
# structural checks: grading element and Theta-lowering
# ---------------------------------------------------------------------------

def check_L1_L2_L3(max_degree: int) -> dict:
    """Check that [Theta, g_i] spans g_(i-2) for 0 <= i <= max_degree, by
    exact rank of the structure cells (-2, i): Theta = -1/2 b_(-2), with
    b_(-2) = 1.  An image outside E(1,6) adds no row and is listed as
    ("theta_image_outside", i); a cell only holds degree d1 + d2, so no image
    lands in another degree.  ``check_jacobi_closure`` reads the grading."""
    tables = _StructureTables((-2, i) for i in range(max_degree + 1))
    failures: list[tuple] = []
    for i in range(max_degree + 1):
        failures += [("theta_image_outside", i) for f in tables.failures if f[1] == i]
        idx, re, im = tables.cells[(-2, i)]
        rref = ExactRREF()
        # cells are in C order (x, y, e), so each image [b_(-2), b_y] is one run
        for _, row in groupby(zip(idx.tolist(), re.tolist(), im.tolist()), lambda c: c[0][1]):
            rref.add_row({e: QI(a, b) for (_, _, e), a, b in row})
        if rref.rank != _dim(i - 2):
            failures.append(("theta_rank", i, rref.rank, _dim(i - 2)))
    return {"max_degree": max_degree, "theta_ok": not failures, "failures": failures,
            "ok": not failures}


# ---------------------------------------------------------------------------
# root datum of the so(6) part of degree zero
# ---------------------------------------------------------------------------

Root = tuple[int, int, int]


def _xi(i: int, j: int) -> ContactElement:
    return ContactElement.monomial(0, (i, j))


@dataclass(frozen=True)
class RootDatum:
    """Cartan elements H_l = -i xi_(2l-1,2l) and the twelve root vectors of
    the so(6) part, indexed by integer root triples."""

    cartan: tuple[ContactElement, ContactElement, ContactElement]
    root_vectors: dict[Root, ContactElement]

    @property
    def positive_roots(self) -> list[Root]:
        return [r for r in sorted(self.root_vectors, reverse=True) if _is_positive(r)]


def _is_positive(root: Root) -> bool:
    for c in root:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


@lru_cache(maxsize=1)
def root_datum() -> RootDatum:
    cartan = tuple(
        _xi(2 * l - 1, 2 * l).scale(QI(0, -1)) for l in (1, 2, 3)
    )
    vectors: dict[Root, ContactElement] = {}
    for l, j in ((1, 2), (1, 3), (2, 3)):
        a, b = 2 * l - 1, 2 * l
        c, d = 2 * j - 1, 2 * j
        minus_ac = _xi(a, c).scale(Q(-1))
        # E_(eps_l - eps_j), E_(eps_l + eps_j) and their negatives
        combos = {
            (1, -1): minus_ac - _xi(b, d) - _xi(a, d).scale(IUNIT) + _xi(b, c).scale(IUNIT),
            (1, 1): minus_ac + _xi(b, d) + _xi(a, d).scale(IUNIT) + _xi(b, c).scale(IUNIT),
            (-1, 1): minus_ac - _xi(b, d) + _xi(a, d).scale(IUNIT) - _xi(b, c).scale(IUNIT),
            (-1, -1): minus_ac + _xi(b, d) - _xi(a, d).scale(IUNIT) - _xi(b, c).scale(IUNIT),
        }
        for (sl, sj), vec in combos.items():
            root = [0, 0, 0]
            root[l - 1] = sl
            root[j - 1] = sj
            vectors[tuple(root)] = vec
    return RootDatum(cartan, vectors)


def check_root_system() -> dict:
    """Verify the Cartan/root relations of the degree-zero so(6) part and
    the dictionary between xi_(ij) and 6x6 skew matrices, the latter as
    ``gmodule.validate`` of the built-in vector module."""
    rd = root_datum()
    report: dict = {"ok": True, "failures": []}
    # Cartan elements commute
    for a in range(3):
        for b in range(3):
            if contact_bracket(rd.cartan[a], rd.cartan[b]):
                report["ok"] = False
                report["failures"].append(("cartan_commute", a + 1, b + 1))
    # [H_l, E_alpha] = alpha(H_l) E_alpha for all twelve roots
    for root, vec in sorted(rd.root_vectors.items()):
        for l in (1, 2, 3):
            lhs = contact_bracket(rd.cartan[l - 1], vec)
            rhs = vec.scale(Q(root[l - 1]))
            if lhs != rhs:
                report["ok"] = False
                report["failures"].append(("root_eigen", root, l))
    # [E_alpha, E_(-alpha)] lands in the Cartan span
    for root, vec in sorted(rd.root_vectors.items()):
        if not _is_positive(root):
            continue
        neg = rd.root_vectors[tuple(-c for c in root)]
        br = contact_bracket(vec, neg)
        if not _in_cartan_span(br, rd):
            report["ok"] = False
            report["failures"].append(("cartan_pairing", root))
    # xi_(ij) <-> E_(ji) - E_(ij): the vector module is a representation.
    # A late import, since gmodule imports this module
    from .gmodule import builtin, validate
    dictionary = validate(builtin("vector", 0))
    if not dictionary["ok"]:
        report["ok"] = False
        report["failures"].append(("so6_dictionary", dictionary["first_failure"]))
    return report


def _in_cartan_span(x: ContactElement, rd: RootDatum) -> bool:
    # solve x = sum c_l H_l exactly; H_l are disjoint monomials xi_(2l-1,2l)
    rem = x
    for l in (1, 2, 3):
        mask = mask_of((2 * l - 1, 2 * l))
        coef = rem.data.get((0, mask))
        if coef:
            rem = rem - rd.cartan[l - 1].scale(coef / QI(0, -1))
    return not rem


# ---------------------------------------------------------------------------
# Jacobi/closure suite on exact structure-constant cells
# ---------------------------------------------------------------------------

def _dim(degree: int) -> int:
    return len(_basis_generators(degree))


def _absmax(*arrays) -> int:
    return max((int(np.abs(a).max(initial=0)) for a in arrays), default=0)


@cache
def _mask_signs() -> np.ndarray:
    """The bracket of monomials t^m xi_I, t^n xi_J as one 64 x 64 integer
    table ``signs`` over (I, J).  The bracket lands on xi_(I ^ J):

    * ((2-|I|) n - m (2-|J|)) signs[I, J] t^(m+n-1) xi_(I|J) for disjoint I, J;
    * signs[I, J] t^(m+n) xi_(I^J) = (-1)^|I| (d_i xi_I)(d_i xi_J) t^(m+n)
      when I and J share the one index i;
    * zero (signs[I, J] = 0) otherwise."""
    signs = np.zeros((FULL_MASK + 1,) * 2, dtype=np.int64)
    for i_mask in ALL_MASKS:
        for j_mask in ALL_MASKS:
            shared = i_mask & j_mask
            if not shared:
                signs[i_mask, j_mask] = mono_product(i_mask, j_mask)[0]
            elif shared.bit_count() == 1:
                s1, rest_i = derive_mask(shared.bit_length(), i_mask)
                s2, rest_j = derive_mask(shared.bit_length(), j_mask)
                sign = s1 * s2 * mono_product(rest_i, rest_j)[0]
                signs[i_mask, j_mask] = -sign if i_mask.bit_count() & 1 else sign
    return signs


@cache
def _basis_rows(degree: int):
    """The degree-d basis as Gaussian-integer rows (re, im) over the 64
    xi-masks, with the mask of each element's generator (``gens``).  At a
    fixed degree a mask fixes its t-exponent, (degree + 2 - |mask|) / 2.

    Raises AssertionError unless every coefficient is a Gaussian integer
    (A differentiates in t, never integrates, for |L| <= 3), so that the
    structure constants are Gaussian integers too."""
    basis = _basis_elements_at_degree(degree)
    re, im = (np.zeros((len(basis), FULL_MASK + 1), dtype=np.int64) for _ in range(2))
    for x, b in enumerate(basis):
        for (_, mask), c in b.data.items():
            a, bi, d = c.triple
            if d != 1:
                raise AssertionError(f"degree-{degree} basis is not integral")
            re[x, mask], im[x, mask] = a, bi
    gens = np.array([mask for _, mask in _basis_generators(degree)], dtype=np.int64)
    return gens, re, im


def _raw_brackets(d1: int, d2: int):
    """[b_x, b_y] for every basis pair of degrees (d1, d2), from the mask
    signs: Gaussian integers (re, im) of shape (n1, n2, 64), indexed by the
    xi-mask at degree d1 + d2.  This is the one stage of the table build
    that brackets, before membership.  Products are int64 while their bound
    is below 2**62, Python integers past it."""
    _, re1, im1 = _basis_rows(d1)
    _, re2, im2 = _basis_rows(d2)
    # each basis element has at most two monomial terms (x, i) and (y, j)
    x, i = (v[:, None] for v in np.nonzero((re1 != 0) | (im1 != 0)))
    y, j = (v[None, :] for v in np.nonzero((re2 != 0) | (im2 != 0)))
    size_i, size_j = np.bitwise_count(i).astype(np.int64), np.bitwise_count(j).astype(np.int64)
    m, n = (d1 + 2 - size_i) // 2, (d2 + 2 - size_j) // 2
    coef = np.where(i & j, 1, (2 - size_i) * n - m * (2 - size_j)) * _mask_signs()[i, j]
    # a cell sums at most 2 x 2 term pairs of two products each
    bound = 8 * _absmax(coef) * _absmax(re1, im1) * _absmax(re2, im2)
    dtype = np.int64 if bound < 2**62 else object
    a, b, c, d, coef = (v.astype(dtype) for v in
                        (re1[x, i], im1[x, i], re2[y, j], im2[y, j], coef))
    re, im = (np.zeros((re1.shape[0], re2.shape[0], FULL_MASK + 1), dtype=dtype)
              for _ in range(2))
    np.add.at(re, (x, y, i ^ j), coef * (a * c - b * d))
    np.add.at(im, (x, y, i ^ j), coef * (a * d + b * c))
    return re, im


class _StructureTables:
    """Structure constants of E(1,6) in its graded basis for the given
    ordered degree pairs, built from ``_raw_brackets`` once per pair.
    ``cells[(d1, d2)]`` is (idx, re, im): the nonzero coordinates at degree
    d1 + d2 of the brackets [b_x, b_y], with idx rows (x, y, e) in C order
    and their Gaussian integers (re, im).  The coordinates are the
    bracket's generator coefficients, and a pair is a member only when its
    residual bracket - sum_e c_e b_e vanishes.  A pair whose bracket is not
    in E(1,6) is listed in ``failures`` as (d1, d2, x, y) and has no
    entries, so a check that reads the degree pair must also read
    ``failed_pairs``."""

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.cells: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.failures: list[tuple[int, int, int, int]] = []
        for d1, d2 in pairs:
            re, im = _raw_brackets(d1, d2)
            gens, bre, bim = _basis_rows(d1 + d2)
            # a residual entry sums 2 * len(gens) + 1 products
            bound = _absmax(re, im) * max(1, _absmax(bre, bim)) * (2 * gens.size + 1)
            dtype = np.int64 if bound < 2**62 else object
            re, im, bre, bim = (v.astype(dtype) for v in (re, im, bre, bim))
            c_re, c_im = re[:, :, gens], im[:, :, gens]
            failed = ((re != c_re @ bre - c_im @ bim)
                      | (im != c_re @ bim + c_im @ bre)).any(axis=2)
            self.failures += [(d1, d2, int(x), int(y)) for x, y in np.argwhere(failed)]
            idx = np.argwhere(((c_re != 0) | (c_im != 0)) & ~failed[:, :, None])
            self.cells[(d1, d2)] = (idx, c_re[tuple(idx.T)], c_im[tuple(idx.T)])
        self.failed_pairs = {f[:2] for f in self.failures}


_Grouped = namedtuple("_Grouped", "key a b re im starts absmax")


def _grouped_entries(cells, n_key: int, axis: int) -> _Grouped:
    """The entries (x, y, e) of a cell table (idx, re, im), sorted by their
    index ``key`` along ``axis``, with (a, b) their other two indices in
    axis order: the entries with key k (0 <= k < n_key) are
    starts[k]:starts[k + 1].  The values are int64 below 2**62 in absolute
    value (``absmax``), Python integers (object dtype) past it."""
    idx, re, im = cells
    absmax = _absmax(re, im)
    dtype = np.int64 if absmax < 2**62 else object
    order = np.argsort(idx[:, axis], kind="stable")
    key, a, b = (idx[order, k] for k in (axis, *(k for k in range(3) if k != axis)))
    starts = np.searchsorted(key, np.arange(n_key + 1))
    return _Grouped(key, a, b, re[order].astype(dtype), im[order].astype(dtype), starts, absmax)


def _joined_sum(terms, shape: tuple[int, int, int, int]):
    """Exact sum over the terms (left, right, axes, sign) of sign * (left .
    right), where left . right pairs the entries of two grouped tables that
    share a key (Gustavson's row-by-row sparse product) and ``axes`` gives
    the output axes of left's (a, b) and right's (a, b).  Returns flat (re,
    im) over ``shape`` in C order.  A cell sums 2 * (contracted length)
    products per term: int64 while those times left.absmax * right.absmax
    sum below 2**62, Python integers (object dtype) past it.
    """
    bound = sum(2 * (right.starts.size - 1) * left.absmax * right.absmax
                for left, right, *_ in terms)
    dtype = np.int64 if bound < 2**62 else object
    strides = [math.prod(shape[k + 1:]) for k in range(4)]
    acc_re, acc_im = (np.zeros(math.prod(shape), dtype=dtype) for _ in range(2))
    for left, right, axes, sign in terms:
        counts = np.diff(right.starts)[left.key]
        li = np.repeat(np.arange(left.key.size), counts)
        skip = right.starts[left.key] - np.cumsum(counts) + counts
        ri = np.repeat(skip, counts) + np.arange(li.size)
        flat = ((left.a * strides[axes[0]] + left.b * strides[axes[1]])[li]
                + (right.a * strides[axes[2]] + right.b * strides[axes[3]])[ri])
        lre, lim = left.re[li].astype(dtype), left.im[li].astype(dtype)
        rre, rim = right.re[ri].astype(dtype), right.im[ri].astype(dtype)
        np.add.at(acc_re, flat, sign * (lre * rre - lim * rim))
        np.add.at(acc_im, flat, sign * (lre * rim + lim * rre))
    return acc_re, acc_im


def check_jacobi_closure(jacobi_degree: int = 4, closure_degree: int = 6) -> dict:
    """Criterion suite for the algebra structure, read from one set of exact
    structure-constant cells (``_StructureTables``).  Only the degree pairs
    some check reads are tabled, and each is built once from the integer
    monomial tables:

    * closure: every ordered basis pair with degree sum <= closure_degree
      brackets into E(1,6) at that degree (exact membership);
    * super-Jacobi on all ordered basis triples with degrees <=
      jacobi_degree, by a sparse join over the Gaussian-integer cells
      (``_grouped_entries``, ``_joined_sum``): T1 - T2 - sgn T3
      summed in one flat accumulator, in int64 or, past its bound, in
      Python integers.  The first three distinct basis triples whose
      Jacobi sum is nonzero, in degree-triple order and then C order, are
      named in ``jacobi_named`` as the text of their basis elements;
    * super-skew [x, y] = -(-1)^(p(x) p(y)) [y, x] on every degree pair whose
      two orders are both tabled, comparing the cells exactly;
    * [t, b] = deg(b) b on every basis element of degree <= span =
      max(2 jacobi_degree, closure_degree + 2), read from the cells (0, y)
      of the (0, d) tables (t is the first degree-0 basis element).

    A pair whose bracket failed membership fails every check that reads its
    degree pair: closure when its degree sum is in range, skew, grading and
    each Jacobi triple whose contraction uses it.
    """
    hi = max(jacobi_degree, 2 * jacobi_degree)
    span = max(hi, closure_degree + 2)
    degrees = range(-2, span + 1)
    # Jacobi triples read (a, b) with one degree <= jacobi_degree and the
    # other a sum of two; closure reads d1 + d2 <= closure_degree; grading
    # reads (0, d)
    tables = _StructureTables(
        (d1, d2) for d1 in degrees for d2 in degrees
        if d1 + d2 <= closure_degree or d1 == 0
        or (min(d1, d2) <= jacobi_degree and max(d1, d2) <= hi)
    )
    failed = tables.failed_pairs
    closure_failures = [f for f in tables.failures if f[0] + f[1] <= closure_degree]
    report: dict = {
        "closure_ok": not closure_failures,
        "closure_failures": closure_failures,
        "jacobi_ok": True,
        "jacobi_failures": [],
        "jacobi_named": [],
        "skew_ok": True,
        "grading_ok": True,
        "triples_checked": 0,
        "pairs_closed": sum(_dim(d1) * _dim(d2) for d1 in degrees for d2 in degrees
                            if d1 + d2 <= closure_degree),
    }

    for (d1, d2), cells in tables.cells.items():
        if d2 < d1 or (d2, d1) not in tables.cells:
            continue
        sign = 1 if (d1 & 1) and (d2 & 1) else -1
        idx, re, im = tables.cells[(d2, d1)]
        order = np.lexsort((idx[:, 2], idx[:, 0], idx[:, 1]))
        swapped = (idx[order][:, [1, 0, 2]], sign * re[order], sign * im[order])
        if {(d1, d2), (d2, d1)} & failed or not all(map(np.array_equal, cells, swapped)):
            report["skew_ok"] = False

    for d in degrees:
        idx, re, im = tables.cells[(0, d)]
        row, diag = idx[:, 0] == 0, np.arange(_dim(d) if d else 0)
        if ((0, d) in failed or (re[row] != d).any() or im[row].any()
                or not np.array_equal(idx[row, 1:], np.stack([diag, diag], axis=1))):
            report["grading_ok"] = False

    # super-Jacobi per ordered degree triple, a sparse join of the cells:
    # [a,[b,c]] - [[a,b],c] - (-1)^(p(a)p(b)) [b,[a,c]] = 0.  Brackets into
    # degree < -2 vanish by the grading, so those tables are empty
    empty = (np.zeros((0, 3), dtype=np.int64), *(np.zeros(0, dtype=np.int64),) * 2)
    grouped = cache(lambda d1, d2, axis: _grouped_entries(
        tables.cells[(d1, d2)] if min(d1, d2) >= -2 else empty,
        (_dim(d1), _dim(d2), _dim(d1 + d2))[axis], axis))
    rng = range(-2, jacobi_degree + 1)
    for d1, d2, d3 in ((a, b, c) for a in rng for b in rng for c in rng):
        sgn = -1 if (d1 & 1) and (d2 & 1) else 1
        acc_re, acc_im = _joined_sum([
            # T1[x,y,z,f] = sum_e C23[y,z,e] C1(23)[x,e,f]
            (grouped(d2, d3, 2), grouped(d1, d2 + d3, 1), (1, 2, 0, 3), 1),
            # T2[x,y,z,f] = sum_e C12[x,y,e] C(12)3[e,z,f]
            (grouped(d1, d2, 2), grouped(d1 + d2, d3, 0), (0, 1, 2, 3), -1),
            # T3[x,y,z,f] = sum_e C13[x,z,e] C2(13)[y,e,f]
            (grouped(d1, d3, 2), grouped(d2, d1 + d3, 1), (0, 2, 1, 3), -sgn),
        ], (_dim(d1), _dim(d2), _dim(d3), _dim(d1 + d2 + d3)))
        report["triples_checked"] += _dim(d1) * _dim(d2) * _dim(d3)
        nz = np.flatnonzero((acc_re != 0) | (acc_im != 0))
        reads = {(d2, d3), (d1, d2 + d3), (d1, d2), (d1 + d2, d3), (d1, d3),
                 (d2, d1 + d3)}
        if nz.size or reads & failed:
            report["jacobi_ok"] = False
            report["jacobi_failures"].append(((d1, d2, d3), nz[:5].tolist()))
            # nz is sorted, so its basis triples (x, y, z) come in C order
            named = report["jacobi_named"]
            xyz = np.unique(nz // _dim(d1 + d2 + d3))[:3 - len(named)]
            named += [tuple(repr(_basis_elements_at_degree(d)[k]) for d, k in zip((d1, d2, d3), t))
                      for t in zip(*np.unravel_index(xyz, (_dim(d1), _dim(d2), _dim(d3))))]
    report["ok"] = all(report[k] for k in ("jacobi_ok", "closure_ok", "skew_ok",
                                           "grading_ok"))
    return report
