"""The induced module Ind(F) = C[Theta] (x) Lambda(6) (x) F in T-coordinates,
and the lambda-action of the odd generators on it.

Coordinates
-----------
A ``VermaVector`` stores ``{(k, I): F-vector}`` for the element
``sum Theta^k eta_I (x) v_{I,k}``.  The eta's satisfy eta_i^2 = Theta and
anticommute for distinct indices; Theta is central.  The m-degree of the
monomial ``Theta^k eta_I`` is ``2k + 6 - |I|``.

F-vectors are sparse maps ``{coordinate key: scalar}``.  Coordinate keys are
plain integers for matrix-backed modules, or, for the formal module used in
symbolic manipulations, tuples

* ``('v', k, I)``   — the input coordinate v_{I,k},
* ``('t', k, I)``   — t.v_{I,k},
* ``('x', a, b, k, I)`` with a < b — xi_a xi_b . v_{I,k}.

The lambda-action
-----------------
``lambda_action_T(L, m)`` returns the polynomial (in lambda) whose value on
``eta_I (x) v`` is, with l = |L| and a global sign (-1)^(l(l+1)/2 + l|I|):

    (l-2) Theta (xi_L * eta_I) (x) v
  - (-1)^l sum_i (d_i xi_L * d_i eta_I) (x) v
  - sum_{r<s} (d_r d_s xi_L * eta_I) (x) xi_s xi_r . v
  + lambda [ (xi_L * eta_I) (x) t.v
             - (-1)^l sum_i d_i (xi_{L i} * eta_I) (x) v
             + (-1)^l sum_{i != j} (d_i xi_{L j} * eta_I) (x) xi_j xi_i . v ]
  - lambda^2 sum_{i<j} (xi_{L i j} * eta_I) (x) xi_j xi_i . v

where ``*`` is the star product (xi_K * eta_I = 0 unless K and I are
disjoint) and xi_{L i} concatenates before normalizing.  On Theta^k inputs
the k = 0 result is multiplied by (lambda + Theta)^k, expanded binomially.

Evaluating at lambda = 0 gives the action of the algebra element t^0 xi_L.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from typing import Iterable, Iterator, Mapping

import numpy as np

from .exactnum import (
    GaussianRational,
    ONE,
    Q,
    accumulate,
    scalar_to_text,
)
from .grassmann import (
    ALL_MASKS,
    FULL_MASK,
    MASKS_BY_SIZE,
    N_INDICES,
    derive_mask,
    eta_bar,
    hodge_modified,
    mask_of,
    mono_product,
    normalize,
    triangle_sign,
    word_of,
    _DERIVE,
    _MERGE_SIGN,
    _WORDS,
)

__all__ = [
    "Fvec",
    "VermaVector",
    "ActionPolynomial",
    "FormalModule",
    "UnsupportedDegreeError",
    "mdeg",
    "ind_monomials",
    "lambda_action_T",
    "action_terms",
    "coefficient_functionals",
    "reconstruct_from_functionals",
    "flat_add",
    "flat_scale",
    "t_inverse",
    "render_vermavector",
    "coord_to_text",
    "formal_state",
    "ActionMatrixSlice",
    "commutator_suite",
]

Fvec = dict  # {coordinate key: GaussianRational}


def _accumulate_nested(out: dict, nested: Mapping, c=None) -> dict:
    """out += c * nested, in place, for two-level maps {key: Fvec}; a key
    whose Fvec cancels is removed (``accumulate`` on each Fvec)."""
    for key, fv in nested.items():
        if not accumulate(out.setdefault(key, {}), fv.items(), c):
            del out[key]
    return out


def mdeg(k: int, mask: int) -> int:
    """m-degree of the T-coordinate monomial Theta^k eta_I."""
    return 2 * k + N_INDICES - mask.bit_count()


def ind_monomials(max_mdeg: int) -> list[tuple[int, int]]:
    """All (Theta-exponent, eta-mask) with m-degree <= max_mdeg, ordered by
    (m-degree, k, mask)."""
    out = []
    k = 0
    while 2 * k <= max_mdeg:
        for mask in ALL_MASKS:
            if mdeg(k, mask) <= max_mdeg:
                out.append((k, mask))
        k += 1
    out.sort(key=lambda km: (mdeg(km[0], km[1]), km[0], km[1]))
    return out


class VermaVector:
    """Element of C[Theta] (x) Lambda(6) (x) F in T-coordinates."""

    __slots__ = ("module", "data")

    def __init__(self, module, data: Mapping[tuple[int, int], Fvec] | None = None):
        self.module = module
        clean: dict[tuple[int, int], Fvec] = {}
        if data:
            for (k, mask), fvec in data.items():
                if k < 0:
                    raise ValueError("negative Theta exponent")
                if not 0 <= mask <= FULL_MASK:
                    raise ValueError("eta mask out of range")
                fv = {c: v for c, v in fvec.items() if v}
                if fv:
                    clean[(k, mask)] = fv
        self.data = clean

    @classmethod
    def unit(cls, module, k: int, mask: int, coord) -> "VermaVector":
        return cls(module, {(k, mask): {coord: ONE}})

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.data == other.data

    def __add__(self, other: "VermaVector") -> "VermaVector":
        res = VermaVector.__new__(VermaVector)
        res.module = self.module
        res.data = _accumulate_nested({k: dict(v) for k, v in self.data.items()}, other.data)
        return res

    def __neg__(self) -> "VermaVector":
        res = VermaVector.__new__(VermaVector)
        res.module = self.module
        res.data = {k: {c: -v for c, v in fv.items()} for k, fv in self.data.items()}
        return res

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-other)

    def scale(self, c) -> "VermaVector":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        if not c:
            return VermaVector(self.module)
        res = VermaVector.__new__(VermaVector)
        res.module = self.module
        res.data = {k: {cc: v * c for cc, v in fv.items()} for k, fv in self.data.items()}
        return res

    def theta_degree(self) -> int:
        """Largest Theta exponent present (0 for the zero vector)."""
        return max((k for (k, _) in self.data), default=0)

    def mdegrees(self) -> set[int]:
        return {mdeg(k, mask) for (k, mask) in self.data}

    def coefficient(self, k: int, mask: int) -> Fvec:
        return dict(self.data.get((k, mask), {}))

    def items(self):
        return iter(sorted(self.data.items()))

    def __repr__(self) -> str:
        return render_vermavector(self)


# ---------------------------------------------------------------------------
# the action terms (memoized pure-sign computation)
# ---------------------------------------------------------------------------

OP_ID = ("id",)
OP_T = ("t",)

# the module enters the action only through these ops: the identity, t, and
# the 30 ordered monomials xi_a xi_b
_OPS = (OP_ID, OP_T) + tuple(("x", a, b) for a in range(1, N_INDICES + 1)
                             for b in range(1, N_INDICES + 1) if a != b)
_OP_INDEX = {op: n for n, op in enumerate(_OPS)}


def _op_matrices(module, t: GaussianRational = ONE) -> tuple[int, list[list[tuple]]]:
    """(den, COO entries (out, in, re, im) of each op's module matrix times
    den), den the common denominator of the xi entries and ``t``: the
    identity becomes den, the t op den * t (degree blocks pass t = 1)."""
    den = lcm(t.triple[2], *(
        v.triple[2] for mat in module.xi_action.values() for v in mat.values()))

    def cleared(v, sign=1):
        a, b, d = v.triple
        return sign * a * (den // d), sign * b * (den // d)

    out = [[(n, n, den, 0) for n in range(module.dim)],
           [(n, n, *cleared(t)) for n in range(module.dim) if t]]
    for _, a, b in _OPS[2:]:
        sign = 1 if a < b else -1
        out.append([(r, c, *cleared(v, sign))
                    for (r, c), v in module.xi_action[min(a, b), max(a, b)].items()])
    return den, out


def _check_expansion(op_mats: list[list[tuple]], what: str, row, col, s_re, s_im) -> None:
    """Raise OverflowError ("<what> can overflow int64") unless expanding
    these structural entries by the op matrices (``_kronecker_cells``)
    keeps every matrix cell in int64: entries sharing a structural cell sum
    into one matrix cell.  Runs on Python integers, before any op matrix
    becomes int64."""
    cell = row * (int(col.max(initial=0)) + 1) + col
    max_terms = int(np.unique(cell, return_counts=True)[1].max(initial=0))
    max_s = int((np.abs(s_re) + np.abs(s_im)).max(initial=0))
    max_m = max((abs(re) + abs(im) for mat in op_mats for *_, re, im in mat), default=0)
    if max_s * max_m * max_terms >= 1 << 63:
        raise OverflowError(f"{what} can overflow int64")


def _kronecker_cells(op_mats: list[list[tuple]], row, col, op, s_re, s_im) -> tuple:
    """The nonzero cells (rows, cols, re, im) of sum_op S_op (x) M_op, sorted
    by (row, col), with M_op the module's op matrices (``_op_matrices``).

    Entry s of S_{op[s]}, of weight s_re[s] + i s_im[s] at structural
    (row[s], col[s]), meets each entry (r, c, m_re, m_im) of M_op at
    (row[s] * dim + r, col[s] * dim + c), with weight (s_re + i s_im)(m_re
    + i m_im).  Terms of one cell are summed; cells that cancel are dropped.
    Callers run ``_check_expansion`` on the same entries first.
    """
    dim = len(op_mats[0])  # the identity has one entry per coordinate
    parts = [(np.zeros(0, dtype=np.int64),) * 4]
    for o, mat in enumerate(op_mats):
        sel = np.flatnonzero(op == o)
        if not (sel.size and mat):
            continue
        out_c, in_c, m_re, m_im = np.array(mat, dtype=np.int64).T
        sr, si = s_re[sel, None], s_im[sel, None]
        parts.append(((row[sel, None] * dim + out_c).ravel(),
                      (col[sel, None] * dim + in_c).ravel(),
                      (sr * m_re - si * m_im).ravel(), (sr * m_im + si * m_re).ravel()))
    rows, cols, re, im = map(np.concatenate, zip(*parts))
    width = int(cols.max(initial=0)) + 1
    key, re, im = _summed(rows * width + cols, re, im)
    return (*np.divmod(key, width), re, im)


def _summed(key, re, im) -> tuple:
    """(keys, re, im) of the terms summed per key, sorted by key, with the
    keys whose sum is 0 dropped."""
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    re, im = np.add.reduceat(np.stack((re, im))[:, order], starts, axis=1)
    keep = (re != 0) | (im != 0)
    return key[starts[keep]], re[keep], im[keep]


@lru_cache(maxsize=None)
def action_terms(l_mask: int, i_mask: int) -> tuple[tuple[int, int, int, tuple, int], ...]:
    """Terms of the action of xi_L on eta_I (x) v (k = 0 case).

    Each term is (lambda_power, theta_power, output_mask, op, integer
    scalar), where op is OP_ID, OP_T, or ('x', a, b) meaning the ordered
    module action of xi_a xi_b.
    """
    l = l_mask.bit_count()
    size_i = i_mask.bit_count()
    g_sign = triangle_sign(l) * (-1 if (l * size_i) & 1 else 1)
    minus_l = -1 if l & 1 else 1  # (-1)^l
    terms: list[tuple[int, int, int, tuple, int]] = []
    l_word, free = _WORDS[l_mask], _WORDS[FULL_MASK & ~l_mask]
    l_signs = _MERGE_SIGN[l_mask]

    disjoint = not l_mask & i_mask
    union = l_mask | i_mask

    # (l-2) Theta (xi_L * eta_I) (x) v
    if disjoint and l != 2:
        c = (l - 2) * l_signs[i_mask] * g_sign
        terms.append((0, 1, union, OP_ID, c))

    # -(-1)^l sum_i (d_i xi_L * d_i eta_I) (x) v
    for i in _WORDS[l_mask & i_mask]:
        s1, lm = _DERIVE[i - 1][l_mask]
        s2, im = _DERIVE[i - 1][i_mask]
        if lm & im:
            continue
        c = -minus_l * s1 * s2 * _MERGE_SIGN[lm][im] * g_sign
        terms.append((0, 0, lm | im, OP_ID, c))

    # -sum_{r<s} (d_r d_s xi_L * eta_I) (x) xi_s xi_r . v
    for a, r in enumerate(l_word):
        for s in l_word[a + 1:]:
            s_s, l1 = _DERIVE[s - 1][l_mask]
            s_r, l2 = _DERIVE[r - 1][l1]
            if l2 & i_mask:
                continue
            c = -s_s * s_r * _MERGE_SIGN[l2][i_mask] * g_sign
            terms.append((0, 0, l2 | i_mask, ("x", s, r), c))

    # lambda (xi_L * eta_I) (x) t.v
    if disjoint:
        c = l_signs[i_mask] * g_sign
        terms.append((1, 0, union, OP_T, c))

    # -lambda (-1)^l sum_i d_i (xi_{L i} * eta_I) (x) v
    if disjoint:
        for i in _WORDS[FULL_MASK & ~union]:
            bit = 1 << (i - 1)
            append_sign = l_signs[bit]
            star_sign = _MERGE_SIGN[l_mask | bit][i_mask]
            d_sign, out = _DERIVE[i - 1][union | bit]
            c = -minus_l * append_sign * star_sign * d_sign * g_sign
            terms.append((1, 0, out, OP_ID, c))

    # +lambda (-1)^l sum_{i != j} (d_i xi_{L j} * eta_I) (x) xi_j xi_i . v
    for j in free:
        bit_j = 1 << (j - 1)
        append_sign = l_signs[bit_j]
        lj = l_mask | bit_j
        for i in l_word:  # i in L u {j}, i != j  =>  i in L
            s_i, mj = _DERIVE[i - 1][lj]
            if mj & i_mask:
                continue
            c = minus_l * append_sign * s_i * _MERGE_SIGN[mj][i_mask] * g_sign
            terms.append((1, 0, mj | i_mask, ("x", j, i), c))

    # -lambda^2 sum_{i<j} (xi_{L i j} * eta_I) (x) xi_j xi_i . v
    for a, i in enumerate(free):
        for j in free[a + 1:]:
            bits = 1 << (i - 1) | 1 << (j - 1)
            lij = l_mask | bits
            if lij & i_mask:
                continue
            c = -l_signs[bits] * _MERGE_SIGN[lij][i_mask] * g_sign
            terms.append((2, 0, lij | i_mask, ("x", j, i), c))

    return tuple(term for term in terms if term[4])


def _apply_op(module, op: tuple, fvec: Fvec) -> Fvec:
    if op is OP_ID or op == OP_ID:
        return fvec
    if op is OP_T or op == OP_T:
        return module.act_t(fvec)
    return module.act_xi_pair(op[1], op[2], fvec)


class ActionPolynomial:
    """Polynomial in lambda with VermaVector coefficients (Theta folded into
    the vectors)."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module, coeffs: Mapping[int, VermaVector] | None = None):
        self.module = module
        clean: dict[int, VermaVector] = {}
        if coeffs:
            for j, vv in coeffs.items():
                if j < 0:
                    raise ValueError("negative lambda power")
                if vv:
                    clean[j] = vv
        self.coeffs = clean

    def coefficient(self, j: int) -> VermaVector:
        return self.coeffs.get(j, VermaVector(self.module))

    def lambda_degree(self) -> int:
        return max(self.coeffs, default=0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "ActionPolynomial") -> "ActionPolynomial":
        out = dict(self.coeffs)
        for j, vv in other.coeffs.items():
            s = out.get(j)
            s = vv if s is None else s + vv
            if s:
                out[j] = s
            else:
                out.pop(j, None)
        return ActionPolynomial(self.module, out)

    def __sub__(self, other: "ActionPolynomial") -> "ActionPolynomial":
        return self + other.scale(Q(-1))

    def scale(self, c) -> "ActionPolynomial":
        return ActionPolynomial(
            self.module, {j: vv.scale(c) for j, vv in self.coeffs.items()}
        )

    def shift_lambda(self, n: int) -> "ActionPolynomial":
        """Multiply by lambda^n."""
        return ActionPolynomial(
            self.module, {j + n: vv for j, vv in self.coeffs.items()}
        )

    def evaluate_lambda(self, lam) -> VermaVector:
        lam = lam if isinstance(lam, GaussianRational) else GaussianRational(lam)
        out = VermaVector(self.module)
        power = ONE
        for j in range(self.lambda_degree() + 1):
            vv = self.coeffs.get(j)
            if vv is not None:
                out = out + vv.scale(power)
            power = power * lam
        return out

    def items(self):
        return iter(sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, vv in sorted(self.coeffs.items()):
            head = "" if j == 0 else ("lambda " if j == 1 else f"lambda^{j} ")
            parts.append(f"{head}[{render_vermavector(vv)}]")
        return " + ".join(parts)


def lambda_action_T(L: Iterable[int], m: VermaVector) -> ActionPolynomial:
    """Action of xi_L (L a word of distinct indices, |L| <= 6) on m."""
    word = tuple(L)
    sign, sword = normalize(word)
    if sign == 0:
        raise ValueError(f"repeated index in L: {word}")
    l_mask = mask_of(sword)
    module = m.module
    out: dict[int, dict[tuple[int, int], Fvec]] = {}
    for (k, i_mask), fvec in m.data.items():
        for (j, dth, out_mask, op, c) in action_terms(l_mask, i_mask):
            w = _apply_op(module, op, fvec)
            if not w:
                continue
            # multiply by (lambda + Theta)^k
            for r in range(k + 1):
                target = out.setdefault(j + r, {}).setdefault((dth + k - r, out_mask), {})
                accumulate(target, w.items(), Q(c * sign * comb(k, r)))
    coeffs = {}
    for j, data in out.items():
        vv = VermaVector(module, data)
        if vv:
            coeffs[j] = vv
    return ActionPolynomial(module, coeffs)


# ---------------------------------------------------------------------------
# formal module
# ---------------------------------------------------------------------------

class FormalModule:
    """First-order formal g0-module: coordinates are the symbols
    ('v', k, I); t and the xi-pairs map them to ('t', ...) and ('x', ...)
    symbols.  Applying an operator to a non-'v' symbol is an error — the
    formal module only supports a single action layer."""

    name = "formal"
    dim = None

    def act_t(self, fvec: Fvec) -> Fvec:
        out: Fvec = {}
        for key, val in fvec.items():
            if not (isinstance(key, tuple) and key and key[0] == "v"):
                raise ValueError("formal module supports one action layer only")
            out[("t",) + key[1:]] = val
        return out

    def act_xi_pair(self, a: int, b: int, fvec: Fvec) -> Fvec:
        if a == b:
            return {}
        sign = ONE
        if a > b:
            a, b = b, a
            sign = -ONE
        out: Fvec = {}
        for key, val in fvec.items():
            if not (isinstance(key, tuple) and key and key[0] == "v"):
                raise ValueError("formal module supports one action layer only")
            out[("x", a, b) + key[1:]] = val * sign
        return out

    def __repr__(self) -> str:
        return "FormalModule()"


FORMAL = FormalModule()


def formal_state(n_max: int, masks: Iterable[int] | None = None) -> VermaVector:
    """The generic vector sum_{k<=n_max} sum_I Theta^k eta_I (x) v_{I,k}."""
    masks = tuple(ALL_MASKS if masks is None else masks)
    data = {}
    for k in range(n_max + 1):
        for mask in masks:
            data[(k, mask)] = {("v", k, mask): ONE}
    return VermaVector(FORMAL, data)


# ---------------------------------------------------------------------------
# coefficient functionals and mixed-basis extraction
# ---------------------------------------------------------------------------

class UnsupportedDegreeError(ValueError):
    """The functional view only covers Theta-degree <= 4."""


FlatElement = dict  # {eta-mask: Fvec}


def flat_add(x: FlatElement, y: FlatElement) -> FlatElement:
    return _accumulate_nested({mask: dict(fv) for mask, fv in x.items()}, y)


def flat_scale(x: FlatElement, c: GaussianRational) -> FlatElement:
    if not c:
        return {}
    return {mask: {cc: v * c for cc, v in fv.items()} for mask, fv in x.items()}


@lru_cache(maxsize=None)
def _functional_terms(l_mask: int, i_mask: int) -> tuple[tuple[str, int, tuple, int], ...]:
    """The terms that eta_I (x) v contributes to the families a, b, B, C of
    xi_L at its own Theta-level, derived by their literal defining sums.

    Each term is (family, output mask, op, integer coefficient): the family
    gains coefficient * op(v) at the output mask, where op is OP_ID, OP_T,
    or ('x', a, b), the ordered module action of xi_a xi_b.  The terms
    depend on signs only, never on the module or on v, so one table serves
    every vector; they are independent of ``action_terms``.
    """
    l = l_mask.bit_count()
    minus_l = -1 if l & 1 else 1
    terms: list[tuple[str, int, tuple, int]] = []

    def put(family: str, mask: int, op: tuple, c: int) -> None:
        if c:
            terms.append((family, mask, op, c))

    size_i = i_mask.bit_count()
    g_sign = triangle_sign(l) * (-1 if (l * size_i) & 1 else 1)
    disjoint = not l_mask & i_mask
    union = l_mask | i_mask
    l_word, free = _WORDS[l_mask], _WORDS[FULL_MASK & ~l_mask]
    l_signs = _MERGE_SIGN[l_mask]

    # a_p: (l-2)(xi_L * eta_I) (x) v
    if disjoint and l != 2:
        put("a", union, OP_ID, (l - 2) * l_signs[i_mask] * g_sign)

    # b_p: -(-1)^l sum_i (d_i xi_L * d_i eta_I) (x) v
    for i in _WORDS[l_mask & i_mask]:
        s1, lm = _DERIVE[i - 1][l_mask]
        s2, im = _DERIVE[i - 1][i_mask]
        if lm & im:
            continue
        put("b", lm | im, OP_ID, -minus_l * s1 * s2 * _MERGE_SIGN[lm][im] * g_sign)
    #      - sum_{r<s} (d_r d_s xi_L * eta_I) (x) xi_s xi_r . v
    for ai, rr in enumerate(l_word):
        for ss in l_word[ai + 1:]:
            s_s, l1 = _DERIVE[ss - 1][l_mask]
            s_r, l2 = _DERIVE[rr - 1][l1]
            if l2 & i_mask:
                continue
            put("b", l2 | i_mask, ("x", ss, rr),
                -s_s * s_r * _MERGE_SIGN[l2][i_mask] * g_sign)

    # B_p: (xi_L * eta_I) (x) t.v
    if disjoint:
        put("B", union, OP_T, l_signs[i_mask] * g_sign)
    #      -(-1)^l sum_i d_i(xi_{L i} * eta_I) (x) v
    if disjoint:
        for i in _WORDS[FULL_MASK & ~union]:
            bit = 1 << (i - 1)
            append_sign = l_signs[bit]
            star_sign = _MERGE_SIGN[l_mask | bit][i_mask]
            d_sign, om = _DERIVE[i - 1][union | bit]
            put("B", om, OP_ID, -minus_l * append_sign * star_sign * d_sign * g_sign)
    #      +(-1)^l sum_{i != j} (d_i xi_{L j} * eta_I) (x) xi_j xi_i . v
    for j in free:
        bit_j = 1 << (j - 1)
        append_sign = l_signs[bit_j]
        lj = l_mask | bit_j
        for i in l_word:
            s_i, mj = _DERIVE[i - 1][lj]
            if mj & i_mask:
                continue
            put("B", mj | i_mask, ("x", j, i),
                minus_l * append_sign * s_i * _MERGE_SIGN[mj][i_mask] * g_sign)

    # C_p: -sum_{i<j} (xi_{L i j} * eta_I) (x) xi_j xi_i . v
    for ai, i in enumerate(free):
        for j in free[ai + 1:]:
            bits = 1 << (i - 1) | 1 << (j - 1)
            lij = l_mask | bits
            if lij & i_mask:
                continue
            put("C", lij | i_mask, ("x", j, i),
                -l_signs[bits] * _MERGE_SIGN[lij][i_mask] * g_sign)
    return tuple(terms)


def coefficient_functionals(L: Iterable[int], m: VermaVector) -> dict[tuple[str, int], FlatElement]:
    """The eight families a_p, b_p, B_p, C_p, ad_p, bd_p, Bd_p, Cd_p for
    0 <= p <= 4, from their defining sums.

    The dual families apply the same definitions to the Hodge dual of xi_L.
    The signs come from the per-(xi_L, eta_I) tables of
    ``_functional_terms``, which are derived by the literal sums; the sign
    of L and of its dual are folded into each integer coefficient, and each
    module action is applied once per input coefficient.
    Raises UnsupportedDegreeError when the input has Theta-degree > 4.
    """
    if m.theta_degree() > 4:
        raise UnsupportedDegreeError(
            "the coefficient-functional view covers Theta-degree <= 4 only"
        )
    word = tuple(L)
    sign, sword = normalize(word)
    if sign == 0:
        raise ValueError(f"repeated index in L: {word}")
    l_mask = mask_of(sword)
    dual_sign, dual_mask = hodge_modified(l_mask)
    module = m.module
    levels: list[list[tuple[int, Fvec]]] = [[] for _ in range(5)]
    for (k, i_mask), v in sorted(m.data.items(), key=lambda item: item[0][1]):
        levels[k].append((i_mask, v))
    out: dict[tuple[str, int], FlatElement] = {}
    for p, level in enumerate(levels):
        acted: dict[tuple[int, tuple], Fvec] = {}
        for lm, suffix, s in ((l_mask, "", sign), (dual_mask, "d", sign * dual_sign)):
            fams = {fam: {} for fam in ("a", "b", "B", "C")}
            for i_mask, v in level:
                for fam, om, op, c in _functional_terms(lm, i_mask):
                    w = acted.get((i_mask, op))
                    if w is None:
                        w = acted[i_mask, op] = _apply_op(module, op, v)
                    if not w:
                        continue
                    if not accumulate(fams[fam].setdefault(om, {}), w.items(), Q(s * c)):
                        del fams[fam][om]
            for fam, val in fams.items():
                out[(fam + suffix, p)] = val
    return out


def reconstruct_from_functionals(
    funcs: dict[tuple[str, int], FlatElement], module
) -> ActionPolynomial:
    """Assemble b0 + lambda(B0-a0) + lambda^2 C0 + (lambda+Theta)[a0+b1]
    + (lambda+Theta) lambda (B1-a1) + ... + (lambda+Theta)^5 a4 into an
    ActionPolynomial (binomially expanding the (lambda+Theta) powers)."""
    out: dict[int, dict[tuple[int, int], Fvec]] = {}

    def add_flat(flat: FlatElement, lam: int, theta_base: int, binom_power: int,
                 sign: int = 1) -> None:
        # flat * lambda^lam * (lambda+Theta)^binom_power * (sign)
        for rpow in range(binom_power + 1):
            c = comb(binom_power, rpow) * sign
            j = lam + rpow
            th = theta_base + binom_power - rpow
            for mask, fv in flat.items():
                accumulate(out.setdefault(j, {}).setdefault((th, mask), {}), fv.items(), Q(c))

    def fam(name: str, p: int) -> FlatElement:
        return funcs.get((name, p), {})

    for p in range(5):
        # (lambda+Theta)^p [a_{p-1} + b_p]
        if p >= 1:
            add_flat(fam("a", p - 1), 0, 0, p)
        add_flat(fam("b", p), 0, 0, p)
        # (lambda+Theta)^p lambda (B_p - a_p)
        add_flat(fam("B", p), 1, 0, p)
        add_flat(fam("a", p), 1, 0, p, sign=-1)
        # (lambda+Theta)^p lambda^2 C_p
        add_flat(fam("C", p), 2, 0, p)
    add_flat(fam("a", 4), 0, 0, 5)

    coeffs = {}
    for j, data in out.items():
        vv = VermaVector(module, data)
        if vv:
            coeffs[j] = vv
    return ActionPolynomial(module, coeffs)


# ---------------------------------------------------------------------------
# mixed (lambda, mu = lambda + Theta) coefficient extraction
# ---------------------------------------------------------------------------

def mixed_cells(P: ActionPolynomial) -> dict[tuple[int, int], FlatElement]:
    """All (lambda, mu = lambda + Theta) cells of P, as {(lambda-power,
    mu-power): Lambda(6)-F element}: substituting Theta = mu - lambda spreads
    lambda^j Theta^k into sum_r C(k,r) (-1)^r lambda^(j+r) mu^(k-r)."""
    cells: dict[tuple[int, int], FlatElement] = {}
    for j, vv in P.coeffs.items():
        for (k, mask), fv in vv.data.items():
            for r in range(k + 1):
                key = (j + r, k - r)
                if not _accumulate_nested(cells.setdefault(key, {}), {mask: fv},
                                          Q((-1) ** r * comb(k, r))):
                    del cells[key]
    return cells


# ---------------------------------------------------------------------------
# rendering and the inverse coordinate change
# ---------------------------------------------------------------------------

def t_inverse(vv: VermaVector) -> VermaVector:
    """Rewrite a T-coordinate vector in m-coordinates (rendering only).

    T sends Theta^k eta_I (x) v to Theta^k bar(eta_I) (x) v; the inverse
    replaces each eta_I by the monomial whose bar equals it.
    """
    out: dict[tuple[int, int], Fvec] = {}
    for (k, mask), fv in vv.data.items():
        comp = mask ^ FULL_MASK
        bar_sign, back = eta_bar(comp)
        assert back == mask
        accumulate(out.setdefault((k, comp), {}), fv.items(), Q(bar_sign).inverse())
    return VermaVector(vv.module, out)


def coord_to_text(key) -> str:
    if isinstance(key, int):
        return f"e{key}"
    if isinstance(key, tuple):
        head = key[0]
        if head == "v":
            _, k, mask = key
            return f"v[{_mask_text(mask)},{k}]"
        if head == "t":
            _, k, mask = key
            return f"t.v[{_mask_text(mask)},{k}]"
        if head == "x":
            _, a, b, k, mask = key
            return f"xi[{a}{b}].v[{_mask_text(mask)},{k}]"
    return repr(key)


def _mask_text(mask: int) -> str:
    if not mask:
        return "0"
    return "".join(str(i) for i in word_of(mask))


def render_vermavector(vv: VermaVector) -> str:
    if not vv.data:
        return "0"
    parts = []
    for (k, mask), fv in sorted(vv.data.items()):
        head = []
        if k == 1:
            head.append("Theta")
        elif k > 1:
            head.append(f"Theta^{k}")
        head.append(f"eta[{_mask_text(mask)}]" if mask else "eta[]")
        body = " ".join(head)
        coords = " + ".join(
            f"({scalar_to_text(v)}) {coord_to_text(c)}"
            for c, v in sorted(fv.items(), key=lambda cv: repr(cv[0]))
        )
        parts.append(f"{body} (x) [{coords}]")
    return "  +  ".join(parts)


# ---------------------------------------------------------------------------
# matrix slice for the bulk commutator suite
# ---------------------------------------------------------------------------

class ActionMatrixSlice:
    """Integer matrices of the lambda-action coefficients on the slice of
    Ind(F) of m-degree <= max_mdeg, for a matrix-backed module F.

    Columns/rows are indexed by (monomial index, F-coordinate); a matrix is
    given by its nonzero cells (rows, cols, re, im), int64 arrays sorted by
    (row, col) and scaled by ``den`` (which clears the xi entries and t, see
    ``_op_matrices``): the true entry is (re + i im)/den.  The columns of
    m-degree <= d (``columns_upto(d)``) never truncate as long as d + 2 <=
    max_mdeg.
    """

    def __init__(self, module, max_mdeg: int = 8):
        self.module = module
        self.max_mdeg = max_mdeg
        self.monomials = ind_monomials(max_mdeg)
        self.mono_index = {km: n for n, km in enumerate(self.monomials)}
        self.fdim = module.dim
        self.dim = len(self.monomials) * self.fdim
        self._degrees = np.array([mdeg(k, mask) for (k, mask) in self.monomials])
        self.den, self._op_mats = _op_matrices(module, module.t_scalar)
        self._cache: dict[int, dict[int, tuple]] = {}

    def flat(self, n_mono: int, coord: int) -> int:
        return n_mono * self.fdim + coord

    def columns_upto(self, d: int) -> np.ndarray:
        keep = np.repeat(self._degrees <= d, self.fdim)
        return np.nonzero(keep)[0]

    def matrices(self, l_mask: int) -> dict[int, tuple]:
        """{lambda-power: cells (rows, cols, re, im)} of xi_L on the slice,
        scaled by den; a power with no nonzero cell is left out.  Structure
        (x) module ops: rows (lambda power, out monomial, in monomial, op,
        weight) from ``action_terms``, expanded into cells by
        ``_kronecker_cells``.  Raises OverflowError when an entry could leave
        int64 (``_check_expansion``)."""
        got = self._cache.get(l_mask)
        if got is not None:
            return got
        flat: list[int] = []
        for n_in, (k, i_mask) in enumerate(self.monomials):
            for (j, dth, out_mask, op, c) in action_terms(l_mask, i_mask):
                for r in range(k + 1):
                    n_out = self.mono_index.get((dth + k - r, out_mask))
                    if n_out is not None:  # otherwise it falls outside the slice
                        flat.extend((j + r, n_out, n_in, _OP_INDEX[op], c * comb(k, r)))
        power, n_out, n_in, op, w = np.array(flat, dtype=np.int64).reshape(-1, 5).T
        # the lambda powers stack as row blocks of one tall matrix
        row, zeros = power * len(self.monomials) + n_out, np.zeros_like(w)
        _check_expansion(self._op_mats, f"action slice of module {self.module.name!r}",
                         row, n_in, w, zeros)
        rows, cols, re, im = _kronecker_cells(self._op_mats, row, n_in, op, w, zeros)
        power, rows = np.divmod(rows, self.dim)
        out = {}
        for jj in np.unique(power).tolist():
            sel = power == jj
            out[jj] = (rows[sel], cols[sel], re[sel], im[sel])
        self._cache[l_mask] = out
        return out


# partial products summed at once by commutator_suite, bounding its memory
# (about 80 bytes each at the peak)
_SUITE_BATCH = 100_000


def _rhs_weights(f_mask: int, g_mask: int, powers) -> Iterator[tuple]:
    """(K mask, power n, a, b, weight): the lambda^a mu^b cell of the
    right-hand side of the (f, g) identity sums weight * M_K^(n), from
    [f_lambda g] = (r-2) d(f g) + (-1)^r sum_i (d_i f)(d_i g) + lambda (r+s-4)
    f g with d = -(lambda+mu); ``powers(K)`` iterates the powers of M_K."""
    r, s = f_mask.bit_count(), g_mask.bit_count()
    s_fg, k_mask = mono_product(f_mask, g_mask)
    if s_fg:
        for n in powers(k_mask):
            for a in range(n + 1):
                c = comb(n, a) * s_fg
                # -(r-2) lambda + (r+s-4) lambda, and -(r-2) mu
                yield k_mask, n, a + 1, n - a, (s - 2) * c
                yield k_mask, n, a, n - a + 1, (2 - r) * c
    for i in word_of(f_mask & g_mask):
        (s1, fm), (s2, gm) = derive_mask(i, f_mask), derive_mask(i, g_mask)
        s3, km = mono_product(fm, gm)
        if s3:
            for n in powers(km):
                for a in range(n + 1):
                    yield km, n, a, n - a, (-1) ** r * s1 * s2 * s3 * comb(n, a)


def _complex_products(A: tuple, B: tuple) -> tuple:
    """The unsummed terms (rows, cols, re, im) of A @ B for complex matrices
    given as cells (rows, cols, re, im), B's sorted by row: each cell (r, k)
    of A meets each cell (k, c) of B in a term at (r, c), the product of
    their values."""
    (a_row, a_col, ar, ai), (b_row, b_col, br, bi) = A, B
    # B's row k holds its cells ptr[k]..ptr[k + 1] - 1
    ptr = np.searchsorted(b_row, np.arange(int(a_col.max(initial=0)) + 2))
    lo = ptr[a_col]
    count = ptr[a_col + 1] - lo
    a = np.repeat(np.arange(len(a_col)), count)
    b = np.arange(len(a)) + np.repeat(lo - np.cumsum(count) + count, count)
    ar, ai, br, bi = ar[a], ai[a], br[b], bi[b]
    return a_row[a], b_col[b], ar * br - ai * bi, ar * bi + ai * br


def commutator_suite(module, max_input_mdeg: int = 4, max_size: int = 3) -> dict:
    """Exact operator check of [Phi_f(lambda), Phi_g(mu)] =
    Phi_{[f_lambda g]}(lambda+mu) on all columns of Ind(F) of m-degree <=
    max_input_mdeg, for all ordered pairs of monomials f = xi_F, g = xi_G
    with |F|, |G| <= max_size, via integer matrices on the m-degree <=
    (max_input_mdeg + 4) slice.  The action raises the m-degree by at most
    2, so every term stays inside the slice: the computation is exact.

    Per f and batch of g's, three products give every M_f^(a) M_g^(b),
    every M_g^(b) M_f^(a) and every right-hand side (the restricted slice
    matrices times kron(C_f, I), C_f the ``_rhs_weights``).  Their terms are
    summed once, into one difference matrix with a column block per (g, a,
    b): an ordered pair fails iff one of its blocks is nonzero.  Raises
    OverflowError when an int64 sum could wrap."""
    sl = ActionMatrixSlice(module, max_mdeg=max_input_mdeg + 4)
    in_cols = sl.columns_upto(max_input_mdeg)
    n_in, dim, den = len(in_cols), sl.dim, sl.den
    masks = [m for size in range(max_size + 1) for m in MASKS_BY_SIZE[size]]
    n = len(masks)
    # per f, rows (g, K mask, power n, a, b, weight) of its right-hand sides
    weights = [np.array([(g_idx, *term) for g_idx, g in enumerate(masks)
                         for term in _rhs_weights(f, g, sl.matrices)],
                        dtype=np.int64).reshape(-1, 6) for f in masks]
    k_masks = set(np.concatenate([x[:, 1] for x in weights]).tolist()) - set(masks)
    mats = {m: sl.matrices(m) for m in masks + sorted(k_masks)}
    # one block per (mask, power), the f/g masks' first and in mask order;
    # `rest` holds each block's cells in the input columns, renumbered
    blocks = [(m, p) for m in mats for p in sorted(mats[m])]
    full = [mats[m][p] for m, p in blocks]
    in_pos = np.full(dim, -1)
    in_pos[in_cols] = np.arange(n_in)
    rest = []
    for rows, cols, re, im in full:
        keep = in_pos[cols] >= 0
        rest.append((rows[keep], in_pos[cols[keep]], re[keep], im[keep]))
    starts = np.cumsum([0] + [len(mats[m]) for m in masks])
    block_power = np.array([p for _, p in blocks], dtype=np.int64)
    n_ab = int(block_power.max()) + 2  # cell powers a, b < n_ab
    block_of = np.zeros((FULL_MASK + 1, n_ab), dtype=np.int64)
    block_of[[m for m, _ in blocks], block_power] = np.arange(len(blocks))

    # |entry| <= max_m, a product entry sums at most max_row terms (one per
    # cell of a row of the left factor), and a difference entry two products
    # and right-hand-side weights <= max_w
    max_m = max(int(abs(re).max(initial=0)) + int(abs(im).max(initial=0))
                for *_, re, im in full)
    max_row = max(int(np.bincount(rows).max(initial=0)) for rows, *_ in full[:starts[-1]])
    max_w = 0
    for g, _, _, a, b, w in (x.T for x in weights):
        cell_of = np.unique((g * n_ab + a) * n_ab + b, return_inverse=True)[1]
        max_w = max(max_w, den * int(np.bincount(cell_of, abs(w)).max(initial=0)))
    if 2 * max_row * max_m**2 + max_w * max_m >= 1 << 63:
        raise OverflowError(
            f"commutator suite sums of module {module.name!r} can overflow int64")

    # n_terms[f, g]: the partial products of (f, g), as many as cells of a
    # left factor's column meet cells of the right factor's row
    col_count, row_count = np.zeros((2, n, dim), dtype=np.int64)
    for g_idx in range(n):
        for blk in range(starts[g_idx], starts[g_idx + 1]):
            col_count[g_idx] += np.bincount(full[blk][1], minlength=dim)
            row_count[g_idx] += np.bincount(rest[blk][0], minlength=dim)
    fg = col_count @ row_count.T
    rest_nnz = np.array([len(x[0]) for x in rest])
    n_terms = fg + fg.T + np.array([
        np.bincount(w[:, 0], rest_nnz[block_of[w[:, 1], w[:, 2]]], minlength=n)
        for w in weights], dtype=np.int64)
    # batches of consecutive g's whose terms with any one f stay within
    # _SUITE_BATCH
    cuts, run = [0], 0
    for g_idx in range(n):
        if g_idx > cuts[-1] and np.max(run + n_terms[:, g_idx]) > _SUITE_BATCH:
            cuts, run = cuts + [g_idx], 0
        run = run + n_terms[:, g_idx]

    def stacked(b_lo: int, b_hi: int) -> tuple:
        """The cells of blocks b_lo..b_hi-1: their full matrices on top of
        each other, and their restricted ones side by side, sorted by row."""
        top = [(r + k * dim, c, re, im) for k, (r, c, re, im) in enumerate(full[b_lo:b_hi])]
        side = [(r, c + k * n_in, re, im) for k, (r, c, re, im) in enumerate(rest[b_lo:b_hi])]
        side = tuple(map(np.concatenate, zip(*side)))
        order = np.argsort(side[0], kind="stable")
        return tuple(map(np.concatenate, zip(*top))), tuple(x[order] for x in side)

    batches = [(lo, hi, *stacked(starts[lo], starts[hi]))
               for lo, hi in zip(cuts, cuts[1:] + [n])]
    # each restricted matrix flattened into a row: [restricted matrices side
    # by side] @ kron(C, I) is C^T @ flat_rest, rows and columns exchanged
    flat_rest = tuple(map(np.concatenate, zip(*(
        (np.full(len(r), blk), r * n_in + c, re, im)
        for blk, (r, c, re, im) in enumerate(rest)))))

    cell = n_ab * n_ab * n_in  # difference columns (g, a, b, input column)
    block_g = np.repeat(np.arange(n), np.diff(starts))
    block_odd = np.array([masks[g].bit_count() & 1 for g in block_g], dtype=bool)
    fails = np.zeros((n, n), dtype=bool)
    for f_idx, f_mask in enumerate(masks):
        f_lo, f_hi = starts[f_idx], starts[f_idx + 1]
        f_full, f_rest = stacked(f_lo, f_hi)
        f_shift = block_power[f_lo:f_hi] * n_ab * n_in
        for lo, hi, g_full, g_rest in batches:
            b_lo, b_hi = starts[lo], starts[hi]
            base = (block_g[b_lo:b_hi] - lo) * cell + block_power[b_lo:b_hi] * n_in
            # -(-1)^{p(f)p(g)}, the sign of M_g^(b) M_f^(a)
            sign_gf = np.where(block_odd[b_lo:b_hi] & bool(f_mask.bit_count() & 1),
                               1, -1)
            g, k_mask, p, a, b, w = weights[f_idx][
                (weights[f_idx][:, 0] >= lo) & (weights[f_idx][:, 0] < hi)].T
            c = (((g - lo) * n_ab + a) * n_ab + b, block_of[k_mask, p], w * den,
                 np.zeros_like(w))
            parts = []  # (difference column * dim + row, re, im) of every term
            r, col, re, im = _complex_products(f_full, g_rest)
            (a, row), (blk, i) = np.divmod(r, dim), np.divmod(col, n_in)
            parts.append(((base[blk] + f_shift[a] + i) * dim + row, re, im))
            r, col, re, im = _complex_products(g_full, f_rest)
            (blk, row), (a, i) = np.divmod(r, dim), np.divmod(col, n_in)
            s = sign_gf[blk]
            parts.append(((base[blk] + f_shift[a] + i) * dim + row, s * re, s * im))
            r, col, re, im = _complex_products(c, flat_rest)
            row, i = np.divmod(col, n_in)
            parts.append(((r * n_in + i) * dim + row, -re, -im))
            key = _summed(*map(np.concatenate, zip(*parts)))[0]
            fails[f_idx, lo + key // (cell * dim)] = True

    order = [p for f in range(n) for g in range(f, n)
             for p in dict.fromkeys([(f, g), (g, f)])]
    failures = [(word_of(masks[x]), word_of(masks[y])) for x, y in order if fails[x, y]]
    return {"ok": not failures, "pairs_checked": len(order), "failures": failures,
            "input_columns": int(n_in), "slice_dim": dim}
