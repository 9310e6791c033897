"""Finite-dimensional modules over g0 = C t + so(6), given by explicit matrices.

A ``ModuleSpec`` holds the ingredients of the degree-zero action on a space
F of dimension ``dim``:

* ``t_scalar`` — the central element t acts as this scalar;
* ``xi_action[(i, j)]`` for 1 <= i < j <= 6 — a sparse ``dim x dim`` matrix
  over Q(i) giving the action of the monomial xi_i xi_j, stored as
  ``{(row, col): coefficient}`` with 0-based indices and the convention
  ``(M v)_r = sum_c M[r, c] v_c``.

Vectors in F are sparse maps ``{coordinate index: coefficient}``.

The Cartan elements are H_l = -i xi_(2l-1, 2l); a weight is the triple of
exact H_l-eigenvalues.  Highest-weight vectors are the joint kernel of the
six positive-root vectors of the so(6) part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._linalg import nullspace
from .contact import ContactElement, contact_bracket, root_datum
from .exactnum import (
    GaussianRational,
    ONE,
    Q,
    accumulate,
    scalar_from_text,
    scalar_to_text,
)
from .grassmann import N_INDICES, word_of

__all__ = [
    "ModuleSpec",
    "WeightVector",
    "validate",
    "builtin",
    "BUILTIN_NAMES",
    "highest_weight_vectors",
    "weight_decomposition",
    "module_to_text",
    "module_from_text",
    "ModuleFormatError",
]

Vec = dict[int, GaussianRational]
Mat = dict[tuple[int, int], GaussianRational]

XI_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, N_INDICES + 1) for j in range(i + 1, N_INDICES + 1)
)


class ModuleSpec:
    """Matrices for a g0-module; immutable once constructed."""

    __slots__ = ("dim", "t_scalar", "xi_action", "name")

    def __init__(
        self,
        dim: int,
        t_scalar: GaussianRational,
        xi_action: Mapping[tuple[int, int], Mat],
        name: str = "custom",
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be a positive integer")
        t_scalar = (
            t_scalar
            if isinstance(t_scalar, GaussianRational)
            else GaussianRational(t_scalar)
        )
        clean: dict[tuple[int, int], Mat] = {}
        for (i, j) in XI_PAIRS:
            mat = xi_action.get((i, j), {})
            cm: Mat = {}
            for (r, c), v in mat.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"matrix entry out of range for xi[{i}{j}]: ({r},{c})")
                v = v if isinstance(v, GaussianRational) else GaussianRational(v)
                if v:
                    cm[(r, c)] = v
            clean[(i, j)] = cm
        unknown = set(xi_action) - set(XI_PAIRS)
        if unknown:
            raise ValueError(f"xi_action keys must be pairs i<j in 1..6, got {sorted(unknown)[:3]}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "t_scalar", t_scalar)
        object.__setattr__(self, "xi_action", clean)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *_):
        raise AttributeError("ModuleSpec is immutable")

    def __reduce__(self):
        return (ModuleSpec, (self.dim, self.t_scalar, self.xi_action, self.name))

    # -- linear action -----------------------------------------------------

    def act_xi_pair(self, a: int, b: int, vec: Vec) -> Vec:
        """Action of the (possibly unordered) monomial xi_a xi_b: zero when
        a == b, and xi_b xi_a = -xi_a xi_b."""
        if a == b:
            return {}
        out = _mat_vec(self.xi_action[min(a, b), max(a, b)], vec)
        return out if a < b else {r: -v for r, v in out.items()}

    def act_t(self, vec: Vec) -> Vec:
        if not self.t_scalar:
            return {}
        return {r: v * self.t_scalar for r, v in vec.items()}

    def matrix_of(self, x: ContactElement) -> Mat:
        """Dense-enough sparse matrix of a degree-zero element."""
        out: Mat = {}
        for (k, mask), coef in x.data.items():
            if k == 1 and mask == 0:
                accumulate(out, (((d, d), self.t_scalar) for d in range(self.dim)), coef)
            elif k == 0 and mask.bit_count() == 2:
                accumulate(out, self.xi_action[word_of(mask)].items(), coef)
            else:
                raise ValueError("element is not in the degree-zero part C t + so(6)")
        return out

    def cartan_matrices(self) -> tuple[Mat, Mat, Mat]:
        rd = root_datum()
        return tuple(self.matrix_of(h) for h in rd.cartan)

    def __repr__(self) -> str:
        return f"ModuleSpec(name={self.name!r}, dim={self.dim}, t={scalar_to_text(self.t_scalar)})"


@dataclass(frozen=True)
class WeightVector:
    vector: Vec
    weight: tuple[GaussianRational, GaussianRational, GaussianRational]


def _mat_vec(mat: Mat, vec: Vec) -> Vec:
    return accumulate({}, ((r, m * vec[c]) for (r, c), m in mat.items() if c in vec))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    by_row: dict[int, list[tuple[int, GaussianRational]]] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    # sum of a[r,c] * b[c,c2] at (r, c2)
    return accumulate({}, (((r, c2), va * vb) for (r, c), va in a.items()
                           for c2, vb in by_row.get(c, ())))


def validate(spec: ModuleSpec) -> dict:
    """Check the representation property on all xi-pair brackets.

    Returns {"ok": bool, "first_failure": str | None, "pairs_checked": int}.
    """
    report = {"ok": True, "first_failure": None, "pairs_checked": 0}
    mats = {pair: spec.xi_action[pair] for pair in XI_PAIRS}
    for x_pair in XI_PAIRS:
        for y_pair in XI_PAIRS:
            bx = ContactElement.monomial(0, x_pair)
            by = ContactElement.monomial(0, y_pair)
            bracket = contact_bracket(bx, by)
            lhs = _mat_mul(mats[x_pair], mats[y_pair])
            rhs = _mat_mul(mats[y_pair], mats[x_pair])
            comm = accumulate(dict(lhs), rhs.items(), -ONE)
            expected = spec.matrix_of(bracket) if bracket else {}
            report["pairs_checked"] += 1
            if comm != expected:
                report["ok"] = False
                if report["first_failure"] is None:
                    report["first_failure"] = (
                        f"[xi[{x_pair[0]}{x_pair[1]}], xi[{y_pair[0]}{y_pair[1]}]]"
                    )
    return report


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("trivial", "vector", "adjoint")


def builtin(name: str, t_scalar) -> ModuleSpec:
    if name == "trivial":
        return ModuleSpec(1, _as_scalar(t_scalar), {}, name="trivial")
    if name == "vector":
        action: dict[tuple[int, int], Mat] = {}
        for (i, j) in XI_PAIRS:
            # xi_(ij) acts as E_(ji) - E_(ij) (0-based entries)
            action[(i, j)] = {(j - 1, i - 1): ONE, (i - 1, j - 1): -ONE}
        return ModuleSpec(6, _as_scalar(t_scalar), action, name="vector")
    if name == "adjoint":
        basis = list(XI_PAIRS)
        index = {pair: n for n, pair in enumerate(basis)}
        action = {}
        for (i, j) in XI_PAIRS:
            mat: Mat = {}
            x = ContactElement.monomial(0, (i, j))
            for (a, b) in basis:
                out = contact_bracket(x, ContactElement.monomial(0, (a, b)))
                for (k, mask), coef in out.data.items():
                    if k != 0 or mask.bit_count() != 2:
                        raise AssertionError("so(6) bracket left the xi-pair span")
                    pair = word_of(mask)
                    mat[(index[pair], index[(a, b)])] = coef
            action[(i, j)] = mat
        return ModuleSpec(15, _as_scalar(t_scalar), action, name="adjoint")
    raise ValueError(f"unknown builtin module {name!r}; choose from {BUILTIN_NAMES}")


def _as_scalar(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return scalar_from_text(x)
    return GaussianRational(x)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

_WEIGHT_GRID = [Q(Fraction(n, 2)) for n in range(-6, 7)]


def highest_weight_vectors(spec: ModuleSpec) -> list[WeightVector]:
    """Joint kernel of the positive-root vectors, split into weight vectors."""
    rd = root_datum()
    rows: list[dict[int, GaussianRational]] = []
    for root in rd.positive_roots:
        mat = spec.matrix_of(rd.root_vectors[root])
        by_row: dict[int, dict[int, GaussianRational]] = {}
        for (r, c), v in mat.items():
            by_row.setdefault(r, {})[c] = v
        rows.extend(by_row.values())
    kernel = nullspace(rows, list(range(spec.dim)))
    return _split_by_weights(spec, kernel)


def _split_by_weights(spec: ModuleSpec, space: list[Vec]) -> list[WeightVector]:
    """Split an H-invariant subspace (given by basis vectors) into joint
    eigenvectors of H1, H2, H3, scanning half-integer eigenvalues in [-3, 3].
    """
    if not space:
        return []
    cartans = spec.cartan_matrices()
    pieces: list[tuple[list[Vec], list[GaussianRational]]] = [(space, [])]
    for h in cartans:
        next_pieces: list[tuple[list[Vec], list[GaussianRational]]] = []
        for basis, weight_prefix in pieces:
            found = 0
            for cand in _WEIGHT_GRID:
                eig = _eigen_subbasis(h, basis, cand)
                if eig:
                    next_pieces.append((eig, weight_prefix + [cand]))
                    found += len(eig)
            if found != len(basis):
                raise ValueError(
                    "weight decomposition failed: H-eigenvalues outside the "
                    "half-integer grid [-3, 3] or a non-diagonalizable action"
                )
        pieces = next_pieces
    out = []
    for basis, weight in pieces:
        for v in basis:
            w = (weight[0], weight[1], weight[2])
            _assert_eigen(cartans, v, w)
            out.append(WeightVector(v, w))
    out.sort(key=lambda wv: tuple(
        (c.re, c.im) for c in wv.weight
    ), reverse=True)
    return out


def _eigen_subbasis(h: Mat, basis: list[Vec], cand: GaussianRational) -> list[Vec]:
    """Basis of ker(h - cand) inside span(basis), as ambient vectors."""
    # rows over unknown combination coefficients x_k:
    #   sum_k ((h basis_k)_r - cand basis_k_r) x_k = 0 for each ambient r
    images = [_mat_vec(h, b) for b in basis]
    rows_by_ambient: dict[int, dict[int, GaussianRational]] = {}
    for kcol, (b, hb) in enumerate(zip(basis, images)):
        delta = accumulate(dict(hb), b.items(), -cand)
        for r, v in delta.items():
            rows_by_ambient.setdefault(r, {})[kcol] = v
    combos = nullspace(list(rows_by_ambient.values()), list(range(len(basis))))
    out = []
    for combo in combos:
        vec: Vec = {}
        for kcol, coef in combo.items():
            accumulate(vec, basis[kcol].items(), coef)
        if vec:
            out.append(vec)
    return out


def _assert_eigen(cartans, v: Vec, w) -> None:
    for h, wl in zip(cartans, w):
        hv = _mat_vec(h, v)
        expect = {r: val * wl for r, val in v.items() if val * wl}
        if hv != expect:
            raise AssertionError("weight vector failed exact eigen check")


def weight_decomposition(spec: ModuleSpec) -> list[WeightVector]:
    """Full decomposition of F into joint H-eigenvectors."""
    unit_basis: list[Vec] = [{k: ONE} for k in range(spec.dim)]
    return _split_by_weights(spec, unit_basis)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

class ModuleFormatError(ValueError):
    """Raised on malformed module files; carries a human-readable location."""


_TOP_FIELDS = {"dim", "t_scalar", "entries"}
_ENTRY_FIELDS = {"i", "j", "row", "col", "value"}


def module_to_text(spec: ModuleSpec) -> str:
    entries = []
    for (i, j) in XI_PAIRS:
        for (r, c), v in sorted(spec.xi_action[(i, j)].items()):
            entries.append(
                {"i": i, "j": j, "row": r, "col": c, "value": scalar_to_text(v)}
            )
    doc = {
        "dim": spec.dim,
        "t_scalar": scalar_to_text(spec.t_scalar),
        "entries": entries,
    }
    return json.dumps(doc, indent=2) + "\n"


def module_from_text(text: str, name: str = "custom") -> ModuleSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModuleFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModuleFormatError("top level must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ModuleFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ModuleFormatError(f"missing required fields: {sorted(missing)}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ModuleFormatError("dim must be a positive integer")
    if not isinstance(doc["t_scalar"], str):
        raise ModuleFormatError("t_scalar must be a scalar string like '2/3' or '1+2*i'")
    try:
        t_scalar = scalar_from_text(doc["t_scalar"])
    except ValueError as e:
        raise ModuleFormatError(f"t_scalar: {e}") from None
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ModuleFormatError("entries must be a list")
    action: dict[tuple[int, int], Mat] = {}
    seen: set[tuple[int, int, int, int]] = set()
    for n, entry in enumerate(entries):
        where = f"entries[{n}]"
        if not isinstance(entry, dict):
            raise ModuleFormatError(f"{where}: must be an object")
        unknown = set(entry) - _ENTRY_FIELDS
        if unknown:
            raise ModuleFormatError(f"{where}: unknown fields {sorted(unknown)}")
        missing = _ENTRY_FIELDS - set(entry)
        if missing:
            raise ModuleFormatError(f"{where}: missing fields {sorted(missing)}")
        i, j, r, c = entry["i"], entry["j"], entry["row"], entry["col"]
        for label, val in (("i", i), ("j", j), ("row", r), ("col", c)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ModuleFormatError(f"{where}: {label} must be an integer")
        if not (1 <= i <= N_INDICES and 1 <= j <= N_INDICES):
            raise ModuleFormatError(f"{where}: xi indices must lie in 1..6")
        if i >= j:
            raise ModuleFormatError(f"{where}: need i < j, got i={i}, j={j}")
        if not (0 <= r < dim and 0 <= c < dim):
            raise ModuleFormatError(f"{where}: row/col must lie in 0..{dim - 1}")
        if not isinstance(entry["value"], str):
            raise ModuleFormatError(f"{where}: value must be a scalar string")
        try:
            value = scalar_from_text(entry["value"])
        except ValueError as e:
            raise ModuleFormatError(f"{where}: value: {e}") from None
        key = (i, j, r, c)
        if key in seen:
            raise ModuleFormatError(f"{where}: duplicate entry for xi[{i}{j}] at ({r},{c})")
        seen.add(key)
        if value:
            action.setdefault((i, j), {})[(r, c)] = value
    return ModuleSpec(dim, t_scalar, action, name=name)
