"""Singular-vector conditions on Ind(F) as exact linear systems.

A vector m = sum_{k<=K} Theta^k sum_I eta_I (x) v_{I,k} (in T-coordinates)
is subjected to the conditions

  S1: all lambda^j coefficients (j >= 2) of the combined polynomial
      Phi_L(lambda) - i (-1)^(|L|(|L|+1)/2) lambda^(3-|L|) Phi_{L*}(lambda)
      vanish, for every L in I< with 0 <= |L| <= 3 (L* the Hodge dual);
  S2: the lambda^1 coefficient vanishes for 1 <= |L| <= 3;
  S3: the lambda^0 coefficient vanishes for |L| = 3;
  S0 (optional): the six positive-root vectors of so(6), evaluated at
      lambda = 0, annihilate m.

Unknowns are the F-coordinates of the v_{I,k}.  Every condition row is
homogeneous in the m-degree 2k + 6 - |I|, so the system splits into blocks
per degree.  ``verify_bound`` and ``singular_vectors`` share one scan loop,
``_scan_kernels``: it assembles each block once and runs every t of the
scan against it with a sound modular screening (a nonsingular reduction
mod p certifies a zero kernel; anything else falls back to exact
elimination over Q(i)).

This module owns the degree blocks, the compression of a block to one
pencil over F_p per weight-parity class and the screen's per-class state,
the exact kernels, the re-checks, the audit and the proof-step
reproduction.  The prime and its root of -1, the image of a t-eigenvalue in
F_p, the int64 guard and every elimination, modular or exact, live in
``_linalg``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from . import _linalg
from ._linalg import ExactRREF, nullspace
from .contact import root_datum
from .exactnum import GaussianRational, ONE, Q, QI, ZERO, _make, scalar_to_text
from .gmodule import ModuleSpec
from .grassmann import (
    ALL_MASKS,
    FULL_MASK,
    MASKS_BY_SIZE,
    N_INDICES,
    derive_mask,
    hodge_modified,
    mask_of,
    merge_sign,
    mono_product,
    normalize,
    triangle_sign,
    word_of,
)
from .verma import (
    OP_T,
    _OP_INDEX,
    _OPS,
    ActionPolynomial,
    FORMAL,
    VermaVector,
    action_terms,
    coefficient_functionals,
    flat_add,
    flat_scale,
    formal_state,
    lambda_action_T,
    mdeg,
    mixed_cells,
    render_vermavector,
    t_inverse,
    _accumulate_nested,
    _check_expansion,
    _kronecker_cells,
    _op_matrices,
)

__all__ = [
    "UnknownIndex",
    "combined_action",
    "assemble_degree_block",
    "kernel_vector_to_verma",
    "exact_block_kernel",
    "screen_block_zero_kernel",
    "conditions_hold",
    "shape_compliant",
    "verify_bound",
    "singular_vectors",
    "reproduce_proof_steps",
    "audit_technical_identities",
    "SHAPE_SUPPORT",
    "weight_of",
]


class UnknownIndex(NamedTuple):
    k: int
    mask: int
    coord: int


# condition monomials: all L with |L| <= 3, ordered by (size, mask)
CONDITION_MASKS: tuple[int, ...] = tuple(
    m for size in range(4) for m in MASKS_BY_SIZE[size]
)

# allowed (Theta-power, |I|) support of a singular vector, per m-degree;
# degrees 8, 7, 6 appear in the working list of shapes but are emptied by
# the final elimination step, and degrees > 8 carry nothing at all.
SHAPE_SUPPORT: dict[int, frozenset[tuple[int, int]]] = {
    8: frozenset({(2, 2)}),
    7: frozenset({(2, 3)}),
    6: frozenset({(2, 4)}),
    5: frozenset({(2, 5), (1, 3), (0, 1)}),
    4: frozenset({(2, 6), (1, 4), (0, 2)}),
    3: frozenset({(1, 5), (0, 3)}),
    2: frozenset({(1, 6), (0, 4)}),
    1: frozenset({(0, 5)}),
    0: frozenset({(0, 6)}),
}


def combined_action(L: Iterable[int], m: VermaVector) -> ActionPolynomial:
    """Phi_L(lambda) m - i (-1)^(|L|(|L|+1)/2) lambda^(3-|L|) Phi_{L*}(lambda) m
    for |L| <= 3."""
    word = tuple(L)
    sign, sword = normalize(word)
    if sign == 0:
        raise ValueError(f"repeated index in L: {word}")
    l = len(sword)
    if l > 3:
        raise ValueError("the combined condition object needs |L| <= 3")
    l_mask = mask_of(sword)
    d_sign, d_mask = hodge_modified(l_mask)
    main = lambda_action_T(sword, m)
    dual = lambda_action_T(word_of(d_mask), m)
    factor = QI(0, -1) * Q(triangle_sign(l) * d_sign)
    out = main + dual.scale(factor).shift_lambda(3 - l)
    return out.scale(Q(sign))


@lru_cache(maxsize=None)
def _combined_terms(l_mask: int, i_mask: int) -> tuple:
    """Term list of the combined condition object on eta_I (x) v (k = 0):
    rows (lambda_power, theta_power, out_mask, op, re, im) with Gaussian
    integer coefficients re + i im."""
    l = l_mask.bit_count()
    d_sign, d_mask = hodge_modified(l_mask)
    # -i (-1)^(l(l+1)/2) * (dual sign): purely imaginary integer
    dual_im = -triangle_sign(l) * d_sign
    return tuple([(j, dth, om, op, c, 0) for j, dth, om, op, c in action_terms(l_mask, i_mask)]
                 + [(j + 3 - l, dth, om, op, 0, c * dual_im)
                    for j, dth, om, op, c in action_terms(d_mask, i_mask)])


def _condition_tag(l_size: int, j_total: int) -> str | None:
    if j_total >= 2:
        return "S1"
    if j_total == 1:
        return "S2" if 1 <= l_size <= 3 else None
    return "S3" if l_size == 3 else None


def _positive_root_pairs() -> list[tuple[int, list[tuple[int, int, GaussianRational]]]]:
    """(root index, [(a, b, coefficient)]) for the six positive-root vectors,
    each a combination of xi_a xi_b monomials."""
    rd = root_datum()
    out = []
    for idx, alpha in enumerate(rd.positive_roots):
        elt = rd.root_vectors[alpha]
        combo = []
        for (k, mask), coeff in sorted(elt.items()):
            integral = coeff.triple[2] == 1
            if k != 0 or mask.bit_count() != 2 or not integral:
                raise AssertionError("root vector outside Z[i] Lambda^2")
            a, b = word_of(mask)
            combo.append((a, b, coeff))
        out.append((idx, combo))
    return out


# ---------------------------------------------------------------------------
# per-degree blocks
# ---------------------------------------------------------------------------

class DegreeBlock:
    """All condition rows whose unknowns live in one m-degree.

    Entries are affine in the t-eigenvalue c: value = base + c * t_part,
    with both parts Gaussian integers (the assembler clears the module's
    denominators, which scales the block by one positive integer and leaves
    its kernel unchanged).

    The block is held in its structural form sum_op S_op (x) M_op.
    ``structure`` has one int64 row (code rank, monomial, op, re, im) per
    entry of some S_op (``_block_structure``, its row codes ranked in
    ``codes``); ``op_mats`` holds the module's op matrices, denominators
    cleared (``_op_matrices``).  Row q * dim + r of the product is (code
    ``codes[q]``, output coordinate r) and column m * dim + c is
    ``columns[m * dim + c]``.  The t op makes the t-part, every other op
    the base.  The block's rows are the (code, coordinate) pairs that some
    term reaches, so ``nrows`` is read off the structure.

    Only the exact path expands the block: ``cells`` are the nonzero cells
    of [base | t_part], the t-part at columns ncols .. 2 ncols - 1
    (``_kronecker_cells``), expanded on first read.  The screen compresses
    the structural form.
    """

    __slots__ = ("degree", "columns", "codes", "structure", "op_mats", "nrows",
                 "_cells", "_screen")

    def __init__(self, degree, columns, codes, structure, op_mats):
        self.degree = degree
        self.columns = columns
        self.codes = np.asarray(codes, dtype=np.int64)
        self.structure = np.asarray(structure, dtype=np.int64).reshape(-1, 5)
        self.op_mats = op_mats
        # (code rank, coordinate) pairs reached: every output coordinate of
        # an op's matrix, at every code rank that op meets
        meets = np.zeros((len(self.codes), len(op_mats)), dtype=bool)
        meets[self.structure[:, 0], self.structure[:, 2]] = True
        reached = np.zeros((len(self.codes), self.dim), dtype=bool)
        for o, mat in enumerate(op_mats):
            reached[np.ix_(meets[:, o], [out for out, *_ in mat])] = True
        self.nrows = int(np.count_nonzero(reached))
        self._cells = None
        self._screen = None

    @property
    def dim(self) -> int:
        return len(self.op_mats[0])  # the identity has one entry per coordinate

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def cells(self) -> tuple:
        """(rows, cols, re, im) of [base | t_part], sorted by (row, col)."""
        if self._cells is None:
            rank, mono, op, s_re, s_im = self.structure.T
            shifted = mono + (op == _T_OP) * (self.ncols // self.dim)
            self._cells = _kronecker_cells(self.op_mats, rank, shifted, op, s_re, s_im)
        return self._cells

    @property
    def r_idx(self) -> np.ndarray:
        """The row of each (row, column) cell with a nonzero base or t-part."""
        rows, cols = self.cells()[:2]
        n = self.ncols or 1
        key = np.sort(rows * n + cols % n, kind="stable")  # two sorted runs a row
        return key[np.diff(key, prepend=-1) != 0] // n

    def exact_rows(self, c: GaussianRational):
        """[(row_key, {col_position: GaussianRational})] at t-eigenvalue c =
        (a + b i)/d, zero entries and empty rows dropped.  Each cell sums to
        the Gaussian integer d base + (a + b i) t_part over d, on Python
        integers (t never enters int64); each distinct sum is one value."""
        n = self.ncols
        a, b, d = c.triple
        rows, cols, re, im = self.cells()
        t_part = cols >= n
        re, im = re.astype(object), im.astype(object)
        x = np.where(t_part, a * re - b * im, d * re)
        y = np.where(t_part, a * im + b * re, d * im)
        key = rows * n + cols % n  # one sum per cell (row, col)
        order = np.argsort(key, kind="stable")  # two sorted runs a row
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        x, y = (np.add.reduceat(v[order], first) for v in (x, y))
        keep = (x != 0) | (y != 0)
        pairs = list(zip(x[keep].tolist(), y[keep].tolist()))
        value = {pair: _make(*pair, d) for pair in set(pairs)}
        vals = list(map(value.__getitem__, pairs))
        rows, cols = np.divmod(key[order[first[keep]]], n)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        keys = _row_keys(self.codes[rows[starts] // self.dim], rows[starts] % self.dim)
        cols, bounds = cols.tolist(), np.append(starts, len(rows)).tolist()
        return [(key, dict(zip(cols[lo:hi], vals[lo:hi])))
                for key, lo, hi in zip(keys, bounds, bounds[1:])]


_T_OP = _OP_INDEX[OP_T]

# A row key (tag, l_size | root index, l_mask, j_total, out_k, out_mask,
# out_coord) without its out_coord packs into one integer whose order is the
# tuple order: bit fields at these shifts, tag highest.  j_total and out_k
# stay below k_max + 5, far inside their 16 bits.
_TAGS = ("S0", "S1", "S2", "S3")
_TAG_INDEX = {tag: n for n, tag in enumerate(_TAGS)}
_ROW_SHIFTS = (47, 44, 38, 22, 6, 0)


def _row_code(*fields: int) -> int:
    return sum(f << s for f, s in zip(fields, _ROW_SHIFTS))


def _row_keys(codes: np.ndarray, out_coords: np.ndarray) -> tuple:
    """The row-key tuples of packed row codes and their output coordinates."""
    tops = (63,) + _ROW_SHIFTS[:-1]
    fields = [
        ((codes >> s) & ((1 << (top - s)) - 1)).tolist()
        for s, top in zip(_ROW_SHIFTS, tops)
    ]
    fields[0] = [_TAGS[t] for t in fields[0]]
    return tuple(zip(*fields, out_coords.tolist()))


# per condition monomial L: its S1, S2 and S3 row-code prefixes, and |L|
_CONDITION_HEADS = np.array([[_row_code(_TAG_INDEX[tag], l.bit_count(), l, 0, 0, 0) for tag in
                              ("S1", "S2", "S3")] + [l.bit_count()] for l in CONDITION_MASKS])


@lru_cache(maxsize=None)
def _structure_table(i_mask: int) -> np.ndarray:
    """Every condition monomial's ``_combined_terms`` on eta_I, one int64
    row per term: the S1, S2 and S3 row-code prefixes of L, |L|, the lambda
    power j, the Theta power dth, the output mask, the op index, re and im.
    Module-free and read-only."""
    per_l = [_combined_terms(l_mask, i_mask) for l_mask in CONDITION_MASKS]
    j, dth, om, op, c_re, c_im = zip(*(term for terms in per_l for term in terms))
    op = [_OP_INDEX[o] for o in op]
    table = np.hstack((np.repeat(_CONDITION_HEADS, [len(terms) for terms in per_l], axis=0),
                       np.array((j, dth, om, op, c_re, c_im), dtype=np.int64).T))
    table.flags.writeable = False
    return table


def _block_structure(monos, include_S0: bool):
    """The module-free part of a block: one row per structural entry
    (row code, monomial position, op index, re, im), as an int64 array.

    An entry says that the condition row ``code`` receives re + i im times
    the op's module matrix applied to the unknowns of monomial ``monos[m]``.
    A term of lambda power j on Theta^k eta_I splits into the k + 1 terms
    binom(k, r) lambda^(j + r) Theta^(k - r); ``_condition_tag``'s rule
    picks the tag of each, or drops it.
    """
    j_shift, k_shift = _ROW_SHIFTS[3:5]
    parts = []
    for k in sorted({k for k, _ in monos}):
        sel = [m for m, (km, _) in enumerate(monos) if km == k]
        tables = [_structure_table(monos[m][1]) for m in sel]
        s1, s2, s3, l_size, j, dth, om, op, c_re, c_im = np.concatenate(tables).T
        mono = np.repeat(sel, [len(t) for t in tables])
        j_total = j + np.arange(k + 1)[:, None]
        is_s1 = j_total >= 2
        is_s2 = (j_total == 1) & (l_size >= 1)  # every L here has |L| <= 3
        is_s3 = (j_total == 0) & (l_size == 3)
        r, t = np.nonzero(is_s1 | is_s2 | is_s3)
        prefix = np.where(is_s1[r, t], s1[t], np.where(is_s2[r, t], s2[t], s3[t]))
        code = (prefix | j_total[r, t] << j_shift
                | (dth[t] + k - r) << k_shift | om[t])
        w = np.array([comb(k, n) for n in range(k + 1)], dtype=np.int64)[r]
        parts.append(np.stack((code, mono[t], op[t], c_re[t] * w, c_im[t] * w), axis=1))
    flat: list[int] = []
    root_pairs = _positive_root_pairs() if include_S0 else ()
    for m, (k, i_mask) in enumerate(monos):
        for idx, combo in root_pairs:
            for a, b, coeff in combo:
                ga, gi, _ = coeff.triple
                for (j, dth, om, op, c) in action_terms(mask_of((a, b)), i_mask):
                    if j == 0:
                        code = _row_code(0, idx, 0, 0, dth + k, om)
                        flat.extend((code, m, _OP_INDEX[op], ga * c, gi * c))
    parts.append(np.array(flat, dtype=np.int64).reshape(-1, 5))
    return np.concatenate(parts)


def assemble_degree_block(
    module: ModuleSpec, k_max: int, degree: int, include_S0: bool = False
) -> DegreeBlock:
    """Rows of S1-S3 (and optionally S0) restricted to unknowns of the given
    m-degree.  Row keys are deterministic provenance tuples.

    The block is sum_op S_op (x) M_op: S_op is a module-free integer matrix
    from the row codes to the (k, I) monomials (``_block_structure``), M_op
    the op's module matrix with denominators cleared (``_op_matrices``).
    The block keeps this structural form; its cells are expanded only when
    the exact path reads them (``DegreeBlock.cells``).
    Raises OverflowError when an entry of the expanded block could leave
    int64.
    """
    dim = module.dim
    monos = sorted(
        (k, mask)
        for k in range(k_max + 1)
        for mask in ALL_MASKS
        if mdeg(k, mask) == degree
    )
    columns = tuple(
        UnknownIndex(k, mask, coord) for k, mask in monos for coord in range(dim)
    )
    structure = _block_structure(monos, include_S0)
    codes, structure[:, 0] = np.unique(structure[:, 0], return_inverse=True)
    _, op_mats = _op_matrices(module)
    _check_expansion(op_mats, f"degree-{degree} block entries of module {module.name!r}",
                     *structure[:, [0, 1, 3, 4]].T)
    return DegreeBlock(degree, columns, codes, structure, op_mats)


# base points tried for the pencil when the block's first screened value was
# not certified; fixed residues far from the small resonant t-values
_PENCIL_BASE_POINTS = (0x5BD1E, 0x9E377)


def _pair_parity(masks):
    """The class of a xi/eta mask (an int or an int64 array): bit l is the
    parity of |I & {2l + 1, 2l + 2}|, so (-1)^bit is the sign of eta_I
    under the rotation by pi in the plane (2l + 1, 2l + 2)."""
    x = masks ^ masks >> 1
    return x & 1 | x >> 1 & 2 | x >> 2 & 4


# the class of each op: 0 for the identity and t, that of e_a + e_b for
# xi_a xi_b
_OP_PARITY = np.array([0, 0] + [_pair_parity(1 << a - 1 | 1 << b - 1)
                                for _, a, b in _OPS[2:]], dtype=np.int64)


@lru_cache(maxsize=None)
def _coordinate_labels(dim: int, edges: tuple) -> np.ndarray:
    """A class label per module coordinate, propagated along the edges (out,
    in, parity) of the op matrices' nonzero entries by label(out) =
    label(in) ^ parity, from a label 0 at the first coordinate of each
    connected part.  Edges that contradict the labels are not detected here:
    ``_block_classes`` checks every entry.  Read-only, one per set of op
    matrices."""
    out, inp, par = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    src, dst = np.concatenate((inp, out)), np.concatenate((out, inp))
    par = np.concatenate((par, par))
    labels = np.full(dim, -1, dtype=np.int64)
    while (labels < 0).any():
        labels[np.argmax(labels < 0)] = 0
        while (step := (labels[src] >= 0) & (labels[dst] < 0)).any():
            labels[dst[step]] = labels[src[step]] ^ par[step]
    labels.flags.writeable = False
    return labels


def _op_entries(op_mats) -> np.ndarray:
    """The op matrices' entries as int64 rows (op, out, in, re, im)."""
    return np.array([(o, *entry) for o, mat in enumerate(op_mats) for entry in mat],
                    dtype=np.int64).reshape(-1, 5)


def _block_classes(block: DegreeBlock) -> np.ndarray | None:
    """The class of each column of the block, or None when an entry
    contradicts the classes.

    Every op matrix entry must map a coordinate of label l to one of label
    l ^ parity(op), and every structural entry (code q, monomial m, op o)
    must give class(q) = class(m) ^ parity(o).  Column (m, c) then has
    class class(m) ^ label(c) and row (q, r) class class(q) ^ label(r), and
    the block maps each column class into the rows of the same class.
    """
    o, out, inp = _op_entries(block.op_mats)[:, :3].T
    par = _OP_PARITY[o]
    labels = _coordinate_labels(
        block.dim, tuple(zip(out.tolist(), inp.tolist(), par.tolist())))
    if (labels[out] != labels[inp] ^ par).any():
        return None
    monos = [col.mask for col in block.columns[::block.dim]]
    mono_class = _pair_parity(np.array(monos, dtype=np.int64))
    rank, mono, op = block.structure[:, :3].T
    cls = mono_class[mono] ^ _OP_PARITY[op]
    code_class = np.zeros(len(block.codes), dtype=np.int64)
    code_class[rank] = cls
    if (code_class[rank] != cls).any():
        return None
    return (mono_class[:, None] ^ labels).ravel()


def _block_screen_data(block: DegreeBlock) -> list:
    """The block's compressed pencil over F_p, p = SCREEN_P, one (B_k, T_k)
    per column class k.

    The block matrix at t-eigenvalue c is base + c t_part over Z[i]; under
    i -> SCREEN_R its image is base_p + gamma t_part_p with gamma the image
    of c.  B = R base_p and T = R t_part_p (both ncols x ncols) for the
    compressor R = R_s (x) I_dim, with R_s a dense (ncols / dim) x ncodes
    matrix of entries in [1, p) from the block's seeded stream, drawn code
    by code (as its transpose).  R maps row (code q, coordinate r) to rows
    (m, r), m = 0 .. ncols / dim - 1.  R's columns range over every (code,
    coordinate) pair; a pair that no term reaches meets a zero row.  Since
    the block is sum_op S_op (x) M_op,

        R A = sum_op (R_s S_op) (x) M_op,

    so the screen works on the structural entries and the op matrices and
    never expands the block.  The t op gives T and the others B.

    The classes come from the rotations by pi in the planes (1, 2), (3, 4)
    and (5, 6) (``_block_classes``): the block maps a column of class k
    only into rows (q, r) of class class(q) ^ label(r) = k.  Give row (m,
    r) of R A the class class(m) ^ label(r), and mask R_s: R'_s[m, q] =
    R_s[m, q] when code q has the class of monomial m, else 0.  R' = R'_s
    (x) I_dim maps rows of class k to rows of class k, so R' A is
    block-diagonal by class.  Its class-k block equals that of R A, since
    every masked entry R_s[m, q] meets only rows (q, r) of another class,
    which vanish on the class-k columns.  So the class blocks (B_k, T_k)
    of R A are those of R' A, and det(R' A) is the product of their
    determinants.  A block whose classes are contradicted is one class.

    Set-up touches only class-compatible pairs: an entry (q, m', op) of
    S_op has class(q) = class(m') ^ parity(op), so R'_s S_op is formed on
    that class's monomials only (a slice of R_s, its columns permuted by
    class), and each entry (r, c) of M_op is contracted into the class
    blocks alone, at the pairs (m, m') of class(m) ^ label(r) = class(m')
    ^ label(c).  Neither R' A nor its off-class entries are formed.
    """
    p, r = _linalg.SCREEN_P, _linalg.SCREEN_R
    n, dim = block.ncols, block.dim
    n_mono, n_ops = n // dim, len(block.op_mats)
    rank, mono, op, s_re, s_im = block.structure.T
    rng = np.random.default_rng(0xE16 + 7919 * block.degree + n)
    R_sT = rng.integers(1, p, size=(len(block.codes), n_mono), dtype=np.int64)
    col_class, op_parity = _block_classes(block), _OP_PARITY
    if col_class is None:
        col_class, op_parity = np.zeros(n, dtype=np.int64), 0 * _OP_PARITY
    mono_class, labels = col_class[::dim], col_class[:dim] ^ col_class[0]

    # P[o * n_mono + m', slot(m)] sums R_s[m, q] w over the entries (q, m',
    # o, w) of S_o, for m of class(q) only; slot(m) is m's place in the
    # class order
    by_class = np.argsort(mono_class, kind="stable")
    R_sT = R_sT[:, by_class]
    slot = np.argsort(by_class)
    edges = np.searchsorted(mono_class[by_class], np.arange(9))
    key = op * n_mono + mono
    # a block has at most 64 monomials, so key < 2**16 and sorts by radix
    order = np.argsort(key.astype(np.uint16), kind="stable")
    key, rank = key[order], rank[order]
    w = (s_re[order] % p + r * (s_im[order] % p)) % p
    target = mono_class[mono[order]] ^ op_parity[op[order]]
    _linalg._check_int64_sum(int(np.bincount(key).max()))
    P = np.zeros((n_ops * n_mono, n_mono), dtype=np.int64)
    for g in np.flatnonzero(np.bincount(target)):
        sel = np.flatnonzero(target == g)
        starts = np.flatnonzero(np.diff(key[sel], prepend=-1))
        lo, hi = edges[g], edges[g + 1]
        terms = R_sT[rank[sel], lo:hi] * w[sel, None]
        P[key[sel[starts]], lo:hi] = np.add.reduceat(terms, starts) % p

    # each class block is stored flat, B's then T's: column (m, c) at
    # position pos within its class k, row (m, r) at offset + pos * n_k
    sizes = np.bincount(col_class, minlength=8)
    offsets = np.cumsum(sizes**2) - sizes**2
    pos = np.cumsum(col_class[:, None] == np.arange(8), axis=0)[np.arange(n), col_class] - 1
    row_at = offsets[col_class] + pos * sizes[col_class]
    total = int(sizes @ sizes)

    # sum_o P_o (x) M_o over the nonzero entries (out, in) of each M_o, the
    # t op's into T and every other op's into B
    o, out, inp, m_re, m_im = _op_entries(block.op_mats).T
    _linalg._check_int64_sum(int(np.bincount((o == _T_OP) * dim * dim + out * dim + inp).max()))
    m_w = (m_re % p + r * (m_im % p)) % p
    flat = np.zeros(2 * total, dtype=np.int64)
    pair_class = mono_class[:, None] ^ mono_class
    shift = labels[out] ^ labels[inp]
    for s in np.flatnonzero(np.bincount(shift)):
        e = np.flatnonzero(shift == s)[:, None]
        m_row, m_col = np.nonzero(pair_class == s)
        dest = (row_at[m_row * dim + out[e]] + pos[m_col * dim + inp[e]]
                + (o[e] == _T_OP) * total)
        np.add.at(flat, dest, P[o[e] * n_mono + m_col, slot[m_row]] * m_w[e])
    flat %= p
    return [tuple(flat[half + offsets[k]:half + offsets[k] + sizes[k] ** 2]
                  .reshape(sizes[k], sizes[k]) for half in (0, total))
            for k in np.flatnonzero(sizes)]


class _BlockScreen:
    """Mod-p screen state of one column class of a degree block.

    The first screen eliminates B_k + gamma T_k at its gamma.  The second
    builds the determinant polynomial D_k(gamma), after which every screen
    is one evaluation and the images are dropped.  A block screened once
    never pays for D_k.
    """

    __slots__ = ("images", "regular", "calls", "det")

    def __init__(self, images):
        self.images = images
        self.regular = None  # a gamma where B_k + gamma T_k was nonsingular
        self.calls = 0
        self.det = None

    def certifies(self, gamma: int) -> bool:
        """True when det(B_k + gamma T_k) is nonzero mod p."""
        self.calls += 1
        if self.calls == 2:
            base_points = (
                (self.regular,) if self.regular is not None
                else (gamma,) + _PENCIL_BASE_POINTS
            )
            self.det = _linalg._pencil_determinant(*self.images, base_points)
            if self.det is not None:
                self.images = None
        if self.det is not None:
            return self.det(gamma) != 0
        B, T = self.images
        m = ((B + gamma * T) % _linalg.SCREEN_P).astype(np.float64)
        if _linalg._forward_eliminate(m):
            self.regular = gamma
            return True
        return False


def screen_block_zero_kernel(block: DegreeBlock, c: GaussianRational) -> bool:
    """True when the mod-p reduction certifies that the block's kernel at
    t-eigenvalue c is zero.  False means "unknown" (exact path required).

    Certificate: with gamma the image of c under i -> SCREEN_R, the
    compressed pencil satisfies det(B + gamma T) != 0 mod p.  For any
    integer compressor R that is a nonzero ncols x ncols minor of the
    reduced block (Cauchy-Binet), and rank only drops under reduction mod
    p, so the block has full column rank over Q(i).  This holds for R' =
    (R_s masked by class) (x) I_dim (``_block_screen_data``), whose columns
    also meet the (code, coordinate) pairs that are not rows of the block:
    those are zero rows, which add nothing to any minor.  R' A is
    block-diagonal by class, so det(R' A) at gamma is the product of the
    class determinants det(B_k + gamma T_k), and c is certified when every
    one is nonzero.  R only sets how often a full-rank block is certified;
    a miss only costs the exact path.  (The rows of R A of class k at
    output coordinate r, one per monomial of class k ^ label(r), combine
    the block's rows (q, r) of that class only; so a block whose rows of
    class k at some coordinate r span fewer dimensions than that count is
    never certified.)
    A c whose denominator is divisible by p has no image and goes to the
    exact path; so does a block with fewer rows than columns.  The first
    screen of a block eliminates each class at its c; the second builds
    each D_k(gamma) = det(B_k + gamma T_k) once, and every later c is one
    evaluation per class.  Both give the same decision.
    """
    if block.ncols == 0:
        return True
    if block.nrows < block.ncols:
        return False
    gamma = _linalg._modp_image(c)
    if gamma is None:
        return False
    if block._screen is None:
        block._screen = [_BlockScreen(images) for images in _block_screen_data(block)]
    return all([screen.certifies(gamma) for screen in block._screen])


def exact_block_kernel(block: DegreeBlock, c: GaussianRational):
    """Exact Q(i) kernel basis of the block at t-eigenvalue c: one pair
    ({UnknownIndex: value}, residual_ok) per basis vector, residual_ok
    False when the block does not annihilate the vector (an eliminator
    fault, which the scan reports as a counterexample)."""
    rows = [row for _, row in block.exact_rows(c)]
    out = []
    for vec in nullspace(rows, list(range(block.ncols))):
        residual_ok = not any(
            sum((val * vec[cpos] for cpos, val in row.items() if cpos in vec), ZERO)
            for row in rows
        )
        out.append(({block.columns[cpos]: val for cpos, val in vec.items()}, residual_ok))
    return out


def kernel_vector_to_verma(vec: dict, module: ModuleSpec) -> VermaVector:
    data: dict[tuple[int, int], dict] = {}
    for u, val in vec.items():
        data.setdefault((u.k, u.mask), {})[u.coord] = val
    return VermaVector(module, data)


# ---------------------------------------------------------------------------
# soundness / shape / audit checks
# ---------------------------------------------------------------------------

def conditions_hold(vv: VermaVector, include_S0: bool = False) -> bool:
    """Direct re-verification of S1-S3 (and optionally S0) through the
    object-level action, independent of the assembled matrices."""
    for l_mask in CONDITION_MASKS:
        l_size = l_mask.bit_count()
        P = combined_action(word_of(l_mask), vv)
        for j, coeff in P.coeffs.items():
            tag = _condition_tag(l_size, j)
            if tag is not None and coeff:
                return False
    if include_S0:
        for _, combo in _positive_root_pairs():
            acc = VermaVector(vv.module)
            for a, b, coeff in combo:
                P = lambda_action_T((a, b) if a < b else (b, a), vv)
                part = P.coefficient(0)
                if a > b:
                    part = part.scale(Q(-1))
                acc = acc + part.scale(coeff)
            if acc:
                return False
    return True


def shape_compliant(vv: VermaVector) -> tuple[bool, bool]:
    """(matches one of the eight degree shapes, satisfies the itemized
    vanishing constraints v_{I,4}=v_{I,3}=0, v_{I,2}=0 for |I|<=4,
    v_{I,1}=0 for |I|<=2, v_{empty,0}=0)."""
    degrees = vv.mdegrees()
    shape_ok = True
    item_ok = True
    for (k, mask) in vv.data:
        size = mask.bit_count()
        d = mdeg(k, mask)
        if (k, size) not in SHAPE_SUPPORT.get(d, frozenset()):
            shape_ok = False
        if k >= 3:
            item_ok = False
        elif k == 2 and size <= 4:
            item_ok = False
        elif k == 1 and size <= 2:
            item_ok = False
        elif k == 0 and size == 0:
            item_ok = False
    if len(degrees) > 1:
        shape_ok = False
    return shape_ok, item_ok


def _fam(funcs, name, p):
    return funcs.get((name, p), {})


def _combo(funcs, *parts):
    """parts: (coefficient, family, p).  Returns the flat combination."""
    out: dict = {}
    for coeff, name, p in parts:
        _accumulate_nested(out, _fam(funcs, name, p), coeff)
    return out


MINUS_I = QI(0, -1)


def _s2_blocks(funcs, dual: bool = False) -> list[dict]:
    """The five S2 blocks of one xi_L's families (of the dual families when
    ``dual``): B0+b1, B1+a1+2b2, 2a2+B2+3b3, 3a3+B3+4b4, 4a4+B4."""
    suffix = "d" if dual else ""
    a, b, B = "a" + suffix, "b" + suffix, "B" + suffix
    return [
        _combo(funcs, (ONE, B, 0), (ONE, b, 1)),
        _combo(funcs, (ONE, B, 1), (ONE, a, 1), (Q(2), b, 2)),
        _combo(funcs, (Q(2), a, 2), (ONE, B, 2), (Q(3), b, 3)),
        _combo(funcs, (Q(3), a, 3), (ONE, B, 3), (Q(4), b, 4)),
        _combo(funcs, (Q(4), a, 4), (ONE, B, 4)),
    ]


def audit_technical_identities(vv: VermaVector) -> dict:
    """The coefficient identities that hold on any S1-S3 solution:

    (i)   for L = (j): B0+b1 = B1+a1+2b2 = 2a2+B2+3b3 = 3a3+B3+4b4
          = 4a4+B4 = 0;
    (ii)  for |L| = 3: the same five blocks minus i times the dual blocks;
    (iii) for |L| = 3: the lambda^0 blocks b0 - i bd0, (a_{p-1}+b_p)
          - i(ad_{p-1}+bd_p) for p = 1..4, and a4 - i ad4;
    (iv)  for L = (): C3+4B4+6a4, C2+3a3+3B3+6b4,
          2C3+2(B4-a4)-i(ad1+bd2), 4C2+3B3-3a3-3i ad0-3i bd1,
          C3-2i Bd1-2i bd2, C2-6i Bd0+3i ad0-3i bd1,
          10Cd0+4Bd1-3ad1+bd2 — all zero.
    """
    failures = []

    def expect_zero(label, flat):
        if flat:
            failures.append(label)

    # (i)
    for j in range(1, N_INDICES + 1):
        funcs = coefficient_functionals((j,), vv)
        for p, blk in enumerate(_s2_blocks(funcs)):
            expect_zero(("i", j, p), blk)

    # (ii) + (iii)
    for l_mask in MASKS_BY_SIZE[3]:
        word = word_of(l_mask)
        funcs = coefficient_functionals(word, vv)
        for p, (blk, dblk) in enumerate(zip(_s2_blocks(funcs), _s2_blocks(funcs, dual=True))):
            _accumulate_nested(blk, dblk, MINUS_I)
            expect_zero(("ii", word, p), blk)
        lam0 = [
            _combo(funcs, (ONE, "b", 0), (MINUS_I, "bd", 0)),
        ]
        for p in range(1, 5):
            lam0.append(
                _combo(
                    funcs,
                    (ONE, "a", p - 1),
                    (ONE, "b", p),
                    (MINUS_I, "ad", p - 1),
                    (MINUS_I, "bd", p),
                )
            )
        lam0.append(_combo(funcs, (ONE, "a", 4), (MINUS_I, "ad", 4)))
        for p, blk in enumerate(lam0):
            expect_zero(("iii", word, p), blk)

    # (iv)
    funcs = coefficient_functionals((), vv)
    m3i = Q(3) * MINUS_I
    iv_list = [
        _combo(funcs, (ONE, "C", 3), (Q(4), "B", 4), (Q(6), "a", 4)),
        _combo(funcs, (ONE, "C", 2), (Q(3), "a", 3), (Q(3), "B", 3), (Q(6), "b", 4)),
        _combo(
            funcs,
            (Q(2), "C", 3), (Q(2), "B", 4), (Q(-2), "a", 4),
            (MINUS_I, "ad", 1), (MINUS_I, "bd", 2),
        ),
        _combo(
            funcs,
            (Q(4), "C", 2), (Q(3), "B", 3), (Q(-3), "a", 3),
            (m3i, "ad", 0), (m3i, "bd", 1),
        ),
        _combo(funcs, (ONE, "C", 3), (Q(2) * MINUS_I, "Bd", 1), (Q(2) * MINUS_I, "bd", 2)),
        _combo(
            funcs,
            (ONE, "C", 2), (Q(6) * MINUS_I, "Bd", 0),
            (Q(-3) * MINUS_I, "ad", 0), (m3i, "bd", 1),
        ),
        _combo(
            funcs,
            (Q(10), "Cd", 0), (Q(4), "Bd", 1), (Q(-3), "ad", 1), (ONE, "bd", 2),
        ),
    ]
    for n, blk in enumerate(iv_list):
        expect_zero(("iv", n), blk)

    return {"ok": not failures, "failures": failures}


def weight_of(vv: VermaVector) -> tuple | None:
    """If vv is a simultaneous eigenvector of H_1, H_2, H_3 (acting at
    lambda = 0), the eigenvalue triple; otherwise None."""
    weights = []
    for l in (1, 2, 3):
        a, b = 2 * l - 1, 2 * l
        P = lambda_action_T((a, b), vv)
        img = P.coefficient(0).scale(MINUS_I)  # H_l = -i xi_{2l-1,2l}
        mu = None
        for (key, fv) in vv.data.items():
            for coord, val in fv.items():
                got = img.data.get(key, {}).get(coord, ZERO)
                cand = got / val
                if mu is None:
                    mu = cand
                elif mu != cand:
                    return None
        if img != vv.scale(mu if mu is not None else ZERO):
            return None
        weights.append(mu if mu is not None else ZERO)
    return tuple(weights)


# ---------------------------------------------------------------------------
# the main verification entry point
# ---------------------------------------------------------------------------

def _scan_kernels(module: ModuleSpec, k_max: int, t_scan: list, include_S0: bool,
                  audit: bool = False):
    """The one scan loop behind ``verify_bound`` and ``singular_vectors``.

    Degree-outer: each block is assembled once, meets every t of the scan
    in scan order (so its screen eliminates at the first t and evaluates
    the pencil from the second on), and is dropped before the next block
    is assembled.  Yields (t position, degree, screened, vectors, proven);
    the vectors are (vector, solves) for each vector of the exact kernel
    basis, where solves is False when the block does not annihilate the
    vector (a nonzero residual) or when it fails the re-check against the
    conditions through the object-level action.  A False there means that
    the eliminator or the assembled block is wrong; the callers report it
    instead of raising.

    A block without rows is re-checked, and with ``audit`` audited, at two
    t of the scan only, its first two (the scan holds distinct t, as
    ``_as_scan`` makes it).  When every kernel vector passes
    ``conditions_hold`` and ``audit_technical_identities`` at both, the
    verdict holds at every t and ``proven`` is True at each t of the
    block; otherwise the block takes the per-t path.  Two points suffice:

    - a block without rows has the same exact kernel at every t: the unit
      vectors of all its columns;
    - the module's t enters the object-level action only through
      ``_apply_op(OP_T)``, which is ``ModuleSpec.act_t`` (v -> c*v), once
      per term;
    - every re-checked quantity (condition coefficients, S0 parts, the
      ledger families and the audit combinations) is a Q(i)-linear
      combination of op images of t-free coefficients;
    - so each has the form X + c*Y, of degree <= 1 in c, and one that
      vanishes at two distinct c vanishes at every c.

    A scan of one t runs the per-t path.
    """
    specs = [
        ModuleSpec(module.dim, c, module.xi_action, name=module.name)
        for c in t_scan
    ]
    for degree in range(2 * k_max + N_INDICES + 1):
        block = assemble_degree_block(module, k_max, degree, include_S0=include_S0)
        proven = (block.nrows == 0 and len(specs) > 1
                  and _checks_hold(block, specs[:2], include_S0, audit))
        for pos, (c, spec) in enumerate(zip(t_scan, specs)):
            if screen_block_zero_kernel(block, c):
                yield pos, degree, True, [], False
                continue
            vectors = [(kernel_vector_to_verma(vec, spec), residual_ok)
                       for vec, residual_ok in exact_block_kernel(block, c)]
            yield pos, degree, False, [
                (vv, residual_ok and (proven or conditions_hold(vv, include_S0=include_S0)))
                for vv, residual_ok in vectors
            ], proven
        del block  # one block alive at a time


def _checks_hold(block: DegreeBlock, specs: list, include_S0: bool, audit: bool) -> bool:
    """True when every exact kernel vector of the block passes the residual,
    ``conditions_hold`` and (with ``audit``) the audit at each spec's t."""
    return all(
        residual_ok and conditions_hold(vv, include_S0=include_S0)
        and (not audit or audit_technical_identities(vv)["ok"])
        for spec in specs
        for vec, residual_ok in exact_block_kernel(block, spec.t_scalar)
        for vv in (kernel_vector_to_verma(vec, spec),)
    )


def _as_scan(t_scan) -> list[GaussianRational]:
    """The scan as a list (default -10..10), duplicates dropped by their
    text, order kept."""
    if t_scan is None:
        return [Q(n) for n in range(-10, 11)]
    first: dict[str, GaussianRational] = {}
    for c in t_scan:
        first.setdefault(scalar_to_text(c), c)
    return list(first.values())


def verify_bound(
    module: ModuleSpec,
    k_max: int = 5,
    t_scan: Iterable[GaussianRational] | None = None,
    include_S0: bool = False,
) -> dict:
    """For each t-eigenvalue in the scan (default -10..10), compute the
    kernel of the S1-S3 system per m-degree and check each kernel basis
    vector against the structural constraints and degree shapes of the
    main bound.

    Returns a report; report["ok"] is True iff every homogeneous kernel
    component is annihilated by its block, solves the conditions when
    re-checked through the object-level action, complies, and satisfies all
    coefficient identities (the audit).
    On a block without rows the re-check and the audit run at the scan's
    first two t only: both are of degree <= 1 in t, so passing at two t
    proves them at every t (``_scan_kernels``).  A failure at either falls
    back to the per-t checks, whose records are the same as a one-t scan's.
    Duplicate t are dropped, order kept.
    Counterexamples are listed t by t in scan order, degrees ascending.
    With ``include_S0`` the highest-weight rows are added as well, which can
    only shrink each kernel.
    """
    t_scan = _as_scan(t_scan)
    texts = [scalar_to_text(c) for c in t_scan]
    entries = [{"degrees": {}} for _ in t_scan]
    found = []  # (t position, degree, counterexample)
    for pos, d, screened, vectors, proven in _scan_kernels(
            module, k_max, t_scan, include_S0, audit=True):
        if screened:
            entries[pos]["degrees"][d] = {"kernel_dim": 0, "screened": True}
            continue
        info = {
            "kernel_dim": len(vectors),
            "screened": False,
            "shape_ok": True,
            "constraints_ok": True,
            "audit_ok": True,
        }
        for vv, solves in vectors:
            shape_ok, item_ok = shape_compliant(vv)
            ok_here = solves and shape_ok and item_ok
            audit_rep = None
            if ok_here and not proven:
                audit_rep = audit_technical_identities(vv)
                if not audit_rep["ok"]:
                    ok_here = False
                    info["audit_ok"] = False
            if not shape_ok:
                info["shape_ok"] = False
            if not item_ok:
                info["constraints_ok"] = False
            if not ok_here:
                found.append((pos, d, {
                    "module": module.name,
                    "t_scalar": texts[pos],
                    "degree": d,
                    "shape_ok": shape_ok,
                    "constraints_ok": item_ok,
                    "conditions_ok": solves,
                    "audit_failures": audit_rep["failures"] if audit_rep else [],
                    "vector_T": render_vermavector(vv),
                    "vector_m": render_vermavector(t_inverse(vv)),
                }))
        entries[pos]["degrees"][d] = info
    found.sort(key=lambda f: f[:2])  # stable: basis order within a block
    return {
        "module": module.name,
        "k_max": k_max,
        "t_scan": texts,
        "per_c": dict(zip(texts, entries)),
        "counterexamples": [ce for _, _, ce in found],
        "ok": not found,
    }


def singular_vectors(
    module: ModuleSpec,
    k_max: int = 5,
    t_scan: Iterable[GaussianRational] | None = None,
    include_S0: bool = True,
) -> list[list[dict]]:
    """Explicit kernel vectors of the full system (with S0 by default) at
    each t of the scan (default -10..10), with degrees, weights, and both
    coordinate renderings: one list per t, in scan order, degrees
    ascending within each list.  "conditions_ok" is False on a vector of
    the exact kernel that its block does not annihilate or that fails the
    object-level re-check."""
    t_scan = _as_scan(t_scan)
    out: list[list[dict]] = [[] for _ in t_scan]
    for pos, degree, _, vectors, _ in _scan_kernels(module, k_max, t_scan, include_S0):
        out[pos].extend(
            {
                "degree": degree,
                "weight": weight_of(vv),
                "vector": vv,
                "vector_T": render_vermavector(vv),
                "vector_m": render_vermavector(t_inverse(vv)),
                "conditions_ok": solves,
            }
            for vv, solves in vectors
        )
    return out


# ---------------------------------------------------------------------------
# proof-step reproduction
# ---------------------------------------------------------------------------

def _sym_v(k, mask):
    return ("v", k, mask)


def _sym_t(k, mask):
    return ("t", k, mask)


def _sym_x(a, b, k, mask):
    if a < b:
        return ("x", a, b, k, mask), 1
    return ("x", b, a, k, mask), -1


def _flat_put(out, mask, sym, coeff):
    _accumulate_nested(out, {mask: {sym: coeff}})


def _sign_1_plus_I(size: int) -> int:
    return -1 if (1 + size) & 1 else 1


_D1_MASK = mask_of((2, 3, 4, 5, 6))  # the Hodge dual monomial of xi_1


def _alfa(s: int):
    """sum_I (-1)^(1+|I|) [ -3 (xi_23456 * eta_I) (x) v_{I,s+2}
    + (xi_23456 * eta_I) (x) t.v_{I,s+2}
    + sum_l d_l (xi_23456l * eta_I) (x) v_{I,s+2}
    - sum_{l != j} (d_l xi_23456j * eta_I) (x) xi_jl . v_{I,s+2} ]"""
    out: dict = {}
    k = s + 2
    for i_mask in ALL_MASKS:
        sg = _sign_1_plus_I(i_mask.bit_count())
        star, u = mono_product(_D1_MASK, i_mask)
        if star:
            _flat_put(out, u, _sym_v(k, i_mask), Q(-3 * sg * star))
            _flat_put(out, u, _sym_t(k, i_mask), Q(sg * star))
        # sum_l d_l (xi_23456 l * eta_I): only l = 1 extends the monomial
        app = merge_sign(_D1_MASK, 1)  # bit of index 1
        full_star, fu = mono_product(FULL_MASK, i_mask)
        if full_star:
            d_sign, om = derive_mask(1, fu)
            _flat_put(out, om, _sym_v(k, i_mask),
                      Q(sg * app * full_star * d_sign))
        # - sum_{l != j} (d_l xi_23456 j * eta_I) (x) xi_jl . v: j = 1 only
        appj = merge_sign(_D1_MASK, 1)
        lj = FULL_MASK
        for l in word_of(_D1_MASK):
            s_l, ml = derive_mask(l, lj)
            star2, u2 = mono_product(ml, i_mask)
            if not star2:
                continue
            sym, sgn_x = _sym_x(1, l, k, i_mask)  # xi_{j l} = xi_{1 l}
            _flat_put(out, u2, sym, Q(-sg * appj * s_l * star2 * sgn_x))
    return out


def _beta(s: int):
    """sum_I (-1)^(1+|I|) { -sum_{l<j} (xi_1lj * eta_I) (x) xi_jl . v_{I,s+2}
    + 3i (xi_23456 * eta_I) (x) v_{I,s+1}
    + i [ sum_l (d_l xi_23456 * d_l eta_I) (x) v_{I,s+2}
          - sum_{r<p} (d_r d_p xi_23456 * eta_I) (x) xi_pr . v_{I,s+2} ] }"""
    out: dict = {}
    k = s + 2
    iu = QI(0, 1)
    for i_mask in ALL_MASKS:
        sg = Q(_sign_1_plus_I(i_mask.bit_count()))
        for l in range(2, N_INDICES + 1):
            for j in range(l + 1, N_INDICES + 1):
                lm = mask_of((1, l, j))
                star, u = mono_product(lm, i_mask)
                if not star:
                    continue
                app = merge_sign(1, mask_of((l, j)))  # xi_1 xi_l xi_j ordered
                sym, sgn_x = _sym_x(j, l, k, i_mask)
                _flat_put(out, u, sym, sg * Q(-star * app * sgn_x))
        star, u = mono_product(_D1_MASK, i_mask)
        if star:
            _flat_put(out, u, _sym_v(s + 1, i_mask), sg * Q(3 * star) * iu)
        for l in word_of(_D1_MASK & i_mask):
            s1, lm = derive_mask(l, _D1_MASK)
            s2, im = derive_mask(l, i_mask)
            star2, u2 = mono_product(lm, im)
            if star2:
                _flat_put(out, u2, _sym_v(k, i_mask), sg * Q(s1 * s2 * star2) * iu)
        dword = word_of(_D1_MASK)
        for a in range(len(dword)):
            for b in range(a + 1, len(dword)):
                r, pp = dword[a], dword[b]
                s_p, m1 = derive_mask(pp, _D1_MASK)
                s_r, m2 = derive_mask(r, m1)
                star3, u3 = mono_product(m2, i_mask)
                if not star3:
                    continue
                sym, sgn_x = _sym_x(pp, r, k, i_mask)
                _flat_put(out, u3, sym, sg * Q(-s_p * s_r * star3 * sgn_x) * iu)
    return out


def _gamma(s: int):
    """sum_I (-1)^(1+|I|) [ (xi_1 * eta_I) (x) v_{I,s+2}
    + (xi_1 * eta_I) (x) t.v_{I,s+2}
    + sum_l d_l (xi_1l * eta_I) (x) v_{I,s+2}
    - sum_{j != 1} (xi_j * eta_I) (x) xi_j1 . v_{I,s+2} ]"""
    out: dict = {}
    k = s + 2
    one_mask = 1
    for i_mask in ALL_MASKS:
        sg = _sign_1_plus_I(i_mask.bit_count())
        star, u = mono_product(one_mask, i_mask)
        if star:
            _flat_put(out, u, _sym_v(k, i_mask), Q(sg * star))
            _flat_put(out, u, _sym_t(k, i_mask), Q(sg * star))
        for l in range(2, N_INDICES + 1):
            lm = mask_of((1, l))
            star2, u2 = mono_product(lm, i_mask)
            if not star2:
                continue
            d_sign, om = derive_mask(l, u2)
            _flat_put(out, om, _sym_v(k, i_mask), Q(sg * star2 * d_sign))
        for j in range(2, N_INDICES + 1):
            jm = 1 << (j - 1)
            star3, u3 = mono_product(jm, i_mask)
            if not star3:
                continue
            sym, sgn_x = _sym_x(j, 1, k, i_mask)
            _flat_put(out, u3, sym, Q(-sg * star3 * sgn_x))
    return out


def _delta(s: int):
    """sum_I (-1)^(1+|I|) [ (xi_1 * eta_I) (x) v_{I,s+1}
    - d_1 eta_I (x) v_{I,s+2} ]"""
    out: dict = {}
    for i_mask in ALL_MASKS:
        sg = _sign_1_plus_I(i_mask.bit_count())
        star, u = mono_product(1, i_mask)
        if star:
            _flat_put(out, u, _sym_v(s + 1, i_mask), Q(sg * star))
        d_sign, om = derive_mask(1, i_mask)
        if d_sign:
            _flat_put(out, om, _sym_v(s + 2, i_mask), Q(-sg * d_sign))
    return out


def _flat_as_row(flat):
    return {(mask, sym): v for mask, fv in flat.items() for sym, v in fv.items()}


def _reduces_to_zero(target, generators) -> bool:
    """target and generators are flat elements; True iff target lies in the
    Q(i)-span of the generators."""
    rref = ExactRREF()
    for g in generators:
        rref.add_row(_flat_as_row(g))
    residue = rref.reduce(_flat_as_row(target))
    return not residue


def _theta_layer(vv: VermaVector, p: int):
    out: dict = {}
    for (k, mask), fv in vv.data.items():
        if k == p:
            out[mask] = dict(fv)
    return out


def _flat_eq(x, y) -> bool:
    return _flat_as_row(x) == _flat_as_row(y)


def reproduce_proof_steps(verbose: bool = False) -> dict:
    """Reproduce the extraction steps of the degree-bound proof on a generic
    symbolic vector; every comparison is exact.  Returns a report with one
    entry per step."""
    steps: dict[str, bool] = {}
    detail: dict[str, str] = {}

    def record(name: str, ok: bool, note: str = ""):
        steps[name] = bool(ok)
        if note:
            detail[name] = note

    # -- mixed-basis extraction of the four displayed equation families ----
    m6 = formal_state(6)
    P = combined_action((1,), m6)
    d2 = ActionPolynomial(
        FORMAL,
        {j - 2: vv.scale(Q(j * (j - 1))) for j, vv in P.coeffs.items() if j >= 2},
    )
    cells = mixed_cells(d2)
    alfa = {s: _alfa(s) for s in range(0, 5)}
    beta = {s: _beta(s) for s in range(1, 5)}
    gamma = {s: _gamma(s) for s in range(2, 5)}

    ok_alfa = True
    for s in range(0, 5):
        raw = cells.get((3, s), {})
        want = flat_scale(alfa[s], QI(0, (s + 1) * (s + 2)))
        if not _flat_eq(raw, want):
            ok_alfa = False
    record("alfa", ok_alfa)

    span_a = list(alfa.values())
    ok_beta = True
    for s in range(1, 5):
        raw = cells.get((2, s), {})
        diff = flat_add(raw, flat_scale(beta[s], Q(-(s + 1) * (s + 2))))
        if not _reduces_to_zero(diff, span_a):
            ok_beta = False
    record("beta", ok_beta)

    span_ab = span_a + list(beta.values())
    ok_gamma = True
    for s in range(2, 5):
        raw = cells.get((1, s), {})
        diff = flat_add(raw, flat_scale(gamma[s], Q(-(s + 1) * (s + 2))))
        if not _reduces_to_zero(diff, span_ab):
            ok_gamma = False
    record("gamma", ok_gamma)

    ok_delta = True
    delta_note = ""
    for s in range(3, 5):
        raw = cells.get((0, s), {})
        dd = _delta(s)
        diff = flat_add(raw, flat_scale(dd, Q((s + 1) * (s + 2))))
        if not _reduces_to_zero(diff, [beta[s - 2], gamma[s - 1]]):
            ok_delta = False
        # structure: every output monomial of delta carries exactly one
        # symbol with a unit coefficient; the eta_23456 coefficient is
        # v_{*,s+2}
        for mask, fv in dd.items():
            if len(fv) != 1:
                ok_delta = False
                delta_note = f"output eta[{mask}] not a single symbol"
        top = dd.get(_D1_MASK, {})
        if top != {_sym_v(s + 2, FULL_MASK): ONE}:
            ok_delta = False
            delta_note = "eta_23456 coefficient is not v_{*,s+2}"
    record("delta", ok_delta, delta_note)

    # -- the S2 blocks for L = (j): action route == functional route -------
    m4 = formal_state(4)
    empty = 0

    ok_threeway = True
    blocks_j = {}
    for j in range(1, N_INDICES + 1):
        blocks_j[j] = _s2_blocks(coefficient_functionals((j,), m4))
        lam1 = lambda_action_T((j,), m4).coefficient(1)
        for p, blk in enumerate(blocks_j[j]):
            if not _flat_eq(_theta_layer(lam1, p), blk):
                ok_threeway = False
    record("s2-blocks-threeway", ok_threeway)

    # -- tecres rows --------------------------------------------------------
    # the t-eigenvalue row of Theta-layer p, -t_p + (5 + p) v_p (as
    # extracted, each is minus the displayed row)
    tec_rows = {p: {_sym_t(p, empty): -ONE, _sym_v(p, empty): Q(5 + p)} for p in range(3)}
    ok_tec = {p: True for p in tec_rows}
    ok_vj1 = ok_vj2 = ok_vjl1 = True
    for j in range(1, N_INDICES + 1):
        jm = 1 << (j - 1)
        blks = blocks_j[j]
        # coefficient of eta_j: the three t-eigenvalue rows
        for p, row in tec_rows.items():
            if blks[p].get(jm, {}) != row:
                ok_tec[p] = False
        # coefficient of the empty monomial: v_{j,1} and 2 v_{j,2}
        if blks[0].get(empty, {}) != {_sym_v(1, jm): ONE}:
            ok_vj1 = False
        if blks[1].get(empty, {}) != {_sym_v(2, jm): Q(2)}:
            ok_vj2 = False
        # coefficient of eta_l (l != j): -v_{jl,1} + xi_{lj}.v_{empty,0}
        # (displayed for j < l; for l < j the row flips sign as a whole --
        # what matters is that the v_{jl,1} coefficient is a unit, so that
        # v_{empty,0} = 0 forces v_{jl,1} = 0)
        for l in range(1, N_INDICES + 1):
            if l == j:
                continue
            lm = 1 << (l - 1)
            got = blks[0].get(lm, {})
            v_sym = _sym_v(1, jm | lm)
            sym_x, sgn_x = _sym_x(l, j, 0, empty)
            if j < l:
                if got != {v_sym: -ONE, sym_x: Q(sgn_x)}:
                    ok_vjl1 = False
            else:
                cv = got.get(v_sym, ZERO)
                if cv not in (ONE, -ONE) or set(got) != {v_sym, sym_x}:
                    ok_vjl1 = False
    record("tecres", ok_tec[1])
    record("tecres2", ok_tec[0])
    record("tecres3", ok_tec[2])
    record("row-vj1", ok_vj1)
    record("row-vj2", ok_vj2)
    record("row-vjl1", ok_vjl1)

    # -- |L| = 3 rows and the eigenvalue pairing ----------------------------
    ok_l3 = True
    ok_force = True
    for lw in ((1, 2, 3), (2, 4, 6), (1, 4, 5)):
        l_mask = mask_of(lw)
        funcs3 = coefficient_functionals(lw, m4)
        mixed = mixed_cells(lambda_action_T(lw, m4))
        for p in range(3):
            bp_ap = _combo(funcs3, (ONE, "B", p), (-ONE, "a", p))
            # mixed cell (lambda^1, mu^p) must equal B_p - a_p
            if not _flat_eq(mixed.get((1, p), {}), bp_ap):
                ok_l3 = False
            row = bp_ap.get(l_mask, {})
            if row != {_sym_t(p, empty): ONE, _sym_v(p, empty): Q(-4)}:
                ok_l3 = False
            # pairing with the tecres row (t-eigenvalue 5 + p against 4)
            rref = ExactRREF()
            rref.add_row(tec_rows[p])
            rref.add_row(row)
            if rref.rank != 2:
                ok_force = False
    record("l3-rows", ok_l3)
    record("force-v-empty", ok_force)

    # -- final step: b2(j) and its linear independence ----------------------
    top = VermaVector(
        FORMAL,
        {
            (2, mask): {_sym_v(2, mask): ONE}
            for size in (2, 3, 4)
            for mask in MASKS_BY_SIZE[size]
        },
    )
    ok_b2 = True
    killed = set()
    for j in range(1, N_INDICES + 1):
        funcs = coefficient_functionals((j,), top)
        blk = _combo(funcs, (ONE, "B", 1), (ONE, "a", 1), (Q(2), "b", 2))
        want: dict = {}
        for size in (2, 3, 4):
            for i_mask in MASKS_BY_SIZE[size]:
                d_sign, om = derive_mask(j, i_mask)
                if d_sign:
                    _flat_put(
                        want, om, _sym_v(2, i_mask),
                        Q(2 * _sign_1_plus_I(size) * d_sign),
                    )
        if not _flat_eq(blk, want):
            ok_b2 = False
        # one symbol per output monomial -> linear independence
        for mask, fv in blk.items():
            if len(fv) != 1:
                ok_b2 = False
            for sym in fv:
                killed.add(sym)
    expected_kill = {
        _sym_v(2, mask) for size in (2, 3, 4) for mask in MASKS_BY_SIZE[size]
    }
    if killed != expected_kill:
        ok_b2 = False
    record("b2-linear-independence", ok_b2)

    report = {"ok": all(steps.values()), "steps": steps}
    if verbose:
        report["detail"] = detail
    return report
