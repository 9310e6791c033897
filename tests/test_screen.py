"""The modular screen: class-masked Kronecker compressor, forward
eliminator and pencil determinant.  Checked against a dense-compressor
reference (a dense random ncols x nrows R, four products and Gauss-Jordan
rank, the screen it replaced, kept here as the oracle for decisions),
against (R_s masked by class) (x) I_dim built explicitly as a dense matrix
from a hand-written class oracle (the pair-parity of I plus that of the
coordinate), against sympy determinants and exact kernels, and by counting
eliminations per class.  The one-class fallback is checked on a rotated
vector module, whose matrices admit no class labels, and on a corrupted
labelling.  A golden file holds a SHA-256 of every image of four scans."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from e16verma import _linalg, singular
from e16verma._linalg import (
    SCREEN_P,
    SCREEN_R,
    _check_int64_sum,
    _modp_image,
    _pencil_determinant,
)
from e16verma.exactnum import Q, QI, ZERO
from e16verma.gmodule import XI_PAIRS, ModuleSpec, builtin, module_from_text, validate
from e16verma.verma import _OPS
from e16verma.singular import (
    DegreeBlock,
    UnknownIndex,
    _block_screen_data,
    assemble_degree_block,
    exact_block_kernel,
    screen_block_zero_kernel,
    verify_bound,
)

DATA = Path(__file__).parent / "data"
SCAN = [Q(n) for n in range(-10, 11)] + [Q(7, 3), QI(1, 2)]


# ---------------------------------------------------------------------------
# reference: dense ncols x nrows compressor, four products, Gauss-Jordan rank
# ---------------------------------------------------------------------------

def _reference_images(block, R=None):
    """(sb_re, sb_im, st_re, st_im): the four compressed parts, by default
    under a dense random ncols x nrows compressor R."""
    from scipy.sparse import coo_matrix

    p = SCREEN_P
    n, rcount = block.ncols, block.nrows
    if R is None:
        rng = np.random.default_rng(0xE16 + 7919 * block.degree + n)
        R = rng.integers(0, p, size=(n, rcount), dtype=np.int64)
    rows, cols, re, im = block.cells()
    r_idx = np.unique(rows, return_inverse=True)[1]  # the rows, numbered

    def compress(vals, t_part):
        sel = (cols >= n) == t_part
        A = coo_matrix(
            ((vals[sel] % p).astype(np.int64), (r_idx[sel], cols[sel] - t_part * n)),
            shape=(rcount, n),
        ).tocsr()
        return np.asarray((A.T @ R.T).T % p, dtype=np.int64)

    return (
        compress(re, False),
        compress(im, False),
        compress(re, True),
        compress(im, True),
    )


def _reference_rank(mat, p, need):
    """Row-reduce a dense int64 matrix mod p to echelon form; returns the
    rank, stopping early once it cannot reach `need`."""
    m = mat % p
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        if ncols - col < need - rank:
            return rank
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        piv = rank + nz[0]
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank, col:] = (m[rank, col:] * inv) % p
        rest = m[rank + 1:, col:]
        rest -= np.outer(rest[:, 0], m[rank, col:])
        rest %= p
        rank += 1
        if rank == need or rank == nrows:
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

# the adjoint blocks reach 480 columns, where each reference rank is slow:
# its resonance t = 2, a t with a denominator and a non-real t
_ADJOINT_SCAN = [Q(0), Q(2), Q(7, 3), QI(1, 2)]


@pytest.mark.parametrize(
    "name,k_max,scan",
    [("trivial", 5, SCAN), ("vector", 3, SCAN), ("adjoint", 2, _ADJOINT_SCAN)],
    ids=["trivial-5", "vector-3", "adjoint-2"],
)
def test_screen_decisions_match_reference(name, k_max, scan):
    certified = refused = 0
    for block in _blocks(name, k_max):
        images = (
            _reference_images(block) if block.ncols and block.nrows >= block.ncols
            else None
        )
        for c in scan:
            got = screen_block_zero_kernel(block, c)
            assert got == _reference_screen(block, c, images), (block.degree, c)
            certified += got
            refused += not got
    # both outcomes occur, so equality is checked in both directions
    assert certified and refused


# ---------------------------------------------------------------------------
# the class split: a hand-written oracle and the dense masked product
# ---------------------------------------------------------------------------

def _parity(mask):
    """Bit l is the parity of |I & {2l + 1, 2l + 2}|, counted by hand."""
    return sum((bin(mask >> 2 * l & 3).count("1") % 2) << l for l in range(3))


# the class label of each coordinate of the builtin modules, by dimension:
# vector coordinate j is e_(j+1), adjoint coordinate (a, b) is e_a + e_b
_ORACLE_LABELS = {
    1: [0],
    6: [_parity(1 << j) for j in range(6)],
    15: [_parity(1 << a - 1 | 1 << b - 1) for a, b in XI_PAIRS],
}


def _oracle_classes(block):
    """(code classes, column classes) of a builtin module's block, by hand:
    a condition code (L, eta_out) has the class of xi_L eta_out, an S0 code
    that of its root vector's xi_a xi_b times eta_out, and a column (k, I,
    c) that of eta_I times coordinate c."""
    roots = {idx: {_parity(1 << a - 1 | 1 << b - 1) for a, b, _ in combo}
             for idx, combo in singular._positive_root_pairs()}
    codes = []
    for tag, l_field, l_mask, _, _, out_mask, _ in singular._row_keys(
            block.codes, np.zeros(len(block.codes), dtype=np.int64)):
        if tag == "S0":
            (cls,) = roots[l_field]  # one class per root vector
        else:
            cls = _parity(l_mask)
        codes.append(cls ^ _parity(out_mask))
    labels = _ORACLE_LABELS[block.dim]
    cols = [_parity(col.mask) ^ labels[col.coord] for col in block.columns]
    return np.array(codes, dtype=np.int64), np.array(cols, dtype=np.int64)


def _dense_images(block):
    """(B, T) as dense ncols x ncols matrices: R base and R t_part mod p,
    with R = (R_s masked by the oracle's classes) (x) I_dim built from the
    screen's seeded draws and the block from its cells."""
    from scipy.sparse import coo_matrix

    p, n, dim = SCREEN_P, block.ncols, block.dim
    ncodes = len(block.codes)
    rng = np.random.default_rng(0xE16 + 7919 * block.degree + n)
    R_s = rng.integers(1, p, size=(ncodes, n // dim), dtype=np.int64).T
    code_class, _ = _oracle_classes(block)
    mono_class = np.array([_parity(col.mask) for col in block.columns[::dim]])
    R_s *= mono_class[:, None] == code_class
    # a cell's row is its (code rank, coordinate) row of R's domain
    rows, cols, re, im = block.cells()
    assert ncodes * (p - 1) ** 2 < 1 << 63  # R @ A stays in int64
    images = []
    for t_part in (False, True):
        sel = (cols >= n) == t_part
        A = coo_matrix(((re[sel] % p + SCREEN_R * (im[sel] % p)) % p,
                        (rows[sel], cols[sel] - t_part * n)), shape=(ncodes * dim, n)).tocsr()
        # row (m, r) of R A is R_s[m] applied to the rows (q, r) of A
        RA = np.stack([(A[r::dim].T @ R_s.T).T for r in range(dim)], axis=1)
        images.append(RA.reshape(n, n) % p)
    return images


def _class_columns(block):
    """The columns of each class, in the screen's order of its class ids."""
    col_class = singular._block_classes(block)
    return [np.flatnonzero(col_class == k) for k in np.unique(col_class)]


def _dense_product(block, images=None):
    """True when the dense B and T vanish off the oracle's classes, the
    screen's classes are the oracle's, and ``images`` (by default the
    screen's class pencils) are the class blocks of B and T."""
    B, T = _dense_images(block)
    _, oracle = _oracle_classes(block)
    off_class = oracle[:, None] != oracle
    if B[off_class].any() or T[off_class].any():
        return False
    if len(set((singular._block_classes(block) ^ oracle).tolist())) != 1:
        return False
    got = _block_screen_data(block) if images is None else images
    want = [(B[np.ix_(cols, cols)], T[np.ix_(cols, cols)]) for cols in _class_columns(block)]
    return len(got) == len(want) and all(
        np.array_equal(g, w) for pair, w_pair in zip(got, want) for g, w in zip(pair, w_pair))


def _swapped_factors(block):
    """The class pencils with their Kronecker factors swapped: B and T
    rebuilt from the class blocks, laid out as sum_op M_op (x) (R_s S_op),
    rows (r, m) and columns (c, m') instead of (m, r) and (m', c), and cut
    into the same classes."""
    n, dim = block.ncols, block.dim
    classes = _class_columns(block)
    full = np.zeros((2, n, n), dtype=np.int64)
    for cols, images in zip(classes, _block_screen_data(block)):
        for whole, image in zip(full, images):
            whole[np.ix_(cols, cols)] = image
    swapped = full.reshape(2, n // dim, dim, n // dim, dim).transpose(0, 2, 1, 4, 3)
    swapped = swapped.reshape(2, n, n)
    return [tuple(whole[np.ix_(cols, cols)] for whole in swapped) for cols in classes]


def _det(m):
    """det(m) mod p by the screen's forward eliminator."""
    return _linalg._forward_eliminate((m % SCREEN_P).astype(np.float64))


@pytest.mark.parametrize("include_S0", [False, True], ids=["no-S0", "S0"])
@pytest.mark.parametrize("name,k_max", [
    ("trivial", 2), ("trivial", 3), ("vector", 2), ("vector", 3), ("adjoint", 2),
    ("adjoint", 3),
])
def test_class_split_equals_the_hand_oracle(name, k_max, include_S0):
    module = builtin(name, Q(0))
    gammas = [_gamma(c) for c in (Q(2), Q(7, 3), QI(1, 2))]
    nonzero = split = 0
    for degree in range(2 * k_max + 7):
        block = assemble_degree_block(module, k_max, degree, include_S0=include_S0)
        if not block.nrows >= block.ncols > 0:
            continue
        _, col_class = _oracle_classes(block)
        # labels are fixed up to one constant: coordinate 0 gets label 0
        assert len(set((singular._block_classes(block) ^ col_class).tolist())) == 1
        assert len(_class_columns(block)) == len(set(col_class.tolist())), degree
        # the masked product vanishes off-class (which checks the oracle's
        # code classes too), and its class blocks are the screen's
        assert _dense_product(block), degree
        B, T = _dense_images(block)
        classes = _block_screen_data(block)
        for gamma in gammas:
            whole = _det(B + gamma * T)
            product = 1
            for B_k, T_k in classes:
                product = product * _det(B_k + gamma * T_k) % SCREEN_P
            assert whole == product, (degree, gamma)
            nonzero += whole != 0
        split += len(classes) > 1
    assert nonzero and split


# ---------------------------------------------------------------------------
# the one-class fallback
# ---------------------------------------------------------------------------

def _rotated_vector():
    """The vector module conjugated by the rotation (3/5, 4/5) in the (1, 3)
    plane, x -> g x g^T: its matrices join coordinates of different
    classes, so no labelling is consistent."""
    g = {(n, n): Q(1) for n in (1, 3, 4, 5)}
    g.update({(0, 0): Q(3, 5), (0, 2): Q(-4, 5), (2, 0): Q(4, 5), (2, 2): Q(3, 5)})
    action = {}
    for pair, mat in builtin("vector", Q(0)).xi_action.items():
        conj = {}
        for r in range(6):
            for c in range(6):
                v = sum((g.get((r, i), ZERO) * x * g.get((c, j), ZERO)
                         for (i, j), x in mat.items()), ZERO)
                if v:
                    conj[(r, c)] = v
        action[pair] = conj
    return ModuleSpec(6, Q(0), action, name="vector_rotated")


def _rotated_fixture():
    return module_from_text((DATA / "vector_rotated.json").read_text())


def test_rotated_vector_fixture_is_the_conjugated_module():
    spec = _rotated_fixture()
    assert validate(spec)["ok"]
    assert spec.xi_action == _rotated_vector().xi_action
    assert any(v.re.denominator == 5 for m in spec.xi_action.values()
               for v in m.values())


def test_rotated_vector_blocks_are_one_class():
    spec = _rotated_fixture()
    screened = 0
    for degree in range(11):
        block = assemble_degree_block(spec, 2, degree)
        if not block.nrows >= block.ncols > 0:
            continue
        assert singular._block_classes(block) is None, degree
        [(B, T)] = _block_screen_data(block)
        assert B.shape == T.shape == (block.ncols, block.ncols)
        screened += 1
    assert screened == 10


def test_rotated_vector_kernels_equal_vector_kernels():
    scan = [Q(n) for n in range(-3, 6)]
    got = verify_bound(_rotated_fixture(), k_max=2, t_scan=scan)
    want = verify_bound(builtin("vector", Q(0)), k_max=2, t_scan=scan)
    assert got["ok"] and want["ok"]
    for c in got["per_c"]:
        dims = {d: info["kernel_dim"] for d, info in got["per_c"][c]["degrees"].items()}
        assert dims == {d: info["kernel_dim"]
                        for d, info in want["per_c"][c]["degrees"].items()}, c
    assert sum(info["kernel_dim"] for e in got["per_c"].values()
               for d, info in e["degrees"].items() if d) > 0


def test_a_flipped_coordinate_label_is_caught(monkeypatch):
    labels = singular._coordinate_labels
    seen = []

    def flipped(dim, edges):
        out = labels(dim, edges).copy()
        out[3] ^= 1
        seen.append(out)
        return out

    monkeypatch.setattr(singular, "_coordinate_labels", flipped)
    module = builtin("vector", Q(0))
    for degree in range(1, 11):
        block = assemble_degree_block(module, 2, degree)
        assert block.nrows >= block.ncols > 0
        # the check refuses the split, and the screen runs on one class
        assert singular._block_classes(block) is None, degree
        assert len(_block_screen_data(block)) == 1
        # the flipped labels would have joined two classes through a cell
        code_class, _ = _oracle_classes(block)
        mono_class = np.array([_parity(col.mask) for col in block.columns[::6]])
        rows, cols = block.cells()[:2]
        cols = cols % block.ncols
        bad = seen[-1]
        assert ((code_class[rows // 6] ^ bad[rows % 6])
                != (mono_class[cols // 6] ^ bad[cols % 6])).any(), degree
    # degree 1 holds the resonances t = -1 and t = 5: refused exactly there
    block = assemble_degree_block(module, 2, 1)
    scan = (Q(-1), Q(0), Q(5), Q(7, 3))
    assert [screen_block_zero_kernel(block, c) for c in scan] == [
        not exact_block_kernel(block, c) for c in scan] == [False, True, False, True]


def test_a_code_of_two_classes_is_caught():
    # one structural entry moved from xi_1 xi_2 (class 0) to xi_1 xi_3
    # (class 3): its code now has entries of two classes
    block = assemble_degree_block(builtin("vector", Q(0)), 2, 1)
    structure = block.structure.copy()
    x12, x13 = (_OPS.index(("x", 1, b)) for b in (2, 3))
    moved = np.flatnonzero(structure[:, 2] == x12)[0]
    structure[moved, 2] = x13
    bent = DegreeBlock(1, block.columns, block.codes, structure, block.op_mats)
    assert singular._block_classes(block) is not None
    assert singular._block_classes(bent) is None
    assert len(_block_screen_data(bent)) == 1
    scan = (Q(-1), Q(0), Q(5), Q(7, 3))
    assert [screen_block_zero_kernel(bent, c) for c in scan] == [
        not exact_block_kernel(bent, c) for c in scan] == [False, True, True, True]


@pytest.mark.parametrize("name,k_max,degree", [
    ("trivial", 5, 4), ("trivial", 5, 16), ("trivial", 5, 9),
    ("vector", 2, 5), ("vector", 3, 8), ("adjoint", 1, 4),
])
def test_sketch_images_equal_dense_product(name, k_max, degree):
    block = assemble_degree_block(builtin(name, Q(0)), k_max, degree)
    assert block.nrows >= block.ncols > 0
    assert _dense_product(block)


@pytest.mark.parametrize("name,k_max,degree", [("vector", 2, 5), ("adjoint", 1, 4)])
def test_swapped_kronecker_factors_fail_the_dense_product(name, k_max, degree):
    # with dim > 1 the (monomial, coordinate) layout is seen: kron(M, R_s S)
    # holds the same numbers in the wrong places
    block = assemble_degree_block(builtin(name, Q(0)), k_max, degree)
    assert block.dim > 1
    assert _dense_product(block)
    assert not _dense_product(block, _swapped_factors(block))


@pytest.mark.parametrize("name,k_max,degree", [("vector", 2, 5), ("adjoint", 1, 4)])
def test_restriction_without_op_parity_fails_the_dense_product(name, k_max, degree, monkeypatch):
    # the set-up forms R_s S_op on the monomials of class class(m') ^
    # parity(op) only; with the op parity dropped from that rule (class(m)
    # = class(m')) while the classes stay right, the images are wrong
    block = assemble_degree_block(builtin(name, Q(0)), k_max, degree)
    classes = singular._block_classes(block)
    assert _dense_product(block)
    with monkeypatch.context() as patched:
        patched.setattr(singular, "_block_classes", lambda b: classes)
        patched.setattr(singular, "_OP_PARITY", np.zeros_like(singular._OP_PARITY))
        images = _block_screen_data(block)
    assert [B.shape for B, _ in images] == [B.shape for B, _ in _block_screen_data(block)]
    assert not _dense_product(block, images)


# ---------------------------------------------------------------------------
# the images, locked by digest
# ---------------------------------------------------------------------------

# (module, k_max, include_S0) of the locked scans; every block that the
# screen compresses (nrows >= ncols > 0) is digested
_DIGESTED = [("trivial", 5, False), ("vector", 5, False), ("adjoint", 4, False),
             ("vector", 3, True)]
_DIGEST_FILE = DATA / "screen_images.sha256.json"


def _image_digest(images) -> str:
    """SHA-256 over the class pencils in class order: each B_k, then T_k,
    as its shape and its little-endian int64 bytes."""
    h = hashlib.sha256()
    for pair in images:
        for image in pair:
            image = np.ascontiguousarray(image, dtype="<i8")
            h.update(repr(image.shape).encode())
            h.update(image.tobytes())
    return h.hexdigest()


def _image_digests() -> dict:
    """{"name-kmax-S0|no-S0": {degree: digest}}, the content of
    ``_DIGEST_FILE``.  It was written with this function from the screen
    that contracted every monomial pair; rewrite it only when the images
    are meant to change."""
    out = {}
    for name, k_max, include_S0 in _DIGESTED:
        module = builtin(name, Q(0))
        per_degree = {}
        for degree in range(2 * k_max + 7):
            block = assemble_degree_block(module, k_max, degree, include_S0=include_S0)
            if block.nrows >= block.ncols > 0:
                per_degree[str(degree)] = _image_digest(_block_screen_data(block))
        out[f"{name}-{k_max}-{'S0' if include_S0 else 'no-S0'}"] = per_degree
    return out


def test_screen_images_match_their_golden_digests():
    assert _image_digests() == json.loads(_DIGEST_FILE.read_text())


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
    classes = _block_screen_data(block)
    assert len(classes) == 3  # eta_I, |I| = 5, by the pair that I cuts
    for B, T in classes:
        assert not B.any()  # rank(B) = 0, so gamma = 0 is not a regular point
        det = _pencil_determinant(B, T, (0, 5))
        assert det.base == 5
        for gamma in (0, 1, 2, 5, 7):
            assert det(gamma) == _sympy_det(B, T, gamma)
    # through the screen: t = 0 first (a root), the pencils built at t = 1
    decisions = [screen_block_zero_kernel(block, Q(n)) for n in (0, 1, 2, 0, -3)]
    assert decisions == [False, True, True, False, True]
    assert len(block._screen) == 3
    for screen in block._screen:
        assert screen.det is not None
        assert screen.det.base == _gamma(Q(1))


def test_identically_singular_pencil_refuses_every_t():
    # column 2 is never touched, so the kernel is nonzero at every t
    entries = [
        (0, 0, 1, 0, 0, 0),
        (1, 1, 0, 1, 1, 0),
        (2, 0, 2, 0, 0, 1),
        (3, 1, 0, 0, 3, 0),
    ]
    block = _coo_block(0, 3, 4, entries)
    [(B, T)] = _block_screen_data(block)  # every column has class 0
    assert _pencil_determinant(B, T, (0, 1, 2, 3)) is None
    for c in SCAN:
        assert not screen_block_zero_kernel(block, c)
        assert len(exact_block_kernel(block, c)) >= 1
    assert [screen.det for screen in block._screen] == [None]


def _coo_block(degree, ncols, nrows, entries):
    """A block of a one-dimensional module given cell by cell: entries (r,
    c, b_re, b_im, t_re, t_im), and every r in range(nrows) a row.  The
    identity op carries the base and the t op the t-part."""
    ops = [[] for _ in _OPS]
    ops[0] = ops[singular._T_OP] = [(0, 0, 1, 0)]
    structure = [(r, 0, 0, 0, 0) for r in range(nrows)]  # reaches every row
    for r, c, b_re, b_im, t_re, t_im in entries:
        structure += [(r, c, 0, b_re, b_im), (r, c, singular._T_OP, t_re, t_im)]
    columns = tuple(UnknownIndex(0, 0, k) for k in range(ncols))
    return DegreeBlock(degree, columns, range(nrows), structure, ops)


_GAUSSIAN = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _small_blocks(draw):
    """A random DegreeBlock over Z[i]: 1-6 columns and ncols to 4 ncols rows,
    some square, some with one column a Z[i] multiple of another (a nonzero
    kernel at every t)."""
    n = draw(st.integers(1, 6))
    nrows = draw(st.one_of(st.just(n), st.integers(n, 4 * n)))
    cells = draw(st.lists(st.tuples(_GAUSSIAN, _GAUSSIAN),
                          min_size=n * nrows, max_size=n * nrows))
    grid = [cells[r * n:(r + 1) * n] for r in range(nrows)]
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        m_re, m_im = draw(_GAUSSIAN)
        for row in grid:
            row[dst] = tuple(
                (m_re * x - m_im * y, m_re * y + m_im * x) for x, y in row[src]
            )
    entries = [
        (r, c, b[0], b[1], t[0], t[1])
        for r, row in enumerate(grid)
        for c, (b, t) in enumerate(row)
        if any(b) or any(t)
    ]
    return _coo_block(draw(st.integers(0, 20)), n, nrows, entries)


@settings(deadline=None, max_examples=200)
@given(_small_blocks())
def test_screen_certificate_implies_zero_exact_kernel(block):
    # soundness for any compressor: a certified c has an empty exact kernel
    for c in (Q(-2), Q(0), Q(1), Q(7, 3), QI(1, 1)):
        if screen_block_zero_kernel(block, c):
            assert exact_block_kernel(block, c) == [], c


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


def test_screen_set_up_guards_both_product_sums(monkeypatch):
    # R_s S_op sums R_s[m, q] w over the entries of one (op, monomial); the
    # contraction sums P_op M_op over the op entries of one (t?, out, in)
    # cell: each sum is guarded with its largest number of terms
    block = assemble_degree_block(builtin("adjoint", Q(0)), 1, 4)
    _, mono, op = block.structure[:, :3].T
    per_key = int(np.bincount(op * (block.ncols // block.dim) + mono).max())
    per_cell = Counter((o == _OPS.index(("t",)), out, inp)
                       for o, mat in enumerate(block.op_mats) for out, inp, *_ in mat)
    seen = []
    monkeypatch.setattr(_linalg, "_check_int64_sum", seen.append)
    _block_screen_data(block)
    assert seen == [per_key, max(per_cell.values())]
    assert per_key > 1 and max(per_cell.values()) > 1


# ---------------------------------------------------------------------------
# work done per block, counted
# ---------------------------------------------------------------------------

def test_scan_eliminates_once_per_block_then_evaluates(monkeypatch):
    current = {}
    first = Counter()
    later = Counter()
    in_pencil = Counter()
    pencils = Counter()
    classes = {}
    seen = set()

    screen = singular.screen_block_zero_kernel
    eliminate = _linalg._forward_eliminate
    build = _linalg._pencil_determinant

    def counted_screen(block, c):
        current["block"] = block.degree
        current["first"] = block.degree not in seen
        seen.add(block.degree)
        certified = screen(block, c)
        classes[block.degree] = len(block._screen or ())
        return certified

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
    rep = verify_bound(builtin("vector", Q(0)), k_max=3)
    assert rep["ok"]
    screened = set(first)
    # every block with at least as many rows as columns reaches the eliminator
    assert screened == set(range(1, 13))
    # one first elimination and one pencil per class, each built at the
    # class's regular point
    assert all(classes[d] > 1 for d in screened)
    assert all(first[d] == classes[d] for d in screened)
    assert all(pencils[d] == classes[d] for d in screened)
    assert all(in_pencil[d] == classes[d] for d in screened)
    assert not later
