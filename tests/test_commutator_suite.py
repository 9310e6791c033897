"""The batched commutator suite and its structure (x) module-ops action slice
against the per-column slice and per-pair suite they replaced (kept here as
the reference), fault detection, the int64 overflow guard and non-integral
modules."""

from math import comb
from pathlib import Path

import numpy as np
import pytest

from e16verma import verma
from e16verma.exactnum import ONE, Q, QI
from e16verma.gmodule import ModuleSpec, builtin, module_from_text
from e16verma.grassmann import (
    ALL_MASKS,
    MASKS_BY_SIZE,
    derive_mask,
    mask_of,
    mono_product,
    word_of,
)
from e16verma.verma import ActionMatrixSlice, commutator_suite, ind_monomials, mdeg

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# reference: the per-column slice and the per-pair suite
# ---------------------------------------------------------------------------

class _ReferenceSlice:
    """Integer matrices of the lambda-action coefficients on the slice of
    Ind(F) of m-degree <= max_mdeg, for a matrix-backed module F.

    Columns/rows are indexed by (monomial index, F-coordinate); matrices are
    stored as (re, im) scipy CSR int64 pairs, scaled by ``den`` so that the
    true matrix is (re + i im)/den.  Integral xi entries only.
    """

    def __init__(self, module, max_mdeg: int = 8):
        from scipy.sparse import csr_matrix  # deferred import

        self._csr = csr_matrix
        self.module = module
        self.max_mdeg = max_mdeg
        self.monomials = ind_monomials(max_mdeg)
        self.mono_index = {km: n for n, km in enumerate(self.monomials)}
        self.fdim = module.dim
        self.dim = len(self.monomials) * self.fdim
        self._degrees = np.array([mdeg(k, mask) for (k, mask) in self.monomials])
        # denominator clearing for t_scalar
        t = module.t_scalar
        den = t.re.denominator
        den = den * t.im.denominator // np.gcd(den, t.im.denominator)
        self.den = int(den)
        tnum = t * Q(self.den)
        if tnum.re.denominator != 1 or tnum.im.denominator != 1:
            raise AssertionError("denominator clearing failed")
        self._cache: dict[int, dict[int, tuple]] = {}

    def flat(self, n_mono: int, coord: int) -> int:
        return n_mono * self.fdim + coord

    def columns_upto(self, d: int) -> np.ndarray:
        keep = np.repeat(self._degrees <= d, self.fdim)
        return np.nonzero(keep)[0]

    def matrices(self, l_mask: int) -> dict[int, tuple]:
        """{lambda-power: (re_csr, im_csr)} of xi_L on the slice, scaled by
        den (one power of den clears the single t application)."""
        got = self._cache.get(l_mask)
        if got is not None:
            return got
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        vals_re: dict[int, list[int]] = {}
        vals_im: dict[int, list[int]] = {}
        module = self.module
        den = self.den
        for n_mono, (k, i_mask) in enumerate(self.monomials):
            for coord in range(self.fdim):
                col = self.flat(n_mono, coord)
                fvec = {coord: ONE}
                for (j, dth, out_mask, op, c) in verma.action_terms(l_mask, i_mask):
                    w = verma._apply_op(module, op, fvec)
                    if not w:
                        continue
                    for r in range(k + 1):
                        jj = j + r
                        key = (dth + k - r, out_mask)
                        n_out = self.mono_index.get(key)
                        if n_out is None:
                            continue  # falls outside the slice
                        weight = c * comb(k, r)
                        for cc, v in w.items():
                            scaled = v * Q(weight * den)
                            if scaled.re.denominator != 1 or scaled.im.denominator != 1:
                                raise AssertionError("non-integer matrix entry")
                            rr = self.flat(n_out, cc)
                            rows.setdefault(jj, []).append(rr)
                            cols.setdefault(jj, []).append(col)
                            vals_re.setdefault(jj, []).append(int(scaled.re))
                            vals_im.setdefault(jj, []).append(int(scaled.im))
        out = {}
        for jj in rows:
            re = self._csr(
                (np.array(vals_re[jj], dtype=np.int64),
                 (np.array(rows[jj]), np.array(cols[jj]))),
                shape=(self.dim, self.dim),
            )
            im = self._csr(
                (np.array(vals_im[jj], dtype=np.int64),
                 (np.array(rows[jj]), np.array(cols[jj]))),
                shape=(self.dim, self.dim),
            )
            re.sum_duplicates()
            im.sum_duplicates()
            out[jj] = (re, im)
        self._cache[l_mask] = out
        return out


def _complex_matmul(A: tuple, B: tuple) -> tuple:
    ar, ai = A
    br, bi = B
    re = ar @ br - ai @ bi
    im = ar @ bi + ai @ br
    return re, im


def _reference_suite(module, max_input_mdeg: int = 4, max_size: int = 3) -> dict:
    slice_deg = max_input_mdeg + 4
    sl = _ReferenceSlice(module, max_mdeg=slice_deg)
    in_cols = sl.columns_upto(max_input_mdeg)
    masks = [m for size in range(max_size + 1) for m in MASKS_BY_SIZE[size]]
    report = {
        "ok": True,
        "pairs_checked": 0,
        "failures": [],
        "input_columns": int(len(in_cols)),
        "slice_dim": sl.dim,
    }

    restricted_cache: dict[int, dict[int, tuple]] = {}

    def restricted(mask: int) -> dict[int, tuple]:
        got = restricted_cache.get(mask)
        if got is None:
            got = {
                j: (re.tocsc()[:, in_cols].tocsr(), im.tocsc()[:, in_cols].tocsr())
                for j, (re, im) in sl.matrices(mask).items()
            }
            restricted_cache[mask] = got
        return got

    for idx_f, f_mask in enumerate(masks):
        f_full = sl.matrices(f_mask)
        f_rest = restricted(f_mask)
        for g_mask in masks[idx_f:]:
            g_full = sl.matrices(g_mask)
            g_rest = restricted(g_mask)
            # products keyed (left power, right power), columns restricted
            prod_fg = {
                (a, b): _complex_matmul(Af, Bg)
                for a, Af in f_full.items()
                for b, Bg in g_rest.items()
            }
            prod_gf = {
                (b, a): _complex_matmul(Bg, Af)
                for b, Bg in g_full.items()
                for a, Af in f_rest.items()
            }
            orientations = [(f_mask, g_mask, prod_fg, prod_gf)]
            if f_mask != g_mask:
                orientations.append((g_mask, f_mask, prod_gf, prod_fg))
            for fm, gm, pf, pg in orientations:
                ok = _check_one_commutator(sl, restricted, fm, gm, pf, pg)
                report["pairs_checked"] += 1
                if not ok:
                    report["ok"] = False
                    report["failures"].append((word_of(fm), word_of(gm)))
    return report


def _acc_mat(store: dict, key: tuple[int, int], mats: tuple, weight: int) -> None:
    if weight == 0:
        return
    re = mats[0] * weight if weight != 1 else mats[0]
    im = mats[1] * weight if weight != 1 else mats[1]
    if key in store:
        ore, oim = store[key]
        store[key] = (ore + re, oim + im)
    else:
        store[key] = (re, im)


def _check_one_commutator(sl, restricted, f_mask, g_mask, prod_fg, prod_gf) -> bool:
    """Verify one ordered identity.  prod_fg[(a, b)] = M_f^(a) M_g^(b) and
    prod_gf[(b, a)] = M_g^(b) M_f^(a), both keyed (left factor power, right
    factor power); the lambda variable belongs to f, mu to g."""
    den = sl.den
    r, s = f_mask.bit_count(), g_mask.bit_count()
    sgn = -1 if (r & 1) and (s & 1) else 1

    lhs: dict[tuple[int, int], tuple] = {}
    for (a, b), mats in prod_fg.items():
        _acc_mat(lhs, (a, b), mats, 1)
    for (b, a), mats in prod_gf.items():
        _acc_mat(lhs, (a, b), mats, -sgn)

    rhs: dict[tuple[int, int], tuple] = {}
    s_fg, k_mask = mono_product(f_mask, g_mask)
    if s_fg:
        for n, mats in restricted(k_mask).items():
            for a in range(n + 1):
                c = comb(n, a) * s_fg * den
                # (r-2) * ( -(lambda+mu) ) * (lambda+mu)^n
                _acc_mat(rhs, (a + 1, n - a), mats, -(r - 2) * c)
                _acc_mat(rhs, (a, n - a + 1), mats, -(r - 2) * c)
                # lambda (r+s-4) (lambda+mu)^n
                _acc_mat(rhs, (a + 1, n - a), mats, (r + s - 4) * c)
    for i in word_of(f_mask & g_mask):
        s1, fm = derive_mask(i, f_mask)
        s2, gm = derive_mask(i, g_mask)
        s3, km = mono_product(fm, gm)
        if not s3:
            continue
        c0 = (-1 if r & 1 else 1) * s1 * s2 * s3 * den
        for n, mats in restricted(km).items():
            for a in range(n + 1):
                _acc_mat(rhs, (a, n - a), mats, comb(n, a) * c0)

    for key in set(lhs) | set(rhs):
        le = lhs.get(key)
        ri = rhs.get(key)
        for side in (0, 1):
            lm = le[side] if le is not None else None
            rm = ri[side] if ri is not None else None
            if lm is None:
                d = rm
            elif rm is None:
                d = lm
            else:
                d = lm - rm
            if d.nnz and np.any(d.data):
                return False
    return True


# ---------------------------------------------------------------------------
# fault: one flipped sign in the action of xi_1 xi_2
# ---------------------------------------------------------------------------

XI12 = mask_of((1, 2))


def _flip_xi12(monkeypatch):
    """Flip the sign of the first action term of xi_1 xi_2 on every eta_I."""
    real = verma.action_terms

    def flipped(l_mask, i_mask):
        terms = real(l_mask, i_mask)
        if l_mask == XI12 and terms:
            j, dth, om, op, c = terms[0]
            terms = ((j, dth, om, op, -c),) + terms[1:]
        return terms

    monkeypatch.setattr(verma, "action_terms", flipped)


@pytest.fixture
def flipped_xi12(monkeypatch):
    _flip_xi12(monkeypatch)


# ---------------------------------------------------------------------------
# the slice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, t, max_mdeg", [
    ("trivial", Q(7, 3), 6),
    ("vector", QI(1, 2), 6),
    ("vector", Q(0), 4),
    ("adjoint", Q(2), 4),
])
def test_slice_matrices_equal_reference(name, t, max_mdeg):
    module = builtin(name, t)
    got = ActionMatrixSlice(module, max_mdeg=max_mdeg)
    want = _ReferenceSlice(module, max_mdeg=max_mdeg)
    assert got.den == want.den and got.dim == want.dim
    for l_mask in ALL_MASKS:
        g, w = got.matrices(l_mask), want.matrices(l_mask)
        assert sorted(g) == sorted(w), l_mask
        for j in w:
            rows, cols, *parts = g[j]
            # sorted by (row, col), one cell each
            assert np.all(np.diff(rows * got.dim + cols) > 0), (l_mask, j)
            for part, values in enumerate(parts):
                assert values.dtype == np.int64
                dense = np.zeros((got.dim, got.dim), dtype=np.int64)
                dense[rows, cols] = values
                assert np.array_equal(dense, w[j][part].toarray()), (l_mask, j, part)
        assert got.matrices(l_mask) is g  # cached per mask


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

SUITE_CASES = [
    ("vector", Q(7, 3), 2),
    ("vector", QI(1, 2), 2),
    ("vector", Q(0), 2),
    ("adjoint", Q(2), 1),
]


@pytest.mark.parametrize("name, t, max_input_mdeg", SUITE_CASES)
def test_suite_report_equals_reference(name, t, max_input_mdeg, flipped_xi12):
    # under the fault, pairs away from xi_1 xi_2 still check clean and the
    # failing pairs keep the reference's order
    module = builtin(name, t)
    got = commutator_suite(module, max_input_mdeg, max_size=2)
    want = _reference_suite(module, max_input_mdeg, max_size=2)
    assert got == want
    assert not got["ok"] and got["pairs_checked"] == 22 * 22


@pytest.mark.parametrize("name, t, max_input_mdeg", SUITE_CASES)
def test_suite_passes_clean(name, t, max_input_mdeg):
    # the reference passes on every built-in module (one small case is
    # re-run here), so the clean report is ok with no failures
    module = builtin(name, t)
    got = commutator_suite(module, max_input_mdeg, max_size=2)
    sl = ActionMatrixSlice(module, max_input_mdeg + 4)
    assert got == {"ok": True, "pairs_checked": 22 * 22, "failures": [],
                   "input_columns": len(sl.columns_upto(max_input_mdeg)),
                   "slice_dim": sl.dim}
    if name == "vector" and t == QI(1, 2):
        small = commutator_suite(module, max_input_mdeg, max_size=1)
        assert small == _reference_suite(module, max_input_mdeg, max_size=1)


def test_flipped_sign_fails_the_full_size_suite(flipped_xi12):
    report = commutator_suite(builtin("vector", Q(7, 3)), max_input_mdeg=2,
                              max_size=3)
    assert not report["ok"] and report["pairs_checked"] == 42 * 42
    assert ((1, 2), (1, 2)) in report["failures"]


def test_overflow_raises_instead_of_wrapping(flipped_xi12):
    # at 7/3 the fault is caught on 53 pairs; at t = 2^-40 the den^2 products
    # used to wrap silently and hide all but 20 of them
    report = commutator_suite(builtin("vector", Q(7, 3)), max_input_mdeg=2,
                              max_size=2)
    assert len(report["failures"]) == 53
    for t in (Q(1, 2**40), Q(1, 3**40)):
        with pytest.raises(OverflowError):
            commutator_suite(builtin("vector", t), max_input_mdeg=2, max_size=2)


def test_scaled_vector_fixture_passes():
    spec = module_from_text((DATA / "vector_scaled.json").read_text())
    report = commutator_suite(spec, max_input_mdeg=2, max_size=1)
    assert report["ok"], report["failures"]
    assert report["pairs_checked"] == 49


def test_complex_module_report_equals_reference(monkeypatch):
    # vector conjugated by diag(i, 1, ..., 1): its xi matrices carry i, so
    # products of two imaginary parts no longer cancel in the commutators
    vec = builtin("vector", QI(1, 2))
    i = QI(0, 1)
    action = {pair: {(r, c): v * (i if r == 0 else ONE) / (i if c == 0 else ONE)
                     for (r, c), v in mat.items()}
              for pair, mat in vec.xi_action.items()}
    module = ModuleSpec(6, QI(1, 2), action, name="vector_i")
    assert commutator_suite(module, max_input_mdeg=2, max_size=1)["ok"]
    _flip_xi12(monkeypatch)
    got = commutator_suite(module, max_input_mdeg=2, max_size=1)
    assert got == _reference_suite(module, max_input_mdeg=2, max_size=1)
    assert not got["ok"]


def test_products_grow_with_f_not_with_pairs(monkeypatch):
    """In one batch of g's, each f costs three complex products (its stacked
    powers on each side and the right-hand side), however many g's: a
    per-pair check would cost one per ordered pair."""
    monkeypatch.setattr(verma, "_SUITE_BATCH", 1 << 62)
    calls = []
    real = verma._complex_products

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(verma, "_complex_products", counted)
    module = builtin("vector", QI(1, 2))
    for max_size, n_masks in ((1, 7), (2, 22), (3, 42)):
        calls.clear()
        report = commutator_suite(module, max_input_mdeg=1, max_size=max_size)
        assert report["ok"] and report["pairs_checked"] == n_masks ** 2
        assert len(calls) == 3 * n_masks


def test_one_g_per_batch_gives_the_same_report(monkeypatch, flipped_xi12):
    # the default batch holds every g of these small cases, so the batch
    # offsets are exercised here: one g per batch, three products per pair
    module = builtin("vector", QI(1, 2))
    want = commutator_suite(module, max_input_mdeg=1, max_size=2)
    monkeypatch.setattr(verma, "_SUITE_BATCH", 1)
    calls = []
    real = verma._complex_products

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(verma, "_complex_products", counted)
    assert commutator_suite(module, max_input_mdeg=1, max_size=2) == want
    assert len(calls) == 3 * 22 * 22 and not want["ok"]
