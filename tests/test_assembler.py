"""The degree-block assembler against the per-column loop it replaced (kept
here as the reference), its structural form against its expanded cells,
the vectorised block structure against its loop, denominator clearing for
non-integral modules, and the int64 overflow guard."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from e16verma import cli, singular
from e16verma.exactnum import ONE, Q, QI
from e16verma.gmodule import (
    ModuleSpec,
    builtin,
    module_from_text,
    module_to_text,
    validate,
)
from e16verma.grassmann import ALL_MASKS, N_INDICES, mask_of
from e16verma.singular import (
    CONDITION_MASKS,
    UnknownIndex,
    _ROW_SHIFTS,
    _TAG_INDEX,
    _block_structure,
    _combined_terms,
    _condition_tag,
    _positive_root_pairs,
    _row_code,
    assemble_degree_block,
    verify_bound,
)
from e16verma.verma import _OP_INDEX, ActionMatrixSlice, action_terms, mdeg

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# reference: the per-column loop assembler
# ---------------------------------------------------------------------------

def _xi_fanout(module: ModuleSpec):
    """fan[(a, b, coord)] -> tuple of (out_coord, re, im), the Gaussian
    integers of the ordered action of xi_a xi_b on a unit coordinate."""
    fan = {}
    for a in range(1, N_INDICES + 1):
        for b in range(1, N_INDICES + 1):
            if a == b:
                continue
            for coord in range(module.dim):
                out = module.act_xi_pair(a, b, {coord: ONE})
                if any(val.triple[2] != 1 for val in out.values()):
                    raise AssertionError(
                        "non-integral module entries need the exact-only path")
                fan[(a, b, coord)] = tuple((o, *val.triple[:2]) for o, val in sorted(out.items()))
    return fan


def _reference_block(module, k_max, degree, include_S0=False):
    """Rows of S1-S3 (and optionally S0) restricted to unknowns of the given
    m-degree, as (columns, row_keys, entries) with entries (r, c, b_re, b_im,
    t_re, t_im) sorted by (r, c).  Integral modules only."""
    columns = [
        UnknownIndex(k, mask, coord)
        for k in range(k_max + 1)
        for mask in ALL_MASKS
        if mdeg(k, mask) == degree
        for coord in range(module.dim)
    ]
    columns.sort()
    col_pos = {u: n for n, u in enumerate(columns)}
    fan = _xi_fanout(module)
    root_pairs = _positive_root_pairs() if include_S0 else ()

    rows_map: dict[tuple, dict[int, list[int]]] = {}

    def scatter(row_key, cpos, c_re, c_im, channel):
        cell = rows_map.setdefault(row_key, {}).setdefault(cpos, [0, 0, 0, 0])
        if channel == 0:
            cell[0] += c_re
            cell[1] += c_im
        else:
            cell[2] += c_re
            cell[3] += c_im

    for u in columns:
        cpos = col_pos[u]
        for l_mask in CONDITION_MASKS:
            l_size = l_mask.bit_count()
            for (j, dth, om, op, c_re, c_im) in _combined_terms(l_mask, u.mask):
                kind = op[0]
                for r in range(u.k + 1):
                    j_tot = j + r
                    tag = _condition_tag(l_size, j_tot)
                    if tag is None:
                        continue
                    w = comb(u.k, r)
                    out_k = dth + u.k - r
                    if kind == "id" or kind == "t":
                        key = (tag, l_size, l_mask, j_tot, out_k, om, u.coord)
                        scatter(key, cpos, c_re * w, c_im * w,
                                0 if kind == "id" else 1)
                    else:
                        for out_coord, vr, vi in fan[(op[1], op[2], u.coord)]:
                            key = (tag, l_size, l_mask, j_tot, out_k, om, out_coord)
                            scatter(key, cpos, (vr * c_re - vi * c_im) * w,
                                    (vr * c_im + vi * c_re) * w, 0)
        if include_S0:
            for idx, combo in root_pairs:
                for a, b, coeff in combo:
                    if coeff.re.denominator != 1 or coeff.im.denominator != 1:
                        raise AssertionError("non-integral root coefficient")
                    ga, gi = int(coeff.re), int(coeff.im)
                    pair_mask = mask_of((a, b))
                    for (j, dth, om, op, c) in action_terms(pair_mask, u.mask):
                        if j != 0:
                            continue
                        kind = op[0]
                        out_k = dth + u.k
                        if kind == "id" or kind == "t":
                            key = ("S0", idx, 0, 0, out_k, om, u.coord)
                            scatter(key, cpos, ga * c, gi * c,
                                    0 if kind == "id" else 1)
                        else:
                            for out_coord, vr, vi in fan[(op[1], op[2], u.coord)]:
                                key = ("S0", idx, 0, 0, out_k, om, out_coord)
                                scatter(
                                    key,
                                    cpos,
                                    c * (ga * vr - gi * vi),
                                    c * (ga * vi + gi * vr),
                                    0,
                                )

    row_keys = sorted(rows_map)
    entries = []
    for r, key in enumerate(row_keys):
        for cpos, (br, bi, tr, ti) in sorted(rows_map[key].items()):
            if br or bi or tr or ti:
                entries.append((r, cpos, br, bi, tr, ti))
    return tuple(columns), tuple(row_keys), entries


# ---------------------------------------------------------------------------
# equality with the reference, field for field
# ---------------------------------------------------------------------------

def _reference_rows(row_keys, entries, c):
    """The reference block's rows at t-eigenvalue c = (cr + ci i) / cd, the
    way ``exact_rows`` gives them (zero entries and empty rows dropped), but
    each value cleared to its Gaussian integer over cd."""
    cr, ci, cd = c.triple
    rows = {}
    for r, cpos, br, bi, tr, ti in entries:
        re, im = br * cd + cr * tr - ci * ti, bi * cd + cr * ti + ci * tr
        if re or im:
            rows.setdefault(row_keys[r], {})[cpos] = (re, im)
    return sorted(rows.items())


def _cleared(rows, cd):
    """``exact_rows``' Q(i) rows with each value cleared to its Gaussian
    integer over cd; a value whose denominator does not divide cd is kept,
    so it equals no reference value."""
    def clear(val):
        a, b, d = val.triple
        return val if cd % d else (a * (cd // d), b * (cd // d))

    return [(key, {cpos: clear(val) for cpos, val in row.items()}) for key, row in rows]


def _assert_same_block(module, k_max, degree, include_S0):
    block = assemble_degree_block(module, k_max, degree, include_S0)
    columns, row_keys, entries = _reference_block(module, k_max, degree, include_S0)
    where = (module.name, k_max, degree, include_S0)
    assert block.degree == degree
    assert block.columns == columns, where
    assert block.nrows == len(row_keys), where
    assert len(block.r_idx) == len(entries), where  # one per cell, base or t
    assert all(cells.dtype == np.int64 for cells in block.cells()), where
    # the block is affine in c, so c = 0 fixes its base and a non-real c
    # then fixes its t-part
    for c in (Q(0), QI(Fraction(2, 3), -5)):
        got = block.exact_rows(c)
        assert _cleared(got, c.triple[2]) == _reference_rows(row_keys, entries, c), (where, c)
        assert all(type(x) is int for key, _ in got for x in key[1:]), where


@pytest.mark.parametrize("include_S0", [False, True], ids=["no-S0", "S0"])
@pytest.mark.parametrize("name,k_max", [
    ("trivial", 2), ("trivial", 3), ("vector", 2), ("vector", 3), ("adjoint", 2),
])
def test_blocks_equal_reference_assembler(name, k_max, include_S0):
    module = builtin(name, Q(7, 3))
    # degrees past 2 k_max + 6 give empty blocks
    for degree in range(2 * k_max + N_INDICES + 2):
        _assert_same_block(module, k_max, degree, include_S0)


def test_adjoint_kmax3_blocks_equal_reference_assembler():
    module = builtin("adjoint", Q(2))
    for degree, include_S0 in ((0, True), (5, False), (9, True), (12, False)):
        _assert_same_block(module, 3, degree, include_S0)


# ---------------------------------------------------------------------------
# the structural form and its COO cells, expanded on first read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("include_S0", [False, True], ids=["no-S0", "S0"])
@pytest.mark.parametrize("name", ["trivial", "vector", "adjoint"])
def test_structure_row_count_equals_coo_rows(name, include_S0):
    module = builtin(name, Q(7, 3))
    for degree in range(2 * 2 + N_INDICES + 1):
        block = assemble_degree_block(module, 2, degree, include_S0)
        nrows = block.nrows
        assert block._cells is None  # read off the structure, nothing expanded
        # the rows that some term reaches: each output coordinate of an op's
        # matrix, at each code rank where the op has a structural entry
        dim, met = block.dim, set(map(tuple, block.structure[:, [0, 2]].tolist()))
        reached = {rank * dim + out for rank, op in met for out, *_ in block.op_mats[op]}
        assert nrows == len(reached), (name, degree)
        assert set(block.cells()[0].tolist()) <= reached, (name, degree)


def test_coo_is_expanded_only_for_the_exact_path(monkeypatch):
    blocks, calls = [], []
    assemble, expand = singular.assemble_degree_block, singular._kronecker_cells

    def kept(*args, **kwargs):
        blocks.append(assemble(*args, **kwargs))
        return blocks[-1]

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(singular, "assemble_degree_block", kept)
    monkeypatch.setattr(singular, "_kronecker_cells", counted)
    rep = verify_bound(builtin("adjoint", Q(0)), k_max=2, t_scan=[Q(2)])
    degrees = rep["per_c"]["2"]["degrees"]
    exact = {d for d, info in degrees.items() if not info["screened"]}
    assert exact and exact != set(degrees)  # both paths are taken
    assert {b.degree for b in blocks if b._cells is not None} == exact
    assert len(calls) == len(exact)  # once each


# ---------------------------------------------------------------------------
# the vectorised block structure against the loop it replaced
# ---------------------------------------------------------------------------

def _reference_block_structure(monos, include_S0: bool):
    """The per-term loop that ``_block_structure`` replaced: one row
    (row code, monomial position, op index, re, im) per structural entry."""
    flat: list[int] = []
    emit = flat.extend
    j_shift, k_shift = _ROW_SHIFTS[3:5]
    cond = [
        (l_mask, l_mask.bit_count(),
         {tag: _row_code(n, l_mask.bit_count(), l_mask, 0, 0, 0)
          for tag, n in _TAG_INDEX.items()})
        for l_mask in CONDITION_MASKS
    ]
    root_pairs = _positive_root_pairs() if include_S0 else ()
    for m, (k, i_mask) in enumerate(monos):
        weights = [comb(k, r) for r in range(k + 1)]
        for l_mask, l_size, prefix in cond:
            for (j, dth, om, op, c_re, c_im) in _combined_terms(l_mask, i_mask):
                o = _OP_INDEX[op]
                for r, w in enumerate(weights):
                    tag = _condition_tag(l_size, j + r)
                    if tag is None:
                        continue
                    code = (prefix[tag] | (j + r) << j_shift
                            | (dth + k - r) << k_shift | om)
                    emit((code, m, o, c_re * w, c_im * w))
        for idx, combo in root_pairs:
            for a, b, coeff in combo:
                ga, gi, _ = coeff.triple
                for (j, dth, om, op, c) in action_terms(mask_of((a, b)), i_mask):
                    if j == 0:
                        code = _row_code(0, idx, 0, 0, dth + k, om)
                        emit((code, m, _OP_INDEX[op], ga * c, gi * c))
    return np.array(flat, dtype=np.int64).reshape(-1, 5)


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("include_S0", [False, True], ids=["no-S0", "S0"])
def test_block_structure_equals_reference_loop(include_S0):
    # the same multiset of rows: the assembler sums cells in any order
    for k_max in range(4):
        for degree in range(2 * k_max + N_INDICES + 1):
            monos = sorted((k, mask) for k in range(k_max + 1)
                           for mask in ALL_MASKS if mdeg(k, mask) == degree)
            got = _block_structure(monos, include_S0)
            want = _reference_block_structure(monos, include_S0)
            assert got.dtype == np.int64
            assert np.array_equal(_lexsorted(got), _lexsorted(want)), (k_max, degree)


# ---------------------------------------------------------------------------
# non-integral modules and the overflow guard
# ---------------------------------------------------------------------------

def _conjugated_vector(scale):
    """The vector module conjugated by diag(scale, 1, ..., 1)."""
    vec = builtin("vector", Q(0))
    action = {}
    for pair, mat in vec.xi_action.items():
        action[pair] = {
            (r, c): v * (Q(scale) if r == 0 else ONE) / (Q(scale) if c == 0 else ONE)
            for (r, c), v in mat.items()
        }
    return ModuleSpec(6, Q(0), action, name="vector_scaled")


def test_scaled_vector_fixture_is_the_conjugated_module():
    spec = module_from_text((DATA / "vector_scaled.json").read_text())
    assert validate(spec)["ok"]
    assert spec.xi_action == _conjugated_vector(2).xi_action
    assert any(v.re.denominator == 2 for m in spec.xi_action.values()
               for v in m.values())


def test_scaled_vector_kernels_equal_vector_kernels():
    spec = module_from_text((DATA / "vector_scaled.json").read_text())
    scan = [Q(n) for n in range(-2, 7)]
    got = verify_bound(spec, k_max=2, t_scan=scan)
    want = verify_bound(builtin("vector", Q(0)), k_max=2, t_scan=scan)
    assert got["ok"] and want["ok"]
    for c in got["per_c"]:
        dims = {d: info["kernel_dim"]
                for d, info in got["per_c"][c]["degrees"].items()}
        assert dims == {d: info["kernel_dim"]
                        for d, info in want["per_c"][c]["degrees"].items()}, c
    assert sum(info["kernel_dim"] for e in got["per_c"].values()
               for info in e["degrees"].values()) > 0


def test_scaled_vector_block_is_the_cleared_vector_block():
    # a diagonal conjugation keeps the support of every module matrix, and
    # t enters only through the identity, so clearing the denominator 2
    # keeps the rows and cells and doubles the t-part
    spec = module_from_text((DATA / "vector_scaled.json").read_text())
    got = assemble_degree_block(spec, 2, 3)
    want = assemble_degree_block(builtin("vector", Q(0)), 2, 3)
    assert got.codes.tolist() == want.codes.tolist()
    (rows, cols, re, im), (w_rows, w_cols, w_re, w_im) = got.cells(), want.cells()
    assert rows.tolist() == w_rows.tolist() and cols.tolist() == w_cols.tolist()
    t_part = cols >= got.ncols
    assert t_part.any()
    assert re[t_part].tolist() == [2 * x for x in w_re[t_part].tolist()]
    assert im[t_part].tolist() == [2 * x for x in w_im[t_part].tolist()]


def test_scaled_vector_cli_exits_0(capsys):
    rc = cli.main(["verify-bound", "--module", str(DATA / "vector_scaled.json"),
                   "--kmax", "1", "--t-scan", "0,5", "--format", "json-lines"])
    out = capsys.readouterr().out
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[-1] == {"record": "summary", "ok": True, "exit": 0,
                        "schema": "e16verma/1"}


@pytest.mark.parametrize("scale", [1 << 31, 1 << 40])
def test_oversized_module_entries_raise_overflow(scale):
    # cleared by the denominator `scale`, the entries of row 0 reach scale^2:
    # 2^62 still fits int64 but its products with the structure do not, and
    # 2^80 does not fit at all
    huge = _conjugated_vector(scale)
    with pytest.raises(OverflowError, match="overflow int64"):
        assemble_degree_block(huge, 1, 4)


@pytest.mark.parametrize("scale", [1 << 31, 1 << 40])
def test_oversized_module_entries_raise_overflow_in_the_action_slice(scale):
    # the slice shares the block's guard, which runs on Python integers: at
    # 2^40 the cleared entries (2^80) never reach an int64 array
    huge = _conjugated_vector(scale)
    with pytest.raises(OverflowError, match="action slice .* can overflow int64"):
        ActionMatrixSlice(huge, max_mdeg=4).matrices(mask_of((1, 2)))


@pytest.mark.parametrize("command", ["verify-bound", "find-singular"])
def test_overflow_is_an_input_error_in_the_cli(command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(module_to_text(_conjugated_vector(1 << 40)))
    rc = cli.main([command, "--module", str(path), "--kmax", "1",
                   "--t-scan", "0,1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "overflow int64" in captured.err
    assert "Traceback" not in captured.err
