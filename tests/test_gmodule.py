"""Unit tests for g0-module data: matrices, validation, built-ins, file IO."""

import pickle

import pytest

from e16verma.exactnum import ONE, Q, QI
from e16verma.gmodule import (
    ModuleFormatError,
    ModuleSpec,
    _mat_vec,
    builtin,
    highest_weight_vectors,
    module_from_text,
    module_to_text,
    validate,
    weight_decomposition,
)


def test_trivial_module_validates_any_t():
    for t in (Q(0), Q(5), QI(2, -3), Q(7, 3)):
        spec = builtin("trivial", t)
        assert spec.dim == 1
        assert validate(spec)["ok"]


def test_vector_module_validates():
    spec = builtin("vector", Q(5))
    assert spec.dim == 6
    assert spec.t_scalar == Q(5)
    report = validate(spec)
    assert report["ok"]
    assert report["pairs_checked"] == 15 * 15


def test_adjoint_module_validates():
    spec = builtin("adjoint", Q(1))
    assert spec.dim == 15
    assert validate(spec)["ok"]


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin("spinor", Q(0))


def test_sign_perturbation_fails_with_named_commutator():
    spec = builtin("vector", Q(0))
    action = {k: dict(v) for k, v in spec.xi_action.items()}
    action[(1, 2)][(1, 0)] = -action[(1, 2)][(1, 0)]
    bad = ModuleSpec(6, Q(0), action)
    report = validate(bad)
    assert not report["ok"]
    assert report["first_failure"] == "[xi[12], xi[13]]"


def test_highest_weight_vectors():
    expected = {"trivial": (0, 0, 0), "vector": (1, 0, 0), "adjoint": (1, 1, 0)}
    for name, weight in expected.items():
        hws = highest_weight_vectors(builtin(name, Q(2)))
        assert len(hws) == 1, name
        got = tuple(int(w.re) for w in hws[0].weight)
        assert all(not w.im for w in hws[0].weight)
        assert got == weight, name


def test_vector_module_weight_multiset():
    wd = weight_decomposition(builtin("vector", Q(0)))
    weights = sorted(tuple(int(w.re) for w in wv.weight) for wv in wd)
    assert weights == sorted(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def test_ordered_pair_action_signs():
    spec = builtin("vector", Q(0))
    v = {0: ONE}
    forward = spec.act_xi_pair(1, 2, v)
    backward = spec.act_xi_pair(2, 1, v)
    assert forward == {1: ONE}
    assert backward == {1: -ONE}
    assert spec.act_xi_pair(3, 3, v) == {}


def test_file_round_trip():
    for name in ("trivial", "vector", "adjoint"):
        spec = builtin(name, QI(1, 2))
        text = module_to_text(spec)
        back = module_from_text(text)
        assert back.dim == spec.dim
        assert back.t_scalar == spec.t_scalar
        assert back.xi_action == spec.xi_action


def test_pickle_round_trip():
    for name, t in (("trivial", ONE), ("vector", Q(7, 3)), ("adjoint", QI(1, 2))):
        spec = builtin(name, t)
        back = pickle.loads(pickle.dumps(spec))
        assert (back.name, back.dim) == (spec.name, spec.dim)
        assert back.t_scalar == spec.t_scalar
        assert back.xi_action == spec.xi_action
        with pytest.raises(AttributeError):
            back.dim = 1


def test_file_parser_rejects_bad_documents():
    good = module_to_text(builtin("vector", Q(1)))
    cases = [
        good.replace('"dim": 6', '"dim": 6, "extra": 1'),
        good.replace('"i": 1', '"i": 7', 1),
        good.replace('"row": 1', '"row": 99', 1),
        good.replace('"value": "1"', '"value": "bogus"', 1),
        "{not json",
        '{"dim": 0, "t_scalar": "0", "entries": []}',
        '{"dim": 2, "t_scalar": "0"}',
    ]
    for text in cases:
        with pytest.raises(ModuleFormatError):
            module_from_text(text)
    # swapped indices i >= j
    with pytest.raises(ModuleFormatError):
        module_from_text(
            '{"dim": 2, "t_scalar": "0", "entries": '
            '[{"i": 2, "j": 1, "row": 0, "col": 0, "value": "1"}]}'
        )
    # duplicate entry
    with pytest.raises(ModuleFormatError):
        module_from_text(
            '{"dim": 2, "t_scalar": "0", "entries": '
            '[{"i": 1, "j": 2, "row": 0, "col": 0, "value": "1"},'
            ' {"i": 1, "j": 2, "row": 0, "col": 0, "value": "2"}]}'
        )


def test_json_error_reports_line_numbers():
    with pytest.raises(ModuleFormatError) as exc:
        module_from_text('{\n "dim": 6,\n "oops\n}')
    assert "line" in str(exc.value)


def act_element(spec: ModuleSpec, x, vec):
    """Action of a degree-zero contact element (a combination of t and the
    xi_(ij)) on a module vector; raises on anything outside C t + so(6)."""
    return _mat_vec(spec.matrix_of(x), vec)


def test_act_element_handles_t_and_rejects_other_degrees():
    from e16verma.contact import ContactElement

    spec = builtin("vector", Q(7, 3))
    v = {2: ONE}
    t = ContactElement.monomial(1, ())
    assert act_element(spec, t, v) == {2: Q(7, 3)}
    with pytest.raises(ValueError):
        act_element(spec, ContactElement.monomial(0, (1,)), v)
