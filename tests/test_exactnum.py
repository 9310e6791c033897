"""Exact-scalar unit tests and the change of basis on exponent maps.

Oracle values in this file were derived by hand (independent computation)
and frozen; property tests re-derive them structurally.  The scalar stored
as two Fractions, which the integer-triple scalar replaced, is kept here as
the reference (``RefGaussian``, with its text renderer).
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e16verma.exactnum import (
    GaussianRational,
    IUNIT,
    ONE,
    Q,
    QI,
    ZERO,
    accumulate,
    scalar_from_text,
    scalar_to_text,
)


# ---------------------------------------------------------------------------
# reference: real and imaginary parts as two Fractions
# ---------------------------------------------------------------------------

class RefGaussian:
    """An element a + b*i of Q(i) with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, RefGaussian):
            if im:
                raise ValueError("cannot combine a GaussianRational with an imaginary part")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RefGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "RefGaussian":
        return RefGaussian(-self.re, -self.im)

    def __sub__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return RefGaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "RefGaussian":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inversion of zero in Q(i)")
        return RefGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RefGaussian":
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RefGaussian":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RefGaussian(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))


def _ref_coerce(x) -> RefGaussian:
    if isinstance(x, RefGaussian):
        return x
    if isinstance(x, (int, Fraction)):
        return RefGaussian(x)
    return NotImplemented


def _frac_to_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _ref_to_text(x: RefGaussian) -> str:
    if not x.im:
        return _frac_to_text(x.re)
    if x.im == 1:
        im = "i"
    elif x.im == -1:
        im = "-i"
    else:
        im = f"{_frac_to_text(x.im)}*i"
    if not x.re:
        return im
    sign = "+" if x.im > 0 else "-"
    mag = im.lstrip("-") if im in ("i", "-i") else f"{_frac_to_text(abs(x.im))}*i"
    return f"{_frac_to_text(x.re)}{sign}{mag}"


# ---------------------------------------------------------------------------
# hand-derived values
# ---------------------------------------------------------------------------

def test_unit_mul_identity():
    assert QI(1, 0) * QI(0, 1) == QI(0, 1)


def test_i_squared():
    assert IUNIT * IUNIT == QI(-1, 0)


def test_inverse_of_one_plus_i():
    inv = QI(1, 1).inverse()
    assert inv == QI(Fraction(1, 2), Fraction(-1, 2))
    assert inv * QI(1, 1) == ONE
    assert ONE / QI(1, 1) == inv


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / 0


def test_components_lowest_terms_positive_denominator():
    x = QI(Fraction(2, 4), Fraction(3, -9))
    assert x.re.numerator == 1 and x.re.denominator == 2
    assert x.im.numerator == -1 and x.im.denominator == 3
    assert x.triple == (3, -2, 6)
    y = QI(Fraction(1, 6), Fraction(1, 3))
    assert y.triple == (1, 2, 6)
    assert y.im.numerator == 1 and y.im.denominator == 3


def test_scalars_are_immutable_and_pickle():
    x = QI(Fraction(-7, 3), Fraction(5, 2**70))
    with pytest.raises(AttributeError):
        x.re = 1
    with pytest.raises(AttributeError):
        x._a = 1
    with pytest.raises(AttributeError):
        del x._d
    for v in (x, ZERO, ONE, IUNIT, Q(1, 2)):
        back = pickle.loads(pickle.dumps(v))
        assert back == v and back.triple == v.triple and hash(back) == hash(v)


def _random_scalar(rng: random.Random) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 10))

    return QI(frac(), frac())


def test_field_axioms_on_random_triples():
    rng = random.Random(20260817)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE
        # x times its conjugate is real
        assert not (a * QI(a.re, -a.im)).im


def test_text_render_canonical_forms():
    assert scalar_to_text(Q(3)) == "3"
    assert scalar_to_text(Q(-2, 4)) == "-1/2"
    assert scalar_to_text(QI(0, 1)) == "i"
    assert scalar_to_text(QI(0, -1)) == "-i"
    assert scalar_to_text(QI(0, Fraction(2, 3))) == "2/3*i"
    assert scalar_to_text(QI(Fraction(1, 2), Fraction(-1, 2))) == "1/2-1/2*i"
    assert scalar_to_text(QI(1, 1)) == "1+i"


def test_text_parse_forms():
    assert scalar_from_text("3") == Q(3)
    assert scalar_from_text("-1/2") == Q(-1, 2)
    assert scalar_from_text("1/2 - 1/2*i") == QI(Fraction(1, 2), Fraction(-1, 2))
    assert scalar_from_text("1/2-1/2i") == QI(Fraction(1, 2), Fraction(-1, 2))
    assert scalar_from_text("i") == IUNIT
    assert scalar_from_text("-i") == QI(0, -1)
    assert scalar_from_text("2/3+i") == QI(Fraction(2, 3), 1)
    for bad in ("", "j", "1+1", "i+i", "1//2", "1/0", "0/0", "3/0*i"):
        with pytest.raises(ValueError):
            scalar_from_text(bad)


def test_text_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        x = _random_scalar(rng)
        assert scalar_from_text(scalar_to_text(x)) == x


# ---------------------------------------------------------------------------
# properties against the reference, with components above 2**64
# ---------------------------------------------------------------------------

_ints = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80))
_dens = st.one_of(st.integers(1, 6), st.integers(1, 2**80))
_rationals = st.builds(Fraction, _ints, _dens)
_parts = st.tuples(_rationals, _rationals)
_plain = st.one_of(st.integers(-(2**70), 2**70), _rationals)


def _pair(parts):
    return GaussianRational(*parts), RefGaussian(*parts)


def _check(got, want):
    """got is canonical and has the reference's value."""
    a, b, d = got.triple
    assert d > 0 and gcd(a, b, d) == 1
    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
    assert (got.re, got.im) == (want.re, want.im)


@settings(deadline=None)
@given(_parts, _parts)
def test_binary_operators_match_reference(xp, yp):
    x, rx = _pair(xp)
    y, ry = _pair(yp)
    _check(x, rx)
    _check(x + y, rx + ry)
    _check(x - y, rx - ry)
    _check(x * y, rx * ry)
    _check(-x, -rx)
    if ry:
        _check(x / y, rx / ry)
        _check(y.inverse(), ry.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    assert (x == y) == (rx == ry)
    assert bool(x) == bool(rx)


@settings(deadline=None)
@given(_parts, _plain)
def test_mixed_operands_match_reference(xp, c):
    x, rx = _pair(xp)
    _check(x + c, rx + c)
    _check(c + x, c + rx)
    _check(x - c, rx - c)
    _check(c - x, c - rx)
    _check(x * c, rx * c)
    _check(c * x, c * rx)
    if c:
        _check(x / c, rx / c)
    if rx:
        _check(c / x, c / rx)
    assert (x == c) == (rx == c) == (c == x)


@settings(deadline=None)
@given(_parts, st.integers(0, 5))
def test_power_matches_reference(xp, n):
    x, rx = _pair(xp)
    _check(x**n, rx**n)


@settings(deadline=None)
@given(_parts, _parts)
def test_equal_values_have_equal_fields_and_hashes(xp, yp):
    x = GaussianRational(*xp)
    y = GaussianRational(*yp)
    assert (x == y) == (x.triple == y.triple) == (xp == yp)
    if y:
        # the same value reached through a product and a quotient
        z = (x * y) / y
        assert z.triple == x.triple and z == x and hash(z) == hash(x)
    assert GaussianRational(x).triple == x.triple


@settings(deadline=None)
@given(_rationals, _rationals)
def test_hash_and_equality_agree_with_int_and_fraction(re, im):
    x = GaussianRational(re)
    assert x == re and re == x and hash(x) == hash(re)
    assert x.triple == (re.numerator, 0, re.denominator)
    if re.denominator == 1:
        assert x == re.numerator and hash(x) == hash(re.numerator)
    if im:
        z = GaussianRational(re, im)
        assert z != re and re != z and z != re.numerator
    assert {x: 1}[re] == 1


@settings(deadline=None)
@given(_parts)
def test_text_matches_reference_and_round_trips(xp):
    x, rx = _pair(xp)
    text = scalar_to_text(x)
    assert text == _ref_to_text(rx) == str(x)
    back = scalar_from_text(text)
    assert back == x and back.triple == x.triple
    assert pickle.loads(pickle.dumps(x)).triple == x.triple


# ---------------------------------------------------------------------------
# the sparse accumulator against a dense reference sum
# ---------------------------------------------------------------------------

_KEYS = 6
# small Z[i] values on few keys, so that sums cancel often
_zi = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_sparse = st.dictionaries(st.integers(0, _KEYS - 1), _zi)
_terms = st.lists(st.tuples(st.integers(0, _KEYS - 1), _zi), max_size=12)
_scale = st.one_of(st.none(), st.sampled_from([0, 1, -1]),
                   _parts.map(lambda p: GaussianRational(*p)))


@settings(deadline=None)
@given(_sparse, _terms, _scale)
def test_accumulate_matches_dense_reference(start, terms, c):
    out = {k: QI(*v) for k, v in start.items() if v != (0, 0)}
    dense = [RefGaussian(*start.get(k, (0, 0))) for k in range(_KEYS)]
    if isinstance(c, GaussianRational):
        ref_c = RefGaussian(c.re, c.im)
    else:
        ref_c = RefGaussian(1 if c is None else c)
    for k, (a, b) in terms:
        dense[k] = dense[k] + ref_c * RefGaussian(a, b)

    got = accumulate(out, ((k, QI(*v)) for k, v in terms), c)

    assert got is out
    assert all(v for v in got.values())
    assert {k: (v.re, v.im) for k, v in got.items()} == {
        k: (r.re, r.im) for k, r in enumerate(dense) if r}
