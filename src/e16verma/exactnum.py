"""Exact arithmetic over the Gaussian rationals Q(i), and the one in-place sum
on sparse vectors over it.

Conventions
-----------
* A ``GaussianRational`` stores one integer triple (a, b, d) for the value
  (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  That form is canonical:
  equal values have equal fields.  Arithmetic runs on Python integers;
  ``.re`` and ``.im`` give the parts as :class:`fractions.Fraction` in lowest
  terms, and ``.triple`` gives (a, b, d) for code that clears denominators.
  There is no floating-point mode anywhere in this package.
* Sparse vectors over Q(i) are maps ``{key: GaussianRational}`` that never
  store a zero value, so two maps are equal exactly when the vectors are.
  ``accumulate(out, terms, c)`` is the one in-place sum on them: it adds
  c * value for each (key, value) pair and drops every key whose value
  cancels.  Every layer (brackets, module matrices, the lambda-action, the
  coefficient ledger, exact elimination) sums through it.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd
from typing import Iterable, TypeVar

__all__ = [
    "GaussianRational",
    "Q",
    "QI",
    "ZERO",
    "ONE",
    "IUNIT",
    "scalar_to_text",
    "scalar_from_text",
    "accumulate",
]


def _ratio(x) -> tuple[int, int]:
    """Numerator and positive denominator of a rational in lowest terms."""
    if type(x) is int:
        return x, 1
    f = Fraction(x)
    return f.numerator, f.denominator


class GaussianRational:
    """An element (a + b*i)/d of Q(i), kept as a canonical integer triple."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise ValueError("cannot combine a GaussianRational with an imaginary part")
            a, b, d = re._a, re._b, re._d
        else:
            # p/q and r/s in lowest terms: over d = lcm(q, s) the triple has
            # gcd 1, since a prime dividing d divides q or s to its full power
            p, q = _ratio(re)
            r, s = _ratio(im)
            d = q * s // gcd(q, s)
            a, b = p * (d // q), r * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    # The fields are immutable, which makes values safe to share and to use
    # as dict keys.
    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (_make, (self._a, self._b, self._d))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self == (a + b*i)/d, d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    # -- ring structure -------------------------------------------------
    def __add__(self, other) -> "GaussianRational":
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        else:
            other = _triple(other)
            if other is None:
                return NotImplemented
            c, e, f = other
        d = self._d
        if d == f:
            return _make(self._a + c, self._b + e, d)
        return _make(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        else:
            other = _triple(other)
            if other is None:
                return NotImplemented
            c, e, f = other
        d = self._d
        if d == f:
            return _make(self._a - c, self._b - e, d)
        return _make(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        else:
            other = _triple(other)
            if other is None:
                return NotImplemented
            c, e, f = other
        a, b = self._a, self._b
        return _make(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """d (a - b*i) / (a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inversion of zero in Q(i)")
        return _make(d * a, -d * b, n)

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates ------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        other = _triple(other)
        if other is None:
            return NotImplemented
        return (self._a, self._b, self._d) == other

    def __hash__(self) -> int:
        # a real value hashes like the equal int or Fraction
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return scalar_to_text(self)


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d of integers with d > 0, in canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _triple(x) -> tuple[int, int, int] | None:
    """The canonical triple of a GaussianRational, int or Fraction."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def Q(num, den: int = 1) -> GaussianRational:
    """Rational shortcut: Q(2, 3) == 2/3 as a GaussianRational."""
    if type(num) is int and type(den) is int and den > 0:
        return _make(num, 0, den)
    return GaussianRational(Fraction(num, den))


def QI(re=0, im=0) -> GaussianRational:
    """Gaussian shortcut: QI(1, -1) == 1 - i."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
IUNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# text form: "a/b" or "a/b+c/d*i" (spaces optional, lowercase i)
# ---------------------------------------------------------------------------

def _ratio_text(n: int, d: int) -> str:
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_to_text(x: GaussianRational) -> str:
    a, b, d = _coerce(x).triple
    if not b:
        return _ratio_text(a, d)
    mag = "i" if abs(b) == d else f"{_ratio_text(abs(b), d)}*i"
    if not a:
        return mag if b > 0 else "-" + mag
    return f"{_ratio_text(a, d)}{'+' if b > 0 else '-'}{mag}"


_TERM_RE = _re.compile(
    r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coefi>(?:\d+(?:/\d+)?)?)\*?i   # imaginary term, coefficient optional
      | (?P<rat>\d+(?:/\d+)?)              # real term
    )
    """,
    _re.VERBOSE,
)


def scalar_from_text(text: str) -> GaussianRational:
    """Parse "a/b" / "a/b+c/d*i" (also bare "i", "-i", "3i"). Exact inverse
    of :func:`scalar_to_text` and tolerant of optional spaces."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty scalar text")
    if _re.search(r"/0+(?!\d)", s):
        raise ValueError(f"zero denominator in {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    seen_re = seen_im = False
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad scalar text {text!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("rat") is not None:
            if seen_re:
                raise ValueError(f"duplicate real part in {text!r}")
            re_part = sign * Fraction(m.group("rat"))
            seen_re = True
        else:
            if seen_im:
                raise ValueError(f"duplicate imaginary part in {text!r}")
            coef = m.group("coefi")
            im_part = sign * (Fraction(coef) if coef else Fraction(1))
            seen_im = True
        pos = m.end()
    return GaussianRational(re_part, im_part)


# ---------------------------------------------------------------------------
# sparse sums
# ---------------------------------------------------------------------------

K = TypeVar("K")


def accumulate(
    out: dict[K, GaussianRational],
    terms: Iterable[tuple[K, GaussianRational]],
    c=None,
) -> dict[K, GaussianRational]:
    """out += c * terms in place, over (key, value) pairs; c = None means 1.

    A key whose sum cancels is removed, so ``out`` never holds a zero; a key
    new to ``out`` goes last.  Returns ``out``.
    """
    if c is not None and not c:
        return out
    get = out.get
    for k, v in terms:
        if c is not None:
            v = c * v
        s = get(k, ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out
