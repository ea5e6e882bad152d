"""Exact scalar and polynomial arithmetic for the loop-density computations.

Scalars live either in Q (arbitrary-precision ``fractions.Fraction``) or in the
cyclotomic field Q(w) with w = exp(i*pi/3), represented on the basis {1, w}
with the reduction rule w^2 = w - 1.  Everything here is exact; floats appear
only in rendering helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

# complex value of the basis element w = exp(i*pi/3)
_OMEGA_COMPLEX = complex(0.5, math.sqrt(3.0) / 2.0)


class GammaPoleError(ArithmeticError):
    """A gamma-function argument hit a nonpositive integer."""


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def is_nonpositive_integer(x: Fraction) -> bool:
    x = _as_fraction(x)
    return x.denominator == 1 and x <= 0


class Cyclotomic:
    """Element a + b*w of Q(w), w = exp(i*pi/3), with w^2 = w - 1.

    Immutable.  The complex conjugate is the Galois conjugate w -> 1 - w, so
    the field is closed under conjugation; the norm a^2 + a*b + b^2 is a
    positive-definite rational quadratic form, which gives exact inverses.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- ring / field operations -------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclotomic(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Cyclotomic(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w), then w^2 -> w - 1
        return Cyclotomic(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a + self.b * o.b,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("cannot invert 0 in Q(w)")
        c = self.conjugate()
        return Cyclotomic(c.a / n, c.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate: w -> 1 - w."""
        return Cyclotomic(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + a*b + b^2, a nonnegative rational."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero w-component")
        return self.a

    def real_part(self) -> Fraction:
        """Exact real part a + b/2 (Re w = 1/2)."""
        return self.a + self.b / 2

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __complex__(self):
        return complex(self.a) + complex(self.b) * _OMEGA_COMPLEX

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"Cyc({self.a})"
        return f"Cyc({self.a} + {self.b}*w)"


ZERO = Cyclotomic(0)
ONE = Cyclotomic(1)
OMEGA = Cyclotomic(0, 1)

# q = exp(i*pi/3) is the basis element itself; q - 1/q = i*sqrt(3)
Q_UNIT = OMEGA
I_SQRT3 = Cyclotomic(-1, 2)

# powers of q repeat with period 6: 1, w, w-1, -1, -w, 1-w
_Q_POWERS = (
    ONE,
    OMEGA,
    Cyclotomic(-1, 1),
    Cyclotomic(-1),
    Cyclotomic(0, -1),
    Cyclotomic(1, -1),
)


def q_power(n: int) -> Cyclotomic:
    """q^n with q = exp(i*pi/3); q^6 = 1."""
    return _Q_POWERS[n % 6]


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exact; (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = _as_fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def gamma_ratio(a, shift: int) -> Fraction:
    """Exact Gamma(a + shift) / Gamma(a) for integer shift.

    Equals (a)_shift for shift >= 0 and 1/(a+shift)_(-shift) for shift < 0.
    Raises GammaPoleError when a or a + shift sits on a gamma pole.
    """
    a = _as_fraction(a)
    if is_nonpositive_integer(a):
        raise GammaPoleError(f"Gamma({a}) pole")
    if is_nonpositive_integer(a + shift):
        raise GammaPoleError(f"Gamma({a + shift}) pole")
    if shift >= 0:
        return pochhammer(a, shift)
    denom = pochhammer(a + shift, -shift)
    assert denom != 0
    return Fraction(1) / denom


def _coeff(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return Cyclotomic(_as_fraction(x))


class CycPoly:
    """Dense polynomial over Q(w), coefficients lowest degree first.

    Canonical form: no trailing zero coefficients.  The zero polynomial has
    degree -1.  All operations are exact and return new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycPoly values are immutable")

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "CycPoly":
        return cls([0] * k + [coeff])

    @classmethod
    def binomial_power(cls, const, lin, n: int) -> "CycPoly":
        """(const + lin*x)^n expanded exactly."""
        const = _coeff(const)
        lin = _coeff(lin)
        cs = []
        for k in range(n + 1):
            cs.append(math.comb(n, k) * const ** (n - k) * lin**k)
        return cls(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Cyclotomic:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return CycPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return CycPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return CycPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            s = _coeff(other)
            return CycPoly([c * s for c in self.coeffs])
        if not isinstance(other, CycPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return CycPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x) -> Cyclotomic:
        """Horner evaluation at a Cyclotomic (or rational) point."""
        x = _coeff(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def derivative(self) -> "CycPoly":
        return CycPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def scale_arg(self, s) -> "CycPoly":
        """p(s*x): coefficient k is multiplied by s^k."""
        s = _coeff(s)
        out = []
        power = ONE
        for c in self.coeffs:
            out.append(c * power)
            power = power * s
        return CycPoly(out)

    def divide_exact(self, den: "CycPoly") -> "CycPoly":
        """Quotient self/den when the division is exact.

        Raises NotDivisibleError (carrying the remainder) otherwise; a nonzero
        remainder in this code base always signals a construction bug upstream.
        """
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return CycPoly()
        if self.degree < den.degree:
            raise NotDivisibleError("degree deficit", remainder=self)
        rem = list(self.coeffs)
        dn = den.coeffs
        lead_inv = dn[-1].inverse()
        qdeg = len(rem) - len(dn)
        quot = [ZERO] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            factor = rem[k + len(dn) - 1] * lead_inv
            quot[k] = factor
            if factor.is_zero():
                continue
            for j, dj in enumerate(dn):
                rem[k + j] = rem[k + j] - factor * dj
        remainder = CycPoly(rem)
        if not remainder.is_zero():
            raise NotDivisibleError("nonzero remainder", remainder=remainder)
        return CycPoly(quot)

    def all_coeffs_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "CycPoly(0)"
        terms = [f"({c!r})*x^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "CycPoly(" + " + ".join(terms) + ")"
