"""Exact scalar and polynomial arithmetic for the loop-density computations.

Scalars live either in Q (arbitrary-precision ``fractions.Fraction``) or in the
cyclotomic field Q(w) with w = exp(i*pi/3), represented on the basis {1, w}
with the reduction rule w^2 = w - 1.  Polynomials over Q(w) keep their
coefficients as Python ints over one common denominator.  Everything here is
exact; floats appear only in rendering helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import ComputationError

# complex value of the basis element w = exp(i*pi/3)
_OMEGA_COMPLEX = complex(0.5, math.sqrt(3.0) / 2.0)


class GammaPoleError(ComputationError, ArithmeticError):
    """A gamma-function argument hit a nonpositive integer."""


class NotDivisibleError(ComputationError, ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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
        # a rational element equals its Fraction, so it must hash like it
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"Cyc({self.a})"
        return f"Cyc({self.a} + {self.b}*w)"


ZERO = Cyclotomic(0)
ONE = Cyclotomic(1)
OMEGA = Cyclotomic(0, 1)

# q = exp(i*pi/3) is the basis element OMEGA itself; q - 1/q = i*sqrt(3)
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


def _ints(x) -> tuple[int, int, int]:
    """(a, b, d) with x = (a + b*w)/d and d > 0, for a rational or Q(w) scalar."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    x = _coeff(x)
    a, b = x.a, x.b
    d = math.lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def _conv(x, y) -> list[int]:
    """Coefficients of the product of two nonempty integer polynomials."""
    if x.count(0) < y.count(0):
        x, y = y, x  # skip the zeros of the sparser factor
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for k, yj in enumerate(y, i):
                out[k] += xi * yj
    return out


def _set(p: CycPoly, a: list, b: list, d: int) -> None:
    """Store (a + b*w)/d on p in canonical form."""
    n = len(a)
    while n and not a[n - 1] and not b[n - 1]:
        n -= 1
    if not n:
        a, b, d = (), (), 1
    else:
        g = math.gcd(d, *a[:n], *b[:n]) if d != 1 else 1
        if d < 0:
            g = -g
        if g != 1:
            a = [x // g for x in a[:n]]
            b = [y // g for y in b[:n]]
            d //= g
        a, b = tuple(a[:n]), tuple(b[:n])
    object.__setattr__(p, "_a", a)
    object.__setattr__(p, "_b", b)
    object.__setattr__(p, "_d", d)


def _mul(a1: int, b1: int, a2: int, b2: int) -> tuple[int, int]:
    """(a1 + b1*w)(a2 + b2*w) on integers, with w^2 = w - 1."""
    return a1 * a2 - b1 * b2, a1 * b2 + b1 * (a2 + b2)


def _times(a, b, sa: int, sb: int):
    """Integer vectors a + b*w multiplied by the integer element sa + sb*w."""
    if not sb:
        return [x * sa for x in a], [y * sa for y in b]
    # the vector form of _mul
    return (
        [x * sa - y * sb for x, y in zip(a, b)],
        [x * sb + y * (sa + sb) for x, y in zip(a, b)],
    )


class CycPoly:
    """Dense polynomial over Q(w), coefficients lowest degree first.

    Held as two tuples of Python ints and one common denominator: coefficient
    k is (A[k] + B[k]*w)/D.  Canonical form: no trailing zero pairs, D > 0,
    gcd(D, A, B) = 1, and D = 1 for the zero polynomial, which has degree -1.
    All operations are exact and return new objects.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, coeffs=()):
        parts = [_ints(c) for c in coeffs]
        d = math.lcm(*(p[2] for p in parts))
        _set(
            self,
            [a * (d // pd) for a, _, pd in parts],
            [b * (d // pd) for _, b, pd in parts],
            d,
        )

    def __setattr__(self, name, value):
        raise AttributeError("CycPoly values are immutable")

    @classmethod
    def _from_ints(cls, a, b, d: int) -> "CycPoly":
        p = object.__new__(cls)
        _set(p, a, b, d)
        return p

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "CycPoly":
        return cls([0] * k + [coeff])

    @classmethod
    def binomial_power(cls, const, lin, n: int) -> "CycPoly":
        """(const + lin*x)^n expanded exactly, for n >= 0."""
        if n < 0:
            raise ValueError(f"binomial_power needs n >= 0, got {n}")
        ca, cb, cd = _ints(const)
        la, lb, ld = _ints(lin)
        # (U + V*x)^n / (cd*ld)^n with integer U = const*cd*ld, V = lin*cd*ld
        ua, ub = ca * ld, cb * ld
        va, vb = la * cd, lb * cd
        u_pows = [(1, 0)]
        for _ in range(n):
            u_pows.append(_mul(*u_pows[-1], ua, ub))
        a, b = [], []
        pa, pb, comb = 1, 0, 1  # V^k and C(n, k)
        for k in range(n + 1):
            ta, tb = _mul(*u_pows[n - k], pa, pb)
            a.append(comb * ta)
            b.append(comb * tb)
            pa, pb = _mul(pa, pb, va, vb)
            comb = comb * (n - k) // (k + 1)
        return cls._from_ints(a, b, (cd * ld) ** n)

    @property
    def coeffs(self) -> tuple[Cyclotomic, ...]:
        d = self._d
        return tuple(Cyclotomic(Fraction(a, d), Fraction(b, d)) for a, b in zip(self._a, self._b))

    @property
    def degree(self) -> int:
        return len(self._a) - 1

    def is_zero(self) -> bool:
        return not self._a

    def coeff(self, k: int) -> Cyclotomic:
        if 0 <= k < len(self._a):
            return Cyclotomic(Fraction(self._a[k], self._d), Fraction(self._b[k], self._d))
        return ZERO

    # -- ring operations ----------------------------------------------------

    def _combine(self, other: "CycPoly", sign: int) -> "CycPoly":
        d1, d2 = self._d, other._d
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        pairs = zip_longest(self._a, self._b, other._a, other._b, fillvalue=0)
        a, b = [], []
        for a1, b1, a2, b2 in pairs:
            a.append(a1 * f1 + a2 * f2)
            b.append(b1 * f1 + b2 * f2)
        return CycPoly._from_ints(a, b, d1 * f1)

    def __add__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return CycPoly._from_ints([-a for a in self._a], [-b for b in self._b], self._d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            sa, sb, sd = _ints(other)
            return CycPoly._from_ints(*_times(self._a, self._b, sa, sb), self._d * sd)
        if not isinstance(other, CycPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycPoly()
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        aa = _conv(a1, a2)
        if not any(b1) and not any(b2):
            b = [0] * len(aa)
        elif not any(b1):
            b = _conv(a1, b2)
        elif not any(b2):
            b = _conv(b1, a2)
        else:
            # three convolutions: a1a2 - b1b2 and (a1+b1)(a2+b2) - a1a2
            bb = _conv(b1, b2)
            ss = _conv([x + y for x, y in zip(a1, b1)], [x + y for x, y in zip(a2, b2)])
            b = [s - x for s, x in zip(ss, aa)]
            aa = [x - y for x, y in zip(aa, bb)]
        return CycPoly._from_ints(aa, b, self._d * other._d)

    __rmul__ = __mul__

    def evaluate(self, x) -> Cyclotomic:
        """Horner evaluation at a Cyclotomic (or rational) point."""
        if self.is_zero():
            return ZERO
        xa, xb, xd = _ints(x)
        # sum_k c_k X^k xd^(n-k) for X = x*xd, then one division by D*xd^n
        acc_a = acc_b = 0
        pw = 1
        for a, b in zip(reversed(self._a), reversed(self._b)):
            acc_a, acc_b = _mul(acc_a, acc_b, xa, xb)
            acc_a += a * pw
            acc_b += b * pw
            pw *= xd
        den = self._d * xd**self.degree
        return Cyclotomic(Fraction(acc_a, den), Fraction(acc_b, den))

    __call__ = evaluate

    def derivative(self) -> "CycPoly":
        return CycPoly._from_ints(
            [k * a for k, a in enumerate(self._a)][1:],
            [k * b for k, b in enumerate(self._b)][1:],
            self._d,
        )

    def scale_arg(self, s) -> "CycPoly":
        """p(s*x): coefficient k is multiplied by s^k."""
        sa, sb, sd = _ints(s)
        n = self.degree
        # coefficient k times (s*sd)^k sd^(n-k), over D*sd^n
        sd_pows = [1]
        for _ in range(n):
            sd_pows.append(sd_pows[-1] * sd)
        a, b = [], []
        pa, pb = 1, 0  # (s*sd)^k
        for k, (x, y) in enumerate(zip(self._a, self._b)):
            ta, tb = _mul(x, y, pa, pb)
            a.append(ta * sd_pows[n - k])
            b.append(tb * sd_pows[n - k])
            pa, pb = _mul(pa, pb, sa, sb)
        return CycPoly._from_ints(a, b, self._d * sd_pows[-1])

    def divide_exact(self, den: "CycPoly") -> "CycPoly":
        """Quotient self/den when the division is exact.

        Raises NotDivisibleError (carrying the remainder) otherwise; a nonzero
        remainder in this code base always signals a construction bug upstream.
        The division runs on integers only.  Both sides are multiplied by
        c = conj(lead) when the divisor's leading coefficient has a w-part,
        so that the divisor leads with an integer nu, and the working
        remainder is scaled by just enough of nu to keep every quotient
        coefficient integral.
        """
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return CycPoly()
        if self.degree < den.degree:
            raise NotDivisibleError("degree deficit", remainder=self)
        la, lb = den._a[-1], den._b[-1]
        ca, cb = (la + lb, -lb) if lb else (1, 0)
        ea, eb = _times(den._a, den._b, ca, cb)
        ra, rb = _times(self._a, self._b, ca, cb)
        nu = ea[-1]
        rational = not any(eb)
        m = len(ea) - 1
        qdeg = len(ra) - len(ea)
        qa, qb = [0] * (qdeg + 1), [0] * (qdeg + 1)
        scale = 1  # c*self*scale = quot*den*c + rem, all over the integers
        for k in range(qdeg, -1, -1):
            ta, tb = ra[k + m], rb[k + m]
            if not (ta or tb):
                continue
            t = nu // math.gcd(nu, ta, tb)
            if t != 1:
                ra, rb = [x * t for x in ra], [y * t for y in rb]
                qa, qb = [x * t for x in qa], [y * t for y in qb]
                scale *= t
                ta, tb = ta * t, tb * t
            fa, fb = ta // nu, tb // nu
            qa[k], qb[k] = fa, fb
            if rational:
                for j, e in enumerate(ea, k):
                    ra[j] -= fa * e
                    rb[j] -= fb * e
            else:
                for j, (e, f) in enumerate(zip(ea, eb), k):
                    ra[j] -= fa * e - fb * f
                    rb[j] -= fa * f + fb * (e + f)
        if any(ra[:m]) or any(rb[:m]):
            # the true remainder is rem / (c * scale * D), and 1/c = conj(c)/norm(c)
            norm = ca * ca + ca * cb + cb * cb
            remainder = CycPoly._from_ints(
                *_times(ra[:m], rb[:m], ca + cb, -cb), norm * scale * self._d
            )
            raise NotDivisibleError("nonzero remainder", remainder=remainder)
        return CycPoly._from_ints(*_times(qa, qb, den._d, 0), scale * self._d)

    def all_coeffs_rational(self) -> bool:
        return not any(self._b)

    def __eq__(self, other):
        if not isinstance(other, CycPoly):
            return NotImplemented
        return self._d == other._d and self._a == other._a and self._b == other._b

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        if self.is_zero():
            return "CycPoly(0)"
        terms = [f"({c!r})*x^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "CycPoly(" + " + ".join(terms) + ")"

