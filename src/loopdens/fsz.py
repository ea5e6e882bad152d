"""Hypergeometric construction of the Baxter Q- and P-polynomials at the
stochastic point, and the derivative machinery that re-derives the loop
densities from them.

The construction (due to Fridkin, Stroganov and Zagier) expresses f_Q and f_P
as terminating Gauss hypergeometric series in t = -x^3 with exact rational
prefactors; Q and P are extracted by exact division by (1+x)^(2N).  The
eigenvalue derivatives with respect to the deformation parameters are then
rational combinations of Q, P and their derivatives evaluated at q^(+-2),
computed here entirely in Q(w) and reduced to exact rationals, which the
verify suite compares with the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .cyclotomic import (
    Cyclotomic,
    CycPoly,
    GammaPoleError,
    I_SQRT3,
    ONE,
    gamma_ratio,
    is_nonpositive_integer,
    pochhammer,
    q_power,
)
from .errors import ComputationError


class RouteMismatchError(ComputationError, ArithmeticError):
    """Two independently coded evaluation routes disagree."""


class RootConvergenceError(ComputationError, ArithmeticError):
    """Numeric root extraction failed to converge for a Bethe root."""

    def __init__(self, message, root_index=None):
        super().__init__(message)
        self.root_index = root_index


@dataclass(frozen=True)
class FszSolution:
    """Exact T-Q/T-P solution data at circumference L = 2N, sector M = N."""

    N: int
    f_q: CycPoly
    f_p: CycPoly
    q_poly: CycPoly
    p_poly: CycPoly
    t_poly: CycPoly


@dataclass(frozen=True)
class DerivativeBundle:
    """Eigenvalue log-derivatives and the densities assembled from them.

    The phi-derivative of ln T(1) equals sqrt(3) * C / 2^(2N); since sqrt(3)
    itself is not an element of Q(w), the bundle stores that derivative divided
    by sqrt(3) (an exact field element) instead.
    """

    N: int
    a_value: Cyclotomic
    c_value: Cyclotomic
    dln_t_dq: Cyclotomic
    dln_t_dphi_over_sqrt3: Cyclotomic
    nu_c: Fraction
    nu_nc: Fraction


def _series_coeffs(a, b, c) -> list[Fraction]:
    """The t^k coefficients (a)_k (b)_k / ((c)_k k!), k = 0..-b, of 2F1(a, b; c; t).

    Raises ValueError unless b is a nonpositive integer (the series terminates),
    and GammaPoleError if (c)_k vanishes before it does.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not is_nonpositive_integer(b):
        raise ValueError(f"series does not terminate: b = {b}")
    coeffs = [Fraction(1)]
    for k in range(int(-b)):
        if c + k == 0:
            raise GammaPoleError(f"(c)_k vanished at c = {c}, k = {k + 1}")
        coeffs.append(coeffs[-1] * ((a + k) * (b + k) / ((c + k) * (k + 1))))
    return coeffs


def _series_poly_in_x(a: Fraction, b: Fraction, c: Fraction) -> CycPoly:
    """Terminating 2F1(a, b; c; -x^3) expanded as a polynomial in x."""
    coeffs = []
    for k, coef in enumerate(_series_coeffs(a, b, c)):
        coeffs += [-coef if k % 2 else coef, 0, 0]
    return CycPoly(coeffs[:-2])


def build_fsz(N: int) -> FszSolution:
    """Assemble f_Q, f_P exactly and extract Q, P by division by (1+x)^(2N).

    All gamma-ratio prefactors reduce to Pochhammer products, so every
    coefficient is an exact rational; this is asserted, together with
    deg Q = deg P = N.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)

    # f_Q = G1 * ( G2 * 2F1(1/3-N, -N, 1/3; -x^3)
    #              + x^2 N G3 * 2F1(2/3-N, 1-N, 5/3; -x^3) )
    g1 = gamma_ratio(two_thirds - N, N)        # Gamma(2/3) / Gamma(2/3-N)
    g2 = 1 / gamma_ratio(two_thirds, N)        # Gamma(2/3) / Gamma(2/3+N)
    g3 = 1 / gamma_ratio(-two_thirds, N + 1)   # Gamma(-2/3) / Gamma(1/3+N)
    s1 = _series_poly_in_x(third - N, Fraction(-N), third)
    s2 = _series_poly_in_x(two_thirds - N, Fraction(1 - N), Fraction(5, 3))
    f_q = (s1 * (g1 * g2)) + (CycPoly.monomial(2, g1 * g3 * N) * s2)

    # f_P = H1 * ( H2 * 2F1(2/3-N, -N, 2/3; -x^3)
    #              + x N H3 * 2F1(1/3-N, 1-N, 4/3; -x^3) )
    h1 = gamma_ratio(two_thirds, N)            # Gamma(2/3+N) / Gamma(2/3)
    h2 = 1 / gamma_ratio(two_thirds - N, N)    # Gamma(2/3-N) / Gamma(2/3)
    h3 = 1 / gamma_ratio(third - N, N + 1)     # Gamma(1/3-N) / Gamma(4/3)
    s3 = _series_poly_in_x(two_thirds - N, Fraction(-N), two_thirds)
    s4 = _series_poly_in_x(third - N, Fraction(1 - N), Fraction(4, 3))
    f_p = (s3 * (h1 * h2)) + (CycPoly.monomial(1, h1 * h3 * N) * s4)

    if not (f_q.all_coeffs_rational() and f_p.all_coeffs_rational()):
        raise RouteMismatchError("f_Q/f_P acquired a nonzero w-component")

    t_poly = CycPoly.binomial_power(1, 1, 2 * N)
    q_poly = f_q.divide_exact(t_poly)
    p_poly = f_p.divide_exact(t_poly)
    if q_poly.degree != N or p_poly.degree != N:
        raise RouteMismatchError(
            f"deg Q = {q_poly.degree}, deg P = {p_poly.degree}, expected {N}"
        )
    return FszSolution(N=N, f_q=f_q, f_p=f_p, q_poly=q_poly, p_poly=p_poly, t_poly=t_poly)


# -- derivative machinery ----------------------------------------------------


class _Dual:
    """First-order dual number v + d*eps (eps^2 = 0) over Q(w)."""

    __slots__ = ("v", "d")

    def __init__(self, v: Cyclotomic, d: Cyclotomic):
        self.v = v
        self.d = d

    def __add__(self, other):
        return _Dual(self.v + other.v, self.d + other.d)

    def __sub__(self, other):
        return _Dual(self.v - other.v, self.d - other.d)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v, self.v * other.d + self.d * other.v)
        return _Dual(self.v * other, self.d * other)

    __rmul__ = __mul__

    def inverse(self):
        vinv = self.v.inverse()
        return _Dual(vinv, -vinv * vinv * self.d)


def _poly_eval_dual(poly: CycPoly, x: _Dual) -> _Dual:
    acc = _Dual(Cyclotomic(0), Cyclotomic(0))
    for c in reversed(poly.coeffs):
        acc = acc * x + _Dual(c, Cyclotomic(0))
    return acc


def _a_from_qp(sol: FszSolution) -> Cyclotomic:
    """Explicit-argument derivative combination of Q, P at q^(+-2)."""
    q = q_power(1)
    q2, qm2 = q_power(2), q_power(-2)
    qm1 = q_power(-1)
    Q, P = sol.q_poly, sol.p_poly
    Qd, Pd = Q.derivative(), P.derivative()
    num = (
        q * Qd(qm2) * P(q2)
        - Qd(q2) * P(qm2)
        - qm1 * Q(q2) * Pd(qm2)
        - qm1 * Q(qm2) * Pd(q2)
    )
    return num / I_SQRT3


def _a_from_dual(sol: FszSolution) -> Cyclotomic:
    """Same quantity via dual numbers, never writing the derivative formula.

    Perturb the explicit q in the arguments of Q(q^2 u), P(q^-2 u) at u = 1
    (q -> q + eps), keep the e^(+-2i*phi) = q^(+-2) coefficients fixed, and
    read the derivative off the dual part of the T-numerator.  The exponent 2
    in q^(+-2) contributes the factor 2 divided out at the end.
    """
    q = _Dual(q_power(1), ONE)
    s_plus = q * q
    s_minus = s_plus.inverse()
    Q, P = sol.q_poly, sol.p_poly
    num = q_power(2) * (_poly_eval_dual(Q, s_plus) * _poly_eval_dual(P, s_minus)) - q_power(
        -2
    ) * (_poly_eval_dual(Q, s_minus) * _poly_eval_dual(P, s_plus))
    return num.d / (2 * I_SQRT3)


def _a_from_f(sol: FszSolution) -> Cyclotomic:
    """Third route: the same combination written in terms of f_Q, f_P.

    Uses (1+q^2)(1+q^-2) = 1 to trade Q, P for f_Q, f_P; the inhomogeneous
    -2N{...} block comes from differentiating the (1+x)^(-2N) factors.
    """
    n2 = 2 * sol.N
    q = q_power(1)
    q2, qm2, qm1 = q_power(2), q_power(-2), q_power(-1)
    fq, fp = sol.f_q, sol.f_p
    fqd, fpd = fq.derivative(), fp.derivative()
    line1 = (
        q * fqd(qm2) * fp(q2)
        - fqd(q2) * fp(qm2)
        - qm1 * fq(q2) * fpd(qm2)
        - qm1 * fq(qm2) * fpd(q2)
    ) / I_SQRT3
    line2 = n2 * (fq(qm2) * fp(q2) - ((ONE + qm1) / I_SQRT3) * fq(q2) * fp(qm2))
    return line1 - line2


def quantity_a(sol: FszSolution) -> Cyclotomic:
    """The explicit part of d ln T(1)/dq, up to the factor 3 * 2^(-2N).

    Evaluated through two independently coded routes (direct Q,P-derivative
    combination and a dual-number perturbation of the T-numerator) which must
    agree exactly; a third f_Q/f_P route is available via a_f_form_matches.
    """
    a_qp = _a_from_qp(sol)
    a_dual = _a_from_dual(sol)
    if a_qp != a_dual:
        raise RouteMismatchError(
            f"N={sol.N}: Q,P-route {a_qp!r} != dual-number route {a_dual!r}"
        )
    return a_qp


def a_f_form_matches(sol: FszSolution) -> bool:
    """Whether the f_Q/f_P form of the derivative combination agrees exactly.

    Reported, not enforced: the Q,P-form (whose densities the verify suite
    compares with the closed forms) is authoritative.
    """
    return _a_from_f(sol) == _a_from_qp(sol)


def quantity_c(sol: FszSolution) -> Cyclotomic:
    """q^2 Q(q^2) P(q^-2) + q^-2 Q(q^-2) P(q^2), checked against the f-form."""
    q2, qm2 = q_power(2), q_power(-2)
    Q, P = sol.q_poly, sol.p_poly
    c_qp = q2 * Q(q2) * P(qm2) + qm2 * Q(qm2) * P(q2)
    fq, fp = sol.f_q, sol.f_p
    c_f = q2 * fq(q2) * fp(qm2) + qm2 * fq(qm2) * fp(q2)
    if c_qp != c_f:
        raise RouteMismatchError(f"N={sol.N}: C routes disagree: {c_qp!r} vs {c_f!r}")
    return c_qp


def densities_via_tq(N: int) -> DerivativeBundle:
    """Re-derive (nu_c, nu_nc) from the T-Q solution at circumference 2N."""
    return densities_from_solution(build_fsz(N))


def densities_from_solution(sol: FszSolution) -> DerivativeBundle:
    """Re-derive (nu_c, nu_nc) from the T-Q solution's derivatives.

    nu_c = 1/2 + (1 - q^-2)^(-1) / (2N) * d ln T(1)/dq  with
    d ln T(1)/dq = 3 * 2^(-2N) * A, and nu_nc = -C / (2N * 2^(2N)).  Both
    routes to A and to C must agree, nu_c and C must be rational and C < 0;
    any failure raises RouteMismatchError.  The caller compares the densities
    with the closed forms.
    """
    N = sol.N
    a_val = quantity_a(sol)
    c_val = quantity_c(sol)
    if not c_val.is_rational():
        raise RouteMismatchError(f"N={N}: C has a nonzero w-component: {c_val!r}")

    pow4 = Fraction(1, 4**N)
    dln_t_dq = 3 * pow4 * a_val
    nu_c_cyc = Cyclotomic(Fraction(1, 2)) + (
        (ONE - q_power(-2)).inverse() * dln_t_dq * Fraction(1, 2 * N)
    )
    if not nu_c_cyc.is_rational():
        raise RouteMismatchError(f"N={N}: nu_c has a nonzero w-component: {nu_c_cyc!r}")
    nu_c = nu_c_cyc.as_rational()
    nu_nc = -c_val.as_rational() * Fraction(1, 2 * N * 4**N)
    if c_val.as_rational() >= 0:
        raise RouteMismatchError(f"N={N}: C = {c_val.as_rational()} is not negative")
    return DerivativeBundle(
        N=N,
        a_value=a_val,
        c_value=c_val,
        dln_t_dq=dln_t_dq,
        dln_t_dphi_over_sqrt3=c_val * pow4,
        nu_c=nu_c,
        nu_nc=nu_nc,
    )


# -- Bethe-equation residual check -------------------------------------------


# mpmath working precision, in decimal digits, of bethe_residual
_BETHE_DPS = 60


def bethe_residual(sol: FszSolution) -> float:
    """Max residual of the Bethe equations over the numeric roots of Q.

    Roots are extracted by simultaneous (Durand-Kerner) iteration at _BETHE_DPS
    decimal digits, the full Q being evaluated at every candidate.  For each
    root u_i the residual is
    | e^(2i*phi) ((u_i - q)/(1 - q u_i))^L - (-1)^(M-1) prod_j (q^2 u_j - u_i)/(q^2 u_i - u_j) |
    at q = e^(i*pi/3), phi = pi/3, L = 2N, M = N.
    """
    N = sol.N
    with mp.workdps(_BETHE_DPS):
        coeffs = []
        for c in reversed(sol.q_poly.coeffs):
            r = c.as_rational()
            coeffs.append(mp.mpf(r.numerator) / mp.mpf(r.denominator))
        try:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=80)
        except mp.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
            raise RootConvergenceError(f"polyroots did not converge: {exc}") from exc
        lead = coeffs[0]
        for i, u in enumerate(roots):
            val = mp.polyval(coeffs, u)
            if abs(val) > mp.mpf(10) ** (-(_BETHE_DPS - 12)) * max(1, abs(lead)):
                raise RootConvergenceError(
                    f"root {i} failed to converge: |Q(u_{i})| = {abs(val)}", root_index=i
                )
        q = mp.exp(mp.mpc(0, 1) * mp.pi / 3)
        e2phi = mp.exp(mp.mpc(0, 2) * mp.pi / 3)
        sign = (-1) ** (N - 1)
        worst = mp.mpf(0)
        for i, ui in enumerate(roots):
            lhs = e2phi * ((ui - q) / (1 - q * ui)) ** (2 * N)
            rhs = mp.mpc(sign)
            for j, uj in enumerate(roots):
                if j == i:
                    continue
                rhs *= (q**2 * uj - ui) / (q**2 * ui - uj)
            worst = max(worst, abs(lhs - rhs))
        return float(worst)


# -- contiguous Kummer evaluations --------------------------------------------

# The shifts n of 2F1(a, b; 1+a-b+n; -1) that both gamma-ratio routes return,
# in this order.  With B = 1-b and h_k = a/2 + k/2, the form for n >= 0 is
#   Gamma(a+B+n) Gamma(B) / (2 Gamma(a) Gamma(B+n)) * sum_k (-1)^k C(n,k) Gamma(h_k) / Gamma(h_k+B)
# and its companion for n < 0 is
#   Gamma(a+B+n) / (2 Gamma(a)) * sum_k C(-n,k) Gamma(h_k) / Gamma(h_k+B+n).
KUMMER_SHIFTS = (-2, -1, 0, 1, 2)


def hyp2f1_at_minus_one(a, b, c) -> Fraction:
    """Brute-force terminating 2F1(a, b; c; -1) as an exact rational."""
    coeffs = _series_coeffs(a, b, c)
    return sum(coeffs[::2]) - sum(coeffs[1::2])


def kummer_contiguous(a, b) -> tuple[Fraction, ...]:
    """The gamma-ratio forms of 2F1(a, b; 1+a-b+n; -1), exact, n in KUMMER_SHIFTS.

    Each Gamma(x+B+s)/Gamma(x), s = -2..2, is read off one running product per
    base x.  Requires integer b (so every gamma ratio pairs into a rational);
    the terminating-series comparison additionally needs b <= 0.  Raises
    GammaPoleError, as the numeric route does, for a pole at a or at 1-b.
    """
    a, b = Fraction(a), Fraction(b)
    if b.denominator != 1:
        raise ValueError("exact evaluation needs integer b")
    B = int(1 - b)
    if B <= 0:
        raise GammaPoleError(f"Gamma({B}) pole")
    runs = []  # [x][s + 2] = Gamma(x+B+s)/Gamma(x) for x = a, h_0, h_1, h_2
    for x in (a, a / 2, a / 2 + Fraction(1, 2), a / 2 + 1):
        # gamma_ratio refuses a pole at x or x+B-2, so at every x+B+s
        run = [gamma_ratio(x, B - 2)]
        for s in range(B - 2, B + 2):
            run.append(run[-1] * (x + s))
        runs.append(run)
    ga, *gh = runs
    values = []
    for n in KUMMER_SHIFTS:
        sign, m = -1 if n > 0 else 1, min(n, 0)
        total = sum(sign**k * math.comb(abs(n), k) / gh[k][m + 2] for k in range(abs(n) + 1))
        values.append(ga[n + 2] / (2 * (1, B, B * (B + 1))[n - m]) * total)
    return tuple(values)


def kummer_contiguous_numeric(a, b) -> tuple[float, ...]:
    """The same forms in mpmath at 40 digits, one mp.gamma call per distinct argument.

    Every gamma pole raises GammaPoleError, as in the exact route.
    """
    a, b = Fraction(a), Fraction(b)
    with mp.workdps(40):
        gammas = {}

        def gamma(x: Fraction):
            if x not in gammas:
                if is_nonpositive_integer(x):
                    raise GammaPoleError(f"Gamma({x}) pole")
                gammas[x] = mp.gamma(mp.mpf(x.numerator) / x.denominator)
            return gammas[x]

        values = []
        for n in KUMMER_SHIFTS:
            sign, m = -1 if n > 0 else 1, min(n, 0)
            pref = gamma(1 + a - b + n) * gamma(1 - b) / (2 * gamma(a) * gamma(1 - b + n - m))
            halves = [a / 2 + Fraction(k, 2) for k in range(abs(n) + 1)]
            total = sum(
                sign**k * math.comb(abs(n), k) * gamma(h) / gamma(h - b + 1 + m)
                for k, h in enumerate(halves)
            )
            values.append(float(pref * total))
    return tuple(values)


def kummer_parameter_sweep(n_max: int):
    """(a, b) pairs at which the series of f_Q, f_P and their t-derivatives
    are evaluated at t = -1, for N = 1..n_max.

    Derivatives shift (a, b) by +1; pairs with b > 0 are skipped (their series
    prefactor vanishes identically so they are never evaluated).
    """
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    pairs = []
    for N in range(1, n_max + 1):
        base = [
            (third - N, Fraction(-N)),
            (two_thirds - N, Fraction(1 - N)),
            (two_thirds - N, Fraction(-N)),
            (third - N, Fraction(1 - N)),
        ]
        for a, b in base:
            pairs.append((N, a, b))
            if b + 1 <= 0:
                pairs.append((N, a + 1, b + 1))
    return pairs


# -- closed-form evaluation of f_Q, f_P at q^(+-2) -----------------------------


def fq_fp_closed_eval(N: int, sign: int):
    """Exact gamma-ratio closed forms of f_Q(q^(2*sign)), f_P(q^(2*sign)).

    All gamma ratios pair up across integer shifts, and the reflection
    formula turns the remaining pi/sqrt(3) prefactors into (-1)^N / 2, so the
    result lives in Q(w).  Equality with direct polynomial evaluation is
    asserted; returns the pair (f_Q value, f_P value).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    sol = build_fsz(N)
    half_n = Fraction(N, 2)
    r16 = 1 / pochhammer(Fraction(1, 6) - half_n, N)  # Gamma(1/6-N/2)/Gamma(1/6+N/2)
    r23 = 1 / pochhammer(Fraction(2, 3) - half_n, N)
    r13 = 1 / pochhammer(Fraction(1, 3) - half_n, N)
    r56 = 1 / pochhammer(Fraction(5, 6) - half_n, N)

    half_sign = Fraction((-1) ** N, 2)
    g1 = pochhammer(Fraction(2, 3) - N, N)  # Gamma(2/3)/Gamma(2/3-N)
    fq_closed = (g1 * half_sign) * (
        Cyclotomic(r16 + r23) - q_power(-2 * sign) * Fraction(r13 - r56)
    )
    h1 = pochhammer(Fraction(2, 3), N)      # Gamma(2/3+N)/Gamma(2/3)
    fp_closed = Fraction(h1, 2) * (
        Cyclotomic(r13 + r56) + q_power(2 * sign) * Fraction(r16 - r23)
    )

    fq_direct = sol.f_q(q_power(2 * sign))
    fp_direct = sol.f_p(q_power(2 * sign))
    if fq_closed != fq_direct or fp_closed != fp_direct:
        raise RouteMismatchError(
            f"N={N}, sign={sign:+d}: closed forms ({fq_closed!r}, {fp_closed!r}) "
            f"!= direct ({fq_direct!r}, {fp_direct!r})"
        )
    return fq_closed, fp_closed
