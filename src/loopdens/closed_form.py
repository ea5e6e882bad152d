"""Exact loop densities on the even-circumference cylinder and their asymptotics.

Both densities at circumference L = 2N are rational functions of one number,

    R(N) = Gamma(N/2) Gamma(3N/2 + 1/2) / (Gamma(N/2 + 1/2) Gamma(3N/2)),

which the duplication formula turns into a ratio of two central binomials:

    N even:  R = 3 C(3N, 3N/2) / (4^N C(N, N/2))
    N odd:   R = 4^N C(N-1, (N-1)/2) / C(3N-1, (3N-1)/2)

With R = p/q, ``nu_c_exact`` returns 3R/4 + 9/(4R) - 5/2 and ``nu_nc_exact``
returns (R - 3/R)/(4N), each as one Fraction built from a fixed number of
big-integer operations.  The paper's forms in factorials and Pochhammer
symbols are the test reference (``tests/test_closed_form.py``); the
equivalent gamma-function forms are kept as a floating-point cross-check, and
the large-L asymptotic series are provided together with high-precision
residual helpers used by the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

METHOD_CLOSED_FORM = "closed_form"
METHOD_FSZ_DERIVATIVE = "fsz_derivative"
METHOD_TRANSFER_ORACLE = "transfer_oracle"
METHOD_MONTE_CARLO = "monte_carlo"

# leading asymptotic constants
NU_C_LIMIT = (3.0 * math.sqrt(3.0) - 5.0) / 2.0
NU_NC_LEADING = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class DensityRecord:
    """One cylinder circumference's pair of loop densities."""

    L: int
    N: int
    nu_c: Fraction
    nu_nc: Fraction
    nu_c_float: float
    nu_nc_float: float
    method: str = METHOD_CLOSED_FORM


def _check_n(N: int):
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")


def _binomial_ratio(N: int) -> tuple[int, int]:
    """R(N) = p/q (see the module docstring) as the pair of ints (p, q)."""
    if N % 2 == 0:
        return 3 * math.comb(3 * N, 3 * N // 2), 4**N * math.comb(N, N // 2)
    return 4**N * math.comb(N - 1, (N - 1) // 2), math.comb(3 * N - 1, (3 * N - 1) // 2)


def nu_c_exact(N: int) -> Fraction:
    """Density of contractible loops per lattice site at circumference 2N."""
    _check_n(N)
    p, q = _binomial_ratio(N)
    return Fraction(3 * p * p - 10 * p * q + 9 * q * q, 4 * p * q)


def nu_nc_exact(N: int) -> Fraction:
    """Density of non-contractible (winding) loops per site at circumference 2N."""
    _check_n(N)
    p, q = _binomial_ratio(N)
    return Fraction(p * p - 3 * q * q, 4 * N * p * q)


def nu_c_gamma_form(N: int, dps: int = 50) -> float:
    """Gamma-function form of nu_c, evaluated in high-precision floats.

    Cross-check only; the rational form is the production path.
    """
    _check_n(N)
    with mp.workdps(dps):
        n = mp.mpf(N)
        t1 = 3 * mp.gamma(n / 2) * mp.gamma(3 * n / 2 + mp.mpf(1) / 2) / (
            4 * mp.gamma(3 * n / 2) * mp.gamma((n + 1) / 2)
        )
        t2 = (
            mp.pi**2
            * mp.mpf(2) ** (-2 * n)
            * mp.mpf(3) ** (2 - 3 * n)
            * mp.gamma(3 * n)
            / (
                mp.gamma(n / 2 + mp.mpf(1) / 6) ** 2
                * mp.gamma(n / 2 + mp.mpf(5) / 6) ** 2
                * mp.gamma(n)
            )
        )
        return float(t1 + t2 - mp.mpf(5) / 2)


def nu_nc_gamma_form(N: int, dps: int = 50) -> float:
    """Gamma-function form of nu_nc (floating-point cross-check)."""
    _check_n(N)
    with mp.workdps(dps):
        n = mp.mpf(N)
        pref = mp.mpf(2) ** (2 * (n - 2)) * mp.gamma(n) / (n * mp.pi**2 * mp.gamma(3 * n))
        bracket = mp.mpf(3) ** (3 * n) * mp.gamma(n / 2 + mp.mpf(1) / 6) ** 2 * mp.gamma(
            n / 2 + mp.mpf(5) / 6
        ) ** 2 - 12 * mp.pi**2 * mp.gamma(3 * n / 2) ** 2 / mp.gamma(n / 2) ** 2
        return float(pref * bracket)


# asymptotic series coefficients: nu_c(2N) ~ c0 + c1 (2N)^-2 + c2 (2N)^-4,
# nu_nc(2N) ~ d0 (2N)^-2 + d1 (2N)^-4 + d2 (2N)^-6 (coefficients over sqrt(3))
_NU_C_COEFFS = (Fraction(0), Fraction(1, 4), Fraction(-23, 48))
_NU_NC_COEFFS = (Fraction(1), Fraction(-17, 18), Fraction(1021, 216))


def _check_order(order: int):
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")


def _series_sum(kind: str, N: int, order: int, num, s3):
    """Large-L series of `kind` at circumference 2N, truncated after `order`
    corrections, in the arithmetic of `num` (which converts a Fraction) with
    `s3` = sqrt(3) in that arithmetic, so floats and mpmath share one sum."""
    if kind == "nu_c":
        total, coeffs, first = (3 * s3 - 5) / 2, _NU_C_COEFFS, 1
    elif kind == "nu_nc":
        total, coeffs, first = num(Fraction(0)), _NU_NC_COEFFS, 0
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    for k in range(first, order + 1):
        total += num(coeffs[k]) / s3 * num(Fraction(2 * N)) ** (-2 * (k + 1 - first))
    return total


def nu_c_asymptotic(N: int, order: int) -> float:
    """Partial sum of the large-L series for nu_c, truncated after `order` corrections."""
    _check_n(N)
    _check_order(order)
    return _series_sum("nu_c", N, order, float, math.sqrt(3.0))


def nu_nc_asymptotic(N: int, order: int) -> float:
    """Partial sum of the large-L series for nu_nc; order 0 is the leading term."""
    _check_n(N)
    _check_order(order)
    return _series_sum("nu_nc", N, order, float, math.sqrt(3.0))


def _mp_exact(value: Fraction):
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def asymptotic_residual(kind: str, N: int, order: int, dps: int = 60):
    """(exact, series, residual) as floats computed at high precision.

    The residuals decay like (2N)^(-2(order+1)) for nu_c and (2N)^(-2(order+2))
    for nu_nc, far below double precision relative to the exact values at large
    N, so the difference is taken in mpmath before rounding to float.
    """
    _check_order(order)
    with mp.workdps(dps):
        if kind == "nu_c":
            exact = _mp_exact(nu_c_exact(N))
        elif kind == "nu_nc":
            exact = _mp_exact(nu_nc_exact(N))
        else:
            raise ValueError(f"unknown density kind {kind!r}")
        series = _series_sum(kind, N, order, _mp_exact, mp.sqrt(3))
        residual = exact - series
        return float(exact), float(series), float(residual)


def residual_scale_power(kind: str, order: int) -> int:
    """Power of (2N) that turns the order-`order` residual into a plateau."""
    _check_order(order)
    if kind == "nu_c":
        return 2 * (order + 1)
    if kind == "nu_nc":
        return 2 * (order + 2)
    raise ValueError(f"unknown density kind {kind!r}")


def scaled_residual(kind: str, N: int, order: int, dps: int = 60) -> float:
    """(2N)^p * |exact - series| with the plateau-correct power p."""
    _, _, residual = asymptotic_residual(kind, N, order, dps=dps)
    return abs(residual) * (2 * N) ** residual_scale_power(kind, order)


def make_record(N: int, nu_c: Fraction, nu_nc: Fraction, method: str) -> DensityRecord:
    return DensityRecord(
        L=2 * N,
        N=N,
        nu_c=nu_c,
        nu_nc=nu_nc,
        nu_c_float=float(nu_c),
        nu_nc_float=float(nu_nc),
        method=method,
    )


def density_record(N: int) -> DensityRecord:
    return make_record(N, nu_c_exact(N), nu_nc_exact(N), METHOD_CLOSED_FORM)


def density_table(N_max: int) -> list[DensityRecord]:
    """Closed-form records for N = 1..N_max, in order."""
    _check_n(N_max)
    return [density_record(N) for N in range(1, N_max + 1)]
