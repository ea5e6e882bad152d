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
the large-L asymptotic series are summed in mpmath only inside the
high-precision residual helpers behind ``loopdens asymptote``.

No route imports these forms: routes return only what they derive, and only
the CLI and the verify suite in ``tq_identities`` compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

# mpmath working precision, in decimal digits, of the gamma forms and of the
# asymptotic residuals
_GAMMA_DPS = 50
_RESIDUAL_DPS = 60


@dataclass(frozen=True)
class DensityRecord:
    """One cylinder circumference's pair of loop densities."""

    L: int
    N: int
    nu_c: Fraction
    nu_nc: Fraction
    nu_c_float: float
    nu_nc_float: float


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


def nu_c_gamma_form(N: int) -> float:
    """Gamma-function form of nu_c, evaluated in high-precision floats.

    Cross-check only; the rational form is the production path.
    """
    _check_n(N)
    with mp.workdps(_GAMMA_DPS):
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


def nu_nc_gamma_form(N: int) -> float:
    """Gamma-function form of nu_nc (floating-point cross-check)."""
    _check_n(N)
    with mp.workdps(_GAMMA_DPS):
        n = mp.mpf(N)
        pref = mp.mpf(2) ** (2 * (n - 2)) * mp.gamma(n) / (n * mp.pi**2 * mp.gamma(3 * n))
        bracket = mp.mpf(3) ** (3 * n) * mp.gamma(n / 2 + mp.mpf(1) / 6) ** 2 * mp.gamma(
            n / 2 + mp.mpf(5) / 6
        ) ** 2 - 12 * mp.pi**2 * mp.gamma(3 * n / 2) ** 2 / mp.gamma(n / 2) ** 2
        return float(pref * bracket)


# Large-L series per density kind: (limit, coefficients, first power), the
# limit as its (sqrt(3) part, rational part).  Truncated after `order`,
#   nu(2N) ~ limit + sum_{k <= order} coefficients[k] / sqrt(3) * (2N)^(-2(first + k)),
# so the residual decays like (2N)^(-2(first + order + 1)).
_SERIES = {
    "nu_c": ((Fraction(3, 2), Fraction(-5, 2)), (Fraction(0), Fraction(1, 4), Fraction(-23, 48)), 0),
    "nu_nc": ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(-17, 18), Fraction(1021, 216)), 1),
}


def _series(kind: str, order: int):
    """The _SERIES entry of `kind`, with the coefficients cut after `order`."""
    if kind not in _SERIES:
        raise ValueError(f"unknown density kind {kind!r}")
    limit, coeffs, first = _SERIES[kind]
    if order not in range(len(coeffs)):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    return limit, coeffs[: order + 1], first


def _mp_exact(value: Fraction):
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def asymptotic_residual(kind: str, N: int, order: int):
    """(exact, series, residual) as floats computed at _RESIDUAL_DPS digits,
    the series being that of `kind` at circumference 2N, truncated after
    `order` corrections.

    The residuals decay like (2N)^(-2(order+1)) for nu_c and (2N)^(-2(order+2))
    for nu_nc, far below double precision relative to the exact values at large
    N, so the difference is taken in mpmath before rounding to float.
    """
    _check_n(N)
    (root, rational), coeffs, first = _series(kind, order)
    with mp.workdps(_RESIDUAL_DPS):
        s3 = mp.sqrt(3)
        series = _mp_exact(root) * s3 + _mp_exact(rational)
        for k, c in enumerate(coeffs):
            series += _mp_exact(c) / s3 * mp.mpf(2 * N) ** (-2 * (first + k))
        # looked up by name at each call, not held in _SERIES
        exact = _mp_exact((nu_c_exact if kind == "nu_c" else nu_nc_exact)(N))
        residual = exact - series
        return float(exact), float(series), float(residual)


def residual_scale_power(kind: str, order: int) -> int:
    """Power of (2N) that turns the order-`order` residual into a plateau."""
    _, _, first = _series(kind, order)
    return 2 * (first + order + 1)


def scaled_residual(kind: str, N: int, order: int) -> float:
    """(2N)^p * |exact - series| with the plateau-correct power p."""
    _, _, residual = asymptotic_residual(kind, N, order)
    return abs(residual) * (2 * N) ** residual_scale_power(kind, order)


def density_record(N: int) -> DensityRecord:
    nu_c, nu_nc = nu_c_exact(N), nu_nc_exact(N)
    return DensityRecord(
        L=2 * N,
        N=N,
        nu_c=nu_c,
        nu_nc=nu_nc,
        nu_c_float=float(nu_c),
        nu_nc_float=float(nu_nc),
    )
