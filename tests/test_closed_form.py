"""Closed-form densities: the published rationals, the paper's Pochhammer
forms, gamma cross-checks and asymptotics."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from loopdens.closed_form import (
    _SERIES,
    asymptotic_residual,
    nu_c_exact,
    nu_nc_exact,
    _binomial_ratio,
)
from loopdens.cyclotomic import pochhammer

# first six values of each density, as printed in the source tables
NU_C_TABLE = [
    Fraction(1, 8),
    Fraction(17, 160),
    Fraction(913, 8960),
    Fraction(3953, 39424),
    Fraction(14569, 146432),
    Fraction(3945737, 39829504),
]
NU_NC_TABLE = [
    Fraction(1, 8),
    Fraction(11, 320),
    Fraction(421, 26880),
    Fraction(1403, 157696),
    Fraction(4189, 732160),
    Fraction(952067, 238977024),
]


def paper_nu_c(N):
    """The paper's nu_c in factorials and Pochhammer symbols (reference)."""
    t1 = (
        Fraction(1, 2 ** (2 * (N + 1)))
        * Fraction(3) ** (2 - 3 * N)
        * (2 - (-1) ** N)
        * math.factorial(3 * N - 1)
        / (math.factorial(N - 1) * pochhammer(Fraction(5, 6) - Fraction(N, 2), N) ** 2)
    )
    t2 = Fraction(3, 4) * pochhammer(Fraction(N + 1, 2), N) / pochhammer(Fraction(N, 2), N)
    return t1 + t2 - Fraction(5, 2)


def paper_nu_nc(N):
    """The paper's nu_nc in factorials and Pochhammer symbols (reference)."""
    bracket = (
        Fraction(3) ** (3 * N - 2)
        * (2 + (-1) ** N)
        * pochhammer(Fraction(5, 6) - Fraction(N, 2), N) ** 2
        - pochhammer(Fraction(N, 2), N) ** 2
    )
    return (
        Fraction(3 * 2 ** (2 * (N - 1)) * math.factorial(N - 1), N * math.factorial(3 * N - 1))
        * bracket
    )


# mpmath working precision, in decimal digits, of the gamma forms
GAMMA_DPS = 50


def nu_c_gamma_form(N):
    """The paper's nu_c in gamma functions, as a float (reference)."""
    with mp.workdps(GAMMA_DPS):
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


def nu_nc_gamma_form(N):
    """The paper's nu_nc in gamma functions, as a float (reference)."""
    with mp.workdps(GAMMA_DPS):
        n = mp.mpf(N)
        pref = mp.mpf(2) ** (2 * (n - 2)) * mp.gamma(n) / (n * mp.pi**2 * mp.gamma(3 * n))
        bracket = mp.mpf(3) ** (3 * n) * mp.gamma(n / 2 + mp.mpf(1) / 6) ** 2 * mp.gamma(
            n / 2 + mp.mpf(5) / 6
        ) ** 2 - 12 * mp.pi**2 * mp.gamma(3 * n / 2) ** 2 / mp.gamma(n / 2) ** 2
        return float(pref * bracket)


@pytest.mark.parametrize("n", range(1, 7))
def test_published_rationals(n):
    assert nu_c_exact(n) == NU_C_TABLE[n - 1]
    assert nu_nc_exact(n) == NU_NC_TABLE[n - 1]


@pytest.mark.parametrize("n", [*range(1, 201), 300, 600])
def test_binomial_form_equals_paper_pochhammer_form(n):
    assert nu_c_exact(n) == paper_nu_c(n)
    assert nu_nc_exact(n) == paper_nu_nc(n)


def test_binomial_ratio_obeys_two_step_recurrence():
    # R(1) = 2, R(2) = 15/8 and R(N+2)/R(N) fix R for every N; uses neither
    # the Pochhammer nor the gamma form
    assert Fraction(*_binomial_ratio(1)) == 2
    assert Fraction(*_binomial_ratio(2)) == Fraction(15, 8)
    ratios = [_binomial_ratio(n) for n in range(1, 2003)]
    for n in range(1, 2001):
        (p0, q0), (p2, q2) = ratios[n - 1], ratios[n + 1]
        num = n * (3 * n + 1) * (3 * n + 3) * (3 * n + 5)
        den = (n + 1) * 3 * n * (3 * n + 2) * (3 * n + 4)
        assert p2 * q0 * den == p0 * q2 * num, n


@pytest.mark.parametrize("n", [600, 1200, 3000])
def test_binomial_form_matches_gamma_form_at_large_n(n):
    assert nu_c_gamma_form(n) == pytest.approx(float(nu_c_exact(n)), rel=1e-12, abs=0)
    assert nu_nc_gamma_form(n) == pytest.approx(float(nu_nc_exact(n)), rel=1e-12, abs=0)


def test_input_validation():
    for bad in (0, -1, Fraction(3, 2)):
        with pytest.raises((ValueError, TypeError)):
            nu_c_exact(bad)


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_gamma_form_agrees(n):
    assert abs(nu_c_gamma_form(n) - float(nu_c_exact(n))) < 1e-10
    assert abs(nu_nc_gamma_form(n) - float(nu_nc_exact(n))) < 1e-10


# the large-L limit of nu_c and the leading coefficient of (2N)^2 nu_nc
NU_C_LIMIT = (3.0 * math.sqrt(3.0) - 5.0) / 2.0
NU_NC_LEADING = 1.0 / math.sqrt(3.0)


def series(kind, n, order):
    """The truncated large-L series of `kind` at circumference 2n."""
    return asymptotic_residual(kind, n, order)[1]


def test_asymptotic_leading_constant():
    assert abs(series("nu_c", 17, 0) - 0.0980762113) < 1e-9
    assert abs(NU_C_LIMIT - 0.0980762113533) < 1e-11
    assert series("nu_c", 1, 1) == pytest.approx(NU_C_LIMIT + 1.0 / (16.0 * 3.0**0.5))
    assert series("nu_nc", 1, 0) == pytest.approx(1.0 / (4.0 * 3.0**0.5))
    assert series("nu_nc", 3, 0) == pytest.approx(NU_NC_LEADING / 36.0)


def test_higher_order_truncations_improve():
    n = 50
    exact = float(nu_c_exact(n))
    assert abs(exact - series("nu_c", n, 2)) < abs(exact - series("nu_c", n, 1))
    assert abs(exact - series("nu_c", n, 1)) < abs(exact - series("nu_c", n, 0))


def test_limits_at_large_n():
    n = 200
    assert abs(float(nu_c_exact(n)) - NU_C_LIMIT) < 1e-3
    assert abs((2 * n) ** 2 * float(nu_nc_exact(n)) - NU_NC_LEADING) < 1e-2


# The abstract says the expansions reproduce earlier results in the leading
# orders.  Those results are the Coulomb gas ones.  The loop weight is
# n = -2 cos(pi g) with central charge c = 1 - 6 (1-g)^2 / g, and n = 1 at
# g = 2/3 (Nienhuis, J. Stat. Phys. 34 (1984) 731).  A strip of width L gains
# pi c / (6 L^2) in its free energy per site (Bloete, Cardy and Nightingale,
# Phys. Rev. Lett. 56 (1986) 742), so (pi/6) dc/dn is the L^-2 coefficient
# of the density of all loops, nu_c + nu_nc.  Weighting the non-contractible
# loops alone by v = 2 cos(pi e) gives c = 1 - 6 e^2 / g, with v = 1 at
# e = 1/3, so (pi/6) dc/dv is the L^-2 coefficient of nu_nc.


def test_leading_orders_come_from_the_coulomb_gas():
    (nu_c_root, nu_c_rational), nu_c_coeffs, nu_c_first = _SERIES["nu_c"]
    _, nu_nc_coeffs, nu_nc_first = _SERIES["nu_nc"]
    # the bulk density (3 sqrt(3) - 5) / 2 (Temperley and Lieb, 1971; Ziff,
    # Finch and Adamchik, Phys. Rev. Lett. 79 (1997) 3447)
    assert (nu_c_root, nu_c_rational) == (Fraction(3, 2), Fraction(-5, 2))
    # the L^-2 coefficients, in units of 1/sqrt(3), sit at these indices
    assert (nu_c_first, nu_nc_first) == (0, 1)
    g, e = Fraction(2, 3), Fraction(1, 3)
    assert 1 - 6 * (1 - g) ** 2 / g == 1 - 6 * e**2 / g == 0
    dc_dg = 6 * (1 - g**2) / g**2
    dc_de = -12 * e / g
    # dn/dg = 2 pi sin(pi g) and dv/de = -2 pi sin(pi e) are +pi sqrt(3) and
    # -pi sqrt(3) here, so (pi/6) dc/dn and (pi/6) dc/dv are these over sqrt(3)
    all_loops, winding = dc_dg / 6, -dc_de / 6
    assert all_loops == Fraction(5, 4) == nu_c_coeffs[1] + nu_nc_coeffs[0]
    assert winding == 1 == nu_nc_coeffs[0]


def test_coulomb_gas_derivatives_numerically():
    # the same two derivatives by mp.diff, which checks the sines taken by hand
    with mp.workdps(30):
        g, e = mp.mpf(2) / 3, mp.mpf(1) / 3
        dn_dg = mp.diff(lambda x: -2 * mp.cos(mp.pi * x), g)
        dc_dg = mp.diff(lambda x: 1 - 6 * (1 - x) ** 2 / x, g)
        dv_de = mp.diff(lambda x: 2 * mp.cos(mp.pi * x), e)
        dc_de = mp.diff(lambda x: 1 - 6 * x**2 / g, e)
        scale = mp.pi / 6 * mp.sqrt(3)
        assert abs(scale * dc_dg / dn_dg - mp.mpf(5) / 4) < mp.mpf(10) ** -25
        assert abs(scale * dc_de / dv_de - 1) < mp.mpf(10) ** -25


def test_residual_ratio_scaling_nu_nc():
    # order-2 residual of nu_nc decays like (2N)^-8: doubling N gains ~2^8
    _, _, r64 = asymptotic_residual("nu_nc", 64, 2)
    _, _, r128 = asymptotic_residual("nu_nc", 128, 2)
    ratio = abs(r64) / abs(r128)
    assert 128 < ratio < 512


def test_nu_c_order2_remainder_bounded_and_stabilizing():
    # (2N)^6 x |exact - order-2 series| plateaus at the next series coefficient
    values = [abs(asymptotic_residual("nu_c", n, 2)[2]) * (2 * n) ** 6 for n in (25, 50, 100, 200)]
    assert all(v < 2.0 for v in values)
    assert abs(values[-1] - values[-2]) < 0.01 * values[-1]


def test_density_table():
    assert [(nu_c_exact(n), nu_nc_exact(n)) for n in (1, 2)] == [
        (Fraction(1, 8), Fraction(1, 8)),
        (Fraction(17, 160), Fraction(11, 320)),
    ]


def test_table_monotonicity_and_bounds():
    table = [(nu_c_exact(n), nu_nc_exact(n)) for n in range(1, 21)]
    for nu_c, nu_nc in table:
        assert 0 < nu_c < 1
        assert 0 < nu_nc <= nu_c
    nc = [nu_nc for _, nu_nc in table]
    assert all(a > b for a, b in zip(nc, nc[1:]))
