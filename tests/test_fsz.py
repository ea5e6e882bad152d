"""The hypergeometric Q/P construction and its derivative machinery."""

import dataclasses
from fractions import Fraction

import pytest

from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens.cyclotomic import Cyclotomic, CycPoly, ONE, q_power
from loopdens.fsz import (
    RouteMismatchError,
    a_f_form_matches,
    bethe_residual,
    build_fsz,
    densities_from_solution,
    densities_via_tq,
    fq_fp_closed_eval,
    hyp2f1_at_minus_one,
    hyp2f1_terminating,
    kummer_contiguous,
    kummer_contiguous_numeric,
    kummer_parameter_sweep,
    quantity_a,
    quantity_c,
)


def test_hyp2f1_terminating_basics():
    assert hyp2f1_terminating(Fraction(1, 2), 0, Fraction(1, 3), 1) == ONE
    # two-term sums at the natural argument t = -x^3 with x = 1
    assert hyp2f1_terminating(Fraction(-2, 3), -1, Fraction(1, 3), -1) == Cyclotomic(-1)
    assert hyp2f1_terminating(Fraction(-1, 3), -1, Fraction(2, 3), -1) == Cyclotomic(
        Fraction(1, 2)
    )
    with pytest.raises(ValueError):
        hyp2f1_terminating(Fraction(1, 2), Fraction(1, 2), 1, 1)


def test_build_fsz_n1_polynomials():
    sol = build_fsz(1)
    assert sol.f_q == CycPoly([Fraction(-1, 2), 0, Fraction(3, 2), 1])
    assert sol.q_poly == CycPoly([Fraction(-1, 2), 1])
    assert sol.f_p == CycPoly([-2, -3, 0, 1])
    assert sol.p_poly == CycPoly([-2, 1])
    assert sol.t_poly == CycPoly([1, 2, 1])


def test_build_fsz_n2_structure():
    sol = build_fsz(2)
    assert sol.f_q.degree == 6
    assert sol.f_q.divide_exact(CycPoly.binomial_power(1, 1, 4)) == sol.q_poly
    assert sol.q_poly.degree == 2 and sol.p_poly.degree == 2


@pytest.mark.parametrize("n", range(1, 26))
def test_rational_coefficients_and_divisibility(n):
    sol = build_fsz(n)
    assert sol.f_q.all_coeffs_rational()
    assert sol.f_p.all_coeffs_rational()
    # divide_exact inside build_fsz already enforced divisibility
    assert sol.q_poly.degree == n and sol.p_poly.degree == n


def test_qp_vs_f_product_identity():
    for n in (1, 2, 3, 5):
        sol = build_fsz(n)
        q2, qm2 = q_power(2), q_power(-2)
        assert sol.q_poly(q2) * sol.p_poly(qm2) == sol.f_q(q2) * sol.f_p(qm2)


def test_quantity_a_n1_value():
    sol = build_fsz(1)
    # inverted from nu_c(2) = 1/8: A = -(1 - q^-2)
    assert quantity_a(sol) == -(ONE - q_power(-2))


def test_quantity_a_routes_and_f_form():
    for n in range(1, 9):
        sol = build_fsz(n)
        quantity_a(sol)  # raises on Q,P-route vs dual-route disagreement
        assert a_f_form_matches(sol)


def test_quantity_c_values():
    assert quantity_c(build_fsz(1)) == Cyclotomic(-1)
    for n in range(1, 9):
        c = quantity_c(build_fsz(n))
        assert c.is_rational()
        assert c.as_rational() < 0


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (Fraction(1, 8), Fraction(1, 8))),
        (2, (Fraction(17, 160), Fraction(11, 320))),
        (3, (Fraction(913, 8960), Fraction(421, 26880))),
        (5, (Fraction(14569, 146432), Fraction(4189, 732160))),
        (6, (Fraction(3945737, 39829504), Fraction(952067, 238977024))),
    ],
)
def test_densities_via_tq(n, expected):
    bundle = densities_via_tq(n)
    assert (bundle.nu_c, bundle.nu_nc) == expected


def test_densities_from_solution_is_densities_via_tq():
    for n in (1, 4):
        assert densities_from_solution(build_fsz(n)) == densities_via_tq(n)


def test_densities_from_solution_checks_closed_form():
    # doubling Q and f_Q together keeps every pair of routes in agreement,
    # so only the comparison with the closed forms can catch it
    sol = build_fsz(3)
    tampered = dataclasses.replace(sol, q_poly=2 * sol.q_poly, f_q=2 * sol.f_q)
    with pytest.raises(RouteMismatchError, match="closed forms"):
        densities_from_solution(tampered)


def test_tq_density_record():
    from loopdens.closed_form import METHOD_FSZ_DERIVATIVE
    from loopdens.fsz import tq_density_record

    rec = tq_density_record(2)
    assert rec.method == METHOD_FSZ_DERIVATIVE
    assert (rec.nu_c, rec.nu_nc) == (Fraction(17, 160), Fraction(11, 320))


def test_derivative_bundle_contents():
    b = densities_via_tq(1)
    assert b.dln_t_dq == 3 * Fraction(1, 4) * b.a_value
    assert b.dln_t_dphi_over_sqrt3 == Cyclotomic(Fraction(-1, 4))
    assert b.c_value.is_rational() and b.c_value.as_rational() < 0


@pytest.mark.parametrize("n,bound", [(1, 1e-12), (2, 1e-10), (4, 1e-8), (8, 1e-8)])
def test_bethe_residuals(n, bound):
    assert bethe_residual(build_fsz(n)) < bound


def test_bethe_root_n1_is_half():
    # Q(x) = x - 1/2 at N = 1, so the single Bethe root is 1/2
    sol = build_fsz(1)
    assert sol.q_poly(Cyclotomic(Fraction(1, 2))).is_zero()


def test_kummer_n0_matches_series():
    a, b = Fraction(-2, 3), Fraction(-1)
    series = hyp2f1_at_minus_one(a, b, 1 + a - b)
    assert kummer_contiguous(a, b, 0) == series
    assert abs(kummer_contiguous_numeric(a, b, 0) - float(series)) < 1e-12


def test_kummer_sweep_exact_and_numeric():
    for N, a, b in kummer_parameter_sweep(8):
        for n in (0, 1, 2, -1, -2):
            series = hyp2f1_at_minus_one(a, b, 1 + a - b + n)
            assert kummer_contiguous(a, b, n) == series, (N, a, b, n)
            num = kummer_contiguous_numeric(a, b, n)
            assert abs(num - float(series)) <= 1e-12 * max(1.0, abs(float(series)))


def test_kummer_shift_validation():
    with pytest.raises(ValueError):
        kummer_contiguous(Fraction(1, 3), Fraction(-2), 3)
    with pytest.raises(ValueError):
        kummer_contiguous(Fraction(1, 3), Fraction(1, 2), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fq_fp_closed_eval(n):
    for sign in (1, -1):
        fq, fp = fq_fp_closed_eval(n, sign)
        sol = build_fsz(n)
        assert fq == sol.f_q(q_power(2 * sign))
        assert fp == sol.f_p(q_power(2 * sign))


def test_fq_fp_conjugation_property():
    for n in (1, 2, 3):
        fq_p, fp_p = fq_fp_closed_eval(n, 1)
        fq_m, fp_m = fq_fp_closed_eval(n, -1)
        assert fq_m == fq_p.conjugate()
        assert fp_m == fp_p.conjugate()
