"""The hypergeometric Q/P construction and its derivative machinery."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens.cyclotomic import (
    Cyclotomic,
    CycPoly,
    GammaPoleError,
    ONE,
    is_nonpositive_integer,
    q_power,
)
from loopdens.fsz import (
    KUMMER_SHIFTS,
    _series_poly_in_x,
    a_f_form_matches,
    bethe_residual,
    build_fsz,
    densities_from_solution,
    densities_via_tq,
    fq_fp_closed_eval,
    _series_coeffs,
    hyp2f1_at_minus_one,
    kummer_contiguous,
    kummer_contiguous_numeric,
    kummer_parameter_sweep,
    quantity_a,
    quantity_c,
)


def test_hyp2f1_terminating_basics():
    assert hyp2f1_at_minus_one(Fraction(1, 2), 0, Fraction(1, 3)) == 1
    # two-term sums at the natural argument t = -x^3 with x = 1
    assert hyp2f1_at_minus_one(Fraction(-2, 3), -1, Fraction(1, 3)) == -1
    assert hyp2f1_at_minus_one(Fraction(-1, 3), -1, Fraction(2, 3)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        hyp2f1_at_minus_one(Fraction(1, 2), Fraction(1, 2), 1)


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


def test_densities_from_solution_leaves_the_closed_form_to_the_caller():
    # doubling Q and f_Q together keeps every pair of routes in agreement, so
    # the chain's own checks pass and only a comparison with the closed forms,
    # which the route leaves to its caller, can see the wrong densities
    sol = build_fsz(3)
    tampered = dataclasses.replace(sol, q_poly=2 * sol.q_poly, f_q=2 * sol.f_q)
    bundle = densities_from_solution(tampered)
    assert bundle.nu_c != nu_c_exact(3)
    assert bundle.nu_nc != nu_nc_exact(3)


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


def test_one_series_serves_the_sum_and_the_polynomial():
    a, b, c = Fraction(-11, 3), Fraction(-4), Fraction(2, 3)
    x = q_power(1) + 2
    t = -(x * x * x)
    horner = Cyclotomic(0)
    for coef in reversed(_series_coeffs(a, b, c)):
        horner = horner * t + coef
    assert _series_poly_in_x(a, b, c)(x) == horner
    assert _series_poly_in_x(a, b, c)(ONE) == Cyclotomic(hyp2f1_at_minus_one(a, b, c))
    with pytest.raises(GammaPoleError):
        _series_poly_in_x(a, b, Fraction(-1))
    with pytest.raises(ValueError):
        hyp2f1_at_minus_one(a, Fraction(1, 2), c)


def test_kummer_n0_matches_series():
    a, b = Fraction(-2, 3), Fraction(-1)
    series = hyp2f1_at_minus_one(a, b, 1 + a - b)
    n0 = KUMMER_SHIFTS.index(0)
    assert kummer_contiguous(a, b)[n0] == series
    assert abs(kummer_contiguous_numeric(a, b)[n0] - float(series)) < 1e-12


def _assert_kummer_routes_match_series(a, b):
    exact = kummer_contiguous(a, b)
    numeric = kummer_contiguous_numeric(a, b)
    assert len(exact) == len(numeric) == len(KUMMER_SHIFTS) == 5
    for n, e, num in zip(KUMMER_SHIFTS, exact, numeric):
        series = hyp2f1_at_minus_one(a, b, 1 + a - b + n)
        assert e == series, (a, b, n)
        assert abs(num - float(series)) <= 1e-12 * max(1.0, abs(float(series))), (a, b, n)


def test_kummer_sweep_exact_and_numeric():
    for _, a, b in kummer_parameter_sweep(8):
        _assert_kummer_routes_match_series(a, b)


_SWEEP_PAIRS = {(a, b) for _, a, b in kummer_parameter_sweep(25)}


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=-60, max_value=60).filter(lambda p: p % 3).map(lambda p: Fraction(p, 3)),
        st.integers(min_value=-15, max_value=0).map(Fraction),
    ).filter(lambda pair: pair not in _SWEEP_PAIRS)
)
def test_kummer_routes_match_series_off_the_sweep(pair):
    a, b = pair
    _assert_kummer_routes_match_series(a, b)
    with pytest.raises(ValueError):
        kummer_contiguous(a, b - Fraction(1, 2))
    with pytest.raises(ValueError):
        hyp2f1_at_minus_one(a, b - Fraction(1, 2), 1 + a - b)


@given(a=st.integers(min_value=-12, max_value=0), b=st.integers(min_value=-6, max_value=0))
@settings(max_examples=20, deadline=None)
def test_kummer_running_products_keep_the_pole_refusal(a, b):
    with pytest.raises(GammaPoleError):
        kummer_contiguous(a, b)


def _kummer_outcome(route, a, b):
    """The class of the exception `route(a, b)` raises, or None."""
    try:
        route(a, b)
    except Exception as exc:
        return type(exc)
    return None


def test_kummer_routes_refuse_the_same_poles():
    # a on thirds and odd halves, b from -4 to 3: poles at a, at 1-b and at
    # c = 1+a-b+n all occur, and both routes must refuse each the same way
    grid_a = [Fraction(k, 3) for k in range(-12, 13)] + [Fraction(k, 2) for k in range(-7, 8, 2)]
    refused = 0
    for a in grid_a:
        for b in range(-4, 4):
            exact = _kummer_outcome(kummer_contiguous, a, b)
            assert _kummer_outcome(kummer_contiguous_numeric, a, b) is exact, (a, b)
            assert exact in (None, GammaPoleError), (a, b)
            if is_nonpositive_integer(a) or b >= 1:
                assert exact is GammaPoleError, (a, b)
            refused += exact is GammaPoleError
    assert 0 < refused < len(grid_a) * 8


def test_kummer_shift_validation():
    with pytest.raises(ValueError):
        kummer_contiguous(Fraction(1, 3), Fraction(1, 2))


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
