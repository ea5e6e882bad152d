"""Coefficient-exact functional identity checks."""

import dataclasses

import pytest

from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens.cyclotomic import CycPoly, ONE, q_power
from loopdens.fsz import build_fsz, densities_from_solution
from loopdens.tq_identities import (
    reconstruct_t,
    verify_suite,
    verify_t_form,
    verify_tq_tp,
    verify_wronskian,
)


def test_t_form_n1():
    sol = build_fsz(1)
    t = reconstruct_t(sol)
    assert t == CycPoly([1, 2, 1])
    assert t(1).as_rational() == 4
    assert verify_t_form(sol)


def test_t1_value_n3():
    sol = build_fsz(3)
    assert reconstruct_t(sol)(1).as_rational() == 64


def test_wronskian_n1_by_hand():
    sol = build_fsz(1)
    q1, qm1 = q_power(1), q_power(-1)
    lhs = (
        q1 * (sol.q_poly.scale_arg(q1) * sol.p_poly.scale_arg(qm1))
        - qm1 * (sol.q_poly.scale_arg(qm1) * sol.p_poly.scale_arg(q1))
    )
    # numerator reduces to (q - q^-1)(1 - u)^2
    assert lhs == CycPoly([1, -2, 1]) * (q1 - qm1)
    assert verify_wronskian(sol)


def test_wronskian_n2():
    assert verify_wronskian(build_fsz(2))


def test_wronskian_constant_term():
    # at u = 0 both sides equal 1, i.e. QP(0) (q - q^-1)/(q - q^-1) = 1
    for n in (1, 2, 3, 4):
        sol = build_fsz(n)
        prod = sol.q_poly(0) * sol.p_poly(0)
        assert prod == ONE


def test_tq_tp_small_and_medium():
    assert verify_tq_tp(build_fsz(1))
    assert verify_tq_tp(build_fsz(8))


def test_u0_slice_is_q_plus_qinv():
    # T(0)Q(0) = q Q(0) + q^-1 Q(0) reduces to 1 = q + q^-1
    assert q_power(1) + q_power(-1) == ONE


@pytest.mark.parametrize("n_max", [1, 4])
def test_suite_all_pass(n_max):
    rows = verify_suite(n_max)
    assert all(rows)
    per_n = {r.identity for r in rows}
    assert len(rows) == len(per_n) * n_max


def test_suite_deterministic():
    assert verify_suite(2) == verify_suite(2)


def test_t_form_n10_exact():
    assert verify_t_form(build_fsz(10))


def test_degree_bookkeeping():
    for n in (1, 3, 6):
        sol = build_fsz(n)
        # deg T*Q = 3N and deg phi(u q^-1) Q(u q^2) = 3N
        assert (sol.t_poly * sol.q_poly).degree == 3 * n
        phi = CycPoly.binomial_power(1, -q_power(-1), 2 * n)
        assert (phi * sol.q_poly.scale_arg(q_power(2))).degree == 3 * n


def test_wronskian_rhs_alternating_signs():
    for n in (1, 2, 5):
        rhs = CycPoly.binomial_power(1, -1, 2 * n)
        for k, c in enumerate(rhs.coeffs):
            assert c.as_rational() == (-1) ** k * abs(c.as_rational())


@pytest.mark.parametrize("n", [50, 100])
def test_exact_chain_at_l_100_and_200(n):
    sol = build_fsz(n)
    assert verify_t_form(sol)
    assert verify_wronskian(sol)
    assert verify_tq_tp(sol)
    bundle = densities_from_solution(sol)
    assert (bundle.nu_c, bundle.nu_nc) == (nu_c_exact(n), nu_nc_exact(n))


# a perturbed N = 3 solution: (field, degree of the added x^k) -> the
# t_form, wronskian and tq_tp details of the first failing coefficient
_PERTURBED_DETAILS = {
    ("q_poly", 0): ("coefficient 0 differs", "coefficient 0 differs", "T-Q relation fails at coefficient 1"),
    ("q_poly", 2): ("coefficient 3 differs", "coefficient 3 differs", "T-Q relation fails at coefficient 4"),
    ("p_poly", 1): ("coefficient 2 differs", "coefficient 2 differs", "T-P relation fails at coefficient 2"),
    ("p_poly", 3): ("coefficient 3 differs", "coefficient 3 differs", "T-P relation fails at coefficient 5"),
}


@pytest.mark.parametrize("field, k", sorted(_PERTURBED_DETAILS))
def test_perturbed_solution_fails_at_the_first_wrong_coefficient(field, k):
    sol = build_fsz(3)
    bad = dataclasses.replace(sol, **{field: getattr(sol, field) + CycPoly.monomial(k)})
    rows = (verify_t_form(bad), verify_wronskian(bad), verify_tq_tp(bad))
    assert [r.identity for r in rows] == ["t_form", "wronskian", "tq_tp"]
    assert not any(r.ok for r in rows)
    assert tuple(r.detail for r in rows) == _PERTURBED_DETAILS[field, k]


@pytest.mark.parametrize("n", [1, 3])
def test_t_form_reports_a_wrong_t_at_one(n):
    # the rebuilt T is linear in Q, so doubling Q and T together keeps the
    # coefficients equal and only T(1) shows it; T Q then doubles once more
    # than its right side, already at u^0
    sol = build_fsz(n)
    bad = dataclasses.replace(sol, q_poly=sol.q_poly * 2, t_poly=sol.t_poly * 2)
    row = verify_t_form(bad)
    assert not row.ok
    assert row.detail == f"T(1) = Cyc({2 * 4 ** n}) != {4 ** n}"
    assert verify_tq_tp(bad).detail == "T-Q relation fails at coefficient 0"
