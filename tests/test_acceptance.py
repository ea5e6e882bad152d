"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import pytest

from loopdens.closed_form import (
    asymptotic_residual,
    nu_c_exact,
    nu_nc_exact,
    residual_scale_power,
    scaled_residual,
)
from loopdens.fsz import (
    KUMMER_SHIFTS,
    bethe_residual,
    build_fsz,
    densities_via_tq,
    hyp2f1_at_minus_one,
    kummer_contiguous,
    kummer_contiguous_numeric,
    kummer_parameter_sweep,
)
from loopdens.montecarlo import MCConfig, run
from loopdens.tq_identities import verify_suite
from loopdens.transfer_oracle import oracle_densities, sixvertex_check

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


def _report(name, elapsed, detail=""):
    print(f"PASS {name}  ({elapsed:.2f} s){'  ' + detail if detail else ''}")


def test_criterion_1_closed_form_reproduction():
    t0 = time.time()
    for n in range(1, 7):
        assert nu_c_exact(n) == NU_C_TABLE[n - 1]
        assert nu_nc_exact(n) == NU_NC_TABLE[n - 1]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1: closed-form reproduction N=1..6 (exact)", elapsed)


def test_criterion_2_derivation_chain_closure():
    t0 = time.time()
    for n in range(1, 26):
        bundle = densities_via_tq(n)  # raises on any mismatch or w-residue
        assert bundle.c_value.is_rational()
        assert bundle.nu_c == nu_c_exact(n)
        assert bundle.nu_nc == nu_nc_exact(n)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 2: T-Q derivation chain equals closed forms N=1..25", elapsed)


def test_criterion_3_functional_identities():
    t0 = time.time()
    rows = verify_suite(25, include_fsz=False)
    assert all(rows), [r for r in rows if not r.ok][:3]
    for n in range(1, 26):
        sol = build_fsz(n)  # divisibility of f_Q, f_P by (1+x)^(2N) enforced inside
        assert sol.q_poly.degree == n and sol.p_poly.degree == n
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 3: T-Q/T-P/Wronskian/T-form exact N=1..25", elapsed)


def test_criterion_4_transfer_matrix_oracle():
    t0 = time.time()
    for L in (2, 4, 6, 8):
        nu_c, nu_nc = oracle_densities(L)
        assert nu_c == nu_c_exact(L // 2), f"L={L} nu_c"
        assert nu_nc == nu_nc_exact(L // 2), f"L={L} nu_nc"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 4: transfer-matrix oracle exact at L=2,4,6,8", elapsed)


def test_criterion_5_bethe_residuals():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        worst = max(worst, bethe_residual(build_fsz(n)))
    assert worst < 1e-8
    elapsed = time.time() - t0
    _report("criterion 5: Bethe residuals N=1..8", elapsed, f"max residual {worst:.2e}")


def test_criterion_6_kummer_contiguous():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for _, a, b in kummer_parameter_sweep(8):
        values = zip(KUMMER_SHIFTS, kummer_contiguous(a, b), kummer_contiguous_numeric(a, b))
        for n, exact, numeric in values:
            series = hyp2f1_at_minus_one(a, b, 1 + a - b + n)
            assert exact == series
            err = abs(numeric - float(series)) / max(1.0, abs(float(series)))
            worst = max(worst, err)
            cases += 1
    assert worst < 1e-12
    elapsed = time.time() - t0
    _report(
        "criterion 6: Kummer contiguous identities, full sweep",
        elapsed,
        f"{cases} cases, worst {worst:.2e}",
    )


def test_criterion_7_asymptotics():
    t0 = time.time()
    ladder = (25, 50, 100, 200)
    for kind, bound in (("nu_c", 2.0), ("nu_nc", 50.0)):
        for order in (0, 1, 2):
            values = [scaled_residual(kind, n, order) for n in ladder]
            assert max(values) < bound, (kind, order, values)
            # stabilizing: the last doubling moves the plateau by < 5%
            assert abs(values[-1] - values[-2]) < 0.05 * abs(values[-1]), (kind, order, values)
    lead_c = scaled_residual("nu_c", 200, 0)
    assert abs(lead_c - 1 / (4 * math.sqrt(3.0))) < 0.05 * (1 / (4 * math.sqrt(3.0)))
    lead_nc = 400**2 * float(nu_nc_exact(200))
    assert abs(lead_nc - 1 / math.sqrt(3.0)) < 0.05 / math.sqrt(3.0)
    elapsed = time.time() - t0
    _report("criterion 7: scaled asymptotic residuals bounded/stabilizing to N=200", elapsed)


@pytest.mark.acceptance
def test_criterion_8_monte_carlo():
    t0 = time.time()
    worst = 0.0
    for L in (2, 4, 6):
        stats = run(MCConfig(L=L, H=200_000, seed=7, replicas=16))
        z_c = abs(stats.mean_nu_c - float(nu_c_exact(L // 2))) / stats.stderr_nu_c
        z_nc = abs(stats.mean_nu_nc - float(nu_nc_exact(L // 2))) / stats.stderr_nu_nc
        worst = max(worst, z_c, z_nc)
        assert z_c < 4.0 and z_nc < 4.0, f"L={L}: z_c={z_c:.2f} z_nc={z_nc:.2f}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 8: Monte Carlo within 4 sigma, L=2,4,6", elapsed, f"worst |z| {worst:.2f}")


def test_criterion_9_sixvertex():
    t0 = time.time()
    for L in (2, 4, 6):
        rep = sixvertex_check(L)
        assert rep.lambda_rel_error < 1e-9, f"L={L}"
    error = abs(sixvertex_check(4).nu_nc_fd - float(nu_nc_exact(2)))
    assert error < 1e-6
    elapsed = time.time() - t0
    _report(
        "criterion 9: six-vertex Lambda_max = 2^L and phi-derivative",
        elapsed,
        f"nu_nc Hellmann-Feynman error {error:.2e}",
    )
