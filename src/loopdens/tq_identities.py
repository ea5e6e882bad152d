"""Coefficient-exact verification of the T-Q functional identities.

Everything is checked as a polynomial identity over Q(w), never by sampling,
which can silently alias at roots of unity.  The largest-eigenvalue sector has
M = N = L/2, so the (-q)^(2M-L) factors of the general relations equal 1 and
are compiled away throughout.

The densities_match row is where the T-Q densities meet the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed_form import nu_c_exact, nu_nc_exact
from .cyclotomic import CycPoly, I_SQRT3, q_power
from .fsz import (
    FszSolution,
    RouteMismatchError,
    a_f_form_matches,
    build_fsz,
    densities_via_tq,
    fq_fp_closed_eval,
)


@dataclass(frozen=True)
class VerifyResult:
    identity: str
    n: int
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def _first_mismatch(p: CycPoly, q: CycPoly):
    if p == q:
        return None
    for k in range(max(p.degree, q.degree) + 1):
        if p.coeff(k) != q.coeff(k):
            return k
    return None


def _bracket(sol: FszSolution, k: int) -> CycPoly:
    """[q^k Q(q^k u) P(q^-k u) - q^-k Q(q^-k u) P(q^k u)] / (q - q^-1)."""
    qk, qmk = q_power(k), q_power(-k)
    num = (
        qk * (sol.q_poly.scale_arg(qk) * sol.p_poly.scale_arg(qmk))
        - qmk * (sol.q_poly.scale_arg(qmk) * sol.p_poly.scale_arg(qk))
    )
    return num * I_SQRT3.inverse()


def reconstruct_t(sol: FszSolution) -> CycPoly:
    """T(u) rebuilt from Q and P:
    [q^2 Q(q^2 u) P(q^-2 u) - q^-2 Q(q^-2 u) P(q^2 u)] / (q - q^-1)."""
    return _bracket(sol, 2)


def verify_t_form(sol: FszSolution) -> VerifyResult:
    """T reconstructed from Q, P equals (1+x)^(2N), and T(1) = 2^(2N)."""
    n = sol.N
    t = reconstruct_t(sol)
    k = _first_mismatch(t, sol.t_poly)
    if k is not None:
        return VerifyResult("t_form", n, False, f"coefficient {k} differs")
    t1 = t(1)
    if not (t1.is_rational() and t1.as_rational() == 4**n):
        return VerifyResult("t_form", n, False, f"T(1) = {t1!r} != {4 ** n}")
    return VerifyResult("t_form", n, True)


def verify_wronskian(sol: FszSolution) -> VerifyResult:
    """[q Q(qu) P(q^-1 u) - q^-1 Q(q^-1 u) P(qu)] / (q - q^-1) = (1-u)^L,
    the bracket at k = 1."""
    n = sol.N
    k = _first_mismatch(_bracket(sol, 1), CycPoly.binomial_power(1, -1, 2 * n))
    if k is not None:
        return VerifyResult("wronskian", n, False, f"coefficient {k} differs")
    return VerifyResult("wronskian", n, True)


def verify_tq_tp(sol: FszSolution) -> VerifyResult:
    """The two functional relations, with phi(u) = (1-u)^L and e^(i*phi) = q:

    T(u) Q(u) = q phi(u q^-1) Q(u q^2) + q^-1 phi(u q) Q(u q^-2)
    T(u) P(u) = q^-1 phi(u q^-1) P(u q^2) + q phi(u q) P(u q^-2)
    """
    n = sol.N
    q2, qm2 = q_power(2), q_power(-2)
    phi_qm1 = CycPoly.binomial_power(1, -q_power(-1), 2 * n)  # phi(u q^-1)
    phi_q1 = CycPoly.binomial_power(1, -q_power(1), 2 * n)    # phi(u q)
    for name, poly, s in (("Q", sol.q_poly, 1), ("P", sol.p_poly, -1)):
        lhs = sol.t_poly * poly
        rhs = q_power(s) * (phi_qm1 * poly.scale_arg(q2)) + q_power(-s) * (phi_q1 * poly.scale_arg(qm2))
        k = _first_mismatch(lhs, rhs)
        if k is not None:
            return VerifyResult("tq_tp", n, False, f"T-{name} relation fails at coefficient {k}")
    return VerifyResult("tq_tp", n, True)


def _fsz_consistency_rows(sol: FszSolution) -> list[VerifyResult]:
    n = sol.N
    rows = []
    rows.append(
        VerifyResult(
            "fsz_rational_coeffs",
            n,
            sol.f_q.all_coeffs_rational() and sol.f_p.all_coeffs_rational(),
        )
    )
    # divisibility by (1+x)^(2N) already held or build_fsz would have raised
    rows.append(VerifyResult("fsz_divisible", n, True))
    try:
        b = densities_via_tq(n)
    except RouteMismatchError as exc:
        rows.append(VerifyResult("densities_match", n, False, str(exc)))
    else:
        c, nc = nu_c_exact(n), nu_nc_exact(n)
        ok = (b.nu_c, b.nu_nc) == (c, nc)
        detail = f"N={n}: T-Q densities ({b.nu_c}, {b.nu_nc}) differ from closed forms ({c}, {nc})"
        rows.append(VerifyResult("densities_match", n, ok, "" if ok else detail))
    rows.append(VerifyResult("a_f_form", n, a_f_form_matches(sol)))
    for sign, name in ((1, "fqfp_closed_plus"), (-1, "fqfp_closed_minus")):
        try:
            fq_fp_closed_eval(n, sign)
            rows.append(VerifyResult(name, n, True))
        except RouteMismatchError as exc:
            rows.append(VerifyResult(name, n, False, str(exc)))
    return rows


FSZ_IDENTITIES = (
    "fsz_rational_coeffs",
    "fsz_divisible",
    "densities_match",
    "a_f_form",
    "fqfp_closed_plus",
    "fqfp_closed_minus",
)


def verify_suite(n_max: int, include_fsz: bool = True) -> list[VerifyResult]:
    """All identity checks for N = 1..n_max, one result row per identity per N."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        sol = build_fsz(n)
        rows.append(verify_t_form(sol))
        rows.append(verify_wronskian(sol))
        rows.append(verify_tq_tp(sol))
        if include_fsz:
            rows.extend(_fsz_consistency_rows(sol))
    return rows
