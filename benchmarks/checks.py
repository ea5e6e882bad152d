"""Output checks for the benchmark rounds.

Nothing here imports loopdens: every expected value comes from the paper's
gamma-function forms of nu_c and nu_nc, evaluated here in mpmath at DPS
digits, or from a property the method must have (column sums of the row
transfer matrix, the six-vertex Perron eigenvalue, the plateau of the scaled
asymptotic residuals).

Each check counts operations (one checked value, identity row, replica or
oracle L) and failures in a Tally; an operation fails when any of its
conditions fails, including the exit status of the command that produced it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp

from workloads import even_ls

DPS = 50
# relative tolerance against the gamma forms; at DPS = 50 their own error is
# below 2e-47 up to N = 600 (the nu_nc bracket cancels more as N grows)
RTOL = 1e-40
# P(|Z| >= 4) for a standard normal Z
Z4_TAIL = math.erfc(4 / math.sqrt(2))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]


@lru_cache(maxsize=None)
def gamma_forms(n: int):
    """(nu_c, nu_nc) at circumference L = 2n from the gamma-function forms."""
    with mp.workdps(DPS):
        N = mp.mpf(n)
        sixth = mp.mpf(1) / 6
        g16 = mp.gamma(N / 2 + sixth)
        g56 = mp.gamma(N / 2 + 5 * sixth)
        nu_c = (
            3 * mp.gamma(N / 2) * mp.gamma(3 * N / 2 + mp.mpf(1) / 2)
            / (4 * mp.gamma(3 * N / 2) * mp.gamma((N + 1) / 2))
            + mp.pi**2 * mp.mpf(2) ** (-2 * N) * mp.mpf(3) ** (2 - 3 * N) * mp.gamma(3 * N)
            / (g16**2 * g56**2 * mp.gamma(N))
            - mp.mpf(5) / 2
        )
        nu_nc = (
            mp.mpf(2) ** (2 * N - 4) * mp.gamma(N) / (N * mp.pi**2 * mp.gamma(3 * N))
            * (
                mp.mpf(3) ** (3 * N) * g16**2 * g56**2
                - 12 * mp.pi**2 * mp.gamma(3 * N / 2) ** 2 / mp.gamma(N / 2) ** 2
            )
        )
        return nu_c, nu_nc


def rational_matches(num, den, ref) -> bool:
    """num/den is in lowest terms and within RTOL of the mpf `ref`."""
    if not (isinstance(num, int) and isinstance(den, int)) or den <= 0:
        return False
    if math.gcd(num, den) != 1:
        return False
    with mp.workdps(DPS):
        return abs(mp.mpf(num) / den - ref) <= RTOL * abs(ref)


def float_matches(value: float, ref, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - float(ref)) <= rtol * abs(float(ref))


def _load_json(path: Path):
    """Strict JSON: NaN and Infinity are rejected."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in {path.name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


# -- tq_chain ------------------------------------------------------------------

TQ_ROWS = ("t_form", "wronskian", "tq_tp")
FSZ_ROWS = (
    "fsz_rational_coeffs",
    "fsz_divisible",
    "densities_match",
    "a_f_form",
    "fqfp_closed_plus",
    "fqfp_closed_minus",
)
KUMMER_ROWS = ("kummer_shift_plus", "kummer_shift_minus")


def check_tq_chain(spec, seed, out: Path, api: dict) -> Tally:
    tally = Tally()
    n_max = spec["n_max"]
    rc_ok = api["rc"].get("verify") == 0
    try:
        rows = _load_json(out / "verify.json")
    except ValueError:
        rows = []
    seen: dict = {}
    for r in rows:
        key = (r.get("identity"), r.get("N"))
        seen[key] = seen.get(key, 0) + (1 if r.get("status") == "pass" else 2)
    expected = {(i, n) for n in range(1, n_max + 1) for i in TQ_ROWS + FSZ_ROWS + KUMMER_ROWS}
    shape_ok = set(seen) == expected
    for ident, n in sorted(expected, key=lambda k: (k[1], k[0])):
        ok = rc_ok and shape_ok and seen.get((ident, n)) == 1
        tally.op(ok, f"verify row {ident} N={n}: rc={api['rc'].get('verify')} seen={seen.get((ident, n))}")
    got = {d[0]: d[1:] for d in api["densities"]}
    for n in range(1, n_max + 1):
        c_num, c_den, nc_num, nc_den = got.get(n, (None,) * 4)
        ref_c, ref_nc = gamma_forms(n)
        tally.op(rational_matches(c_num, c_den, ref_c), f"densities_via_tq({n}).nu_c = {c_num}/{c_den}")
        tally.op(rational_matches(nc_num, nc_den, ref_nc), f"densities_via_tq({n}).nu_nc = {nc_num}/{nc_den}")
    return tally


# -- transfer_exact ------------------------------------------------------------

_VALUES = re.compile(r"nu_c=(-?\d+)(?:/(\d+))?\s+nu_nc=(-?\d+)(?:/(\d+))?")


def _parse_pair(line: str):
    m = _VALUES.search(line)
    if not m:
        return None
    c_num, c_den, nc_num, nc_den = m.groups()
    return int(c_num), int(c_den or 1), int(nc_num), int(nc_den or 1)


def oracle_ok(l: int, text: str, rc) -> tuple[bool, str]:
    lines = text.splitlines()
    if rc != 0 or len(lines) != 4 or lines[0] != f"L={l}" or lines[3] != "EXACT-MATCH":
        return False, f"oracle L={l}: rc={rc}, output {lines!r}"
    ref_c, ref_nc = gamma_forms(l // 2)
    for label, line in (("oracle:", lines[1]), ("closed form:", lines[2])):
        pair = _parse_pair(line) if line.startswith(label) else None
        if pair is None:
            return False, f"oracle L={l}: cannot parse {line!r}"
        c_num, c_den, nc_num, nc_den = pair
        if not (rational_matches(c_num, c_den, ref_c) and rational_matches(nc_num, nc_den, ref_nc)):
            return False, f"oracle L={l}: {line!r} differs from the gamma forms"
    return True, ""


def sixvertex_ok(row: dict) -> tuple[bool, str]:
    l = row["L"]
    lam, sym, fd = row.get("lambda_max"), row.get("phi_symmetry_error"), row.get("nu_nc_fd")
    if lam is None:
        return False, f"six-vertex L={l}: no report"
    ok = (
        abs(lam - 2**l) <= 1e-9 * 2**l
        and 0 <= sym <= 1e-9
        and abs(fd - float(gamma_forms(l // 2)[1])) <= 1e-8
    )
    return ok, f"six-vertex L={l}: lambda_max={lam!r} symmetry={sym!r} nu_nc_fd={fd!r}"


def column_sums_ok(row: dict) -> tuple[bool, str]:
    sums = row.get("column_sums")
    ok = bool(sums) and all(s == 2 ** row["L"] for s in sums)
    return ok, f"transfer matrix L={row['L']}: column sums {sums}"


def check_transfer_exact(spec, seed, out: Path, api: dict) -> Tally:
    tally = Tally()
    by_l = {row["L"]: row for row in api["transfer"]}
    for l in spec["ls"]:
        path = out / f"oracle-{l}.txt"
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        tally.op(*oracle_ok(l, text, api["rc"].get(f"oracle-{l}")))
        row = by_l.get(l, {"L": l})
        tally.op(*sixvertex_ok(row))
        tally.op(*column_sums_ok(row))
    return tally


# -- monte_carlo ---------------------------------------------------------------


def t_tail(t: float, dof: int) -> float:
    """Two-sided P(|T| >= |t|) for Student's t with `dof` degrees of freedom."""
    with mp.workdps(30):
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        return float(mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def mean_ok(mean, stderr, ref, replicas: int) -> bool:
    """|z| < 4, with z the normal quantile of the same two-sided tail as the
    replica t-statistic (the stderr comes from `replicas` replicas)."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0):
        return False
    return t_tail((mean - float(ref)) / stderr, replicas - 1) > Z4_TAIL


def check_monte_carlo(spec, seed, out: Path, api: dict) -> Tally:
    tally = Tally()
    reps = spec["replicas"]
    ref_c, ref_nc = gamma_forms(spec["l"] // 2)
    try:
        s = _load_json(out / "simulate.json")
        ok = (
            api["rc"].get("simulate") == 0
            and (s["L"], s["H"], s["replicas"], s["seed"]) == (spec["l"], spec["height"], reps, seed)
            and s["n_loops"] > 0
            and float_matches(s["target_nu_c"], ref_c, 1e-15)
            and float_matches(s["target_nu_nc"], ref_nc, 1e-15)
            and mean_ok(s["mean_nu_c"], s["stderr_nu_c"], ref_c, reps)
            and mean_ok(s["mean_nu_nc"], s["stderr_nu_nc"], ref_nc, reps)
        )
        what = f"simulate: rc={api['rc'].get('simulate')} output {s}"
    except (ValueError, KeyError, TypeError) as exc:
        ok, what = False, f"simulate: {exc!r}"
    for _ in range(reps):
        tally.op(ok, what)
    return tally


# -- density_table -------------------------------------------------------------

DENSITY_HEADER = ["L", "nu_c_num", "nu_c_den", "nu_nc_num", "nu_nc_den", "nu_c_float", "nu_nc_float"]
ASYMPTOTE_HEADER = ["L", "quantity", "exact", "series", "residual", "residual_scaled"]
# bounds on the scaled residuals from L = 20 on, as in acceptance criterion 7
PLATEAU_BOUND = {"nu_c": 2.0, "nu_nc": 50.0}


def _csv_rows(path: Path, header) -> list:
    if not path.exists():
        return []
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    return rows[1:] if rows and rows[0] == header else []


def density_value_ok(num: str, den: str, flt: str, ref) -> bool:
    try:
        num, den, flt = int(num), int(den), float(flt)
    except ValueError:
        return False
    return rational_matches(num, den, ref) and flt == float(Fraction(num, den))


def scale_power(kind: str, order: int) -> int:
    """The residual of the order-k series decays like (2N)^-p with this p."""
    return 2 * (order + 1) if kind == "nu_c" else 2 * (order + 2)


def plateau_ok(scaled: dict, kind: str) -> bool:
    """Scaled residuals stay bounded from L = 20 on, and the last doubling of
    L moves them by less than 5%."""
    ls = sorted(scaled)
    top = ls[-1]
    half = max((l for l in ls if l <= top // 2), default=None)
    if half is None or half < 20:
        return False
    tail = [scaled[l] for l in ls if l >= 20]
    return (
        all(0 < v < PLATEAU_BOUND[kind] for v in tail)
        and abs(scaled[top] - scaled[half]) < 0.05 * scaled[top]
    )


def check_density_table(spec, seed, out: Path, api: dict) -> Tally:
    tally = Tally()
    ls = even_ls(spec["density_l"])
    rc_ok = api["rc"].get("density") == 0
    listed = [r for r in _csv_rows(out / "density.csv", DENSITY_HEADER) if len(r) == 7]
    rows = {r[0]: r for r in listed}
    shape_ok = len(listed) == len(rows) and set(rows) == {str(l) for l in ls}
    for l in ls:
        r = rows.get(str(l))
        ref_c, ref_nc = gamma_forms(l // 2)
        for kind, (num, den, flt), ref in (
            ("nu_c", (1, 2, 5), ref_c),
            ("nu_nc", (3, 4, 6), ref_nc),
        ):
            ok = rc_ok and shape_ok and r is not None and density_value_ok(r[num], r[den], r[flt], ref)
            tally.op(ok, f"density L={l} {kind}: {r}")

    order = spec["order"]
    ls = even_ls(spec["asymptote_l"])
    rc_ok = api["rc"].get("asymptote") == 0
    listed = _csv_rows(out / "asymptote.csv", ASYMPTOTE_HEADER)
    table = {}
    for r in listed:
        try:
            table[(int(r[0]), r[1])] = [float(x) for x in r[2:6]]
        except (ValueError, IndexError):
            pass
    rc_ok = rc_ok and len(listed) == len(table) == 2 * len(ls)
    for kind, idx in (("nu_c", 0), ("nu_nc", 1)):
        scaled = {l: table[(l, kind)][3] for l in ls if (l, kind) in table}
        level = len(scaled) == len(ls) and plateau_ok(scaled, kind)
        for l in ls:
            row = table.get((l, kind))
            ok = (
                rc_ok
                and level
                and row is not None
                and float_matches(row[0], gamma_forms(l // 2)[idx], 1e-15)
                and float_matches(row[3], abs(row[2]) * l ** scale_power(kind, order), 1e-12)
            )
            tally.op(ok, f"asymptote L={l} {kind}: {row} (plateau {'ok' if level else 'broken'})")
    return tally


CHECKS = {
    "tq_chain": check_tq_chain,
    "transfer_exact": check_transfer_exact,
    "monte_carlo": check_monte_carlo,
    "density_table": check_density_table,
}


def check_round(workload: str, spec: dict, seed: int, out: Path) -> Tally:
    """Check the files one child round wrote into `out`."""
    try:
        api = _load_json(out / "api.json")
    except (OSError, ValueError) as exc:
        tally = Tally()
        tally.op(False, f"{workload}: no api.json ({exc!r})")
        return tally
    return CHECKS[workload](spec, seed, out, api)
