"""Command-line surface: density tables, verification suites, oracles,
Monte Carlo runs and asymptotic residual streams.

Exit-code contract: 0 = success / all checks pass, 1 = a verification or
statistical gate failed, 2 = usage or validation error.  A computation that
cannot finish raises a subclass of loopdens.errors.ComputationError and also
exits 1, with the single stderr line "error: <Class>: <message>" and no
traceback; `verify`, `oracle` and `simulate`, which can raise one, compute
everything before they write, so stdout stays empty.
All exact rationals are emitted as separate numerator/denominator fields so
they round-trip losslessly; every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys

import mpmath as mp

from .closed_form import (
    density_record,
    nu_c_exact,
    nu_nc_exact,
    asymptotic_residual,
    residual_scale_power,
)
from .errors import ComputationError
from .fsz import (
    KUMMER_SHIFTS,
    kummer_contiguous,
    kummer_contiguous_numeric,
    hyp2f1_at_minus_one,
    kummer_parameter_sweep,
)
from .montecarlo import MCConfig, run as mc_run, stats_payload
from .tq_identities import FSZ_IDENTITIES, VerifyResult, verify_suite
from .transfer_oracle import check_oracle_l, matrix_json, oracle_densities

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest circumference `density` and `asymptote` accept.  Printing an exact
# density takes time quadratic in its digit count, which grows like L: about
# 5 s at L = 200 000 and 100 s at L = 10^6.
DENSITY_MAX_L = 100_000

# `simulate` passes when each replica t statistic has a two-sided tail above
# that of a standard normal beyond 4 sigma, i.e. |z| < 4 for the normal z of
# the same tail.
Z4_TAIL = math.erfc(4 / math.sqrt(2))


def _parse_l_values(args) -> list[int]:
    """The even circumferences 2 <= L <= DENSITY_MAX_L named by --l or --l-range."""
    if args.l is not None:
        ls = [args.l]
    else:
        lo, _, hi = args.l_range.partition(":")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise SystemExit2(f"bad --l-range {args.l_range!r}, expected LO:HI")
        ls = range(lo + lo % 2, hi + 1, 2)
        if not ls:
            raise SystemExit2(f"empty --l-range {args.l_range!r}, no even L in it")
    if ls[-1] > DENSITY_MAX_L:
        raise SystemExit2(f"circumference must be <= {DENSITY_MAX_L}, got {ls[-1]}")
    for l in ls:
        if l % 2 or l < 2:
            raise SystemExit2(f"circumference must be even and >= 2, got {l}")
    return list(ls)


class SystemExit2(Exception):
    """Usage error carrying an exit-2 message."""


def cmd_density(args, out) -> int:
    ls = _parse_l_values(args)
    records = [density_record(l // 2) for l in ls]
    if args.format == "text":
        for r in records:
            if args.mode == "exact":
                out.write(f"L={r.L}  nu_c={r.nu_c}  nu_nc={r.nu_nc}\n")
            else:
                out.write(f"L={r.L}  nu_c={r.nu_c_float!r}  nu_nc={r.nu_nc_float!r}\n")
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["L", "nu_c_num", "nu_c_den", "nu_nc_num", "nu_nc_den", "nu_c_float", "nu_nc_float"])
        for r in records:
            w.writerow(
                [
                    r.L,
                    r.nu_c.numerator,
                    r.nu_c.denominator,
                    r.nu_nc.numerator,
                    r.nu_nc.denominator,
                    repr(r.nu_c_float),
                    repr(r.nu_nc_float),
                ]
            )
    else:
        payload = [
            {
                "L": r.L,
                "N": r.N,
                "nu_c": {"num": r.nu_c.numerator, "den": r.nu_c.denominator},
                "nu_nc": {"num": r.nu_nc.numerator, "den": r.nu_nc.denominator},
                "nu_c_float": r.nu_c_float,
                "nu_nc_float": r.nu_nc_float,
                "method": r.method,
            }
            for r in records
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _kummer_rows(n_max: int) -> list[VerifyResult]:
    """Per N, whether the shifts 0, 1, 2 (plus) and 0, -1, -2 (minus) of every
    sweep pair pass; each distinct (a, b) is checked once, on all three routes."""
    passed = {}  # (a, b) -> the shifts at which the exact and numeric values match the series
    rows = []
    for n, group in itertools.groupby(kummer_parameter_sweep(n_max), key=lambda p: p[0]):
        pairs = [(a, b) for _, a, b in group]
        for a, b in set(pairs) - passed.keys():
            routes = zip(KUMMER_SHIFTS, kummer_contiguous(a, b), kummer_contiguous_numeric(a, b))
            passed[a, b] = set()
            for shift, exact, numeric in routes:
                series = hyp2f1_at_minus_one(a, b, 1 + a - b + shift)
                tol = 1e-12 * max(1.0, abs(float(series)))
                if exact == series and abs(numeric - float(series)) <= tol:
                    passed[a, b].add(shift)
        for name, shifts in (("kummer_shift_plus", {0, 1, 2}), ("kummer_shift_minus", {0, -1, -2})):
            rows.append(VerifyResult(name, n, all(passed[p] >= shifts for p in pairs)))
    return rows


def cmd_verify(args, out) -> int:
    if args.n_max < 1:
        raise SystemExit2(f"--n-max must be >= 1, got {args.n_max}")
    rows: list[VerifyResult] = []
    if args.suite in ("tq", "all"):
        rows += [r for r in verify_suite(args.n_max, include_fsz=False)]
    if args.suite in ("fsz", "all"):
        rows += [
            r
            for r in verify_suite(args.n_max, include_fsz=True)
            if r.identity in FSZ_IDENTITIES
        ]
    if args.suite in ("kummer", "all"):
        rows += _kummer_rows(args.n_max)
    failures = [r for r in rows if not r.ok]
    if args.format == "json":
        payload = [
            {"identity": r.identity, "N": r.n, "status": "pass" if r.ok else "fail", "detail": r.detail}
            for r in rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_FAIL if failures else EXIT_OK
    for r in rows:
        status = "pass" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        out.write(f"{r.identity:<22} N={r.n:<3} {status}{detail}\n")
    if failures:
        f = failures[0]
        out.write(f"FAILED: {f.identity} at N={f.n} {f.detail}\n")
        return EXIT_FAIL
    out.write(f"all {len(rows)} checks passed\n")
    return EXIT_OK


def _dump_error(path, exc: OSError) -> SystemExit2:
    return SystemExit2(f"cannot write --dump-matrix {path!r}: {exc.strerror or exc}")


def cmd_oracle(args, out) -> int:
    l = args.l
    try:
        check_oracle_l(l)
    except ValueError as exc:
        raise SystemExit2(f"oracle: {exc}")
    dump = contextlib.nullcontext()
    if args.dump_matrix:
        # opened before the oracle runs, so a bad path fails fast
        try:
            dump = open(args.dump_matrix, "w", encoding="utf-8")
        except OSError as exc:
            raise _dump_error(args.dump_matrix, exc)
    with dump as fh:
        rec = oracle_densities(l)
        if fh is not None:
            payload = matrix_json(l)
            try:
                json.dump(payload, fh, indent=2)
                fh.close()  # a full disk may show only when the buffer is flushed
            except OSError as exc:
                raise _dump_error(args.dump_matrix, exc)
    exact_c, exact_nc = nu_c_exact(l // 2), nu_nc_exact(l // 2)
    match = rec.nu_c == exact_c and rec.nu_nc == exact_nc
    out.write(f"L={l}\n")
    out.write(f"oracle:      nu_c={rec.nu_c}  nu_nc={rec.nu_nc}\n")
    out.write(f"closed form: nu_c={exact_c}  nu_nc={exact_nc}\n")
    out.write("EXACT-MATCH\n" if match else "MISMATCH\n")
    return EXIT_OK if match else EXIT_FAIL


def _t_within_z4(t: float, dof: int) -> bool:
    """True when the two-sided Student-t tail P(|T| >= |t|) at `dof` degrees
    of freedom exceeds Z4_TAIL."""
    with mp.workdps(30):
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        return mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, x, regularized=True) > Z4_TAIL


def cmd_simulate(args, out) -> int:
    if args.replicas < 2:
        raise SystemExit2(f"--replicas must be >= 2 for the z-score gate, got {args.replicas}")
    try:
        cfg = MCConfig(L=args.l, H=args.height, seed=args.seed, replicas=args.replicas)
        cfg.validate()
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if args.workers < 1:
        raise SystemExit2(f"--workers must be >= 1, got {args.workers}")
    stats = mc_run(cfg, workers=args.workers)
    payload = stats_payload(stats, float(nu_c_exact(cfg.L // 2)), float(nu_nc_exact(cfg.L // 2)))
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    z = (payload["z_nu_c"], payload["z_nu_nc"])
    # a zero replica stderr leaves z undefined, which fails the gate
    if None in z:
        return EXIT_FAIL
    return EXIT_OK if all(_t_within_z4(x, cfg.replicas - 1) for x in z) else EXIT_FAIL


def cmd_asymptote(args, out) -> int:
    ls = _parse_l_values(args)
    w = csv.writer(out)
    w.writerow(["L", "quantity", "exact", "series", "residual", "residual_scaled"])
    for l in ls:
        n = l // 2
        for kind in ("nu_c", "nu_nc"):
            exact, series, residual = asymptotic_residual(kind, n, args.order)
            scaled = abs(residual) * (2 * n) ** residual_scale_power(kind, args.order)
            w.writerow([l, kind, repr(exact), repr(series), repr(residual), repr(scaled)])
    return EXIT_OK


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit (3.11+) while a command writes.

    The exact densities pass the default 4300 digits near L = 6200, and
    str() of such an int raises ValueError under the limit.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(previous)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopdens",
        description="Exact loop densities of the O(1) dense loop model on a cylinder, "
        "with transfer-matrix, six-vertex and Monte Carlo cross-checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="print exact/float density records")
    g = d.add_mutually_exclusive_group(required=True)
    g.add_argument("--l", type=int, help="even circumference")
    g.add_argument("--l-range", help="inclusive range LO:HI, even L only")
    d.add_argument("--format", choices=["text", "csv", "json"], default="text")
    d.add_argument("--mode", choices=["exact", "float"], default="exact")
    d.set_defaults(func=cmd_density)

    v = sub.add_parser("verify", help="run identity verification suites")
    v.add_argument("suite", choices=["fsz", "tq", "kummer", "all"])
    v.add_argument("--n-max", type=int, default=8)
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="compare transfer-matrix oracle to closed forms")
    o.add_argument("--l", type=int, required=True)
    o.add_argument("--dump-matrix", metavar="PATH", help="write the transfer operator as JSON")
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("simulate", help="Monte Carlo estimate with z-scores vs exact")
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--replicas", type=int, default=16)
    s.add_argument("--workers", type=int, default=1, help="process count")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("asymptote", help="exact-vs-series residual CSV stream")
    ga = a.add_mutually_exclusive_group(required=True)
    ga.add_argument("--l", type=int)
    ga.add_argument("--l-range", help="inclusive range LO:HI, even L only")
    a.add_argument("--order", type=int, choices=[0, 1, 2], default=0)
    a.set_defaults(func=cmd_asymptote)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        with _unlimited_int_digits():
            return args.func(args, sys.stdout)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ComputationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
