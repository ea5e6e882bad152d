"""CLI surface: formats, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopdens
from loopdens import cli, montecarlo, tq_identities, transfer_oracle
from loopdens.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens.errors import ComputationError
from loopdens.fsz import KUMMER_SHIFTS, kummer_parameter_sweep

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_density_exact_single():
    code, out = run_cli(["density", "--l", "4", "--mode", "exact"])
    assert code == EXIT_OK
    assert "17/160" in out and "11/320" in out


def test_density_odd_l_exits_2():
    code, _ = run_cli(["density", "--l", "3"])
    assert code == EXIT_USAGE


def test_density_csv_range():
    code, out = run_cli(["density", "--l-range", "2:12", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["L", "nu_c_num", "nu_c_den", "nu_nc_num", "nu_nc_den"]
    assert len(rows) == 1 + 6  # header + even L in 2..12
    assert rows[2][:5] == ["4", "17", "160", "11", "320"]


def test_density_json_roundtrip():
    code, out = run_cli(["density", "--l", "6", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["nu_c"] == {"num": 913, "den": 8960}
    assert payload[0]["nu_nc"] == {"num": 421, "den": 26880}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_mode_changes_only_the_text_format(fmt):
    # csv and json always carry both the exact and the float fields
    runs = {run_cli(["density", "--l", "2", "--mode", mode, "--format", fmt]) for mode in ("exact", "float")}
    assert len(runs) == 1


def test_verify_all_small():
    code, out = run_cli(["verify", "all", "--n-max", "2"])
    assert code == EXIT_OK
    assert "all" in out and "passed" in out


def test_verify_report_shape():
    code, out = run_cli(["verify", "tq", "--n-max", "3", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(out)
    identities = {r["identity"] for r in rows}
    assert len(rows) == len(identities) * 3
    assert all(r["status"] == "pass" for r in rows)


def test_verify_kummer():
    code, out = run_cli(["verify", "kummer", "--n-max", "4"])
    assert code == EXIT_OK


def test_verify_all_is_tq_then_fsz_then_kummer():
    expected = []
    for suite in ("tq", "fsz", "kummer"):
        code, out = run_cli(["verify", suite, "--n-max", "3", "--format", "json"])
        assert code == EXIT_OK
        expected += json.loads(out)
    code, out = run_cli(["verify", "all", "--n-max", "3", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out) == expected


def test_kummer_rows_run_each_route_once_per_distinct_pair(monkeypatch):
    calls = {"exact": [], "numeric": [], "series": []}

    def counted(name, route):
        def wrapper(*args):
            calls[name].append(args)
            return route(*args)

        return wrapper

    monkeypatch.setattr(cli, "kummer_contiguous", counted("exact", cli.kummer_contiguous))
    monkeypatch.setattr(cli, "kummer_contiguous_numeric", counted("numeric", cli.kummer_contiguous_numeric))
    monkeypatch.setattr(cli, "hyp2f1_at_minus_one", counted("series", cli.hyp2f1_at_minus_one))
    rows = cli._kummer_rows(6)
    assert len(rows) == 2 * 6 and all(rows)
    pairs = {(a, b) for _, a, b in kummer_parameter_sweep(6)}
    assert len(pairs) < len(kummer_parameter_sweep(6))
    for name in ("exact", "numeric"):
        assert len(calls[name]) == len(pairs) and set(calls[name]) == pairs
    series = {(a, b, 1 + a - b + n) for a, b in pairs for n in KUMMER_SHIFTS}
    assert len(calls["series"]) == len(series) and set(calls["series"]) == series


# every module imported, so that ComputationError.__subclasses__() lists the
# error of every route, a future one included
for _module in pkgutil.iter_modules(loopdens.__path__):
    importlib.import_module(f"loopdens.{_module.name}")

# the standard base each computation error keeps beside ComputationError, so
# that `except ArithmeticError` and `except RuntimeError` still catch it
STANDARD_BASES = {
    "GammaPoleError": ArithmeticError,
    "NotDivisibleError": ArithmeticError,
    "RouteMismatchError": ArithmeticError,
    "RootConvergenceError": ArithmeticError,
    "DegeneratePerronError": ArithmeticError,
    "RoutingError": RuntimeError,
}


def _raise(error):
    def broken(*args):
        raise error("injected failure")

    return broken


def test_every_computation_error_derives_from_the_one_base():
    assert {e.__name__ for e in ComputationError.__subclasses__()} >= STANDARD_BASES.keys()


@pytest.mark.parametrize("error", ComputationError.__subclasses__(), ids=lambda e: e.__name__)
def test_verify_computation_error_exits_1_with_one_stderr_line(monkeypatch, capsys, error):
    monkeypatch.setattr(tq_identities, "build_fsz", _raise(error))
    code = main(["verify", "all", "--n-max", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err == f"error: {error.__name__}: injected failure\n"
    assert isinstance(error("injected failure"), STANDARD_BASES.get(error.__name__, Exception))


def test_an_error_outside_the_family_is_not_a_clean_exit_1(monkeypatch):
    monkeypatch.setattr(tq_identities, "build_fsz", _raise(ZeroDivisionError))
    with pytest.raises(ZeroDivisionError, match="injected failure"):
        main(["verify", "all", "--n-max", "2", "--format", "json"])


def test_oracle_degenerate_perron_exits_1_with_one_stderr_line(monkeypatch, capsys):
    monkeypatch.setattr(transfer_oracle, "perron_eigenvectors", _raise(transfer_oracle.DegeneratePerronError))
    code = main(["oracle", "--l", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err == "error: DegeneratePerronError: injected failure\n"


@pytest.mark.parametrize("broken", ["template", "table"])
def test_simulate_routing_error_exits_1_with_one_stderr_line(monkeypatch, capsys, broken):
    # a broken row-pair template fails the certificate; a broken table that
    # skips it fails the return-map check of the first replica
    starts, target = montecarlo._static_tables(2, 20)
    clear_cache = montecarlo._static_tables.cache_clear
    if broken == "template":
        template = montecarlo._row_pair_targets(2).copy()
        template[1] = template[2]
        monkeypatch.setattr(montecarlo, "_row_pair_targets", lambda L: template)
        clear_cache()
    else:
        table = target.copy()
        table[41] = table[42]
        monkeypatch.setattr(montecarlo, "_static_tables", lambda L, H: (starts, table))
    try:
        code = main(["simulate", "--l", "2", "--height", "20", "--replicas", "2", "--workers", "1"])
    finally:
        clear_cache()
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err.startswith("error: RoutingError: ") and captured.err.count("\n") == 1


def test_oracle_match_and_guard(tmp_path):
    code, out = run_cli(["oracle", "--l", "2"])
    assert code == EXIT_OK and "EXACT-MATCH" in out and "1/8" in out
    from loopdens.transfer_oracle import ORACLE_MAX_L

    code, _ = run_cli(["oracle", "--l", str(ORACLE_MAX_L + 2)])
    assert code == EXIT_USAGE
    dump = tmp_path / "tm.json"
    code, out = run_cli(["oracle", "--l", "4", "--dump-matrix", str(dump)])
    assert code == EXIT_OK
    payload = json.loads(dump.read_text())
    assert payload["L"] == 4 and len(payload["states"]) == 6


def test_oracle_l6():
    code, out = run_cli(["oracle", "--l", "6"])
    assert code == EXIT_OK
    assert "913/8960" in out and "421/26880" in out and "EXACT-MATCH" in out


def test_oracle_reports_a_wrong_pair_as_mismatch(monkeypatch):
    # the route returns its pair; only the CLI compares it with the closed forms
    wrong = nu_c_exact(2), nu_nc_exact(2) + Fraction(1, 2**20)
    monkeypatch.setattr(cli, "oracle_densities", lambda L: wrong)
    code, out = run_cli(["oracle", "--l", "4"])
    assert code == EXIT_FAIL
    assert out.splitlines() == [
        "L=4",
        f"oracle:      nu_c={wrong[0]}  nu_nc={wrong[1]}",
        f"closed form: nu_c={nu_c_exact(2)}  nu_nc={nu_nc_exact(2)}",
        "MISMATCH",
    ]


def test_verify_fsz_reports_wrong_tq_densities(monkeypatch):
    # the T-Q route returns its densities; only the verify row compares them
    route = tq_identities.densities_via_tq
    shift = Fraction(1, 2**20)

    def shifted(n):
        bundle = route(n)
        return dataclasses.replace(bundle, nu_c=bundle.nu_c + shift) if n == 2 else bundle

    monkeypatch.setattr(tq_identities, "densities_via_tq", shifted)
    code, out = run_cli(["verify", "fsz", "--n-max", "3", "--format", "json"])
    assert code == EXIT_FAIL
    failed = [r for r in json.loads(out) if r["status"] == "fail"]
    assert [(r["identity"], r["N"]) for r in failed] == [("densities_match", 2)]
    assert failed[0]["detail"] == (
        f"N=2: T-Q densities ({nu_c_exact(2) + shift}, {nu_nc_exact(2)}) differ from "
        f"closed forms ({nu_c_exact(2)}, {nu_nc_exact(2)})"
    )


def test_simulate_small_and_deterministic():
    argv = ["simulate", "--l", "2", "--height", "2000", "--seed", "7", "--replicas", "4"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert out1 == out2
    assert code1 == code2 == EXIT_OK
    payload = json.loads(out1)
    assert payload["replicas"] == 4
    assert abs(payload["z_nu_c"]) < 4


@pytest.mark.parametrize("source", ["--workers"])
def test_simulate_pool_never_exceeds_the_replicas(monkeypatch, serial_pool, source):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
    argv = ["simulate", "--l", "2", "--height", "2000", "--seed", "7", "--replicas", "3"]
    serial = run_cli(argv + [source, "1"])
    assert run_cli(argv + [source, "5000"]) == serial
    assert serial_pool == [3]


# the simulate JSON and exit code, pinned at even and odd H and one and two
# workers: the census is exact, so a change to it may move no byte
SIMULATE_SHA256 = [
    (["--l", "2", "--height", "40", "--seed", "3", "--replicas", "4", "--workers", "1"], EXIT_FAIL,
     "0734c7fcc6bc35f143e5660a8f7bb7b0fc63632f43a9673b39289942383af76f"),
    (["--l", "4", "--height", "41", "--seed", "5", "--replicas", "3", "--workers", "2"], EXIT_OK,
     "de461d4d955ab3c1165849dad72d19baf3191c2ec9edfee03c5abaf2dcd43785"),
    (["--l", "6", "--height", "601", "--seed", "11", "--replicas", "4", "--workers", "2"], EXIT_OK,
     "19ee6f298e073402a7b6ad6915c403907dc2deccf45c6e3f6b4ce96e3473bfdc"),
]


@pytest.mark.parametrize("args, exit_code, digest", SIMULATE_SHA256, ids=["l2-h40-w1", "l4-h41-w2", "l6-h601-w2"])
def test_simulate_json_golden_hash(args, exit_code, digest):
    code, out = run_cli(["simulate", *args])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_height_guard():
    code, _ = run_cli(["simulate", "--l", "4", "--height", "10"])
    assert code == EXIT_USAGE


def test_asymptote_stream():
    code, out = run_cli(["asymptote", "--l-range", "2:40", "--order", "0"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["L", "quantity", "exact", "series", "residual", "residual_scaled"]
    data = rows[1:]
    assert len(data) == 2 * 20
    for row in data:
        assert all(abs(float(v)) < 1e9 for v in row[2:])
    # scaled nu_c residual approaches 1/(4 sqrt(3)) ~ 0.1443
    last_nu_c = [r for r in data if r[1] == "nu_c"][-1]
    assert abs(float(last_nu_c[5]) - 0.14433756) < 0.01


def test_asymptote_l2_present_and_finite():
    code, out = run_cli(["asymptote", "--l", "2", "--order", "2"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3


def run_cli_process(argv, env=None):
    """Run the CLI in a fresh interpreter, so an uncaught exception would
    show as a traceback on stderr."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join([str(SRC), full_env.get("PYTHONPATH", "")])
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "loopdens.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=120,
    )


def _reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def assert_contract(proc, code):
    """Exit code as expected, no traceback, stdout empty or strict JSON."""
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == EXIT_USAGE:
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        return None
    return json.loads(proc.stdout, parse_constant=_reject_constant)


SIM_SMALL = ["simulate", "--l", "2", "--height", "20", "--seed", "4"]


def test_simulate_one_replica_is_usage_error():
    assert_contract(run_cli_process(SIM_SMALL + ["--replicas", "1"]), EXIT_USAGE)


def test_simulate_workers_default_to_one():
    assert cli.build_parser().parse_args(SIM_SMALL).workers == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_bad_workers_is_usage_error(capsys, workers):
    code, out = run_cli(SIM_SMALL + ["--replicas", "2", "--workers", workers])
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"


SIM_SEED = ["simulate", "--l", "4", "--height", "400", "--replicas", "2"]


# both ends of the 64-bit range, one past each, and the pair 1, 2^64 + 1,
# whose low 64 bits, and so whose Philox samples, are the same
@pytest.mark.parametrize(
    "seed, valid",
    [(-(2**63), True), (2**63 - 1, True), (-(2**63) - 1, False), (2**63, False), (1, True), (2**64 + 1, False)],
)
def test_simulate_seed_bounds(capsys, seed, valid):
    code, out = run_cli(SIM_SEED + [f"--seed={seed}"])
    if valid:
        assert code in (EXIT_OK, EXIT_FAIL) and json.loads(out)["seed"] == seed
    else:
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: seed must satisfy")


def test_simulate_zero_stderr_gives_null_z_and_fails():
    payload = assert_contract(run_cli_process(SIM_SMALL + ["--replicas", "2"]), EXIT_FAIL)
    assert 0.0 in (payload["stderr_nu_c"], payload["stderr_nu_nc"])
    for kind in ("nu_c", "nu_nc"):
        assert (payload[f"z_{kind}"] is None) == (payload[f"stderr_{kind}"] == 0.0)


@pytest.mark.parametrize(
    "t, dof, ok",
    [
        (4.0, 7, True),
        (-4.0, 7, True),
        (8.0, 7, True),
        (9.0, 7, False),
        (-12.0, 7, False),
        (3.99, 10**6, True),
        (4.01, 10**6, False),
    ],
)
def test_simulate_gate_compares_the_student_t_tail_with_4_sigma(t, dof, ok):
    from scipy import stats

    # the reference tail decides on which side of erfc(4 / sqrt 2) t lies
    assert (2 * stats.t.sf(abs(t), dof) > cli.Z4_TAIL) == ok
    assert cli._t_within_z4(t, dof) == ok


def test_oracle_unwritable_dump_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli_process(["oracle", "--l", "4", "--dump-matrix", str(target)])
    assert_contract(proc, EXIT_USAGE)
    assert "--dump-matrix" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_oracle_dump_write_failure_is_usage_error():
    # /dev/full opens fine, and every write to it fails with ENOSPC
    proc = run_cli_process(["oracle", "--l", "4", "--dump-matrix", "/dev/full"])
    assert_contract(proc, EXIT_USAGE)
    assert proc.stderr.startswith("error: cannot write --dump-matrix '/dev/full'")


def test_oracle_dump_path_checked_before_oracle_runs(tmp_path, monkeypatch):
    def not_reached(l):
        raise AssertionError("oracle ran before the dump path was checked")

    monkeypatch.setattr(cli, "oracle_densities", not_reached)
    code, out = run_cli(["oracle", "--l", "4", "--dump-matrix", str(tmp_path / "missing" / "x.json")])
    assert code == EXIT_USAGE and out == ""


def test_oracle_l_bound_message_reads_the_constant():
    from loopdens.transfer_oracle import ORACLE_MAX_L

    proc = run_cli_process(["oracle", "--l", str(ORACLE_MAX_L + 2)])
    assert_contract(proc, EXIT_USAGE)
    assert f"L <= {ORACLE_MAX_L}" in proc.stderr


@settings(max_examples=30, deadline=None)
@given(
    suite=st.sampled_from(["tq", "fsz", "kummer", "all"]),
    fmt=st.sampled_from(["text", "json"]),
    n_max=st.integers(min_value=-2, max_value=3),
)
def test_verify_contract_holds_for_every_argument(suite, fmt, n_max):
    code, out = run_cli(["verify", suite, "--n-max", str(n_max), "--format", fmt])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == ""
    elif fmt == "json":
        json.loads(out, parse_constant=_reject_constant)


@settings(max_examples=30, deadline=None)
@given(l=st.integers(min_value=-2, max_value=14))
def test_oracle_contract_holds_for_every_argument(l):
    code, out = run_cli(["oracle", "--l", str(l)])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == ""


# half the draws of --l and --replicas come from their valid values, so
# that many examples run a lattice instead of stopping at a usage error
@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(min_value=-2, max_value=8) | st.sampled_from([2, 4, 6, 8]),
    height=st.integers(min_value=-5, max_value=200),
    replicas=st.integers(min_value=-1, max_value=4) | st.integers(min_value=2, max_value=4),
    seed=st.integers(),
    workers=st.integers(min_value=1, max_value=2),
)
def test_simulate_contract_holds_for_every_argument(l, height, replicas, seed, workers):
    argv = ["simulate", "--l", str(l), "--height", str(height), "--replicas", str(replicas)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv + [f"--seed={seed}", "--workers", str(workers)])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out == ""
    else:
        json.loads(out, parse_constant=_reject_constant)


@contextlib.contextmanager
def unlimited_int_digits():
    """Parse ints past Python's default 4300-digit limit, then restore it."""
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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_density_prints_rationals_past_the_int_digit_limit(fmt):
    proc = run_cli_process(["density", "--l", "6400", "--format", fmt])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    with unlimited_int_digits():
        if fmt == "text":
            nu_c = Fraction(proc.stdout.split()[1].removeprefix("nu_c="))
        elif fmt == "csv":
            row = list(csv.reader(io.StringIO(proc.stdout)))[1]
            nu_c = Fraction(int(row[1]), int(row[2]))
        else:
            got = json.loads(proc.stdout)[0]["nu_c"]
            nu_c = Fraction(got["num"], got["den"])
        exact = nu_c_exact(3200)
        assert len(str(exact.numerator)) > 4300
    assert nu_c == exact


def test_cli_restores_the_int_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    before = sys.get_int_max_str_digits()
    code, out = run_cli(["density", "--l", "6400"])
    assert code == EXIT_OK and out.startswith("L=6400")
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("command", ["density", "asymptote"])
@pytest.mark.parametrize("l_range", ["3:3", "4:2", "-1:-1"])
def test_range_without_even_l_is_usage_error(command, l_range):
    proc = run_cli_process([command, f"--l-range={l_range}"])
    assert_contract(proc, EXIT_USAGE)
    assert "--l-range" in proc.stderr


@pytest.mark.parametrize("command", ["density", "asymptote"])
@pytest.mark.parametrize(
    "l_args", [["--l", "{}"], ["--l-range=2:{}"], ["--l-range=-4:{}"]], ids=["l", "range", "range-from-negative"]
)
def test_l_above_the_bound_is_usage_error(command, l_args):
    argv = [command, *(a.format(cli.DENSITY_MAX_L + 2) for a in l_args)]
    proc = run_cli_process(argv)
    assert_contract(proc, EXIT_USAGE)
    assert f"<= {cli.DENSITY_MAX_L}, got {cli.DENSITY_MAX_L + 2}" in proc.stderr


_L_ARGS = st.one_of(
    st.integers(min_value=-4, max_value=10_000).map(lambda l: ["--l", str(l)]),
    st.tuples(
        st.integers(min_value=-4, max_value=10_000), st.integers(min_value=-4, max_value=12)
    ).map(lambda p: [f"--l-range={p[0]}:{p[0] + p[1]}"]),
)


@settings(max_examples=30, deadline=None)
@given(
    l_args=_L_ARGS,
    fmt=st.sampled_from(["text", "csv", "json"]),
    mode=st.sampled_from(["exact", "float"]),
)
@example(l_args=["--l", str(cli.DENSITY_MAX_L + 2)], fmt="json", mode="exact")
@example(l_args=[f"--l-range=2:{cli.DENSITY_MAX_L + 2}"], fmt="csv", mode="exact")
def test_density_contract_holds_for_every_argument(l_args, fmt, mode):
    code, out = run_cli(["density", *l_args, "--format", fmt, "--mode", mode])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == ""
    elif fmt == "json":
        with unlimited_int_digits():
            json.loads(out, parse_constant=_reject_constant)


@settings(max_examples=30, deadline=None)
@given(l_args=_L_ARGS, order=st.sampled_from(["0", "1", "2"]))
@example(l_args=["--l", str(cli.DENSITY_MAX_L + 2)], order="0")
@example(l_args=[f"--l-range=2:{cli.DENSITY_MAX_L + 2}"], order="2")
def test_asymptote_contract_holds_for_every_argument(l_args, order):
    code, out = run_cli(["asymptote", *l_args, "--order", order])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == ""
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[2:])
