"""Tests of the benchmark itself.

Every workload runs end to end at its small size, and every output check is
fed a wrong value and must reject it.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import SPECS  # noqa: E402

SEED = 3
NAMES = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_small_run_is_correct_and_reports_end_to_end_metrics(workload):
    proc = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in NAMES["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_small_run_reports_every_per_layer_metric():
    proc = _bench("tq_chain", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in NAMES["per_layer"]}
    n = SPECS["tq_chain"]["small"]["n_max"]
    assert metrics["fsz.build_calls"] == 5 * n
    assert metrics["tq_identities.rows"] == 12 * n
    assert metrics["transfer_oracle.states"] == 2 + 6
    lo, hi = SPECS["density_table"]["small"]["density_l"]
    lo2, hi2 = SPECS["density_table"]["small"]["asymptote_l"]
    assert metrics["closed_form.values"] == (hi - lo + 2) + (hi2 - lo2 + 2)
    assert all(v > 0 for v in metrics.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("density_table", 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gamma_forms_reproduce_the_small_l_rationals():
    # L = 2, 4, 6: the exact densities listed in the paper
    known = [
        (Fraction(1, 8), Fraction(1, 8)),
        (Fraction(17, 160), Fraction(11, 320)),
        (Fraction(913, 8960), Fraction(421, 26880)),
    ]
    for n, (c, nc) in enumerate(known, start=1):
        ref_c, ref_nc = checks.gamma_forms(n)
        assert checks.rational_matches(c.numerator, c.denominator, ref_c)
        assert checks.rational_matches(nc.numerator, nc.denominator, ref_nc)
        assert not checks.rational_matches(c.numerator + 1, c.denominator, ref_c)


def test_t_tail_is_the_normal_tail_for_many_degrees_of_freedom():
    assert checks.t_tail(4.0, 10**7) == pytest.approx(checks.Z4_TAIL, rel=1e-4)
    assert checks.t_tail(4.0, 7) > checks.Z4_TAIL


# -- each check fed a wrong value -----------------------------------------------


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One small round of every workload, its output files kept."""
    work = tmp_path_factory.mktemp("rounds")
    for workload in SPECS:
        run.run_round(workload, "small", SEED, work, False)
    return work


def _edit_json(path: Path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_text(path: Path, old: str, new: str, count: int = 1):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, count), encoding="utf-8")


def _swap(row, i, j):
    row[i], row[j] = row[j], row[i]


def _api(edit):
    return lambda out: _edit_json(out / "api.json", edit)


def _sim(edit):
    return lambda out: _edit_json(out / "simulate.json", edit)


MUTATIONS = {
    "tq_chain": {
        "identity row fails": lambda out: _edit_json(out / "verify.json", lambda rows: rows[0].update(status="fail")),
        "identity row missing": lambda out: _edit_json(out / "verify.json", lambda rows: rows.pop(5)),
        "identity row duplicated": lambda out: _edit_json(out / "verify.json", lambda rows: rows.append(rows[0])),
        "verify exit code 1": _api(lambda a: a["rc"].update(verify=1)),
        "nu_c numerator off by one": _api(lambda a: a["densities"][1].__setitem__(1, 17 + 1)),
        "nu_c numerator wrong but reduced": _api(lambda a: a["densities"][1].__setitem__(1, 17 + 2)),
        "nu_nc denominator off by one": _api(lambda a: a["densities"][1].__setitem__(4, 320 + 1)),
        "nu_c and nu_nc swapped": _api(lambda a: (_swap(a["densities"][2], 1, 3), _swap(a["densities"][2], 2, 4))),
        "density unreduced": _api(lambda a: a["densities"][0].__setitem__(slice(1, 3), [2, 16])),
    },
    "transfer_exact": {
        "oracle value off by one": lambda out: _edit_text(out / "oracle-4.txt", "nu_c=17/160", "nu_c=17/161"),
        "oracle mismatch verdict": lambda out: _edit_text(out / "oracle-2.txt", "EXACT-MATCH", "MISMATCH"),
        "oracle exit code 1": _api(lambda a: a["rc"].update({"oracle-4": 1})),
        "column sum off by one": _api(lambda a: a["transfer"][1]["column_sums"].__setitem__(0, 15)),
        "lambda_max off by 1e-6": _api(lambda a: a["transfer"][0].update(lambda_max=4 * (1 + 1e-6))),
        "phi symmetry broken": _api(lambda a: a["transfer"][1].update(phi_symmetry_error=1e-6)),
        "twist derivative wrong": _api(lambda a: a["transfer"][1].update(nu_nc_fd=a["transfer"][1]["nu_nc_fd"] + 1e-6)),
    },
    "monte_carlo": {
        "means swapped": _sim(lambda s: _swap_keys(s, "mean_nu_c", "mean_nu_nc")),
        "mean off by 100 stderr": _sim(lambda s: s.update(mean_nu_nc=s["mean_nu_nc"] + 100 * s["stderr_nu_nc"])),
        "target wrong": _sim(lambda s: s.update(target_nu_c=s["target_nu_c"] * (1 + 1e-9))),
        "NaN stderr": lambda out: _edit_text(out / "simulate.json", '"stderr_nu_c": ', '"stderr_nu_c": NaN, "x": '),
        "zero stderr": _sim(lambda s: s.update(stderr_nu_c=0.0)),
        "simulate exit code 1": _api(lambda a: a["rc"].update(simulate=1)),
    },
    "density_table": {
        "nu_c denominator off by one": lambda out: _edit_text(out / "density.csv", "4,17,160,", "4,17,161,"),
        "nu_c numerator off by one": lambda out: _edit_text(out / "density.csv", "4,17,160,", "4,18,160,"),
        "nu_c and nu_nc swapped": lambda out: _edit_text(out / "density.csv", "4,17,160,11,320,", "4,11,320,17,160,"),
        "float column wrong": lambda out: _edit_density_float(out),
        "row missing": lambda out: _edit_lines(out / "density.csv", lambda lines: lines.pop(7)),
        "exact column wrong": lambda out: _edit_asymptote(out, "nu_c", 20, 2, lambda v: v * (1 + 1e-12)),
        "plateau broken": lambda out: _edit_asymptote(out, "nu_nc", None, (4, 5), lambda v: v * 1.2),
        "scaled residual inconsistent": lambda out: _edit_asymptote(out, "nu_c", 40, 5, lambda v: v * 1.01),
        "asymptote exit code 1": _api(lambda a: a["rc"].update(asymptote=1)),
    },
}


def _swap_keys(d, a, b):
    d[a], d[b] = d[b], d[a]


def _edit_lines(path: Path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines), encoding="utf-8")


def _edit_density_float(out: Path):
    def edit(lines):
        cells = lines[3].rstrip("\r\n").split(",")
        cells[5] = repr(float(cells[5]) * (1 + 1e-15))
        lines[3] = ",".join(cells) + "\n"

    _edit_lines(out / "density.csv", edit)


def _edit_asymptote(out: Path, kind, l, columns, scale):
    """Scale columns of the `kind` row at L = l (None: the largest L)."""
    columns = columns if isinstance(columns, tuple) else (columns,)

    def edit(lines):
        rows = [i for i, line in enumerate(lines) if f",{kind}," in line]
        target = rows[-1] if l is None else next(i for i in rows if lines[i].startswith(f"{l},"))
        cells = lines[target].rstrip("\r\n").split(",")
        for c in columns:
            cells[c] = repr(scale(float(cells[c])))
        lines[target] = ",".join(cells) + "\n"

    _edit_lines(out / "asymptote.csv", edit)


CASES = [(w, name) for w, muts in MUTATIONS.items() for name in muts]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_unmodified_outputs_pass(rounds, workload):
    tally = checks.check_round(workload, SPECS[workload]["small"], SEED, rounds / f"{workload}-small")
    assert tally.failed == 0, tally.errors
    assert tally.attempted > 0


@pytest.mark.parametrize("workload,mutation", CASES)
def test_check_rejects_wrong_value(rounds, tmp_path, workload, mutation):
    spec = SPECS[workload]["small"]
    good = checks.check_round(workload, spec, SEED, rounds / f"{workload}-small")
    out = tmp_path / "out"
    shutil.copytree(rounds / f"{workload}-small", out)
    MUTATIONS[workload][mutation](out)
    bad = checks.check_round(workload, spec, SEED, out)
    assert bad.failed > 0, f"{mutation} was not rejected"
    assert bad.attempted == good.attempted
