"""One round of one workload, run in a fresh interpreter.

    python benchmarks/child.py WORKLOAD SIZE SEED OUTDIR TRACE

Runs the workload's CLI commands in-process through ``loopdens.cli.main``
with stdout written to files in OUTDIR (as a user redirecting the output
would), makes the workload's API calls, and writes their results to
OUTDIR/api.json.  Nothing is checked here; run.py checks the files.

With TRACE=1 the public functions of the modules the workload reaches are
wrapped from this file (the package itself is not changed), every call is
recorded as a span, and the per-layer metrics are written to
OUTDIR/trace.json.  Times are inclusive: a call counts in every wrapped
function on the stack.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

from workloads import SPECS

ROOT = Path(__file__).resolve().parent.parent

import loopdens  # noqa: E402
from loopdens import cli, closed_form, fsz, montecarlo, tq_identities, transfer_oracle  # noqa: E402


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called `name` that ran inside a span called `ancestor`."""
        hits = 0
        for n, _, _, parent in self.spans:
            if n != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits

    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: int):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def instrument(self, func, name, after=None):
        """Replace `func` by a timed wrapper wherever loopdens holds a reference."""

        def wrapper(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args)):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "loopdens" or mod_name.startswith("loopdens."):
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)


def run_cli(argv, path: Path, rcs: dict, key: str):
    """cli.main(argv) with stdout written to `path`; a crash is recorded as rc None."""
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            rcs[key] = cli.main(argv)
        except Exception:
            rcs[key] = None
            sys.stderr.write(traceback.format_exc())


# -- workloads -----------------------------------------------------------------


def verify_argv(spec):
    return ["verify", "all", "--n-max", str(spec["n_max"]), "--format", "json"]


def oracle_argv(l):
    return ["oracle", "--l", str(l)]


def simulate_argv(spec, seed):
    return [
        "simulate",
        "--l", str(spec["l"]),
        "--height", str(spec["height"]),
        "--replicas", str(spec["replicas"]),
        "--workers", "1",
        "--seed", str(seed),
    ]


def density_argv(spec):
    lo, hi = spec["density_l"]
    return ["density", "--l-range", f"{lo}:{hi}", "--format", "csv"]


def asymptote_argv(spec):
    lo, hi = spec["asymptote_l"]
    return ["asymptote", "--l-range", f"{lo}:{hi}", "--order", str(spec["order"])]


def tq_chain(spec, seed, out: Path, api: dict):
    run_cli(verify_argv(spec), out / "verify.json", api["rc"], "verify")
    densities = []
    for n in range(1, spec["n_max"] + 1):
        try:
            b = fsz.densities_via_tq(n)
            densities.append([n, b.nu_c.numerator, b.nu_c.denominator, b.nu_nc.numerator, b.nu_nc.denominator])
        except Exception:
            sys.stderr.write(traceback.format_exc())
            densities.append([n, None, None, None, None])
    api["densities"] = densities


def transfer_exact(spec, seed, out: Path, api: dict):
    rows = []
    for l in spec["ls"]:
        run_cli(oracle_argv(l), out / f"oracle-{l}.txt", api["rc"], f"oracle-{l}")
        row = {"L": l}
        try:
            rep = transfer_oracle.sixvertex_check(l)
            row.update(
                lambda_max=rep.lambda_max,
                phi_symmetry_error=rep.phi_symmetry_error,
                nu_nc_fd=rep.nu_nc_fd,
            )
            counts = transfer_oracle.row_transfer_matrix(l).counts
            row["column_sums"] = [sum(col) for col in zip(*counts)]
        except Exception:
            sys.stderr.write(traceback.format_exc())
        rows.append(row)
    api["transfer"] = rows


def monte_carlo(spec, seed, out: Path, api: dict):
    run_cli(simulate_argv(spec, seed), out / "simulate.json", api["rc"], "simulate")


def density_table(spec, seed, out: Path, api: dict):
    run_cli(density_argv(spec), out / "density.csv", api["rc"], "density")
    run_cli(asymptote_argv(spec), out / "asymptote.csv", api["rc"], "asymptote")


WORKLOADS = {
    "tq_chain": tq_chain,
    "transfer_exact": transfer_exact,
    "monte_carlo": monte_carlo,
    "density_table": density_table,
}


# -- tracing -------------------------------------------------------------------


def _coeff_bits(poly) -> int:
    return max(
        (
            x.bit_length()
            for c in poly.coeffs
            for part in (c.a, c.b)
            for x in (part.numerator, part.denominator)
        ),
        default=0,
    )


def instrument(workload: str, tr: Tracer):
    tr.instrument(cli.main, lambda args: f"cli.{args[0][0]}")
    if workload == "tq_chain":
        tr.instrument(fsz.build_fsz, "fsz.build")
        tr.instrument(fsz.densities_via_tq, "fsz.derivatives")
        tr.instrument(fsz.fq_fp_closed_eval, "fsz.fq_fp_closed")
        for f in (fsz.kummer_contiguous, fsz.kummer_contiguous_numeric, fsz.hyp2f1_at_minus_one):
            tr.instrument(f, "fsz.kummer")
        for f in (tq_identities.verify_t_form, tq_identities.verify_wronskian, tq_identities.verify_tq_tp):
            tr.instrument(f, "tq_identities.identity")
        tr.instrument(
            tq_identities.verify_suite,
            "tq_identities.suite",
            after=lambda rows, args: tr.add("tq_identities.rows", len(rows)),
        )
    elif workload == "transfer_exact":
        seen = set()

        def table_sizes(tm, args):
            if tm.L not in seen:
                seen.add(tm.L)
                tr.add("transfer_oracle.states", len(tm.states))
                tr.add("transfer_oracle.nnz", sum(1 for row in tm.counts for x in row if x))

        tr.instrument(transfer_oracle.row_transfer_matrix, "transfer_oracle.table", after=table_sizes)
        tr.instrument(transfer_oracle.perron_eigenvectors, "transfer_oracle.perron")
        tr.instrument(transfer_oracle.oracle_densities, "transfer_oracle.oracle")
        tr.instrument(transfer_oracle.sixvertex_transfer, "transfer_oracle.sixvertex_matrix")
        tr.instrument(transfer_oracle.sixvertex_check, "transfer_oracle.sixvertex_check")
    elif workload == "monte_carlo":

        def census(c, args):
            tr.add("montecarlo.loops", c.n_loops)
            tr.add("montecarlo.sites", c.n_sites)

        tr.instrument(montecarlo.walk_tables, "montecarlo.walk_tables")
        tr.instrument(montecarlo.sample_lattice, "montecarlo.sample_lattice", after=census)
    elif workload == "density_table":

        def exact_value(value, args):
            tr.add("closed_form.values", 1)
            tr.maximum("closed_form.den_bits_max", value.denominator.bit_length())

        tr.instrument(closed_form.nu_c_exact, "closed_form.exact", after=exact_value)
        tr.instrument(closed_form.nu_nc_exact, "closed_form.exact", after=exact_value)
        tr.instrument(closed_form.asymptotic_residual, "closed_form.asymptotic")


def probe_tq_chain(spec, tr: Tracer, build_fsz):
    """Q*P and f_Q / (1+x)^(2N) on prebuilt solutions, N <= n_max."""
    bits = 0
    for n in range(1, spec["n_max"] + 1):
        sol = build_fsz(n)
        with tr.span("cyclotomic.poly_mul"):
            prod = sol.q_poly * sol.p_poly
        with tr.span("cyclotomic.divide_exact"):
            quot = sol.f_q.divide_exact(sol.t_poly)
        bits = max(bits, _coeff_bits(prod), _coeff_bits(quot))
    tr.maximum("cyclotomic.coeff_bits_max", bits)


def layer_metrics(workload: str, tr: Tracer) -> dict:
    t, c = tr.total, tr.counts
    if workload == "tq_chain":
        return {
            "cli.verify_s": t("cli.verify"),
            "cyclotomic.poly_mul_s": t("cyclotomic.poly_mul"),
            "cyclotomic.divide_exact_s": t("cyclotomic.divide_exact"),
            "cyclotomic.coeff_bits_max": c["cyclotomic.coeff_bits_max"],
            "fsz.build_s": t("fsz.build"),
            "fsz.derivatives_s": t("fsz.derivatives"),
            "fsz.fq_fp_closed_s": t("fsz.fq_fp_closed"),
            "fsz.kummer_s": t("fsz.kummer"),
            "fsz.build_calls": tr.count_within("fsz.build", "cli.verify"),
            "tq_identities.identity_s": t("tq_identities.identity"),
            "tq_identities.suite_s": t("tq_identities.suite"),
            "tq_identities.rows": c["tq_identities.rows"],
        }
    if workload == "transfer_exact":
        return {
            "cli.oracle_s": t("cli.oracle"),
            "transfer_oracle.states": c["transfer_oracle.states"],
            "transfer_oracle.nnz": c["transfer_oracle.nnz"],
            "transfer_oracle.table_s": t("transfer_oracle.table"),
            "transfer_oracle.perron_s": t("transfer_oracle.perron"),
            "transfer_oracle.oracle_s": t("transfer_oracle.oracle"),
            "transfer_oracle.sixvertex_matrix_s": t("transfer_oracle.sixvertex_matrix"),
            "transfer_oracle.sixvertex_check_s": t("transfer_oracle.sixvertex_check"),
        }
    if workload == "monte_carlo":
        walks = tr.durations("montecarlo.walk_tables")
        sample_s = t("montecarlo.sample_lattice")
        return {
            "cli.simulate_s": t("cli.simulate"),
            "montecarlo.first_walk_tables_s": walks[0],
            "montecarlo.walk_tables_s": sum(walks[1:]),
            "montecarlo.sample_lattice_s": sample_s,
            "montecarlo.sites_per_s": c["montecarlo.sites"] / sample_s,
            "montecarlo.loops": c["montecarlo.loops"],
            "montecarlo.loops_per_s": c["montecarlo.loops"] / sample_s,
        }
    return {
        "cli.density_s": t("cli.density"),
        "cli.asymptote_s": t("cli.asymptote"),
        "closed_form.exact_s": t("closed_form.exact"),
        "closed_form.asymptotic_s": t("closed_form.asymptotic"),
        "closed_form.values": c["closed_form.values"],
        "closed_form.den_bits_max": c["closed_form.den_bits_max"],
    }


def main(argv):
    workload, size, seed, out, trace = argv
    seed, out, trace = int(seed), Path(out), trace == "1"
    src = (ROOT / "src").resolve()
    if src not in Path(loopdens.__file__).resolve().parents:
        sys.exit(f"loopdens imported from {loopdens.__file__}, not from {src}")
    spec = SPECS[workload][size]
    tr = Tracer()
    build_fsz = fsz.build_fsz
    if trace:
        instrument(workload, tr)
    api = {"workload": workload, "size": size, "seed": seed, "rc": {}}
    WORKLOADS[workload](spec, seed, out, api)
    (out / "api.json").write_text(json.dumps(api), encoding="utf-8")
    if trace:
        t0 = time.perf_counter()
        if workload == "tq_chain":
            probe_tq_chain(spec, tr, build_fsz)
        payload = {
            "metrics": layer_metrics(workload, tr),
            "probe_s": time.perf_counter() - t0,
            "spans": tr.spans,
        }
        (out / "trace.json").write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
