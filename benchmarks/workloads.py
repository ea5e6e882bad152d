"""Workload definitions shared by the runner (run.py), the per-round child
(child.py) and the output checks (checks.py).

Each workload has a ``full`` size, the one the benchmark measures, and a
``small`` size that runs the same commands and checks in seconds (used by the
benchmark's own tests and, in a traced run, for the layers a workload does not
reach).
"""

SPECS = {
    # exact Q(w) polynomial arithmetic under fsz and tq_identities
    "tq_chain": {
        "full": {"n_max": 25},
        "small": {"n_max": 4},
    },
    # Fraction Gauss-Jordan on the link-pattern matrix, dense six-vertex eigensolve
    "transfer_exact": {
        "full": {"ls": [2, 4, 6, 8]},
        "small": {"ls": [2, 4]},
    },
    # Philox tiles, walk tables and the pure-Python loop tracer
    "monte_carlo": {
        "full": {"l": 6, "height": 200_000, "replicas": 8},
        "small": {"l": 4, "height": 4_000, "replicas": 4},
    },
    # closed form at large N on big-integer Fractions, plus mpmath residuals
    "density_table": {
        "full": {"density_l": [2, 1200], "asymptote_l": [2, 400], "order": 2},
        "small": {"density_l": [2, 60], "asymptote_l": [2, 60], "order": 2},
    },
}

# The workload whose commands each layer's per-layer metrics are taken from.
HOME = {
    "cli.verify_s": "tq_chain",
    "cli.oracle_s": "transfer_exact",
    "cli.simulate_s": "monte_carlo",
    "cli.density_s": "density_table",
    "cli.asymptote_s": "density_table",
    "cyclotomic.": "tq_chain",
    "fsz.": "tq_chain",
    "tq_identities.": "tq_chain",
    "closed_form.": "density_table",
    "transfer_oracle.": "transfer_exact",
    "montecarlo.": "monte_carlo",
}


def home_of(metric: str) -> str:
    """Workload whose traced child reports `metric`."""
    for prefix, workload in HOME.items():
        if metric == prefix or (prefix.endswith(".") and metric.startswith(prefix)):
            return workload
    raise KeyError(metric)


def even_ls(lo_hi) -> list[int]:
    lo, hi = lo_hi
    return [l for l in range(lo, hi + 1) if l % 2 == 0]
