"""Monte Carlo sampler: determinism, tracing invariants and statistics."""

import time

import numpy as np
import pytest

from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens.montecarlo import (
    MCConfig,
    _sample_tiles,
    run,
    sample_lattice,
    stats_json,
    walk_tables,
)


def reference_trace(L, H, tiles):
    """Slow independent tracer: explicit edge bookkeeping and full
    displacement accumulation (not seam counting)."""
    route = {0: {"W": "N", "N": "W", "S": "E", "E": "S"}, 1: {"W": "S", "S": "W", "N": "E", "E": "N"}}
    move = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
    entry_of_exit = {"N": "S", "S": "N", "E": "W", "W": "E"}

    def edge_id(x, y, exit_side):
        # undirected edge leaving (x, y) through exit_side
        if exit_side == "E":
            return ("h", x, y)
        if exit_side == "W":
            return ("h", (x - 1) % L, y)
        if exit_side == "N":
            return ("v", x, y)
        return ("v", x, (y - 1) % H)

    seen_edges = {}
    loops = []
    for y0 in range(H):
        for x0 in range(L):
            for d0 in ("W", "E", "S", "N"):
                first = route[tiles[y0][x0]][d0]
                if edge_id(x0, y0, first) in seen_edges:
                    continue
                x, y, d = x0, y0, d0
                dx = dy = 0
                path = []
                while True:
                    e = route[tiles[y][x]][d]
                    path.append(edge_id(x, y, e))
                    mx, my = move[e]
                    dx += mx
                    dy += my
                    x, y = (x + mx) % L, (y + my) % H
                    d = entry_of_exit[e]
                    if (x, y, d) == (x0, y0, d0):
                        break
                for e in path:
                    seen_edges[e] = seen_edges.get(e, 0) + 1
                assert dx % L == 0 and dy % H == 0
                loops.append((dx // L, dy // H))
    return loops, seen_edges


def census_from_loops(loops):
    n_c = n_nc = n_vert = 0
    for wx, wy in loops:
        if wy != 0:
            n_vert += 1
        elif wx != 0:
            n_nc += 1
        else:
            n_c += 1
    return n_c, n_nc, n_vert


def test_every_edge_on_exactly_one_loop():
    cfg = MCConfig(L=4, H=40, seed=11, replicas=1)
    tiles = _sample_tiles(cfg, 0).tolist()
    loops, seen_edges = reference_trace(4, 40, tiles)
    assert len(seen_edges) == 2 * 4 * 40
    assert all(v == 1 for v in seen_edges.values())


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_fast_tracer_matches_reference(seed):
    L, H = 6, 60
    cfg = MCConfig(L=L, H=H, seed=seed, replicas=1)
    census = sample_lattice(cfg, 0)
    loops, _ = reference_trace(L, H, _sample_tiles(cfg, 0).tolist())
    n_c, n_nc, n_vert = census_from_loops(loops)
    assert (census.n_contractible, census.n_non_contractible, census.n_vertical_winding) == (
        n_c,
        n_nc,
        n_vert,
    )
    assert census.n_loops == len(loops)


def test_horizontal_displacement_multiple_of_l():
    cfg = MCConfig(L=4, H=50, seed=21, replicas=1)
    loops, _ = reference_trace(4, 50, _sample_tiles(cfg, 0).tolist())
    # already asserted inside reference_trace; keep a visible sanity count
    assert len(loops) > 0


def test_bit_identical_census():
    cfg = MCConfig(L=4, H=200, seed=5, replicas=3)
    assert sample_lattice(cfg, 1) == sample_lattice(cfg, 1)
    assert sample_lattice(cfg, 1) != sample_lattice(cfg, 2)


def test_run_matches_serial_order():
    cfg = MCConfig(L=2, H=500, seed=9, replicas=4)
    stats = run(cfg)
    manual = [sample_lattice(cfg, r) for r in range(4)]
    assert stats.mean_nu_c == pytest.approx(sum(c.nu_c for c in manual) / 4, abs=0)
    assert stats.n_loops == sum(c.n_loops for c in manual)


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(L=3, H=100, seed=0).validate()
    with pytest.raises(ValueError):
        MCConfig(L=4, H=10, seed=0).validate()
    with pytest.raises(ValueError):
        MCConfig(L=4, H=100, seed=0, replicas=0).validate()


def test_run_needs_two_replicas():
    # one replica has no pooled stderr; sample_lattice still takes such configs
    with pytest.raises(ValueError, match="replicas"):
        run(MCConfig(L=2, H=20, seed=1, replicas=1))


def test_walk_table_is_permutation():
    cfg = MCConfig(L=4, H=60, seed=2, replicas=1)
    nxt, ww, mirror = walk_tables(cfg, _sample_tiles(cfg, 0))
    assert sorted(nxt) == list(range(4 * 4 * 60))
    assert sorted(mirror) == list(range(4 * 4 * 60))


def test_statistics_within_3_sigma():
    cfg = MCConfig(L=2, H=20000, seed=7, replicas=8)
    s = run(cfg)
    exact_c, exact_nc = float(nu_c_exact(1)), float(nu_nc_exact(1))
    assert abs(s.mean_nu_c - exact_c) < 3 * s.stderr_nu_c
    assert abs(s.mean_nu_nc - exact_nc) < 3 * s.stderr_nu_nc


def test_vertical_winding_rare_for_tall_lattices():
    cfg = MCConfig(L=2, H=400, seed=13, replicas=8)  # H = 200*L
    s = run(cfg)
    assert s.n_vertical_winding / s.n_loops < 1e-4


def test_seed_coverage():
    # 2-sigma coverage over 10 independent seeds at L in {2, 4, 6}:
    # expect roughly 1 in 20 misses; allow up to 6 of 60
    outside = 0
    total = 0
    for L in (2, 4, 6):
        exact_c, exact_nc = float(nu_c_exact(L // 2)), float(nu_nc_exact(L // 2))
        for seed in range(10):
            s = run(MCConfig(L=L, H=100 * L, seed=seed, replicas=8))
            total += 2
            if abs(s.mean_nu_c - exact_c) > 2 * s.stderr_nu_c:
                outside += 1
            if abs(s.mean_nu_nc - exact_nc) > 2 * s.stderr_nu_nc:
                outside += 1
    assert total == 60
    assert outside <= 6


def test_replica_doubling_shrinks_stderr():
    # averaged over seeds, stderr ratio for 16 vs 8 replicas ~ 1/sqrt(2)
    ratios_c, ratios_nc = [], []
    for seed in range(5):
        s8 = run(MCConfig(L=2, H=5000, seed=seed, replicas=8))
        s16 = run(MCConfig(L=2, H=5000, seed=seed, replicas=16))
        ratios_c.append(s16.stderr_nu_c / s8.stderr_nu_c)
        ratios_nc.append(s16.stderr_nu_nc / s8.stderr_nu_nc)
    target = 2**-0.5
    assert abs(sum(ratios_c) / 5 - target) < 0.2 * target
    assert abs(sum(ratios_nc) / 5 - target) < 0.2 * target


def test_stats_json_deterministic():
    cfg = MCConfig(L=2, H=100, seed=3, replicas=2)
    s = run(cfg)
    a = stats_json(s, 0.125, 0.125)
    b = stats_json(run(cfg), 0.125, 0.125)
    assert a == b
    assert '"z_nu_c"' in a


@pytest.mark.slow
def test_throughput_guard():
    cfg = MCConfig(L=4, H=200000, seed=1, replicas=2)
    sample_lattice(cfg, 0)  # warm the static-table cache
    t0 = time.time()
    sample_lattice(cfg, 1)
    rate = cfg.L * cfg.H / (time.time() - t0)
    assert rate >= 1e6, f"throughput regression: {rate:.0f} sites/s"
