"""Monte Carlo sampler: determinism, tracing invariants and statistics."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopdens.closed_form import nu_c_exact, nu_nc_exact
from loopdens import montecarlo
from loopdens.montecarlo import (
    MCConfig,
    RoutingError,
    _loop_counts,
    _sample_tiles,
    run,
    sample_lattice,
    stats_payload,
    walk_tables,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


def reference_walk_tables(L, H, tiles):
    """(next, packed seam crossings, mirror) flat lists: the walk tables of
    the arc-following tracer that the cycle census replaced.  The crossing of
    each step is booked on the state it leaves, packed as (wy << 28) + wx."""
    exit_side = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    exit_dx = np.array([0, 0, 1, -1])
    exit_dy = np.array([1, -1, 0, 0])
    exit_entry = np.array([2, 3, 0, 1])
    d = np.arange(4)[None, None, :]
    x = np.arange(L)[None, :, None]
    y = np.arange(H)[:, None, None]
    per_tile = []
    for tile in (0, 1):
        e = exit_side[tile][d]
        dx, dy = exit_dx[e], exit_dy[e]
        nxt = 4 * (((y + dy) % H) * L + (x + dx) % L) + exit_entry[e]
        wx = ((dx == 1) & (x == L - 1)).astype(np.int64) - ((dx == -1) & (x == 0))
        wy = ((dy == 1) & (y == H - 1)).astype(np.int64) - ((dy == -1) & (y == 0))
        per_tile.append((nxt.reshape(-1), ((wy << 28) + wx).reshape(-1)))
    ex = np.array([-1, 1, 0, 0])[d]
    ey = np.array([0, 0, -1, 1])[d]
    opp = np.array([1, 0, 3, 2])[d]
    mirror = (4 * (((y + ey) % H) * L + (x + ex) % L) + opp).reshape(-1)
    cond = np.repeat(np.asarray(tiles).reshape(-1) == 0, 4)
    nxt = np.where(cond, per_tile[0][0], per_tile[1][0])
    ww = np.where(cond, per_tile[0][1], per_tile[1][1])
    return nxt.tolist(), ww.tolist(), mirror.tolist()


def seam_tracer_counts(L, H, tiles):
    """Reference census: follow each loop once, marking both orientations of
    every traversed edge, and classify it by its summed seam crossings.
    Returns (contractible, non-contractible, vertically winding, all)."""
    nxt, ww, mirror = reference_walk_tables(L, H, tiles)
    visited = bytearray(len(nxt))
    n_c = n_nc = n_vert = n_loops = 0
    half = 1 << 27
    for seed_state in range(len(nxt)):
        if visited[seed_state]:
            continue
        cur = seed_state
        acc = 0
        while True:
            visited[cur] = 1
            visited[mirror[cur]] = 1
            acc += ww[cur]
            cur = nxt[cur]
            if cur == seed_state:
                break
        windy = (acc + half) >> 28
        windx = acc - (windy << 28)
        n_loops += 1
        if windy != 0:
            n_vert += 1
        elif windx != 0:
            n_nc += 1
        else:
            n_c += 1
    return n_c, n_nc, n_vert, n_loops


def crafted_tiles(H, L):
    """Tile arrays with long straight or diagonal loops: all-0 and all-1
    (diagonals that wind vertically), checkerboard, row and column stripes."""
    y, x = np.mgrid[0:H, 0:L]
    arrays = {
        "all-0": np.zeros((H, L)),
        "all-1": np.ones((H, L)),
        "checkerboard": (x + y) % 2,
        "row stripes": y % 2,
        "column stripes": x % 2,
    }
    return {name: a.astype(np.int8) for name, a in arrays.items()}


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


@pytest.mark.parametrize(
    "workers, replicas, cpus, pool_size",
    [(5000, 2, 64, 2), (5000, 8, 3, 3), (2, 8, 64, 2), (5000, 4, 1, None), (1, 4, 64, None)],
)
def test_worker_pool_is_bounded_by_replicas_and_cpus(
    monkeypatch, serial_pool, workers, replicas, cpus, pool_size
):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cfg = MCConfig(L=2, H=100, seed=4, replicas=replicas)
    stats = run(cfg, workers=workers)
    assert serial_pool == ([] if pool_size is None else [pool_size])
    assert stats == run(cfg)


def test_usable_cpus_is_positive_and_at_most_the_cpu_count():
    assert 1 <= montecarlo._usable_cpus() <= (os.cpu_count() or 1)


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


def oriented_half(L, H):
    """The old four-state index (4*site + entry, entry W, E, S, N) of every
    oriented state 2*site + b: W or E at x+y even, S or N at x+y odd."""
    y, x = np.divmod(np.arange(L * H), L)
    return (4 * np.arange(L * H) + 2 * ((x + y) % 2))[:, None] + np.arange(2)


def test_walk_table_is_permutation():
    # the return map is a permutation of S and is four steps of the walk, at
    # odd H on the double cover: the tiles stacked twice
    L = 4
    for H in (60, 61):
        cfg = MCConfig(L=L, H=H, seed=2, replicas=1)
        tiles = _sample_tiles(cfg, 0)
        ret, hx, hy = walk_tables(cfg, tiles)
        h = (1 + H % 2) * H
        assert ret.dtype == np.int32
        assert sorted(ret.tolist()) == list(range(L * h // 2))
        old_nxt = np.array(reference_walk_tables(L, h, np.tile(tiles, (h // H, 1)))[0])
        embed = oriented_half(L, h).reshape(-1)
        starts, _ = montecarlo._static_tables(L, H)
        state = embed[starts]
        dx = dy = 0
        for _ in range(4):
            step = old_nxt[state]
            # the old index is 4*site + entry; a step moves one site, mod L or h
            y0, x0 = np.divmod(state // 4, L)
            y1, x1 = np.divmod(step // 4, L)
            dx = dx + (x1 - x0 + 1) % L - 1
            dy = dy + (y1 - y0 + 1) % h - 1
            state = step
        assert (state == embed[starts[ret]]).all()
        assert (dx == 2 * hx).all() and (dy == 2 * hy).all()


@pytest.fixture
def fresh_static_tables():
    """Clear the cache of the certified walk tables before and after, so a
    patched template is certified and no table built from it stays cached."""
    clear = montecarlo._static_tables.cache_clear  # a test may patch _static_tables
    clear()
    yield
    clear()


def tiled(template, L, h):
    """The walk table that repeats one row pair's template over h rows."""
    n = 2 * L * h
    return (np.arange(0, n, 4 * L)[:, None] + template).reshape(-1) % n


def test_certified_table_is_the_tiled_template():
    for L, H in ((2, 20), (4, 21), (6, 1)):
        h = (1 + H % 2) * H
        _, target = montecarlo._static_tables(L, H)
        assert (target == tiled(montecarlo._row_pair_targets(L), L, h)).all()
        assert sorted(target.tolist()) == list(range(2 * L * h))


HEIGHTS = {"10L": lambda L: 10 * L, "10L+1": lambda L: 10 * L + 1, "100L+1": lambda L: 100 * L + 1}


@pytest.mark.parametrize("L", [2, 4, 6, 8])
@pytest.mark.parametrize("height", sorted(HEIGHTS))
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_cycle_census_matches_seam_tracer(L, height, seed):
    H = HEIGHTS[height](L)
    cfg = MCConfig(L=L, H=H, seed=seed, replicas=1)
    tiles = _sample_tiles(cfg, 0)
    assert _loop_counts(cfg, tiles) == seam_tracer_counts(L, H, tiles)


@pytest.mark.parametrize("L", [2, 4, 6, 8])
@pytest.mark.parametrize("odd", [0, 3])
def test_cycle_census_matches_seam_tracer_on_crafted_tiles(L, odd):
    H = 10 * L + odd
    cfg = MCConfig(L=L, H=H, seed=0, replicas=1)
    n_vert = n_nc = 0
    for name, tiles in crafted_tiles(H, L).items():
        counts = _loop_counts(cfg, tiles)
        assert counts == seam_tracer_counts(L, H, tiles), name
        n_nc += counts[1]
        n_vert += counts[2]
    assert n_vert > 0 and n_nc > 0


def test_census_refuses_a_table_that_is_not_a_permutation(monkeypatch, fresh_static_tables):
    cfg = MCConfig(L=2, H=20, seed=0, replicas=1)
    starts, target = montecarlo._static_tables(2, 20)
    # the per-replica check, on a table that skipped the certificate
    broken = target.copy()
    broken[41] = broken[42]
    monkeypatch.setattr(montecarlo, "_static_tables", lambda L, H: (starts, broken))
    with pytest.raises(RoutingError, match="not a permutation of S"):
        _loop_counts(cfg, _sample_tiles(cfg, 0))
    monkeypatch.undo()
    # the certificate, on a template that sends two states to one
    template = montecarlo._row_pair_targets(2).copy()
    template[1] = template[2]
    monkeypatch.setattr(montecarlo, "_row_pair_targets", lambda L: template)
    montecarlo._static_tables.cache_clear()
    with pytest.raises(RoutingError, match="walk table is not a permutation"):
        _loop_counts(cfg, _sample_tiles(cfg, 0))


def test_certificate_refuses_a_permutation_whose_cycles_miss_s(monkeypatch, fresh_static_tables):
    # In the L = 4 template, state 0 (x = 0, y = 0, exit N) enters state 8
    # (x = 0, y = 1, from S), which steps E into state 10.  Swapping their
    # targets keeps the table a permutation, but makes state 8 of every row
    # pair a cycle of its own under all-0 tiles: a loop in an odd row that
    # never meets S, which the return map would leave out of the count.
    L, H = 4, 40
    template = montecarlo._row_pair_targets(L).copy()
    assert (template[0], template[8]) == (8, 10)
    template[[0, 8]] = template[[8, 0]]
    table = tiled(template, L, H)
    assert sorted(table.tolist()) == list(range(2 * L * H))
    starts, _ = montecarlo._static_tables(L, H)
    missed = np.arange(8, table.size, 4 * L)
    assert (table[missed] == missed).all() and not np.isin(missed, starts).any()
    monkeypatch.setattr(montecarlo, "_row_pair_targets", lambda L: template)
    montecarlo._static_tables.cache_clear()
    with pytest.raises(RoutingError, match="breaks the alternation of steps at state 0"):
        montecarlo._static_tables(L, H)


@pytest.mark.parametrize("L, axis", [(4, "horizontal"), (2, "vertical")])
def test_census_refuses_displacements_that_do_not_close(monkeypatch, L, axis):
    # the identity table makes every S state its own cycle, whose one step of
    # half-displacement (1, 1) or (-1, -1) is no multiple of L/2 = 2 (L = 4),
    # nor of h/2 = 20 (L = 2, where L/2 = 1 divides every x displacement)
    cfg = MCConfig(L=L, H=40, seed=0, replicas=1)
    starts, target = montecarlo._static_tables(L, 40)
    identity = np.arange(target.size, dtype=np.int32)
    monkeypatch.setattr(montecarlo, "_static_tables", lambda L, H: (starts, identity))
    with pytest.raises(RoutingError, match=f"{axis} displacement"):
        _loop_counts(cfg, np.zeros((40, L), dtype=np.int8))


def cycle_labels(ret):
    """The cycle of every S index under the return map, numbered in order of
    their smallest index."""
    labels = np.full(ret.size, -1)
    count = 0
    for i in range(ret.size):
        while labels[i] < 0:
            labels[i] = count
            i = ret[i]
        count += labels[i] == count
    return labels


def test_census_refuses_cycles_that_do_not_pair(monkeypatch):
    # At H = 21 the census walks the 4 x 42 double cover, where every loop
    # has two lifts.  Swapping the targets of the last steps of two S states
    # on different cycles with equal windings (and equal bits, which the
    # table keeps) joins the cycles into one of the same class, and leaves
    # that class with an odd number of lifts.
    L, H = 4, 21
    cfg = MCConfig(L=L, H=H, seed=0, replicas=1)
    starts, target = montecarlo._static_tables(L, H)
    tiles = crafted_tiles(H, L)
    for name, counts, windings in [
        ("checkerboard", (40, 1, 0, 41), (0, 0)),
        ("column stripes", (0, 21, 0, 21), (1, 0)),
    ]:
        assert _loop_counts(cfg, tiles[name]) == counts
        ret, hx, hy = walk_tables(cfg, tiles[name])
        labels = cycle_labels(ret)
        wx = np.bincount(labels, hx) // (L // 2)
        wy = np.bincount(labels, hy) // H
        joinable = [i for i in range(ret.size) if (wx[labels[i]], wy[labels[i]]) == windings]
        u = joinable[0]
        # the parity of an S index is its state's bit
        v = next(i for i in joinable if labels[i] != labels[u] and ret[i] % 2 == ret[u] % 2)
        a, b = (int(np.flatnonzero(target == starts[ret[i]])[0]) for i in (u, v))
        table = target.copy()
        table[[a, b]] = table[[b, a]]
        monkeypatch.setattr(montecarlo, "_static_tables", lambda L, H: (starts, table))
        with pytest.raises(RoutingError, match="do not pair"):
            _loop_counts(cfg, tiles[name])
        monkeypatch.undo()


@st.composite
def small_tori(draw):
    # odd H up to 31 as well: the census walks their double cover, and the
    # windings are its summed half-steps over L/2 and H
    L = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    H = draw(st.integers(min_value=1, max_value=15) | st.integers(min_value=8, max_value=15).map(lambda k: 2 * k + 1))
    return L, H, draw(st.lists(st.integers(0, 1), min_size=L * H, max_size=L * H))


# L = 4, H = 3: three contractible loops and one with windings (-1, -2),
# whose two lifts to the double cover each wind (-1, -1)
EVEN_Q_AT_ODD_H = (4, 3, [0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0])


def test_pinned_torus_has_a_vertical_loop_with_even_q():
    L, H, bits = EVEN_Q_AT_ODD_H
    loops, _ = reference_trace(L, H, np.reshape(bits, (H, L)).tolist())
    assert sorted(loops) == [(-1, -2), (0, 0), (0, 0), (0, 0)]


@settings(max_examples=100, deadline=None)
@given(torus=small_tori())
def test_windings_have_the_parity_of_alternating_steps(torus):
    # each tile pairs a horizontal with a vertical bond end, so a loop makes
    # as many steps in x as in y: L*p = H*q (mod 2), and q is even at odd H,
    # which is why every loop has two lifts to the double cover
    L, H, bits = torus
    loops, _ = reference_trace(L, H, np.reshape(bits, (H, L)).tolist())
    assert all((L * p + H * q) % 2 == 0 for p, q in loops)


@settings(max_examples=200, deadline=None)
@example(torus=EVEN_Q_AT_ODD_H)
@example(torus=(12, 31, [0] * 12 * 31))
@example(torus=(10, 29, [1] * 10 * 29))
@given(torus=small_tori())
def test_cycle_census_matches_seam_tracer_on_small_tori(torus):
    # _loop_counts directly: MCConfig.validate would refuse H < 10 L
    L, H, bits = torus
    tiles = np.array(bits, dtype=np.int8).reshape(H, L)
    assert _loop_counts(MCConfig(L=L, H=H, seed=0), tiles) == seam_tracer_counts(L, H, tiles)


def test_import_leaves_scipy_out():
    # scipy is imported by the first census, not by the package, the exact
    # oracle or the six-vertex check
    code = (
        "import sys, loopdens, loopdens.cli; print('scipy' in sys.modules); "
        "from loopdens.transfer_oracle import oracle_densities, sixvertex_check; "
        "oracle_densities(4); sixvertex_check(4); print('scipy' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


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
    a = json.dumps(stats_payload(s, 0.125, 0.125), indent=2, sort_keys=True)
    b = json.dumps(stats_payload(run(cfg), 0.125, 0.125), indent=2, sort_keys=True)
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
