"""Monte Carlo estimation of the loop densities on an L x H torus.

Every vertex of the square lattice independently takes one of the two
unit-weight tiles with probability 1/2.  Tiles route the four incident bond
ends pairwise, so the whole configuration decomposes into loops that cover
every bond exactly once.  Both tiles respect the checkerboard orientation of
the medial lattice (the one of the six-vertex mapping, Baxter, Kelland and
Wu 1976): a site with x+y even is entered from W or E and left N or S, a
site with x+y odd is entered from S or N and left E or W.  So every loop
carries one orientation, and the walk needs one state per bond: a site and
which of its two entry sides.  The walk sends each state to the next one
along its loop; it is a permutation whose cycles are the loops, each exactly
once.

The census does not walk every state.  Its steps alternate between
horizontal and vertical, and a loop enters each row it visits by a vertical
step into an x+y odd site.  Every loop visits two adjacent rows, so it meets
S, the states of the x+y odd sites in the even rows: a quarter of all, L*h/2
on a walked height h.  From S the walk is back in S after exactly four
steps (horizontal, vertical, horizontal, vertical), and the census labels the
cycles of that first-return map on S in one C pass (scipy's connected
components).  The exit bits of the four steps give their displacement, so
each cycle's windings are its summed half-displacements over L/2 and h/2,
added with ``np.bincount``; a sum that is not such a multiple is a routing
bug and is refused.  The walk table is certified once per lattice: a
permutation whose steps alternate as above, so no loop can miss S and be
left out of the count.  Each loop is classified by its winding numbers
around the two cycles of the torus:

* vertical winding != 0    -> torus artifact, counted separately and excluded
  from both densities (exponentially rare for H >> L),
* else horizontal winding != 0 -> non-contractible (winds the circumference),
* both zero                -> contractible.

At odd H the checkerboard does not close across the y-seam, so the census
walks the double cover instead: the tiles stacked twice, height 2H.  A loop
of the torus with windings (p, q) lifts to two loops with windings
(p, q/2) if q is even, and to one loop with windings (2p, q) if q is odd.
But every tile pairs a horizontal with a vertical bond end, so a loop makes
as many horizontal as vertical steps, and L*p and H*q have the same parity:
with L even and H odd, q is even.  So every loop, vertical ones included,
lifts to exactly two cycles, and each class count of the cover is halved.

Tile streams come from counter-based Philox generators keyed by
(seed, replica), so every census is bit-identical regardless of scheduling.
Error bars come from replica-to-replica variance, never from per-loop counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ComputationError

# bound on the 2*L*H bonds: the walk states (one per bond, two per bond at
# odd H, where the double cover is walked) are indexed in int32, and this
# keeps them far inside it; the return map whose cycles are labelled has a
# quarter of them
_MAX_BONDS = 1 << 27


class RoutingError(ComputationError, RuntimeError):
    """A census guard failed: the walk table, its return map or a cycle's
    displacement does not route every bond onto exactly one counted loop, so
    the loop counts would be wrong."""


@dataclass(frozen=True)
class MCConfig:
    L: int
    H: int
    seed: int
    replicas: int = 16

    def validate(self):
        if self.L % 2 or self.L < 2:
            raise ValueError(f"L must be even and >= 2, got {self.L}")
        if self.H < 10 * self.L:
            raise ValueError(f"H must be >= 10*L = {10 * self.L}, got {self.H}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        # Philox takes the seed as a 64-bit word: a wider range would alias
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must satisfy -2^63 <= seed < 2^63, got {self.seed}")
        if 2 * self.L * self.H >= _MAX_BONDS:
            raise ValueError(
                f"lattice too large: 2*L*H = {2 * self.L * self.H} must be < 2^27 "
                "for int32 indices of the 2*L*H walk states (4*L*H at odd H), "
                "a quarter of which carry the return map whose cycles are the loops"
            )


@dataclass(frozen=True)
class LoopCensus:
    """Loop counts of one sampled lattice."""

    L: int
    H: int
    replica: int
    n_sites: int
    n_contractible: int
    n_non_contractible: int
    n_vertical_winding: int
    n_loops: int

    @property
    def nu_c(self) -> float:
        return self.n_contractible / self.n_sites

    @property
    def nu_nc(self) -> float:
        return self.n_non_contractible / self.n_sites


@dataclass(frozen=True)
class MCStats:
    L: int
    H: int
    seed: int
    replicas: int
    n_sites: int
    mean_nu_c: float
    mean_nu_nc: float
    stderr_nu_c: float
    stderr_nu_nc: float
    n_vertical_winding: int
    n_loops: int


def _covers(H: int) -> int:
    """Copies of the tiles that the walk stacks: two at odd H, where the
    checkerboard orientation only closes on the double cover."""
    return 1 + H % 2


def _row_pair_targets(L: int) -> np.ndarray:
    """The targets of the 4L states of one row pair (y = 0, then y = 1),
    relative to its first state: exit c of a site steps to y + 1 - 2c (N or S)
    at x+y even, to x + 1 - 2c (E or W, mod L) at x+y odd, and keeps the bit.
    Targets in row -1 or 2 lie in the neighbouring pairs."""
    y = np.arange(2, dtype=np.int32)[:, None, None]
    x = np.arange(L, dtype=np.int32)[None, :, None]
    exit_bit = np.arange(2, dtype=np.int32)
    step = 1 - 2 * exit_bit
    odd = (x + y) % 2
    return (2 * ((y + step * (1 - odd)) * L + (x + step * odd) % L) + exit_bit).reshape(-1)


def _certify(target: np.ndarray, L: int, h: int):
    """Refuse a walk table on which a loop could miss S or its exit bits
    could misstate its displacement.

    Every row pair repeats the targets of the first one, shifted by 4L
    states per pair (mod n), so one pair decides whether the table is a
    permutation: its targets must be distinct mod 4L.  The steps are checked
    on the first and the last row pair, where the mod n wraps the y-seam:
    each keeps its bit, an exit of an x+y odd site enters the x+y even site
    one column over in its row, and an exit of an x+y even site enters the
    x+y odd site one row over, in the direction that the bit gives.  So the
    steps alternate between the two kinds of site, and every loop enters a
    row by a vertical step in S.
    """
    period = 4 * L
    if not np.array_equal(np.sort(target[:period] % period), np.arange(period)):
        raise RoutingError("walk table is not a permutation")
    src = np.r_[:period, target.size - period : target.size].astype(np.int32)
    dst = target[src]
    y, x = np.divmod(src >> 1, L)
    to_y, to_x = np.divmod(dst >> 1, L)
    bit = src & 1
    step = 1 - 2 * bit
    odd = (x + y) % 2 == 1
    stepped = np.where(
        odd,
        (to_y == y) & ((to_x - x - step) % L == 0),
        (to_x == x) & ((to_y - y - step) % h == 0),
    )
    bad = src[~(stepped & ((dst & 1) == bit))]
    if bad.size:
        raise RoutingError(f"walk table breaks the alternation of steps at state {bad[0]}")


@lru_cache(maxsize=8)
def _static_tables(L: int, H: int):
    """Tile-independent walk data for an L x H torus, on its double cover
    (height h = 2H) when H is odd, else h = H.

    Returns ``(starts, target)``.  A state is s = 2*site + b on the walked
    lattice, site = y*L + x, with entry bit b: from W (0) or E (1) at x+y
    even, from S (0) or N (1) at x+y odd.  ``target[2*site + c]`` is the
    state entered on leaving the site by exit c: N (0) or S (1) at x+y even,
    E (0) or W (1) at x+y odd.  Each tile t sends entry bit b to exit b ^ t
    (tile 0 pairs (W,N)(S,E), tile 1 pairs (W,S)(N,E)), and the bit is kept
    across the bond, so the successor of s is ``target[s ^ t]``.  The table
    is certified once here (see ``_certify``).

    ``starts`` lists S, the L*h/2 states of the x+y odd sites in the even
    rows (x odd), in increasing order: state 4*(L*y/2 + k) + 2 + b for x =
    2k + 1 is S state L*y/2 + 2k + b.  Both are int32 and read-only, shared
    by every replica.
    """
    h = _covers(H) * H  # even, so the rows come in (even y, odd y) pairs
    n = 2 * L * h
    # every row pair repeats the targets of the first, and the mod n wraps
    # the y-seam
    pairs = np.arange(0, n, 4 * L, dtype=np.int32)[:, None]
    target = (pairs + _row_pair_targets(L)).reshape(-1) % n
    _certify(target, L, h)
    # S in each pair: x = 2k + 1 in its even row, both entry bits
    in_pair = 4 * np.arange(L // 2, dtype=np.int32)[:, None] + 2 + np.arange(2, dtype=np.int32)
    starts = (pairs + in_pair.reshape(-1)).reshape(-1)
    for a in (starts, target):  # cached and shared by every replica
        a.flags.writeable = False
    return starts, target


def _sample_tiles(cfg: MCConfig, replica_index: int) -> np.ndarray:
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, replica_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(cfg.H, cfg.L), dtype=np.int8)


def walk_tables(cfg: MCConfig, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first-return map on S for one tile configuration (on the double
    cover at odd H), and the half-displacement of each of its steps.

    From S the walk makes a horizontal, a vertical, a horizontal and a
    vertical step, and is back in S.  Returns ``(ret, hx, hy)`` over the
    L*h/2 states of S: ``ret[i]`` is the S index of the state four steps
    after S state i, and with c1 .. c4 the exit bits of the four steps
    (E or N for 0, W or S for 1), the steps move by 2*hx = 2*(1 - c1 - c3)
    columns and 2*hy = 2*(1 - c2 - c4) rows.
    """
    starts, target = _static_tables(cfg.L, cfg.H)
    t = np.tile(tiles.reshape(-1), _covers(cfg.H))
    s = starts
    bits = []
    for _ in range(4):  # np.take: the fast gather for flat int indices
        s = np.take(target, s ^ np.take(t, s >> 1))
        bits.append(s & 1)  # the table keeps the exit bit
    c1, c2, c3, c4 = bits
    # S state 4*(L*p + k) + 2 + b of row pair p has S index L*p + 2k + b
    ret = 2 * (s >> 2) + (s & 1) - cfg.L * (s // (4 * cfg.L))
    # the walk is a permutation, so the return map must be one on S
    hit = np.zeros(ret.size, dtype=bool)
    hit[ret] = True
    if not (hit.all() and np.array_equal(np.take(starts, ret), s)):
        raise RoutingError("first-return map is not a permutation of S")
    return ret, 1 - c1 - c3, 1 - c2 - c4


def _loop_counts(cfg: MCConfig, tiles: np.ndarray) -> tuple[int, int, int, int]:
    """(contractible, non-contractible, vertically winding, all) loop counts.

    Every loop meets S, and its steps from S to S are one cycle of the return
    map ``walk_tables(cfg, tiles)``: the cycles are the loops, or at odd H
    their lifts to the double cover.  They are labelled as the connected
    components of the graph i -> ret[i], each one cycle as ret is a
    permutation (weak components take less time than strong ones and are
    the same here).  A cycle's half-displacements add up to L/2 times its
    horizontal winding and h/2 times its vertical one; a sum that is not
    such a multiple is refused.  At odd H every loop has two lifts (see the
    module docstring), so each class count must be even and is halved.
    """
    # imported here, not at module level, so that `import loopdens` stays light
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ret, hx, hy = walk_tables(cfg, tiles)
    m = ret.size
    graph = csr_matrix((np.ones(m), ret, np.arange(m + 1, dtype=np.int32)), shape=(m, m))
    n_cycles, labels = connected_components(graph, directed=True, connection="weak")
    covers = _covers(cfg.H)

    def winds(half_steps, period, axis):
        total = np.bincount(labels, weights=half_steps, minlength=n_cycles)
        if np.any(total % period):
            raise RoutingError(f"a cycle's {axis} displacement is not a multiple of the torus (routing bug)")
        return total != 0

    windx = winds(hx, cfg.L // 2, "horizontal")
    vertical = winds(hy, covers * cfg.H // 2, "vertical")
    n_vert = int(np.count_nonzero(vertical))
    n_nc = int(np.count_nonzero(~vertical & windx))
    lifts = (n_cycles - n_vert - n_nc, n_nc, n_vert)
    if any(c % covers for c in lifts):
        raise RoutingError(f"lifts to the double cover do not pair (routing bug): {lifts}")
    counts = tuple(c // covers for c in lifts)
    return (*counts, sum(counts))


def sample_lattice(cfg: MCConfig, replica_index: int) -> LoopCensus:
    """Sample one replica's tile array and classify every loop exactly once.

    The certified walk table guarantees that every bond lies on exactly one
    loop and that every loop meets S, so each loop is exactly one cycle of
    the return map (at odd H, two cycles of the double cover).
    """
    cfg.validate()
    n_c, n_nc, n_vert, n_loops = _loop_counts(cfg, _sample_tiles(cfg, replica_index))
    return LoopCensus(
        L=cfg.L,
        H=cfg.H,
        replica=replica_index,
        n_sites=cfg.L * cfg.H,
        n_contractible=n_c,
        n_non_contractible=n_nc,
        n_vertical_winding=n_vert,
        n_loops=n_loops,
    )


def _pooled(values: list[float]):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, (var / n) ** 0.5


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(cfg: MCConfig, workers: int = 1) -> MCStats:
    """Run all replicas (optionally in parallel processes) and pool statistics.

    The pool never holds more processes than there are replicas or usable
    CPUs: under fork every one of them starts up front.  The merge is
    replica-ordered, so the result is bit-identical for any worker count.
    Needs at least two replicas, since the stderr is pooled over them, and at
    least one worker.
    """
    cfg.validate()
    if cfg.replicas < 2:
        raise ValueError(f"run needs >= 2 replicas for a stderr, got {cfg.replicas}")
    if workers < 1:
        raise ValueError(f"run needs >= 1 worker, got {workers}")
    workers = min(workers, cfg.replicas, _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            censuses = list(pool.map(sample_lattice, [cfg] * cfg.replicas, range(cfg.replicas)))
    else:
        censuses = [sample_lattice(cfg, r) for r in range(cfg.replicas)]
    mean_c, err_c = _pooled([c.nu_c for c in censuses])
    mean_nc, err_nc = _pooled([c.nu_nc for c in censuses])
    return MCStats(
        L=cfg.L,
        H=cfg.H,
        seed=cfg.seed,
        replicas=cfg.replicas,
        n_sites=cfg.L * cfg.H,
        mean_nu_c=mean_c,
        mean_nu_nc=mean_nc,
        stderr_nu_c=err_c,
        stderr_nu_nc=err_nc,
        n_vertical_winding=sum(c.n_vertical_winding for c in censuses),
        n_loops=sum(c.n_loops for c in censuses),
    )


def _z_score(mean: float, stderr: float, target: float) -> float | None:
    """(mean - target) / stderr, or None when the replica stderr is not
    positive (every replica agrees, or there is only one)."""
    if not stderr > 0:
        return None
    return (mean - target) / stderr


def stats_payload(stats: MCStats, nu_c_target: float, nu_nc_target: float) -> dict:
    """JSON-ready summary with z-scores against exact targets (null when the
    replica stderr is 0, so no z-score is defined)."""
    return {
        "L": stats.L,
        "H": stats.H,
        "seed": stats.seed,
        "replicas": stats.replicas,
        "n_sites_per_replica": stats.n_sites,
        "mean_nu_c": stats.mean_nu_c,
        "mean_nu_nc": stats.mean_nu_nc,
        "stderr_nu_c": stats.stderr_nu_c,
        "stderr_nu_nc": stats.stderr_nu_nc,
        "target_nu_c": nu_c_target,
        "target_nu_nc": nu_nc_target,
        "z_nu_c": _z_score(stats.mean_nu_c, stats.stderr_nu_c, nu_c_target),
        "z_nu_nc": _z_score(stats.mean_nu_nc, stats.stderr_nu_nc, nu_nc_target),
        "n_vertical_winding": stats.n_vertical_winding,
        "n_loops": stats.n_loops,
    }
