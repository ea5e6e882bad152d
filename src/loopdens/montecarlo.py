"""Monte Carlo estimation of the loop densities on an L x H torus.

Every vertex of the square lattice independently takes one of the two
unit-weight tiles with probability 1/2.  Tiles route the four incident bond
ends pairwise, so the whole configuration decomposes into loops that cover
every bond exactly once.  Both tiles respect the checkerboard orientation of
the medial lattice (the one of the six-vertex mapping, Baxter, Kelland and
Wu 1976): a site with x+y even is entered from W or E and left N or S, a
site with x+y odd is entered from S or N and left E or W.  So every loop
carries one orientation, and the walk needs one state per bond: a site and
which of its two entry sides.  The walk table sends each state to the next
one along its loop; it is a permutation whose cycles are the loops, each
exactly once.  The census labels those cycles in one C pass (scipy's
strongly connected components) and counts each cycle's signed seam
crossings with ``np.bincount``.  Each loop is classified by its winding
numbers around the two cycles of the torus:

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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# bound on the 2*L*H bonds: the walk states (one per bond, two per bond at
# odd H, where the double cover is walked) are indexed in int32, which the
# cycle labelling needs, and this keeps them far inside it
_MAX_BONDS = 1 << 27


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
        if 2 * self.L * self.H >= _MAX_BONDS:
            raise ValueError(
                f"lattice too large: 2*L*H = {2 * self.L * self.H} must be < 2^27 "
                "for int32 indices of the 2*L*H walk states (4*L*H at odd H)"
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


@lru_cache(maxsize=8)
def _static_tables(L: int, H: int):
    """Tile-independent walk data for an L x H torus, on its double cover
    (height 2H) when H is odd.

    Returns ``(ids, target, x_seam, y_seam)``.  A state is s = 2*site + b on
    the walked lattice, site = y*L + x, with entry bit b: from W (0) or E (1)
    at x+y even, from S (0) or N (1) at x+y odd.  ``target[2*site + c]`` is
    the state entered on leaving the site by exit c: N (0) or S (1) at x+y
    even, E (0) or W (1) at x+y odd.  Each tile t sends entry bit b to exit
    b ^ t (tile 0 pairs (W,N)(S,E), tile 1 pairs (W,S)(N,E)), and the bit is
    kept across the bond, so the successor of s is ``target[s ^ t]``.
    ``ids`` is range(n + 1) over the n states, int32: its first n entries
    index the states, one row per copy of the tiles, and all n + 1 are the
    row pointers of the one-edge-per-state graph.

    ``x_seam`` and ``y_seam`` are (forward, backward) pairs of the states
    that a step enters by crossing that seam, forwards (+1) or backwards
    (-1).  The orientation fixes each bond's direction: the x-seam is
    crossed eastwards into column 0 at even y and westwards into column L-1
    at odd y, the y-seam northwards into row 0 at odd x and southwards into
    the top row at even x.  So the crossings do not depend on the tiles, and
    the winding numbers of a loop are its signed seam crossings.
    """
    h = _covers(H) * H  # even, so the rows come in (even y, odd y) pairs
    n = 2 * L * h
    y = np.arange(2, dtype=np.int32)[:, None, None]
    x = np.arange(L, dtype=np.int32)[None, :, None]
    exit_bit = np.arange(2, dtype=np.int32)
    step = 1 - 2 * exit_bit  # exit 0 steps up in y or x, exit 1 down
    odd = (x + y) % 2
    # targets of one row pair, relative to its first state; every pair
    # repeats them, and the mod n wraps the y-seam
    pair = 2 * ((y + step * (1 - odd)) * L + (x + step * odd) % L) + exit_bit
    target = (np.arange(0, n, 4 * L, dtype=np.int32)[:, None] + pair.reshape(-1)).reshape(-1) % n
    ids = np.arange(n + 1, dtype=np.int32)
    ys = np.arange(0, h, 2, dtype=np.int32)
    xs = np.arange(0, L, 2, dtype=np.int32)
    x_seam = (2 * L * ys, 2 * (L * (ys + 1) + L - 1) + 1)
    y_seam = (2 * (xs + 1), 2 * (L * (h - 1) + xs) + 1)
    for a in (ids, target, *x_seam, *y_seam):  # cached and shared by every replica
        a.flags.writeable = False
    return ids, target, x_seam, y_seam


def _sample_tiles(cfg: MCConfig, replica_index: int) -> np.ndarray:
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, replica_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(cfg.H, cfg.L), dtype=np.int8)


def walk_tables(cfg: MCConfig, tiles: np.ndarray) -> np.ndarray:
    """The int32 successor of every oriented state for one tile configuration,
    on the double cover at odd H."""
    ids, target, _, _ = _static_tables(cfg.L, cfg.H)
    states = ids[:-1].reshape(_covers(cfg.H), -1)
    nxt = target[states ^ np.repeat(tiles.reshape(-1), 2)].reshape(-1)
    # the state map must be a permutation or the cycles are not loops
    hit = np.zeros(nxt.size, dtype=bool)
    hit[nxt] = True
    if not hit.all():
        raise AssertionError("walk table is not a permutation (routing bug)")
    return nxt


def _loop_counts(cfg: MCConfig, tiles: np.ndarray) -> tuple[int, int, int, int]:
    """(contractible, non-contractible, vertically winding, all) loop counts.

    The cycles of the permutation ``walk_tables(cfg, tiles)`` are the loops,
    or at odd H their lifts to the double cover.  They are labelled as the
    strongly connected components of the graph s -> nxt[s], and each label's
    windings are its forward minus its backward seam crossings.  At odd H
    every loop has two lifts (see the module docstring), so each class count
    must be even and is halved.
    """
    # imported here, not at module level, so that `import loopdens` stays light
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    nxt = walk_tables(cfg, tiles)
    ids, _, x_seam, y_seam = _static_tables(cfg.L, cfg.H)
    n = nxt.size
    graph = csr_matrix((np.ones(n), nxt, ids), shape=(n, n))
    n_cycles, labels = connected_components(graph, directed=True, connection="strong")

    def crossings(states):
        return np.bincount(labels[states], minlength=n_cycles)

    windx = crossings(x_seam[0]) - crossings(x_seam[1])
    windy = crossings(y_seam[0]) - crossings(y_seam[1])
    vertical = windy != 0
    n_vert = int(np.count_nonzero(vertical))
    n_nc = int(np.count_nonzero(~vertical & (windx != 0)))
    lifts = (n_cycles - n_vert - n_nc, n_nc, n_vert)
    covers = _covers(cfg.H)
    if any(c % covers for c in lifts):
        raise AssertionError(f"lifts to the double cover do not pair (routing bug): {lifts}")
    counts = tuple(c // covers for c in lifts)
    return (*counts, sum(counts))


def sample_lattice(cfg: MCConfig, replica_index: int) -> LoopCensus:
    """Sample one replica's tile array and classify every loop exactly once.

    The permutation property of the walk table guarantees every bond lies on
    exactly one loop, and every loop on exactly one cycle (at odd H, on two
    cycles of the double cover).
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


def run(cfg: MCConfig, workers: int = 1) -> MCStats:
    """Run all replicas (optionally in parallel processes) and pool statistics.

    The merge is replica-ordered, so the result is bit-identical for any
    worker count.  Needs at least two replicas: the stderr is pooled over them.
    """
    cfg.validate()
    if cfg.replicas < 2:
        raise ValueError(f"run needs >= 2 replicas for a stderr, got {cfg.replicas}")
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
