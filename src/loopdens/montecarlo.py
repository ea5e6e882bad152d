"""Monte Carlo estimation of the loop densities on an L x H torus.

Every vertex of the square lattice independently takes one of the two
unit-weight tiles with probability 1/2.  Tiles route the four incident bond
ends pairwise, so the whole configuration decomposes into loops that cover
every bond exactly once.  The walk table sends each directed state (a site
and the side it is entered from) to the next one along its loop; it is a
permutation whose cycles are the loops, each once per orientation.  The
census labels those cycles in one C pass (scipy's strongly connected
components), sums each cycle's signed seam crossings with ``np.bincount``
and halves the class counts.  Each loop is classified by its winding numbers
around the two cycles of the torus:

* vertical winding != 0    -> torus artifact, counted separately and excluded
  from both densities (exponentially rare for H >> L),
* else horizontal winding != 0 -> non-contractible (winds the circumference),
* both zero                -> contractible.

Tile streams come from counter-based Philox generators keyed by
(seed, replica), so every census is bit-identical regardless of scheduling.
Error bars come from replica-to-replica variance, never from per-loop counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# directed walker state at a site: entry side 0 = from west (moving E),
# 1 = from east, 2 = from south (moving N), 3 = from north.
# exit sides encoded N=0, S=1, E=2, W=3.
# tile 0 pairs (W,N)(S,E); tile 1 pairs (W,S)(N,E).
_EXIT_SIDE = np.array([[0, 1, 2, 3], [1, 0, 3, 2]], dtype=np.int32)
_EXIT_DX = np.array([0, 0, 1, -1], dtype=np.int32)
_EXIT_DY = np.array([1, -1, 0, 0], dtype=np.int32)
_EXIT_ENTRY = np.array([2, 3, 0, 1], dtype=np.int32)

# bound on the 2*L*H bonds: the 4*L*H directed states are indexed in int32,
# which the cycle labelling needs, and this keeps them far inside it
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
                "for int32 state indices"
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


@lru_cache(maxsize=8)
def _static_tables(L: int, H: int):
    """Tile-independent routing data for an L x H torus.

    Returns ``(succ, seam_states, seam_dx, seam_dy)``.  ``succ[tile]`` is the
    int32 successor of every state s = 4*(y*L + x) + entry under that tile
    type.  The seam arrays list the states a walk enters by crossing a seam,
    with the signed crossing in x and in y (int8): entering column 0 from the
    west crosses the seam between x = L-1 and 0 eastwards, entering column
    L-1 from the east crosses it westwards, and likewise for rows 0 and H-1.
    So the crossings belong to the entered state and do not depend on the
    tiles.  Winding numbers equal the signed seam crossings of a loop.
    """
    d = np.arange(4, dtype=np.int32)[None, None, :]
    x = np.arange(L, dtype=np.int32)[None, :, None]
    y = np.arange(H, dtype=np.int32)[:, None, None]
    succ = np.empty((2, 4 * L * H), dtype=np.int32)
    for tile in (0, 1):
        e = _EXIT_SIDE[tile][d]
        site = ((y + _EXIT_DY[e]) % H) * L + (x + _EXIT_DX[e]) % L
        succ[tile] = (4 * site + _EXIT_ENTRY[e]).reshape(-1)
    xs, ys = x.reshape(-1), y.reshape(-1)
    seam_states = np.concatenate(
        [4 * L * ys, 4 * (L * ys + L - 1) + 1, 4 * xs + 2, 4 * (L * (H - 1) + xs) + 3]
    )
    sizes = [H, H, L, L]
    seam_dx = np.repeat(np.array([1, -1, 0, 0], dtype=np.int8), sizes)
    seam_dy = np.repeat(np.array([0, 0, 1, -1], dtype=np.int8), sizes)
    tables = (succ, seam_states, seam_dx, seam_dy)
    for a in tables:  # cached and shared by every replica
        a.flags.writeable = False
    return tables


def _sample_tiles(cfg: MCConfig, replica_index: int) -> np.ndarray:
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, replica_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(cfg.H, cfg.L), dtype=np.int8)


def walk_tables(cfg: MCConfig, tiles: np.ndarray) -> np.ndarray:
    """The int32 successor of every directed state for one tile configuration."""
    succ = _static_tables(cfg.L, cfg.H)[0]
    nxt = np.where(np.repeat(tiles.reshape(-1) == 0, 4), succ[0], succ[1])
    # the directed-edge map must be a permutation or the cycles are not loops
    hit = np.zeros(nxt.size, dtype=bool)
    hit[nxt] = True
    if not hit.all():
        raise AssertionError("walk table is not a permutation (routing bug)")
    return nxt


def _loop_counts(cfg: MCConfig, tiles: np.ndarray) -> tuple[int, int, int, int]:
    """(contractible, non-contractible, vertically winding, all) loop counts.

    The cycles of the permutation ``walk_tables(cfg, tiles)`` are the directed
    loops: every loop is two cycles, one per orientation, with opposite
    windings.  They are labelled as the strongly connected components of the
    graph s -> nxt[s], their seam crossings are summed per label, and each
    class count is halved.
    """
    # imported here, not at module level, so that `import loopdens` stays light
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    nxt = walk_tables(cfg, tiles)
    _, seam_states, seam_dx, seam_dy = _static_tables(cfg.L, cfg.H)
    n = nxt.size
    indptr = np.arange(n + 1, dtype=np.int32)
    graph = csr_matrix((np.ones(n, dtype=np.int8), nxt, indptr), shape=(n, n))
    n_cycles, labels = connected_components(graph, directed=True, connection="strong")
    seam_labels = labels[seam_states]
    windx = np.bincount(seam_labels, weights=seam_dx, minlength=n_cycles)
    windy = np.bincount(seam_labels, weights=seam_dy, minlength=n_cycles)
    vertical = windy != 0
    n_vert = int(np.count_nonzero(vertical))
    n_nc = int(np.count_nonzero(~vertical & (windx != 0)))
    counts = (n_cycles - n_vert - n_nc, n_nc, n_vert, n_cycles)
    if any(c % 2 for c in counts):
        raise AssertionError(f"directed cycles do not pair into loops (routing bug): {counts}")
    return tuple(c // 2 for c in counts)


def sample_lattice(cfg: MCConfig, replica_index: int) -> LoopCensus:
    """Sample one replica's tile array and classify every loop exactly once.

    The permutation property of the walk table guarantees every bond lies on
    exactly one loop, and every loop on exactly two directed cycles.
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
