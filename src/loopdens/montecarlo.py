"""Monte Carlo estimation of the loop densities on an L x H torus.

Every vertex of the square lattice independently takes one of the two
unit-weight tiles with probability 1/2.  Tiles route the four incident bond
ends pairwise, so the whole configuration decomposes into loops that cover
every bond exactly once; each loop is traced once by arc-following and
classified by its winding numbers around the two cycles of the torus:

* vertical winding != 0    -> torus artifact, counted separately and excluded
  from both densities (exponentially rare for H >> L),
* else horizontal winding != 0 -> non-contractible (winds the circumference),
* both zero                -> contractible.

Tile streams come from counter-based Philox generators keyed by
(seed, replica), so every census is bit-identical regardless of scheduling.
Error bars come from replica-to-replica variance, never from per-loop counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# directed walker state at a site: entry side 0 = from west (moving E),
# 1 = from east, 2 = from south (moving N), 3 = from north.
# exit sides encoded N=0, S=1, E=2, W=3.
# tile 0 pairs (W,N)(S,E); tile 1 pairs (W,S)(N,E).
_EXIT_SIDE = np.array([[0, 1, 2, 3], [1, 0, 3, 2]], dtype=np.int64)
_EXIT_DX = np.array([0, 0, 1, -1], dtype=np.int64)
_EXIT_DY = np.array([1, -1, 0, 0], dtype=np.int64)
_EXIT_ENTRY = np.array([2, 3, 0, 1], dtype=np.int64)

# per-step winding increments are packed as (wy << _WSHIFT) + wx; loop sums
# stay far below 2^(_WSHIFT-1) since |winding| <= 2*H
_WSHIFT = 28


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
        if 2 * self.L * self.H >= 1 << (_WSHIFT - 1):
            raise ValueError("lattice too large for packed winding accumulators")


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

    For each tile type, the flat arrays (next state, packed seam crossings)
    over states s = 4*(y*L + x) + entry; plus the mirror map sending a
    directed edge to its reversal (geometry only, shared by all replicas).
    Winding numbers equal the signed crossing counts of the two seams
    (between x = L-1 and 0, and between y = H-1 and 0).
    """
    d = np.arange(4, dtype=np.int64)[None, None, :]
    x = np.arange(L, dtype=np.int64)[None, :, None]
    y = np.arange(H, dtype=np.int64)[:, None, None]
    per_tile = []
    for tile in (0, 1):
        e = _EXIT_SIDE[tile][d]
        dx = _EXIT_DX[e]
        dy = _EXIT_DY[e]
        nxt = 4 * (((y + dy) % H) * L + (x + dx) % L) + _EXIT_ENTRY[e]
        wx = ((dx == 1) & (x == L - 1)).astype(np.int64) - ((dx == -1) & (x == 0)).astype(
            np.int64
        )
        wy = ((dy == 1) & (y == H - 1)).astype(np.int64) - ((dy == -1) & (y == 0)).astype(
            np.int64
        )
        per_tile.append((nxt.reshape(-1), ((wy << _WSHIFT) + wx).reshape(-1)))
    ex = np.array([-1, 1, 0, 0], dtype=np.int64)[d]
    ey = np.array([0, 0, -1, 1], dtype=np.int64)[d]
    opp = np.array([1, 0, 3, 2], dtype=np.int64)[d]
    mirror = (4 * (((y + ey) % H) * L + (x + ex) % L) + opp).reshape(-1).tolist()
    return per_tile, mirror


def _sample_tiles(cfg: MCConfig, replica_index: int) -> np.ndarray:
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, replica_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=(cfg.H, cfg.L), dtype=np.int8)


def walk_tables(cfg: MCConfig, tiles: np.ndarray):
    """(next, packed winding, mirror) flat lists for one tile configuration."""
    (tab0, tab1), mirror = _static_tables(cfg.L, cfg.H)
    cond = np.repeat(tiles.reshape(-1) == 0, 4)
    nxt = np.where(cond, tab0[0], tab1[0])
    ww = np.where(cond, tab0[1], tab1[1])
    # the directed-edge map must be a permutation or tracing could hang
    counts = np.bincount(nxt, minlength=nxt.size)
    if counts.max() != 1:
        raise AssertionError("walk table is not a permutation (routing bug)")
    return nxt.tolist(), ww.tolist(), mirror


def sample_lattice(cfg: MCConfig, replica_index: int) -> LoopCensus:
    """Sample one replica's tile array and trace every loop exactly once.

    Tracing marks both orientations of each traversed edge, so the loop over
    seeds visits each loop once; the permutation property of the walk table
    guarantees every bond lies on exactly one loop.
    """
    cfg.validate()
    tiles = _sample_tiles(cfg, replica_index)
    nxt, ww, mirror = walk_tables(cfg, tiles)
    n_states = 4 * cfg.L * cfg.H
    visited = bytearray(n_states)
    n_c = n_nc = n_vert = n_loops = 0
    half = 1 << (_WSHIFT - 1)
    for seed_state in range(n_states):
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
        windy = (acc + half) >> _WSHIFT
        windx = acc - (windy << _WSHIFT)
        n_loops += 1
        if windy != 0:
            n_vert += 1
        elif windx != 0:
            n_nc += 1
        else:
            n_c += 1
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


def stats_json(stats: MCStats, nu_c_target: float, nu_nc_target: float) -> str:
    """Deterministic JSON rendering of stats_payload."""
    return json.dumps(stats_payload(stats, nu_c_target, nu_nc_target), indent=2, sort_keys=True)
