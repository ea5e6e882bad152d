"""Independent exact oracle: a link-pattern transfer matrix for the dense
loop model on a cylinder, plus a numeric six-vertex cross-check.

States are planar matchings of the L strand positions cut by a horizontal
line, augmented with one seam-crossing parity bit per chord (seam between
positions L-1 and 0).  A loop is non-contractible exactly when it closes with
odd total seam parity.

One lattice row (L sites, each carrying one of the two unit-weight tiles)
acts on these states as follows: reading the tile string around the row, each
descent joins two adjacent strands from below (a cap), each ascent emits a
fresh chord upward (a cup), and every remaining strand shifts one position
sideways.  Caps, cups and shifts through the wrap bond toggle seam parity.
Summing the 2^L tile strings with loop fugacities w (contractible) and v
(non-contractible) gives the row transfer operator; its Perron eigenvalue at
w = v = 1 is 2^L and the densities are first-order eigenvalue perturbations,
evaluated in exact rational arithmetic.

The basis is the closure of the nested pattern under the row operator.  The
right Perron vector is a float64 solve rounded to integers and certified
exactly: integer eigenvector equation, column sums 2^L and a strongly
connected state graph, so Perron-Frobenius makes it the unique Perron vector.

The six-vertex check works on arrows only, never on link patterns.  It puts
the twist phi on the seam: arrow conservation turns the product of the vertex
twist factors over a row into exp(i phi (2 h0 - 1)), h0 the seam edge, times
a unitary diagonal similarity.  Each magnetisation sector block is then
exp(-i phi) A0 + exp(i phi) A1 with A0 and A1 integer matrices built once
per L, and phi -> -phi conjugates the block, so Lambda_max is even in phi by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .closed_form import (
    DensityRecord,
    METHOD_TRANSFER_ORACLE,
    make_record,
    nu_nc_exact,
)

# Largest circumference the exact oracle and the six-vertex check accept.
ORACLE_MAX_L = 10


class DegeneratePerronError(ArithmeticError):
    """The eigenvalue 2^L is not a simple eigenvalue with the all-ones left
    vector and a verified right vector."""


def check_oracle_l(L: int) -> None:
    """Raise ValueError unless L is even with 2 <= L <= ORACLE_MAX_L."""
    if L % 2 or not (2 <= L <= ORACLE_MAX_L):
        raise ValueError(f"L must be even with 2 <= L <= {ORACLE_MAX_L}, got {L}")


@dataclass(frozen=True)
class LinkState:
    """Planar matching of L boundary points with per-chord seam parities.

    match[i] is the partner of point i (fixed-point-free involution), and
    parity[i] = parity[match[i]] counts the chord's seam crossings mod 2.
    """

    match: tuple
    parity: tuple

    def __post_init__(self):
        L = len(self.match)
        for i, j in enumerate(self.match):
            if not (0 <= j < L) or j == i or self.match[j] != i:
                raise ValueError(f"match {self.match} is not a fixed-point-free involution")
            if self.parity[i] != self.parity[j]:
                raise ValueError("chord parities must agree at both endpoints")

    @classmethod
    def nested(cls, L: int) -> "LinkState":
        """Fully nested pattern: i paired with L-1-i, no seam crossings."""
        return cls(tuple(L - 1 - i for i in range(L)), (0,) * L)


def _row_diagrams(L: int):
    """All 2^L single-row tile diagrams as (caps, shifts, cups).

    Tile 0 routes a strand up-right, tile 1 up-left.  For the tile string t,
    the bond between sites i and i+1 carries a cap when (t_i, t_{i+1}) = (0, 1)
    and a cup when (1, 0); bond L-1 is the wrap bond (seam parity 1).
    """
    diagrams = []
    for mask in range(2 ** L):
        t = [(mask >> i) & 1 for i in range(L)]
        caps, cups = [], []
        capped = [False] * L
        for i in range(L):
            j = (i + 1) % L
            wrap = 1 if i == L - 1 else 0
            if t[i] == 0 and t[j] == 1:
                caps.append((i, j, wrap))
                capped[i] = capped[j] = True
            elif t[i] == 1 and t[j] == 0:
                cups.append((i, j, wrap))
        shifts = {}
        for p in range(L):
            if capped[p]:
                continue
            if t[p] == 0:
                shifts[p] = ((p + 1) % L, 1 if p == L - 1 else 0)
            else:
                shifts[p] = ((p - 1) % L, 1 if p == 0 else 0)
        diagrams.append((caps, shifts, cups))
    return diagrams


def _apply_diagram(state, caps, shifts, cups):
    """Apply one row diagram to a (match, parity) pair; returns (new pair,
    #contractible, #non-contractible).

    A cap on the two ends of one chord closes a loop, non-contractible when
    its parity is odd; any other cap joins the two former partners.
    """
    match, par = map(list, state)
    L = len(match)
    n_c = n_nc = 0
    for i, j, cap_parity in caps:
        a, b = match[i], match[j]
        loop_par = par[i] ^ cap_parity
        if a == j:
            n_nc += loop_par
            n_c += 1 - loop_par
        else:
            match[a], match[b] = b, a
            par[a] = par[b] = loop_par ^ par[j]
        match[i] = match[j] = -1
    out_match = [-1] * L
    out_par = [0] * L
    for p in range(L):
        q = match[p]
        if q == -1 or q < p:
            continue
        np_, t1 = shifts[p]
        nq, t2 = shifts[q]
        out_match[np_], out_match[nq] = nq, np_
        out_par[np_] = out_par[nq] = par[p] ^ t1 ^ t2
    for i, j, cup_parity in cups:
        out_match[i], out_match[j] = j, i
        out_par[i] = out_par[j] = cup_parity
    return (tuple(out_match), tuple(out_par)), n_c, n_nc


def enumerate_states(L: int) -> tuple:
    """Link states reachable from the nested pattern under the row operator."""
    return row_transfer_matrix(L).states


@dataclass(frozen=True)
class TransferMatrix:
    """Row transfer operator with loop-closure bookkeeping.

    cells[(out, in)] maps (#contractible, #non-contractible) closed during
    the transition to its count, for every non-zero (out, in) pair, and
    counts[out][in] is their total, the operator at w = v = 1.  loops_c[in]
    and loops_nc[in] add up the contractible and non-contractible closures
    over all 2^L rows leaving state in: the column sums of the two fugacity
    derivatives at w = v = 1.
    """

    L: int
    states: tuple
    cells: dict
    counts: tuple
    loops_c: tuple
    loops_nc: tuple


@lru_cache(maxsize=None)
def row_transfer_matrix(L: int) -> TransferMatrix:
    """Build the exact row transfer operator on the link-pattern basis.

    One breadth-first closure from the nested pattern under the 2^L row
    diagrams finds the states as plain (match, parity) pairs and fills one
    sparse cell per reached (out, in) pair; the pairs are then sorted and
    each becomes one validated LinkState.
    """
    check_oracle_l(L)
    diagrams = _row_diagrams(L)
    nested = LinkState.nested(L)
    found = {(nested.match, nested.parity): 0}
    order = list(found)
    cells = {}
    closed = []
    for col, s in enumerate(order):  # order grows while it is walked
        n_c_col = n_nc_col = 0
        for caps, shifts, cups in diagrams:
            out, n_c, n_nc = _apply_diagram(s, caps, shifts, cups)
            row = found.setdefault(out, len(order))
            if row == len(order):
                order.append(out)
            cell = cells.setdefault((row, col), {})
            cell[n_c, n_nc] = cell.get((n_c, n_nc), 0) + 1
            n_c_col += n_c
            n_nc_col += n_nc
        closed.append((n_c_col, n_nc_col))
    pairs = sorted(order)
    index = {s: k for k, s in enumerate(pairs)}
    pos = [index[s] for s in order]
    cells = {(pos[row], pos[col]): cell for (row, col), cell in cells.items()}
    counts = [[0] * len(pairs) for _ in pairs]
    for (i, j), cell in cells.items():
        counts[i][j] = sum(cell.values())
    return TransferMatrix(
        L=L,
        states=tuple(LinkState(*s) for s in pairs),
        cells=cells,
        counts=tuple(tuple(r) for r in counts),
        loops_c=tuple(closed[found[s]][0] for s in pairs),
        loops_nc=tuple(closed[found[s]][1] for s in pairs),
    )


def _reaches_all(adj) -> bool:
    """True when every index is reachable from 0 along the edges i -> j with
    adj[i][j] != 0."""
    succ = [[j for j, x in enumerate(row) if x] for row in adj]
    seen = {0}
    stack = [0]
    while stack:
        for j in succ[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(succ)


def perron_eigenvectors(tm: TransferMatrix):
    """Exact left and right integer eigenvectors for the eigenvalue 2^L.

    Each of the 2^L row diagrams sends every state to exactly one state, so
    every column of counts sums to 2^L and the left vector is all-ones; the
    column sums are checked, not assumed.  A breadth-first search over the
    non-zero entries, forwards and backwards, checks that the state graph is
    strongly connected.  Perron-Frobenius then makes 2^L, the spectral radius
    of the non-negative irreducible counts, a simple eigenvalue, and any
    positive eigenvector a multiple of its right Perron vector.  That vector
    is guessed in float64, scaled to smallest entry 1, rounded and accepted
    only when counts . r == 2^L r holds in integers; its smallest entry is 1,
    so r is exact, positive and primitive.

    Raises DegeneratePerronError if a column sum is off, an entry is negative,
    the state graph is reducible, or the rounded guess fails the exact check.
    """
    lam = 2 ** tm.L
    n = len(tm.states)
    for j, col in enumerate(zip(*tm.counts)):
        if sum(col) != lam:
            raise DegeneratePerronError(f"L={tm.L}: column {j} of counts sums to {sum(col)}, not {lam}")
        if min(col) < 0:
            raise DegeneratePerronError(f"L={tm.L}: column {j} of counts has a negative entry")
    if not (_reaches_all(tm.counts) and _reaches_all(list(zip(*tm.counts)))):
        raise DegeneratePerronError(f"L={tm.L}: counts is reducible, so {lam} need not be simple")
    shifted = np.array(tm.counts, dtype=float) - lam * np.eye(n)
    shifted[0] = 1.0  # row 0 is implied by the others; fix the scale instead
    guess = np.linalg.solve(shifted, np.eye(n)[0])
    if not guess.min() > 0:
        raise DegeneratePerronError(f"L={tm.L}: float Perron guess is not positive")
    r = [round(x) for x in guess / guess.min()]
    if any(sum(x * y for x, y in zip(row, r)) != lam * ri for row, ri in zip(tm.counts, r)):
        raise DegeneratePerronError(f"L={tm.L}: rounded float guess fails counts . r = {lam} r")
    return [1] * n, r


def oracle_densities(L: int) -> DensityRecord:
    """Exact loop densities from first-order Perron-eigenvalue perturbation.

    nu_c = (1/L) (l . dD/dw . r) / (Lambda l . r) at w = v = 1, and the same
    with dD/dv for nu_nc, everything over exact rationals.  The left vector l
    is all-ones, so l . r = sum(r) and l . M . r = colsum(M) . r, with the
    column sums of the derivatives held in loops_c and loops_nc.
    """
    check_oracle_l(L)
    tm = row_transfer_matrix(L)
    _, right = perron_eigenvectors(tm)
    scale = 2 ** L * sum(right) * L
    nu_c = Fraction(sum(x * y for x, y in zip(tm.loops_c, right)), scale)
    nu_nc = Fraction(sum(x * y for x, y in zip(tm.loops_nc, right)), scale)
    return make_record(L // 2, nu_c, nu_nc, METHOD_TRANSFER_ORACLE)


def matrix_json(L: int) -> dict:
    """JSON-ready dump of the transfer operator for inspection."""
    tm = row_transfer_matrix(L)
    entries = [
        {
            "from": j,
            "to": i,
            "weights": [
                {"contractible": k[0], "non_contractible": k[1], "count": c}
                for k, c in sorted(tm.cells[i, j].items())
            ],
        }
        for i, j in sorted(tm.cells)
    ]
    return {
        "L": L,
        "states": [
            {"match": list(s.match), "parity": list(s.parity)} for s in tm.states
        ],
        "perron_eigenvalue": 2 ** L,
        "entries": entries,
    }


# -- six-vertex numeric cross-check -------------------------------------------


def sector_states(L: int) -> list[np.ndarray]:
    """Row configurations (L-bit integers, up arrow = 1) grouped by the
    number k of up arrows: entry k holds those with k set bits, ascending."""
    configs = np.arange(2 ** L)
    ups = ((configs[:, None] >> np.arange(L)) & 1).sum(axis=1)
    return [configs[ups == k] for k in range(L + 1)]


def sixvertex_transfer(L: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seam-gauge row transfer matrix (trace over the horizontal line) as its
    L + 1 magnetisation-sector blocks.

    Every vertex conserves arrows, so T only joins configurations with the
    same number k of up arrows.  Block k is the integer pair (A0, A1) on
    sector_states(L)[k]: A_h[beta, alpha] is the untwisted weight of the row
    taking alpha below to beta above with seam edge h, and T_k(phi) is
    similar to exp(-i phi) A0 + exp(i phi) A1.  At the stochastic point
    a = b = 1 and c = sqrt(3); around a closed row the c vertices come in
    (c1, c2) pairs, so c1 -> 3 and c2 -> 1 keeps every weight exact.
    """
    # hv[v_in, v_out, h_in, h_out] is the 2x2 horizontal block of one vertex
    hv = np.zeros((2, 2, 2, 2), dtype=np.int64)
    hv[1, 1, 1, 1] = hv[0, 0, 0, 0] = 1  # a1, a2
    hv[1, 1, 0, 0] = hv[0, 0, 1, 1] = 1  # b1, b2
    hv[1, 0, 1, 0] = 3  # c1, carrying the c^2 of its pair
    hv[0, 1, 0, 1] = 1  # c2
    blocks = []
    for states in sector_states(L):
        bits = (states[:, None] >> np.arange(L)) & 1
        # site i at [beta, alpha] is hv[alpha_i, beta_i]
        prod = hv[bits[None, :, 0], bits[:, None, 0]]
        for i in range(1, L):
            prod = prod @ hv[bits[None, :, i], bits[:, None, i]]
        blocks.append((prod[:, :, 0, 0], prod[:, :, 1, 1]))
    return blocks


# twist-angle step of the central difference in sixvertex_check
_TWIST_STEP = 1e-4


def _lambda_max(blocks, phi: float) -> float:
    """Largest |eigenvalue| of T(phi): the union of the block spectra is its spectrum."""
    u = np.exp(1j * phi)
    return max(float(np.max(np.abs(np.linalg.eigvals(a0 / u + a1 * u)))) for a0, a1 in blocks)


@dataclass(frozen=True)
class SixVertexReport:
    L: int
    lambda_max: float
    lambda_rel_error: float
    phi_symmetry_error: float
    nu_nc_fd: float
    nu_nc_exact: float
    nu_nc_error: float


def sixvertex_check(L: int) -> SixVertexReport:
    """Check Lambda_max = 2^L at the stochastic point and recover nu_nc from
    a central finite difference of ln Lambda_max in the twist angle:
    nu_nc = -(1/(2 sqrt(3) N)) d ln Lambda / d phi at phi = pi/3.

    The seam-gauge blocks are built once and shared by the four Lambda_max
    evaluations.  phi_symmetry_error compares Lambda_max at phi = +-pi/3;
    the real A0, A1 make the two equal by construction, so it reads about 0.
    """
    check_oracle_l(L)
    blocks = sixvertex_transfer(L)
    phi0 = math.pi / 3
    lam0 = _lambda_max(blocks, phi0)
    lam_sym = _lambda_max(blocks, -phi0)
    h = _TWIST_STEP
    dln = (math.log(_lambda_max(blocks, phi0 + h)) - math.log(_lambda_max(blocks, phi0 - h))) / (2 * h)
    N = L // 2
    nu_fd = -dln / (2 * math.sqrt(3.0) * N)
    nu_exact = float(nu_nc_exact(N))
    return SixVertexReport(
        L=L,
        lambda_max=lam0,
        lambda_rel_error=abs(lam0 - 2 ** L) / 2 ** L,
        phi_symmetry_error=abs(lam0 - lam_sym) / 2 ** L,
        nu_nc_fd=nu_fd,
        nu_nc_exact=nu_exact,
        nu_nc_error=abs(nu_fd - nu_exact),
    )
