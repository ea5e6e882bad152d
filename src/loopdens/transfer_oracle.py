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
"""

from __future__ import annotations

import cmath
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

CONTRACTIBLE = "contractible"
NON_CONTRACTIBLE = "non_contractible"


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

    @property
    def size(self) -> int:
        return len(self.match)

    @classmethod
    def nested(cls, L: int) -> "LinkState":
        """Fully nested pattern: i paired with L-1-i, no seam crossings."""
        return cls(tuple(L - 1 - i for i in range(L)), (0,) * L)


def _close_or_rewire(match, par, i, j, cap_parity):
    """Join points i, j of the current (bottom) boundary by a cap.

    Returns the closed-loop kind or None.  Positions i, j are consumed
    (marked -1); a rewire joins the former partners with composed parity.
    """
    if match[i] == j:
        kind = NON_CONTRACTIBLE if (par[i] ^ cap_parity) else CONTRACTIBLE
        match[i] = match[j] = -1
        return kind
    a, b = match[i], match[j]
    new_par = par[i] ^ par[j] ^ cap_parity
    match[a], match[b] = b, a
    par[a] = par[b] = new_par
    match[i] = match[j] = -1
    return None


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


def _apply_diagram(state: LinkState, caps, shifts, cups):
    """Apply one row diagram; returns (new state, #contractible, #non-contractible)."""
    L = state.size
    match = list(state.match)
    par = list(state.parity)
    n_c = n_nc = 0
    for i, j, cap_parity in caps:
        kind = _close_or_rewire(match, par, i, j, cap_parity)
        if kind == CONTRACTIBLE:
            n_c += 1
        elif kind == NON_CONTRACTIBLE:
            n_nc += 1
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
    return LinkState(tuple(out_match), tuple(out_par)), n_c, n_nc


def enumerate_states(L: int) -> tuple:
    """Link states reachable from the nested pattern under the row operator."""
    return row_transfer_matrix(L).states


@dataclass(frozen=True)
class TransferMatrix:
    """Row transfer operator with loop-closure bookkeeping.

    fugacity[out][in] maps (#contractible, #non-contractible) closed during
    the transition to its count; counts[out][in], d_w[out][in], d_v[out][in]
    are the value and the two fugacity derivatives at w = v = 1.
    """

    L: int
    states: tuple
    fugacity: tuple
    counts: tuple
    d_w: tuple
    d_v: tuple


@lru_cache(maxsize=None)
def row_transfer_matrix(L: int) -> TransferMatrix:
    """Build the exact row transfer operator on the link-pattern basis.

    One breadth-first closure from the nested pattern under the 2^L row
    diagrams finds the states and fills one sparse cell per reached
    (out, in) pair; the states are then sorted by (match, parity).
    """
    check_oracle_l(L)
    diagrams = _row_diagrams(L)
    found = {LinkState.nested(L): 0}
    order = list(found)
    cells = {}
    for col, s in enumerate(order):  # order grows while it is walked
        for caps, shifts, cups in diagrams:
            out, n_c, n_nc = _apply_diagram(s, caps, shifts, cups)
            row = found.setdefault(out, len(order))
            if row == len(order):
                order.append(out)
            cell = cells.setdefault((row, col), {})
            cell[n_c, n_nc] = cell.get((n_c, n_nc), 0) + 1
    states = tuple(sorted(order, key=lambda s: (s.match, s.parity)))
    index = {s: k for k, s in enumerate(states)}
    pos = [index[s] for s in order]
    n = len(states)
    fug = [[{} for _ in range(n)] for _ in range(n)]
    m0 = [[0] * n for _ in range(n)]
    mw = [[0] * n for _ in range(n)]
    mv = [[0] * n for _ in range(n)]
    for (row, col), cell in cells.items():
        i, j = pos[row], pos[col]
        fug[i][j] = cell
        m0[i][j] = sum(cell.values())
        mw[i][j] = sum(k[0] * c for k, c in cell.items())
        mv[i][j] = sum(k[1] * c for k, c in cell.items())
    freeze = lambda mat: tuple(tuple(r) for r in mat)
    return TransferMatrix(
        L=L,
        states=states,
        fugacity=freeze(fug),
        counts=freeze(m0),
        d_w=freeze(mw),
        d_v=freeze(mv),
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
    is all-ones, so l . r = sum(r) and l . M . r = colsum(M) . r.
    """
    check_oracle_l(L)
    tm = row_transfer_matrix(L)
    _, right = perron_eigenvectors(tm)
    overlap = sum(right)

    def bilinear(mat):
        return sum(sum(col) * x for col, x in zip(zip(*mat), right))

    scale = 2 ** L * overlap * L
    nu_c = Fraction(bilinear(tm.d_w), scale)
    nu_nc = Fraction(bilinear(tm.d_v), scale)
    return make_record(L // 2, nu_c, nu_nc, METHOD_TRANSFER_ORACLE)


def matrix_json(L: int) -> dict:
    """JSON-ready dump of the transfer operator for inspection."""
    tm = row_transfer_matrix(L)
    entries = []
    for i in range(len(tm.states)):
        for j in range(len(tm.states)):
            if not tm.fugacity[i][j]:
                continue
            entries.append(
                {
                    "from": j,
                    "to": i,
                    "weights": [
                        {"contractible": k[0], "non_contractible": k[1], "count": c}
                        for k, c in sorted(tm.fugacity[i][j].items())
                    ],
                }
            )
    return {
        "L": L,
        "states": [
            {"match": list(s.match), "parity": list(s.parity)} for s in tm.states
        ],
        "perron_eigenvalue": 2 ** L,
        "entries": entries,
    }


# -- six-vertex numeric cross-check -------------------------------------------


@dataclass(frozen=True)
class SixVertexWeights:
    """Twisted six-vertex vertex weights on a circumference-L cylinder."""

    a1: complex
    a2: complex
    b1: complex
    b2: complex
    c1: complex
    c2: complex
    z: complex
    phi: float
    q: complex

    @classmethod
    def at(cls, L: int, phi: float, z: complex = 1.0) -> "SixVertexWeights":
        q = cmath.exp(1j * math.pi / 3)
        tw = cmath.exp(1j * phi / L)
        sq = cmath.exp(1j * math.pi / 6)  # q^(1/2)
        return cls(
            a1=z * tw,
            a2=z / tw,
            b1=1 / tw,
            b2=tw,
            c1=z * sq + 1 / sq,
            c2=sq + z / sq,
            z=z,
            phi=phi,
            q=q,
        )


def _vertex_tensor(w: SixVertexWeights) -> np.ndarray:
    """W[v_in, h_in, v_out, h_out]; bits: up/right arrows = 1."""
    W = np.zeros((2, 2, 2, 2), dtype=complex)
    W[1, 1, 1, 1] = w.a1
    W[0, 0, 0, 0] = w.a2
    W[1, 0, 1, 0] = w.b1
    W[0, 1, 0, 1] = w.b2
    W[1, 1, 0, 0] = w.c1
    W[0, 0, 1, 1] = w.c2
    return W


def sector_states(L: int) -> list[np.ndarray]:
    """Row configurations (L-bit integers, up arrow = 1) grouped by the
    number k of up arrows: entry k holds those with k set bits, ascending."""
    configs = np.arange(2 ** L)
    ups = ((configs[:, None] >> np.arange(L)) & 1).sum(axis=1)
    return [configs[ups == k] for k in range(L + 1)]


def sixvertex_transfer(L: int, phi: float, z: complex = 1.0) -> list[np.ndarray]:
    """Row transfer matrix (trace over the horizontal line) as its L + 1
    magnetisation-sector blocks.

    Every vertex conserves arrows, so T only joins configurations with the
    same number k of up arrows.  Block k is T on sector_states(L)[k], with
    T[beta, alpha] the weight of the row taking alpha below to beta above.
    """
    W = _vertex_tensor(SixVertexWeights.at(L, phi, z))
    # hv[v_in, v_out] is the 2x2 horizontal transfer block of one vertex
    hv = W.transpose(0, 2, 1, 3)
    blocks = []
    for states in sector_states(L):
        bits = (states[:, None] >> np.arange(L)) & 1
        # site i at [beta, alpha] is hv[alpha_i, beta_i]
        prod = hv[bits[None, :, 0], bits[:, None, 0]]
        for i in range(1, L):
            prod = np.einsum("baij,bajk->baik", prod, hv[bits[None, :, i], bits[:, None, i]])
        blocks.append(np.einsum("baii->ba", prod))
    return blocks


def _lambda_max(L: int, phi: float) -> float:
    """Largest |eigenvalue| of T: the union of the block spectra is its spectrum."""
    return max(float(np.max(np.abs(np.linalg.eigvals(b)))) for b in sixvertex_transfer(L, phi))


@dataclass(frozen=True)
class SixVertexReport:
    L: int
    delta_phi: float
    lambda_max: float
    lambda_rel_error: float
    phi_symmetry_error: float
    nu_nc_fd: float
    nu_nc_exact: float
    nu_nc_error: float

    @property
    def ok(self) -> bool:
        return self.lambda_rel_error < 1e-9 and self.phi_symmetry_error < 1e-9


def sixvertex_check(L: int, delta_phi: float = 1e-4) -> SixVertexReport:
    """Check Lambda_max = 2^L at the stochastic point and recover nu_nc from
    a central finite difference of ln Lambda_max in the twist angle:
    nu_nc = -(1/(2 sqrt(3) N)) d ln Lambda / d phi at phi = pi/3.
    """
    check_oracle_l(L)
    if not (1e-6 <= delta_phi <= 1e-3):
        raise ValueError(f"delta_phi must lie in [1e-6, 1e-3], got {delta_phi}")
    phi0 = math.pi / 3
    lam0 = _lambda_max(L, phi0)
    lam_sym = _lambda_max(L, -phi0)
    dln = (math.log(_lambda_max(L, phi0 + delta_phi)) - math.log(_lambda_max(L, phi0 - delta_phi))) / (
        2 * delta_phi
    )
    N = L // 2
    nu_fd = -dln / (2 * math.sqrt(3.0) * N)
    nu_exact = float(nu_nc_exact(N))
    return SixVertexReport(
        L=L,
        delta_phi=delta_phi,
        lambda_max=lam0,
        lambda_rel_error=abs(lam0 - 2 ** L) / 2 ** L,
        phi_symmetry_error=abs(lam0 - lam_sym) / 2 ** L,
        nu_nc_fd=nu_fd,
        nu_nc_exact=nu_exact,
        nu_nc_error=abs(nu_fd - nu_exact),
    )
