"""Independent exact oracle: a link-pattern transfer matrix for the dense
loop model on a cylinder, plus a numeric six-vertex cross-check.

States are planar matchings of the L strand positions cut by a horizontal
line, augmented with one seam-crossing parity bit per chord (seam between
positions L-1 and 0).  A loop is non-contractible exactly when it closes with
odd total seam parity.

One lattice row (L sites, each carrying one of the two unit-weight tiles) is
added one vertex at a time (the auxiliary-line transfer matrix of Bloete and
Nightingale, Physica A 112 (1982) 405).  Two extra points ride along: h, the
horizontal edge entering the next vertex, and the anchor a, the left edge of
vertex 0, which start as one chord of parity 0.  Tile 0 at vertex k joins
bottom-right and left-top, so it swaps the labels of k and h; tile 1 joins
bottom-left and right-top, so it joins k with h (closing a loop when they
are partners) and makes the two a fresh chord.  After vertex L-1, h joins a
across the seam with one parity toggle, which can close one more loop.  Each
vertex sends each intermediate state to two states and the seam join to one,
so every state has 2^L row images, counted with multiplicity.  Weighting the
closed loops with fugacities w (contractible) and v (non-contractible) gives
the row transfer operator; its Perron eigenvalue at w = v = 1 is 2^L and the
densities are first-order eigenvalue perturbations, evaluated in exact
rational arithmetic.

The basis is the closure of the nested pattern under the row operator.  The
right Perron vector is a float64 solve rounded to integers and certified
exactly: integer eigenvector equation, column sums 2^L and a strongly
connected state graph, so Perron-Frobenius makes it the unique Perron vector.

The six-vertex check works on arrows only, never on link patterns.  It puts
the twist phi on the seam: arrow conservation turns the product of the vertex
twist factors over a row into exp(i phi (2 h0 - 1)), h0 the seam edge, times
a unitary diagonal similarity.  Each magnetisation sector block is then
exp(-i phi) A0 + exp(i phi) A1 with A0 and A1 integer matrices built once
per L.  Lambda_max and its two eigenvectors give the twist derivative exactly
(Hellmann-Feynman); phi -> -phi conjugates T, so Im Lambda_max must vanish.
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
from .errors import ComputationError

# Largest circumference the exact oracle and the six-vertex check accept.
ORACLE_MAX_L = 10


class DegeneratePerronError(ComputationError, ArithmeticError):
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
        if len(self.parity) != L or any(b not in (0, 1) for b in self.parity):
            raise ValueError(f"parity {self.parity} must hold one bit per point of {self.match}")
        for i, j in enumerate(self.match):
            if not (0 <= j < L) or j == i or self.match[j] != i:
                raise ValueError(f"match {self.match} is not a fixed-point-free involution")
            if self.parity[i] != self.parity[j]:
                raise ValueError("chord parities must agree at both endpoints")

    @classmethod
    def nested(cls, L: int) -> "LinkState":
        """Fully nested pattern: i paired with L-1-i, no seam crossings."""
        return cls(tuple(L - 1 - i for i in range(L)), (0,) * L)


def _join(m, p, x, y, seam):
    """Join points x and y of the extended lists (m, p) in place, the join
    crossing the seam `seam` times; return (#contractible, #non-contractible)
    closed.

    When x and y are partners their chord closes into a loop, non-contractible
    when its parity is odd; otherwise their two partners become one chord with
    the parities added.  x and y are left for the caller to re-pair or drop.
    """
    if m[x] == y:
        loop = p[x] ^ seam
        return 1 - loop, loop
    i, j = m[x], m[y]
    m[i], m[j] = j, i
    p[i] = p[j] = p[x] ^ p[y] ^ seam
    return 0, 0


def _row_images(state):
    """Images of one (match, parity) pair under the 2^L lattice rows, as
    {(image, #contractible, #non-contractible): number of rows}.

    The vertex rule of the module docstring, on the pair extended by h = L
    and the anchor a = L + 1; equal intermediate states merge after every
    vertex, and h and a are dropped after the seam join.
    """
    match, par = state
    L = h = len(match)
    a = L + 1
    layer = {(match + (a, h), par + (0, 0), 0, 0): 1}
    for k in range(L):
        nxt = {}
        for (m, p, n_c, n_nc), rows in layer.items():
            m0, p0 = list(m), list(p)  # tile 0: bottom-right, left-top
            i, j = m[k], m[h]
            if i != h:  # when k and h are partners the swap changes nothing
                m0[k], m0[j], m0[h], m0[i] = j, k, i, h
                p0[k], p0[h] = p[h], p[k]
            m1, p1 = list(m), list(p)  # tile 1: bottom-left, right-top
            c, nc = _join(m1, p1, k, h, 0)
            m1[k], m1[h] = h, k
            p1[k] = p1[h] = 0
            tile0 = tuple(m0), tuple(p0), n_c, n_nc
            tile1 = tuple(m1), tuple(p1), n_c + c, n_nc + nc
            for key in tile0, tile1:
                nxt[key] = nxt.get(key, 0) + rows
        layer = nxt
    images = {}
    for (m, p, n_c, n_nc), rows in layer.items():
        m, p = list(m), list(p)
        c, nc = _join(m, p, h, a, 1)
        key = (tuple(m[:L]), tuple(p[:L])), n_c + c, n_nc + nc
        images[key] = images.get(key, 0) + rows
    return images


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

    One breadth-first closure from the nested pattern, adding each state's
    row images one vertex at a time, finds the states as plain (match,
    parity) pairs and fills one sparse cell per reached (out, in) pair; the
    pairs are then sorted and each becomes one validated LinkState.  The
    column totals loops_c and loops_nc are read off the cells.
    """
    check_oracle_l(L)
    nested = LinkState.nested(L)
    found = {(nested.match, nested.parity): 0}
    order = list(found)
    cells = {}
    for col, s in enumerate(order):  # order grows while it is walked
        for (out, n_c, n_nc), rows in _row_images(s).items():
            row = found.setdefault(out, len(order))
            if row == len(order):
                order.append(out)
            cells.setdefault((row, col), {})[n_c, n_nc] = rows
    pairs = sorted(order)
    index = {s: k for k, s in enumerate(pairs)}
    pos = [index[s] for s in order]
    cells = {(pos[row], pos[col]): cell for (row, col), cell in cells.items()}
    n = len(pairs)
    counts = [[0] * n for _ in pairs]
    loops_c, loops_nc = [0] * n, [0] * n
    for (i, j), cell in cells.items():
        counts[i][j] = sum(cell.values())
        loops_c[j] += sum(n_c * c for (n_c, _), c in cell.items())
        loops_nc[j] += sum(n_nc * c for (_, n_nc), c in cell.items())
    return TransferMatrix(
        L=L,
        states=tuple(LinkState(*s) for s in pairs),
        cells=cells,
        counts=tuple(tuple(r) for r in counts),
        loops_c=tuple(loops_c),
        loops_nc=tuple(loops_nc),
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


def perron_eigenvectors(tm: TransferMatrix) -> list[int]:
    """The exact right integer eigenvector for the eigenvalue 2^L.

    Each vertex step sends every intermediate state to exactly two states and
    the seam join sends it to one, so each state has 2^L row images, every
    column of counts sums to 2^L and the left vector is all-ones; the column
    sums are checked, not assumed, so the left vector is certified and not
    returned.  A breadth-first search over the
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
    return r


def oracle_densities(L: int) -> DensityRecord:
    """Exact loop densities from first-order Perron-eigenvalue perturbation.

    nu_c = (1/L) (l . dD/dw . r) / (Lambda l . r) at w = v = 1, and the same
    with dD/dv for nu_nc, everything over exact rationals.  The left vector l
    is all-ones, so l . r = sum(r) and l . M . r = colsum(M) . r, with the
    column sums of the derivatives held in loops_c and loops_nc.
    """
    check_oracle_l(L)
    tm = row_transfer_matrix(L)
    right = perron_eigenvectors(tm)
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


@dataclass(frozen=True)
class SixVertexReport:
    """lambda_max is Re Lambda; both errors are relative to 2^L on the complex
    Lambda.  nu_nc_fd is the Hellmann-Feynman nu_nc; it keeps the name of the
    finite difference it replaced because the benchmark reads that name."""

    L: int
    lambda_max: float
    lambda_rel_error: float
    phi_symmetry_error: float
    nu_nc_fd: float
    nu_nc_exact: float
    nu_nc_error: float


def sixvertex_check(L: int) -> SixVertexReport:
    """Check Lambda_max = 2^L at the stochastic point and recover
    nu_nc = -Re(Lambda' / Lambda) / (2 sqrt(3) N) at phi = pi/3.

    One eig per sector block T finds Lambda, the largest modulus over all
    sectors, and its right vector r; the winning block's left vector l gives
    the Hellmann-Feynman Lambda' = l^T T' r / l^T r with the exact
    T' = i (u A1 - A0 / u), u = exp(i phi).  T(-phi) = conj T(phi), so
    phi_symmetry_error = |Lambda(phi) - Lambda(-phi)| / 2^L = 2 |Im Lambda| / 2^L.
    """
    check_oracle_l(L)
    u = np.exp(1j * math.pi / 3)
    best = None
    for a0, a1 in sixvertex_transfer(L):
        w, v = np.linalg.eig(a0 / u + a1 * u)
        i = np.argmax(np.abs(w))
        if best is None or abs(w[i]) > abs(best[0]):
            best = (w[i], v[:, i], a0, a1)
    lam, r, a0, a1 = best
    w, v = np.linalg.eig((a0 / u + a1 * u).T)
    left = v[:, np.argmin(np.abs(w - lam))]
    dlam = left @ (1j * (a1 * u - a0 / u)) @ r / (left @ r)
    nu_hf = float(-(dlam / lam).real / (2 * math.sqrt(3.0) * (L // 2)))
    nu_exact = float(nu_nc_exact(L // 2))
    return SixVertexReport(
        L=L,
        lambda_max=float(lam.real),
        lambda_rel_error=float(abs(lam - 2 ** L)) / 2 ** L,
        phi_symmetry_error=2 * abs(float(lam.imag)) / 2 ** L,
        nu_nc_fd=nu_hf,
        nu_nc_exact=nu_exact,
        nu_nc_error=abs(nu_hf - nu_exact),
    )
