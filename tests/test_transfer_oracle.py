"""Link-pattern transfer oracle and six-vertex cross-check."""

import cmath
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from loopdens.closed_form import METHOD_TRANSFER_ORACLE, nu_c_exact, nu_nc_exact
from loopdens import transfer_oracle
from loopdens.transfer_oracle import (
    ORACLE_MAX_L,
    DegeneratePerronError,
    LinkState,
    TransferMatrix,
    matrix_json,
    oracle_densities,
    perron_eigenvectors,
    row_transfer_matrix,
    sector_states,
    sixvertex_check,
    sixvertex_transfer,
)


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


@functools.cache
def reference_transfer_matrix(L):
    """Reference builder: the breadth-first closure under all 2^L row
    diagrams, each applied to every state as a whole."""
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


def twisted_vertex_tensor(L, phi):
    """W[v_in, h_in, v_out, h_out] of the six-vertex model at the stochastic
    point (z = 1, q = exp(i pi / 3)) with the twist spread uniformly over the
    row: each vertex carries tw^(h_in + h_out - 1), tw = exp(i phi / L).
    Bits: up/right arrows = 1."""
    tw = cmath.exp(1j * phi / L)
    sq = cmath.exp(1j * math.pi / 6)  # q^(1/2)
    W = np.zeros((2, 2, 2, 2), dtype=complex)
    W[1, 1, 1, 1] = tw  # a1
    W[0, 0, 0, 0] = 1 / tw  # a2
    W[1, 0, 1, 0] = 1 / tw  # b1
    W[0, 1, 0, 1] = tw  # b2
    W[1, 1, 0, 0] = sq + 1 / sq  # c1
    W[0, 0, 1, 1] = sq + 1 / sq  # c2
    return W


def sixvertex_transfer_dense(L, phi):
    """Reference builder: the dense 2^L x 2^L twisted six-vertex row transfer
    matrix, one trace of a product of 2x2 vertex blocks per (beta, alpha)
    entry."""
    W = twisted_vertex_tensor(L, phi)
    dim = 2**L
    T = np.zeros((dim, dim), dtype=complex)
    blocks = [[W[a, :, b, :] for b in range(2)] for a in range(2)]
    for alpha in range(dim):
        abits = [(alpha >> i) & 1 for i in range(L)]
        for beta in range(dim):
            bbits = [(beta >> i) & 1 for i in range(L)]
            prod = np.eye(2, dtype=complex)
            for i in range(L):
                prod = prod @ blocks[abits[i]][bbits[i]]
            T[beta, alpha] = prod[0, 0] + prod[1, 1]
    return T


def test_link_state_validation():
    with pytest.raises(ValueError):
        LinkState((0, 1), (0, 0))  # fixed point
    with pytest.raises(ValueError):
        LinkState((1, 0), (0, 1))  # parity mismatch across a chord
    for parity in [(0,), (0, 0, 5), (2, 2), (-1, -1)]:
        with pytest.raises(ValueError, match="one bit per point"):
            LinkState((1, 0), parity)  # one parity bit per point, each 0 or 1
    s = LinkState.nested(4)
    assert s.match == (3, 2, 1, 0)


def test_enumerate_states_counts():
    assert len(row_transfer_matrix(2).states) == 2
    assert len(row_transfer_matrix(4).states) == 6
    # regression values from the reachability closure
    assert len(row_transfer_matrix(6).states) == 20
    assert len(row_transfer_matrix(8).states) == 70
    assert len(row_transfer_matrix(10).states) == 252


def test_enumeration_is_closed():
    pool = {(s.match, s.parity) for s in row_transfer_matrix(4).states}
    for s in pool:
        for diagram in _row_diagrams(4):
            t, _, _ = _apply_diagram(s, *diagram)
            assert t in pool


def test_row_diagram_close_examples():
    # L = 2; diagram k has tile (k >> i) & 1 at site i, and bond 1 is the wrap bond
    s0 = ((1, 0), (0, 0))
    s1 = ((1, 0), (1, 1))
    diagrams = _row_diagrams(2)
    # with no cap the chord shifts once through the seam
    assert _apply_diagram(s0, *diagrams[0b00]) == (s1, 0, 0)
    assert _apply_diagram(s1, *diagrams[0b11]) == (s0, 0, 0)
    # a cap on bond 0 closes the chord with its own parity; the wrap cup crosses the seam
    assert _apply_diagram(s0, *diagrams[0b10]) == (s1, 1, 0)
    assert _apply_diagram(s1, *diagrams[0b10]) == (s1, 0, 1)
    # the wrap cap adds one seam crossing to the loop it closes
    assert _apply_diagram(s0, *diagrams[0b01]) == (s0, 0, 1)
    assert _apply_diagram(s1, *diagrams[0b01]) == (s0, 1, 0)


@pytest.fixture
def fresh_row_transfer_matrix():
    row_transfer_matrix.cache_clear()
    yield
    row_transfer_matrix.cache_clear()


def test_closure_builds_one_link_state_per_state(monkeypatch, fresh_row_transfer_matrix):
    built = []
    validate = LinkState.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(LinkState, "__post_init__", counting)
    tm = row_transfer_matrix(8)
    # the nested seed plus one per sorted state, not one per transition
    assert len(built) == len(tm.states) + 1 == 71


def test_closure_rejects_a_pair_that_is_not_an_involution(monkeypatch, fresh_row_transfer_matrix):
    def broken(state):
        return {(((1, 1, 3, 2), (0, 0, 0, 0)), 0, 0): 2**4}

    monkeypatch.setattr(transfer_oracle, "_row_images", broken)
    with pytest.raises(ValueError, match="involution"):
        row_transfer_matrix(4)


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
def test_vertex_rule_matches_row_diagram_reference(L):
    tm, ref = row_transfer_matrix(L), reference_transfer_matrix(L)
    assert tm.states == ref.states
    assert tm.cells == ref.cells
    assert tm.counts == ref.counts
    assert tm.loops_c == ref.loops_c
    assert tm.loops_nc == ref.loops_nc


def test_transfer_matrix_structure():
    for L in (2, 4, 6):
        tm = row_transfer_matrix(L)
        n = len(tm.states)
        for j in range(n):
            col = sum(tm.counts[i][j] for i in range(n))
            assert col == 2**L  # total weight out of any state
            for i in range(n):
                assert tm.counts[i][j] >= 0


def test_transfer_matrix_l2_explicit():
    tm = row_transfer_matrix(2)
    # basis sorted: chord parity 0 then parity 1
    assert tm.counts == ((1, 3), (3, 1))
    assert tm.cells == {
        (0, 0): {(0, 1): 1},
        (1, 0): {(0, 0): 2, (1, 0): 1},
        (0, 1): {(0, 0): 2, (1, 0): 1},
        (1, 1): {(0, 1): 1},
    }
    assert tm.loops_c == (1, 1)
    assert tm.loops_nc == (1, 1)


def test_perron_eigenvalue_and_vectors():
    for L in (2, 4, 6):
        tm = row_transfer_matrix(L)
        right = perron_eigenvectors(tm)
        n = len(tm.states)
        lam = Fraction(2**L)
        for i in range(n):
            assert sum(Fraction(tm.counts[i][j]) * right[j] for j in range(n)) == lam * right[i]
            # the all-ones left vector: every column sums to the eigenvalue
            assert sum(Fraction(tm.counts[j][i]) for j in range(n)) == lam


def test_perron_left_vector_is_all_ones():
    tm = row_transfer_matrix(4)
    right = perron_eigenvectors(tm)
    assert [sum(col) for col in zip(*tm.counts)] == [2**4] * 6
    assert all(isinstance(x, int) and x > 0 for x in right)
    assert math.gcd(*right) == 1


def test_perron_right_vector_exact_at_l8():
    tm = row_transfer_matrix(8)
    right = perron_eigenvectors(tm)
    assert len(right) == 70
    for row, r_i in zip(tm.counts, right):
        assert sum(x * y for x, y in zip(row, right)) == 2**8 * r_i


def test_perron_rejects_column_sum_off_by_one():
    tm = row_transfer_matrix(4)
    counts = [list(row) for row in tm.counts]
    counts[0][3] += 1
    bad = dataclasses.replace(tm, counts=tuple(tuple(row) for row in counts))
    with pytest.raises(DegeneratePerronError, match="column 3"):
        perron_eigenvectors(bad)


def test_perron_rejects_double_eigenvalue():
    # columns sum to 2^2, but 4 I has a two-dimensional eigenspace
    bad = dataclasses.replace(row_transfer_matrix(2), counts=((4, 0), (0, 4)))
    with pytest.raises(DegeneratePerronError, match="reducible"):
        perron_eigenvectors(bad)


def test_perron_rejects_negative_entry():
    # columns sum to 4 and (1, 1) is an exact eigenvector for 4, but the
    # spectral radius is 6, so Perron-Frobenius cannot certify 4
    bad = dataclasses.replace(row_transfer_matrix(2), counts=((5, -1), (-1, 5)))
    with pytest.raises(DegeneratePerronError, match="negative entry"):
        perron_eigenvectors(bad)


def test_perron_rejects_guess_that_does_not_round_exactly():
    # columns sum to 4 and the matrix is irreducible, but its Perron vector
    # (2, 3) scaled to smallest entry 1 is (1, 3/2), which no rounding makes exact
    bad = dataclasses.replace(row_transfer_matrix(2), counts=((1, 2), (3, 2)))
    with pytest.raises(DegeneratePerronError, match="rounded float guess"):
        perron_eigenvectors(bad)


def half_turn_symmetric_asm_count(L):
    """A_HT(L), the number of half-turn symmetric L x L alternating sign
    matrices, from Kuperberg's product over i < n = L/2 of
    (3i)! (3i+2)! / ((n+i)!)^2 (Ann. of Math. 156 (2002) 835)."""
    n = L // 2
    f = math.factorial
    count = math.prod(Fraction(f(3 * i) * f(3 * i + 2), f(n + i) ** 2) for i in range(n))
    assert count.denominator == 1
    return count.numerator


@pytest.mark.parametrize(
    "L, total", [(2, 2), (4, 10), (6, 140), (8, 5544), (10, 622908)]
)
def test_perron_vector_sums_to_half_turn_symmetric_asm_count(L, total):
    # Razumov-Stroganov sum rule for the periodic chain: with smallest entry 1
    # the ground state sums to A_HT(L) (Batchelor, de Gier and Nienhuis,
    # J. Phys. A 34, 2001; proved by Di Francesco and Zinn-Justin, 2005)
    assert half_turn_symmetric_asm_count(L) == total
    right = perron_eigenvectors(row_transfer_matrix(L))
    assert min(right) == 1
    assert sum(right) == half_turn_symmetric_asm_count(L)


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
def test_oracle_matches_closed_form_exactly(L):
    rec = oracle_densities(L)
    assert rec.nu_c == nu_c_exact(L // 2)
    assert rec.nu_nc == nu_nc_exact(L // 2)
    assert rec.method == METHOD_TRANSFER_ORACLE


def test_combined_fugacity_derivative():
    # setting w = v and differentiating counts every closure once
    tm = row_transfer_matrix(4)
    right = perron_eigenvectors(tm)
    lam = Fraction(2**4)
    # the left vector is all-ones, so l . r = sum(r)
    overlap = sum(right)
    total = sum(
        (k[0] + k[1]) * c * right[j]
        for (_, j), cell in tm.cells.items()
        for k, c in cell.items()
    )
    assert total / (lam * overlap * 4) == nu_c_exact(2) + nu_nc_exact(2)


def test_fugacity_entries_consistent_with_derivatives():
    for L in (2, 4, 6):
        tm = row_transfer_matrix(L)
        n = len(tm.states)
        loops_c, loops_nc = [0] * n, [0] * n
        for i, j in itertools.product(range(n), repeat=2):
            cell = tm.cells.get((i, j), {})
            assert tm.counts[i][j] == sum(cell.values())
            assert all(c > 0 for c in cell.values())
            loops_c[j] += sum(k[0] * c for k, c in cell.items())
            loops_nc[j] += sum(k[1] * c for k, c in cell.items())
        assert tuple(loops_c) == tm.loops_c
        assert tuple(loops_nc) == tm.loops_nc
        assert len(tm.cells) == sum(1 for row in tm.counts for x in row if x)


def test_matrix_json_shape():
    payload = matrix_json(2)
    assert payload["L"] == 2
    assert payload["perron_eigenvalue"] == 4
    assert len(payload["states"]) == 2
    total = sum(w["count"] for e in payload["entries"] for w in e["weights"])
    assert total == 2 * 2**2
    # one entry per non-zero cell, in (to, from) order
    entries = [(e["to"], e["from"]) for e in matrix_json(6)["entries"]]
    assert entries == sorted(row_transfer_matrix(6).cells)


MATRIX_JSON_SHA256 = {
    2: "d64a4fc8879fa93f206b3d365eca5cc155e81cc992aba69aff02f85643b6b693",
    4: "0f2531ec44117f9262f0d89c5a32ea12ff7255130a8056af772e37ba164145ed",
    6: "281e7900bffa04bc0247db226dcd7bb8fbbbd4a724a1ef1a63465285f44a109d",
    8: "a4576c7f3791b6ce196d3b2b7288c5078dd25c25b806716f68fd1a9a817a05c7",
}


@pytest.mark.parametrize("L", sorted(MATRIX_JSON_SHA256))
def test_matrix_json_golden_hash(L):
    # the --dump-matrix text, state order and cell order included, is pinned
    text = json.dumps(matrix_json(L), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_JSON_SHA256[L]


def test_size_guards():
    with pytest.raises(ValueError, match=f"L <= {ORACLE_MAX_L}, got {ORACLE_MAX_L + 2}"):
        row_transfer_matrix(ORACLE_MAX_L + 2)
    with pytest.raises(ValueError):
        sixvertex_check(ORACLE_MAX_L + 2)
    with pytest.raises(ValueError):
        row_transfer_matrix(14)
    with pytest.raises(ValueError):
        oracle_densities(3)


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
def test_sixvertex_stochastic_point(L):
    rep = sixvertex_check(L)
    assert rep.lambda_rel_error < 1e-9
    assert rep.phi_symmetry_error < 1e-9
    # the Hellmann-Feynman derivative is exact up to rounding
    assert rep.nu_nc_error < 1e-12


@pytest.mark.parametrize("L", [2, 4, 6])
def test_sixvertex_symmetry_check_sees_a_complex_lambda(monkeypatch, L):
    # with A1 scaled by 1.05 Lambda(phi) is not real, so Lambda(-phi), its
    # conjugate, differs from it
    build = transfer_oracle.sixvertex_transfer
    monkeypatch.setattr(
        transfer_oracle, "sixvertex_transfer", lambda L: [(a0, 1.05 * a1) for a0, a1 in build(L)]
    )
    assert sixvertex_check(L).phi_symmetry_error > 1e-3


@pytest.mark.parametrize("L", [2, 4, 6])
def test_sixvertex_check_takes_lambda_over_every_sector(monkeypatch, L):
    # sector L/2 - 1 boosted above 2^L: a check of sector L/2 alone would pass
    build = transfer_oracle.sixvertex_transfer
    u = cmath.exp(1j * math.pi / 3)

    def boosted(L):
        blocks = build(L)
        a0, a1 = blocks[L // 2 - 1]
        scale = 2 * 2**L / np.max(np.abs(np.linalg.eigvals(a0 / u + a1 * u)))
        blocks[L // 2 - 1] = (scale * a0, scale * a1)
        return blocks

    monkeypatch.setattr(transfer_oracle, "sixvertex_transfer", boosted)
    assert sixvertex_check(L).lambda_rel_error > 1e-3


def test_sixvertex_fd_derivative_l4():
    rep = sixvertex_check(4)
    assert rep.nu_nc_error < 1e-6
    assert rep.nu_nc_exact == pytest.approx(11.0 / 320.0)


def test_sixvertex_weight_structure_at_stochastic_point():
    # the reference weights the seam gauge rests on: the twist pairs a1 with
    # a2 and b1 with b2 as conjugates, and c1 = c2 = sqrt(3) carry no twist
    W = twisted_vertex_tensor(L=4, phi=math.pi / 3)
    assert abs(W[1, 1, 1, 1] - W[0, 0, 0, 0].conjugate()) < 1e-15
    assert abs(W[1, 0, 1, 0] - W[0, 1, 0, 1].conjugate()) < 1e-15
    assert abs(W[1, 1, 0, 0] - W[0, 0, 1, 1]) < 1e-15
    assert abs(W[1, 1, 0, 0].imag) < 1e-15
    assert W[1, 1, 0, 0].real == pytest.approx(math.sqrt(3.0))


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_sixvertex_blocks_are_integer_pairs_on_the_sectors(L):
    blocks = sixvertex_transfer(L)
    sectors = sector_states(L)
    assert len(blocks) == L + 1
    assert [len(s) for s in sectors] == [math.comb(L, k) for k in range(L + 1)]
    for k, (a0, a1) in enumerate(blocks):
        for a in (a0, a1):
            assert np.issubdtype(a.dtype, np.integer)
            assert a.shape == (math.comb(L, k), math.comb(L, k))
            assert a.min() >= 0


@pytest.mark.parametrize("L", [2, 4, 6])
@pytest.mark.parametrize("phi", [math.pi / 3, 0.7, -0.3])
def test_sixvertex_blocks_match_dense_reference(L, phi):
    dense = sixvertex_transfer_dense(L, phi)
    blocks = sixvertex_transfer(L)
    # arrow conservation: the reference has no entry between sectors
    ups = np.array([bin(x).count("1") for x in range(2**L)])
    assert np.all(dense[ups[:, None] != ups[None, :]] == 0)
    # each reference block is D^-1 (exp(-i phi) A0 + exp(i phi) A1) D with
    # D[alpha] = exp(-2i phi / L * sum_j (L - 1 - j) alpha_j), since the
    # horizontal edges follow h_(j+1) = h_j + beta_j - alpha_j
    u = cmath.exp(1j * phi)
    for (a0, a1), states in zip(blocks, sector_states(L)):
        bits = (states[:, None] >> np.arange(L)) & 1
        d = np.exp(-2j * phi / L * (bits @ np.arange(L - 1, -1, -1)))
        gauged = (a0 / u + a1 * u) * d[None, :] / d[:, None]
        assert np.max(np.abs(gauged - dense[np.ix_(states, states)])) <= 1e-12
    # the union of the block spectra is the dense spectrum
    remaining = list(np.concatenate([np.linalg.eigvals(a0 / u + a1 * u) for a0, a1 in blocks]))
    dense_eigs = np.linalg.eigvals(dense)
    tol = 1e-9 * np.max(np.abs(dense_eigs))
    for e in dense_eigs:
        k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - e))
        assert abs(remaining.pop(k) - e) <= tol
    assert remaining == []


def test_sixvertex_check_builds_the_blocks_once(monkeypatch):
    calls = []
    build = transfer_oracle.sixvertex_transfer

    def counted(L):
        calls.append(L)
        return build(L)

    monkeypatch.setattr(transfer_oracle, "sixvertex_transfer", counted)
    # one eig per sector block, one more for the winning block's left vector
    eig = np.linalg.eig
    eig_sizes = []

    def counted_eig(a):
        eig_sizes.append(len(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    rep = sixvertex_check(6)
    assert calls == [6]
    assert eig_sizes == [math.comb(6, k) for k in range(7)] + [math.comb(6, 3)]
    assert rep.lambda_rel_error < 1e-9
