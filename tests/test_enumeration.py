"""The block enumerations against plain per-state references.

The colouring histogram of the exact oracle is checked against
``itertools.product``, and every consumer of ``graphs.subset_scan`` against
the Gray-code scan the block scan replaced, which is kept here as the
reference.  The cases straddle the low/high split: at the real block sizes
the larger instances pass it, and a patched smaller block puts the split
inside small graphs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from pottspart import graphs, oracle
from pottspart.errors import PreconditionError
from pottspart.generate import random_regular
from pottspart.graphs import Graph, is_alpha_expander, subset_scan, vertices_of_mask
from pottspart.oracle import (
    exact_log_z,
    exact_log_z_psi,
    exact_log_z_star,
    expansion_profile,
    k_way_expansion,
    min_conductance,
)

from conftest import complete, cube, cycle, petersen, triangles_with_bridge, two_triangles


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


def _histogram(n, edges, q):
    hist = np.zeros(len(edges) + 1, dtype=np.int64)
    for _, mono in oracle._mono_blocks(n, edges, q, oracle._low_block(n, q)):
        hist += np.bincount(mono, minlength=len(edges) + 1)
    return hist.tolist()


def _reference_histogram(n, edges, q):
    hist = [0] * (len(edges) + 1)
    for colours in itertools.product(range(q), repeat=n):
        hist[sum([colours[a] == colours[b] for a, b in edges])] += 1
    return hist


def _random_edges(rng, n, m):
    """m distinct random edges on n vertices, each given either way round."""
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]


# q=2 splits after 15 vertices, q=3 after 9, q=4 after 7
@pytest.mark.parametrize(
    "q, n",
    [(2, 14), (2, 15), (2, 16), (2, 17), (3, 8), (3, 9), (3, 10), (3, 11), (4, 7), (4, 8)],
)
def test_mono_histogram_matches_product(q, n):
    rng = random.Random(100 * q + n)
    edges = _random_edges(rng, n, n + 4)
    assert _histogram(n, edges, q) == _reference_histogram(n, edges, q)


def test_mono_histogram_disconnected_with_isolated_vertices():
    # two components, vertex 3 isolated in the low block and vertex 16 in
    # the high rest, edges given both ways round
    n = 17
    edges = [(1, 0), (2, 1), (0, 2), (4, 5), (15, 4), (14, 15), (5, 14)]
    edges += [(6, 7), (8, 7), (9, 8), (10, 9), (11, 10), (12, 11), (13, 12)]
    assert oracle._low_block(n, 2).shape[0] == 15
    assert _histogram(n, edges, 2) == _reference_histogram(n, edges, 2)


def test_colours_above_256_stay_distinct():
    # colours are stored in 16 bits once q exceeds a byte
    g = Graph.from_edges([(0, 1)])
    for q in (256, 257, 300):
        expected = np.log(q * np.e + q * (q - 1))
        assert np.isclose(exact_log_z(g, q, 1.0), expected, rtol=1e-12)


@pytest.mark.parametrize("block", [1, 4, 9])
def test_high_colourings_leave_every_oracle_unchanged(monkeypatch, block):
    """A smaller low block gives the same histograms, so the same floats."""
    rng = random.Random(block)
    cases = [(triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]])]
    for n in (7, 8):
        while True:
            try:
                g = Graph.from_edges(_random_edges(rng, n, n + 3), n=n)
                break
            except PreconditionError:
                continue
        cases.append((g, [list(range(0, n, 2)), list(range(1, n, 2))]))
    expected = []
    for g, parts in cases:
        for q in (2, 3):
            expected.append(
                (
                    exact_log_z(g, q, 0.7),
                    exact_log_z_psi(g, parts, (0, q - 1), q, 0.7),
                    exact_log_z_star(g, parts, q, 0.7),
                )
            )
    monkeypatch.setattr(oracle, "_BLOCK", block)
    got = []
    for g, parts in cases:
        for q in (2, 3):
            assert oracle._low_block(g.n, q).shape[0] < g.n
            got.append(
                (
                    exact_log_z(g, q, 0.7),
                    exact_log_z_psi(g, parts, (0, q - 1), q, 0.7),
                    exact_log_z_star(g, parts, q, 0.7),
                )
            )
    assert got == expected


# ---------------------------------------------------------------------------
# subsets: the Gray-code scan the block scan replaced, and its consumers
# ---------------------------------------------------------------------------


def _gray_scan(g):
    """(mask, boundary, volume) over nonempty subsets, one vertex per step."""
    adj, deg = g.adj_masks, g.degrees
    mask = bnd = vol = 0
    for i in range(1, 1 << g.n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            vol -= deg[v]
            bnd -= deg[v] - 2 * (adj[v] & mask).bit_count()
        else:
            bnd += deg[v] - 2 * (adj[v] & mask).bit_count()
            mask ^= bit
            vol += deg[v]
        yield mask, bnd, vol


def _reference_alpha(g, scan, alpha):
    a = Fraction(alpha)
    witness = 1 << g.n
    for mask, bnd, _ in scan:
        size = mask.bit_count()
        if mask < witness and 2 * size <= g.n and bnd * a.denominator < a.numerator * size:
            witness = mask
    if witness >> g.n:
        return True, None
    return False, vertices_of_mask(witness)


def _conductance_minimisers(g):
    """The exact conductance and the masks of every set attaining it."""
    best, masks = None, []
    for mask, bnd, vol in _gray_scan(g):
        if vol == 0 or 2 * vol > 2 * g.m:
            continue
        value = Fraction(bnd, vol)
        if best is None or value < best:
            best, masks = value, [mask]
        elif value == best:
            masks.append(mask)
    return best, masks


def _reference_profile(scan, bound):
    bound = Fraction(bound)
    return min(Fraction(bnd, vol) for _, bnd, vol in scan if 0 < vol <= bound)


def _gray_blocks(g):
    """The Gray scan laid out as one block in mask order."""
    size = 1 << g.n
    bnd, vol = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    for mask, b, v in _gray_scan(g):
        bnd[mask], vol[mask] = b, v
    masks = np.arange(size, dtype=np.int64)
    yield masks, np.array([m.bit_count() for m in range(size)]), bnd, vol


def _relabelled_cycle(n):
    """A cycle visiting 0, n-1, 1, 2, ..., n-2: its half arcs in mask order
    and in the order of their vertex tuples have different first members."""
    order = [0, n - 1] + list(range(1, n - 1))
    return Graph.from_edges([(order[i], order[(i + 1) % n]) for i in range(n)])


def _random_graph(rng, n, p):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        try:
            return Graph.from_edges(edges, n=n)
        except PreconditionError:
            continue


def _subset_graphs():
    rng = random.Random(7)
    return [
        _relabelled_cycle(16),
        random_regular(16, 3, 1),
        _random_graph(rng, 17, 0.25),
        _random_graph(rng, 16, 0.4),
    ]


@pytest.fixture(params=[None, 3], ids=["real-block", "block-3"])
def block_bits(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(graphs, "_SUBSET_BLOCK_BITS", request.param)
    return request.param


def _small_graphs():
    rng = random.Random(11)
    return [
        _relabelled_cycle(8),
        cube(),
        petersen(),
        two_triangles(),
        triangles_with_bridge(),
        _random_graph(rng, 9, 0.35),
    ]


def _graphs_for(block_bits):
    return _small_graphs() if block_bits else _subset_graphs()


def test_scan_fields_match_gray_scan(block_bits):
    for g in _graphs_for(block_bits):
        low = min(g.n, graphs._SUBSET_BLOCK_BITS)
        assert low < g.n
        expected = {mask: (bnd, vol) for mask, bnd, vol in _gray_scan(g)}
        expected[0] = (0, 0)
        seen = []
        for masks, sizes, bnd, vol in subset_scan(g):
            assert len(masks) == 1 << low
            for mask, size, b, v in zip(masks.tolist(), sizes.tolist(), bnd.tolist(), vol.tolist()):
                assert size == mask.bit_count()
                assert (b, v) == expected[mask]
                seen.append(mask)
        assert seen == list(range(1 << g.n))


def test_alpha_expander_witnesses_match_gray_scan(block_bits):
    cases = 0
    for g in _graphs_for(block_bits):
        scan = list(_gray_scan(g))
        best = min(
            Fraction(bnd, mask.bit_count())
            for mask, bnd, _ in scan
            if 2 * mask.bit_count() <= g.n
        )
        for alpha in (best, best + Fraction(1, 100), 2 * best + Fraction(1, 3), 0.75, 5):
            assert is_alpha_expander(g, alpha) == _reference_alpha(g, scan, alpha)
            cases += 1
    assert cases >= 16


def test_min_conductance_breaks_ties_by_vertex_tuple(block_bits):
    g = _relabelled_cycle(8 if block_bits else 16)
    value, masks = _conductance_minimisers(g)
    by_tuple = min(vertices_of_mask(m) for m in masks)
    # the instance has teeth: mask order would pick another witness
    assert vertices_of_mask(min(masks)) != by_tuple
    assert min_conductance(g) == (value, by_tuple)


def test_min_conductance_matches_gray_scan(block_bits):
    for g in _graphs_for(block_bits):
        value, masks = _conductance_minimisers(g)
        assert min_conductance(g) == (value, min(vertices_of_mask(m) for m in masks))


def test_expansion_profile_matches_gray_scan(block_bits):
    for g in _graphs_for(block_bits):
        scan = list(_gray_scan(g))
        for bound in (g.max_degree, Fraction(5, 2) * g.max_degree, g.m):
            assert expansion_profile(g, bound) == _reference_profile(scan, bound)


def test_k_way_expansion_matches_gray_scan(monkeypatch):
    graphs_ = [_relabelled_cycle(8), cube(), triangles_with_bridge(), complete(5)]
    graphs_.append(_random_graph(random.Random(3), 9, 0.4))
    expected = {}
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "subset_scan", _gray_blocks)
        for i, g in enumerate(graphs_):
            for k in (2, 3):
                expected[i, k] = k_way_expansion(g, k)
    for bits in (15, 3):
        monkeypatch.setattr(graphs, "_SUBSET_BLOCK_BITS", bits)
        for i, g in enumerate(graphs_):
            for k in (2, 3):
                assert k_way_expansion(g, k) == expected[i, k]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: is_alpha_expander(g, float("nan")), "alpha must be finite, got nan"),
        (lambda g: is_alpha_expander(g, float("inf")), "alpha must be finite, got inf"),
        (
            lambda g: expansion_profile(g, float("nan")),
            "volume_bound must be finite, got nan",
        ),
    ],
    ids=["alpha-nan", "alpha-inf", "volume-bound-nan"],
)
def test_non_finite_arguments_are_refused_by_name(call, message):
    with pytest.raises(PreconditionError, match=message):
        call(cycle(6))
