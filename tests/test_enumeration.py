"""The enumerations against plain per-state references.

The colouring histogram of the exact oracle, a contraction along an
elimination order that hands what it cannot hold to a block enumeration, is
checked against ``itertools.product`` and against closed forms; the least
boundaries of the expansion check's min-plus contraction, and every consumer
of ``graphs.subset_scan``, against the Gray-code scan the block scan
replaced, which is kept here as the reference.  A patched smaller block
sends small graphs through the block enumeration.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pottspart import graphs, oracle
from pottspart.budgets import STATE_BUDGET
from pottspart.errors import BudgetError, PreconditionError
from pottspart.generate import random_regular
from pottspart.graphs import Graph, is_alpha_expander, subset_scan, vertices_of_mask
from pottspart.oracle import exact_log_z, min_conductance
from pottspart.util import log_count_sum

import reference
from conftest import complete, cube, cycle, petersen, triangles_with_bridge, two_triangles
from reference import (
    exact_log_z_psi,
    exact_log_z_star,
    expansion_profile,
    k_way_expansion,
)


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


def _histogram(n, edges, q):
    g = Graph.from_edges(edges, n=n, allow_isolated=True)
    return oracle._mono_histogram(g, q).tolist()


def _reference_histogram(n, edges, q):
    hist = [0] * (len(edges) + 1)
    for colours in itertools.product(range(q), repeat=n):
        hist[sum([colours[a] == colours[b] for a, b in edges])] += 1
    return hist


def _random_edges(rng, n, m):
    """m distinct random edges on n vertices, each given either way round."""
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]


def _random_tree_edges(rng, n):
    """A random tree on n shuffled labels, edges given either way round."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)]
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def _spy_mono_blocks(monkeypatch):
    """Record (high vertices, table entries) of each block enumeration, the
    exact histogram's and the reference sums' alike."""
    calls = []
    real = oracle._mono_blocks

    def spy(n, edges, q, cols, base=None):
        calls.append((n - cols.shape[0], cols.shape[1]))
        return real(n, edges, q, cols, base)

    monkeypatch.setattr(oracle, "_mono_blocks", spy)
    monkeypatch.setattr(reference, "_mono_blocks", spy)
    return calls


@pytest.mark.parametrize(
    "q, n",
    [(2, 14), (2, 15), (2, 16), (2, 17), (3, 8), (3, 9), (3, 10), (3, 11), (4, 7), (4, 8)],
)
def test_mono_histogram_matches_product(q, n):
    rng = random.Random(100 * q + n)
    edges = _random_edges(rng, n, n + 4)
    assert _histogram(n, edges, q) == _reference_histogram(n, edges, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_complete_graph_histogram_matches_product(n, q):
    # nothing leaves the frontier before the last vertex, so nothing merges
    edges = list(itertools.combinations(range(n), 2))
    assert _histogram(n, edges, q) == _reference_histogram(n, edges, q)


@pytest.mark.parametrize("q, n", [(2, 12), (2, 15), (3, 9), (3, 10)])
def test_tree_histogram_matches_product(q, n):
    edges = _random_tree_edges(random.Random(n), n)
    assert _histogram(n, edges, q) == _reference_histogram(n, edges, q)


def test_mono_histogram_disconnected_with_isolated_vertices():
    # two components and the isolated vertices 3 and 16, edges given both
    # ways round
    n = 17
    edges = [(1, 0), (2, 1), (0, 2), (4, 5), (15, 4), (14, 15), (5, 14)]
    edges += [(6, 7), (8, 7), (9, 8), (10, 9), (11, 10), (12, 11), (13, 12)]
    assert _histogram(n, edges, 2) == _reference_histogram(n, edges, 2)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _largest_n(q):
    """The largest n whose q**n colourings fit the state budget."""
    return int(math.log(STATE_BUDGET, q) + 1e-9)


@pytest.mark.parametrize("q", [2, 3])
def test_cycle_histograms_match_closed_form(q):
    # coefficients of (x+q-1)^n + (q-1)(x-1)^n
    top = _largest_n(q)
    for n in range(3, top + 1):
        expected = _poly_pow([q - 1, 1], n)
        for j, c in enumerate(_poly_pow([-1, 1], n)):
            expected[j] += (q - 1) * c
        assert oracle._mono_histogram(cycle(n), q).tolist() == expected, n
    # the budget still counts q**n colourings, whatever the program visits
    exact_log_z(cycle(top), q, 0.7)
    with pytest.raises(BudgetError):
        exact_log_z(cycle(top + 1), q, 0.7)


def test_counts_beyond_int64_are_refused():
    # a raised budget lets a long cycle through; its counts must still fit
    expected = [c + d for c, d in zip(_poly_pow([1, 1], 62), _poly_pow([-1, 1], 62))]
    assert oracle._mono_histogram(cycle(62), 2).tolist() == expected
    with pytest.raises(BudgetError, match="overflow the 64-bit histogram counts"):
        exact_log_z(cycle(63), 2, 0.7, budget=2**70)


@pytest.mark.parametrize("q", [2, 3])
def test_tree_histograms_match_closed_form(q):
    # coefficients of q(x+q-1)^(n-1)
    rng = random.Random(q)
    for n in range(2, _largest_n(q) + 1):
        g = Graph.from_edges(_random_tree_edges(rng, n))
        expected = [q * c for c in _poly_pow([q - 1, 1], n - 1)]
        assert oracle._mono_histogram(g, q).tolist() == expected, n


def test_colours_above_256_stay_distinct():
    # colours are stored in 16 bits once q exceeds a byte
    g = Graph.from_edges([(0, 1)])
    for q in (256, 257, 300):
        expected = np.log(q * np.e + q * (q - 1))
        assert np.isclose(exact_log_z(g, q, 1.0), expected, rtol=1e-12)


@pytest.mark.parametrize("block", [1, 4, 9])
def test_high_colourings_leave_every_oracle_unchanged(monkeypatch, block):
    """A smaller block gives the same histograms, so the same floats."""
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
    monkeypatch.setattr(reference, "_BLOCK", block)
    calls = _spy_mono_blocks(monkeypatch)
    got = []
    for g, parts in cases:
        for q in (2, 3):
            low, states = reference._low_block(g.n, q).shape
            assert low < g.n
            calls.clear()
            log_z = exact_log_z(g, q, 0.7)
            # the dynamic program stopped at the block and left high vertices
            assert len(calls) == 1
            high, entries = calls[0]
            assert high > 0 and entries <= block
            got.append(
                (
                    log_z,
                    exact_log_z_psi(g, parts, (0, q - 1), q, 0.7),
                    exact_log_z_star(g, parts, q, 0.7),
                )
            )
            # each restricted sum made one pass over the patched block
            assert calls[1:] == [(g.n - low, states)] * 2
    assert got == expected


@contextlib.contextmanager
def _table_sizes():
    """Record the entries of every table the numpy calls build or grow:
    the outputs of np.broadcast_to, and those of np.zeros and np.where
    with two axes or more (the histogram is one axis)."""
    sizes = []
    patches = contextlib.ExitStack()
    for name in ("zeros", "where", "broadcast_to"):
        real = getattr(np, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            out = _real(*args, **kwargs)
            if _name == "broadcast_to" or out.ndim > 1:
                sizes.append(out.size)
            return out

        patches.enter_context(mock.patch.object(np, name, spy))
    with patches:
        yield sizes


def test_complete_16_keeps_the_table_within_the_block(monkeypatch):
    # no edge is counted before the last vertex: the table of 15 vertices
    # fills the block, and the last vertex is enumerated over it
    calls = _spy_mono_blocks(monkeypatch)
    with _table_sizes() as sizes:
        log_z = exact_log_z(complete(16), 2, 0.7)
    assert max(sizes) == oracle._BLOCK
    assert calls == [(1, oracle._BLOCK)]
    # a colouring with a vertices of colour 0 has C(a,2) + C(16-a,2)
    # monochromatic edges
    hist = [0] * (16 * 15 // 2 + 1)
    for a in range(17):
        hist[math.comb(a, 2) + math.comb(16 - a, 2)] += math.comb(16, a)
    assert log_z == log_count_sum(hist, 0.7)


def test_random_regular_26_needs_no_outer_step(monkeypatch):
    g = random_regular(26, 3, 0)
    # the reference: every colouring, through the block enumeration alone
    hist = [0] * (g.m + 1)
    for _, mono in oracle._mono_blocks(g.n, g.edges, 2, reference._low_block(g.n, 2)):
        for j, c in enumerate(np.bincount(mono, minlength=g.m + 1).tolist()):
            hist[j] += c
    calls = _spy_mono_blocks(monkeypatch)
    with _table_sizes() as sizes:
        log_z = exact_log_z(g, 2, 0.7)
    # the contraction reached the last vertex, within the block
    assert calls == []
    assert max(sizes) <= oracle._BLOCK
    assert log_z == log_count_sum(hist, 0.7)


@st.composite
def _graphs_up_to_12(draw):
    """A graph on 1..12 vertices, edges each present with a drawn chance;
    isolated vertices and several components are allowed."""
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8, 1.0]))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(edges, n=n, allow_isolated=True)


@given(_graphs_up_to_12())
@settings(max_examples=150, deadline=None)
def test_elimination_order_visits_each_vertex_and_leaves_it_after_its_neighbours(g):
    steps = graphs.elimination_order(g)
    assert sorted(v for v, _ in steps) == list(range(g.n))
    assert sorted(x for _, gone in steps for x in gone) == list(range(g.n))
    visited = set()
    frontier = set()
    for v, gone in steps:
        visited.add(v)
        frontier.add(v)
        # exactly the frontier vertices with no unvisited neighbour leave
        assert set(gone) == {w for w in frontier if set(g.adj[w]) <= visited}
        frontier -= set(gone)


def test_an_expander_request_orders_its_graph_once(monkeypatch):
    # the expander check and the exact oracle both contract along the order
    from pottspart.potts import approx_log_z_expander, required_beta_expander

    greedy = graphs._greedy_elimination
    calls = []
    monkeypatch.setattr(
        graphs, "_greedy_elimination", lambda g: calls.append(g.n) or greedy(g)
    )
    g = random_regular(16, 3, 0)
    alpha = 0.5
    beta = 1.1 * required_beta_expander(2, g.max_degree, alpha)
    result = approx_log_z_expander(g, 2, beta, math.exp(-g.n), alpha)
    assert result.mode == "bruteforce"
    assert result.log_z == exact_log_z(g, 2, beta)
    assert calls == [16]


@given(_graphs_up_to_12())
@settings(max_examples=150, deadline=None)
def test_least_boundaries_match_gray_scan(g):
    least = [0] + [g.m + 1] * (g.n // 2)
    for mask, bnd, _ in _gray_scan(g):
        size = mask.bit_count()
        if size <= g.n // 2:
            least[size] = min(least[size], bnd)
    assert graphs._least_boundaries(g) == least


@given(_graphs_up_to_12().filter(lambda g: g.n >= 2))
@settings(max_examples=150, deadline=None)
def test_alpha_expander_matches_gray_scan_around_the_optimum(g):
    scan = list(_gray_scan(g))
    best = min(
        Fraction(bnd, mask.bit_count())
        for mask, bnd, _ in scan
        if 0 < 2 * mask.bit_count() <= g.n
    )
    for alpha in (best, best + Fraction(1, 1000), 2 * best + 3):
        assert is_alpha_expander(g, alpha) == _reference_alpha(g, scan, alpha)


@pytest.mark.parametrize("block", [1, 4, 9])
@given(g=_graphs_up_to_12(), q=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_histogram_matches_product_when_the_table_hands_off(block, g, q):
    if q**g.n > 3**8:
        q = 2
    with mock.patch.object(oracle, "_BLOCK", block), _table_sizes() as sizes:
        got = oracle._mono_histogram(g, q).tolist()
    assert got == _reference_histogram(g.n, g.edges, q)
    assert max(sizes, default=0) <= block


def test_an_expander_is_accepted_without_a_subset_scan(monkeypatch):
    g = random_regular(20, 3, 0)
    best = min(Fraction(b, s) for s, b in enumerate(graphs._least_boundaries(g)) if s)
    scans = []
    real = graphs.subset_scan
    monkeypatch.setattr(graphs, "subset_scan", lambda g: scans.append(1) or real(g))
    assert is_alpha_expander(g, best) == (True, None)
    assert scans == []
    assert is_alpha_expander(g, best + Fraction(1, 1000))[0] is False
    assert scans == [1]


@pytest.mark.parametrize("q, block", [(2, 12), (2, 16), (3, 27)])
def test_a_full_table_of_several_counts_hands_off(monkeypatch, q, block):
    # on a path these blocks stop the contraction at a table whose every
    # (frontier colouring, count) entry is nonzero
    calls = _spy_mono_blocks(monkeypatch)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    got = oracle._mono_histogram(Graph.from_edges(edges), q).tolist()
    assert got == _reference_histogram(5, edges, q)
    assert len(calls) == 1


def test_least_boundaries_give_way_to_the_scan_past_the_block():
    # the order keeps every vertex of a complete graph on the frontier, so
    # K12's table is 7 sizes * 2**12 and K13's would be 7 * 2**13
    assert graphs._least_boundaries(complete(12)) == [0, 11, 20, 27, 32, 35, 36]
    assert graphs._least_boundaries(complete(13)) is None


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


@given(st.sets(st.integers(1, (1 << 10) - 1), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_first_by_vertex_tuple_matches_tuple_order(masks):
    # a prefix comes first: (0, 1) < (0, 1, 3) < (0, 2)
    masks = sorted(masks) + [0b11, 0b1011, 0b101]
    got = oracle._first_by_vertex_tuple(np.array(masks, dtype=np.int64))
    assert vertices_of_mask(got) == min(vertices_of_mask(m) for m in masks)


def test_block_min_separates_ratios_that_tie_as_floats():
    # (v+1)/v and (w+1)/w round to the same float; the second is smaller
    v, w = 3 * 10**8, 3 * 10**8 + 1
    assert (v + 1) / v == (w + 1) / w
    bnd = np.array([v + 1, w + 1, 5], dtype=np.int64)
    vol = np.array([v, w, 1], dtype=np.int64)
    b, u, where = oracle._block_min(bnd, vol, np.array([True, True, True]))
    assert Fraction(b, u) == Fraction(w + 1, w)
    assert where.tolist() == [1]


def test_expansion_profile_matches_gray_scan(block_bits):
    for g in _graphs_for(block_bits):
        scan = list(_gray_scan(g))
        for bound in (g.max_degree, Fraction(5, 2) * g.max_degree, g.m):
            assert expansion_profile(g, bound) == _reference_profile(scan, bound)


def test_k_way_expansion_matches_gray_scan(monkeypatch):
    graphs_ = [_relabelled_cycle(8), cube(), triangles_with_bridge(), complete(5)]
    graphs_.append(_random_graph(random.Random(3), 9, 0.4))
    expected = {}
    scans = []
    with monkeypatch.context() as patch:
        patch.setattr(reference, "subset_scan", lambda g: scans.append(1) or _gray_blocks(g))
        for i, g in enumerate(graphs_):
            for k in (2, 3):
                expected[i, k] = k_way_expansion(g, k)
    # every expected value came from the Gray scan
    assert len(scans) == len(expected)
    for bits in (15, 3):
        monkeypatch.setattr(graphs, "_SUBSET_BLOCK_BITS", bits)
        for i, g in enumerate(graphs_):
            for k in (2, 3):
                assert k_way_expansion(g, k) == expected[i, k]


def test_narrow_fields_at_their_largest_values():
    # K20: boundaries reach 10*10 = 100 and volumes 2m = 380, and the
    # conductance cross-products reach 100*190
    g = complete(20)
    assert next(subset_scan(g))[2].dtype == np.int16
    first_half = tuple(range(10))
    assert is_alpha_expander(g, 10) == (True, None)
    assert is_alpha_expander(g, Fraction(1001, 100)) == (False, first_half)
    assert min_conductance(g) == (Fraction(10, 19), first_half)
    assert expansion_profile(g, 379) == Fraction(1, 19)
    assert expansion_profile(g, 2 * g.m) == 0


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
