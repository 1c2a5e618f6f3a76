"""Graph construction, parsing, and exact set-quantity tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pottspart import graphs
from pottspart.errors import ParseError, PreconditionError
from pottspart.graphs import (
    Graph,
    boundary_size,
    components,
    connected_sets,
    cross_edges,
    induced_subgraph,
    is_alpha_expander,
    mask_of,
    parse_graph,
    serialize_graph,
    set_conductance,
    volume,
)
from pottspart.polymers import boundary_edge_set

from conftest import complete, cycle, path, two_triangles
from reference import closure_size, total_volume


def _random_graph(rng: random.Random, n: int, p: float) -> Graph | None:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    try:
        return Graph.from_edges(edges, n=n)
    except PreconditionError:
        return None


class TestConstruction:
    def test_path_basics(self):
        g = parse_graph("0 1\n1 2")
        assert g.n == 3
        assert g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))
        assert g.degrees == (1, 2, 1)

    def test_degree_sum_is_twice_edges(self):
        g = complete(5)
        assert sum(g.degrees) == 2 * g.m

    def test_self_loop_rejected(self):
        with pytest.raises(PreconditionError, match="self-loop"):
            Graph.from_edges([(0, 0), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            Graph.from_edges([(0, 1), (1, 0)])

    def test_isolated_rejected(self):
        with pytest.raises(PreconditionError, match="isolated"):
            Graph.from_edges([(0, 1)], n=3)

    def test_isolated_allowed_when_requested(self):
        g = Graph.from_edges([(0, 1)], n=3, allow_isolated=True)
        assert g.degrees == (1, 1, 0)
        g = Graph.from_edges([(0, 1), (1, 4)], allow_isolated=True)
        assert g.degrees == (1, 2, 0, 0, 1)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            Graph.from_edges([])


class TestParse:
    def test_comments_and_blanks(self):
        g = parse_graph("# a path\n\n0 1\n\n# mid\n1 2\n")
        assert g.m == 2 and g.n == 3

    def test_every_line_is_an_edge(self):
        # a first line that reads as "n m" is an edge like any other
        assert parse_graph("3 2\n0 1\n1 2\n").edges == ((0, 1), (1, 2), (2, 3))
        assert parse_graph("2 1\n0 1\n").edges == ((0, 1), (1, 2))
        assert parse_graph("1 0\n").edges == ((0, 1),)

    def test_header_with_extra_vertex_capacity_rejected_isolated(self):
        # "4 2" is the edge 2-4, which leaves vertex 3 isolated
        with pytest.raises(ParseError, match="vertex 3 is isolated"):
            parse_graph("4 2\n0 1\n1 2\n")

    def test_non_header_first_line_is_edge(self):
        g = parse_graph("0 1\n1 2\n")
        assert g.m == 2

    def test_bad_line_number_reported(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("0 1\n1 2\nbogus line\n")

    def test_self_loop_line_reported(self):
        with pytest.raises(ParseError, match="line 2: self-loop"):
            parse_graph("0 1\n2 2\n")

    def test_duplicate_line_reported(self):
        with pytest.raises(ParseError, match="line 3: duplicate"):
            parse_graph("0 1\n1 2\n1 0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_graph("# nothing here\n")

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            g = _random_graph(rng, rng.randint(2, 9), 0.5)
            if g is None:
                continue
            assert parse_graph(serialize_graph(g)) == g

    @given(st.integers(3, 9), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, n, seed):
        g = _random_graph(random.Random(seed), n, 0.6)
        if g is None:
            return
        assert parse_graph(serialize_graph(g)) == g


class TestOneConstructor:
    """parse_graph, from_edges and induced_subgraph build the same Graph."""

    def test_three_routes_give_equal_graphs(self):
        rng = random.Random(31)
        built = 0
        for _ in range(200):
            g = _random_graph(rng, rng.randint(2, 12), rng.choice((0.3, 0.6)))
            if g is None:
                continue
            # edges in random order and orientation
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(edges)
            text = "".join(f"{u} {v}\n" for u, v in edges)
            assert parse_graph(text) == g
            assert Graph.from_edges(edges, n=g.n) == g
            assert induced_subgraph(g, range(g.n)) == (g, tuple(range(g.n)))
            built += 1
        assert built > 100

    def test_edgeless_graph_when_isolated_vertices_are_allowed(self):
        g = Graph.from_edges([], n=3, allow_isolated=True)
        assert (g.n, g.m, g.edges, g.degrees, g.adj_masks) == (
            3, 0, (), (0, 0, 0), (0, 0, 0)
        )
        assert induced_subgraph(cycle(5), [0, 2], allow_isolated=True)[0] == (
            Graph.from_edges([], n=2, allow_isolated=True)
        )

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Graph.from_edges([]), PreconditionError,
             "graph must have at least one edge"),
            (lambda: Graph.from_edges([], n=0, allow_isolated=True),
             PreconditionError, "graph must have at least one edge"),
            (lambda: Graph.from_edges([], n=3), PreconditionError,
             "graph must have at least one edge"),
            (lambda: Graph.from_edges([(0, 1)], n=3), PreconditionError,
             "vertex 2 is isolated"),
            (lambda: Graph.from_edges([(0, 2)]), PreconditionError,
             "vertex 1 is isolated"),
            (lambda: Graph.from_edges([(0, 2), (2, 5), (4, 7)]), PreconditionError,
             "vertex 1 is isolated"),
            (lambda: Graph.from_edges([(0, 1), (2, 3)], n=6), PreconditionError,
             "vertex 4 is isolated"),
            (lambda: Graph.from_edges([(1, 1)]), PreconditionError,
             "self-loop at vertex 1"),
            (lambda: Graph.from_edges([(-1, 2)]), PreconditionError,
             "negative vertex id in edge -1 2"),
            (lambda: Graph.from_edges([(0, 1), (1, 0)]), PreconditionError,
             "duplicate edge 0 1"),
            (lambda: Graph.from_edges([(0, 3)], n=3), PreconditionError,
             "edge endpoint 3 out of range for declared n=3"),
            (lambda: parse_graph("0 2\n"), ParseError, "vertex 1 is isolated"),
            (lambda: parse_graph("4 2\n0 1\n1 2\n"), ParseError,
             "vertex 3 is isolated"),
            (lambda: parse_graph("0 1\n2 2\n"), ParseError,
             "line 2: self-loop 2 2"),
            (lambda: parse_graph("0 1\n1 2\n1 0\n"), ParseError,
             "line 3: duplicate edge 1 0"),
            (lambda: parse_graph("0 -1\n"), ParseError,
             "line 1: negative vertex id in '0 -1'"),
            (lambda: parse_graph("0 1 2\n"), ParseError,
             "line 1: expected two integers, got '0 1 2'"),
            (lambda: parse_graph(""), ParseError, "no edges: empty graph text"),
            pytest.param(lambda: parse_graph("3 0\n"), ParseError,
                         "vertex 1 is isolated", id="n-m-line-is-an-edge"),
            (lambda: induced_subgraph(cycle(5), [0, 1, 3]), PreconditionError,
             "vertex 2 is isolated"),
            (lambda: induced_subgraph(cycle(5), [0, 2]), PreconditionError,
             "graph must have at least one edge"),
            (lambda: induced_subgraph(cycle(5), []), PreconditionError,
             "induced subgraph of the empty set"),
        ],
    )
    def test_refusal_messages(self, build, error, message):
        with pytest.raises(error) as got:
            build()
        assert type(got.value) is error
        assert str(got.value) == message

    def test_a_gap_in_the_ids_is_refused_before_any_adjacency(self, monkeypatch):
        # no per-vertex list is built for the million ids up to the largest
        real = graphs._sorted_neighbours
        calls = []
        monkeypatch.setattr(
            graphs, "_sorted_neighbours", lambda *a: calls.append(1) or real(*a)
        )
        for build, error in [
            (lambda: parse_graph("0 1\n1 2\n0 1000000\n"), ParseError),
            (lambda: Graph.from_edges([(0, 1), (1, 2), (0, 10**6)]), PreconditionError),
            (lambda: Graph.from_edges([(0, 1), (1, 2), (0, 5)], n=10**6), PreconditionError),
        ]:
            with pytest.raises(error) as got:
                build()
            assert type(got.value) is error
            assert str(got.value) == "vertex 3 is isolated"
        assert calls == []


class TestSetQuantities:
    def test_volume_complete4(self):
        g = complete(4)
        assert total_volume(g) == 12
        assert volume(g, [0, 1]) == 6

    def test_cross_edges_examples(self):
        g = complete(3)
        assert cross_edges(g, [0], [1, 2]) == 2
        assert cross_edges(g, [0, 1], [1, 2]) == 2  # edges into {2}
        assert cross_edges(g, [0], [0]) == 0

    def test_cross_edges_symmetric_on_disjoint(self):
        rng = random.Random(11)
        for _ in range(80):
            g = _random_graph(rng, rng.randint(3, 9), 0.5)
            if g is None:
                continue
            vs = list(range(g.n))
            rng.shuffle(vs)
            k1 = rng.randint(1, g.n - 1)
            k2 = rng.randint(1, g.n - k1)
            s, t = vs[:k1], vs[k1 : k1 + k2]
            assert cross_edges(g, s, t) == cross_edges(g, t, s)

    def test_boundary_closure_cycle4(self):
        g = cycle(4)
        s = [0, 1]
        assert boundary_size(g, s) == 2
        assert closure_size(g, s) == 3

    def test_boundary_is_cut_to_complement(self):
        rng = random.Random(13)
        for _ in range(80):
            g = _random_graph(rng, rng.randint(3, 9), 0.5)
            if g is None:
                continue
            k = rng.randint(1, g.n - 1)
            s = rng.sample(range(g.n), k)
            comp = [v for v in range(g.n) if v not in set(s)]
            assert boundary_size(g, s) == cross_edges(g, s, comp)
            assert boundary_size(g, s) == cross_edges(g, s, range(g.n))

    def test_closure_decomposition(self):
        # closure = boundary + internal edges
        rng = random.Random(17)
        for _ in range(80):
            g = _random_graph(rng, rng.randint(3, 9), 0.5)
            if g is None:
                continue
            k = rng.randint(1, g.n)
            s = set(rng.sample(range(g.n), k))
            internal = sum(1 for u, v in g.edges if u in s and v in s)
            assert closure_size(g, s) == boundary_size(g, s) + internal

    def test_conductance_examples(self):
        assert set_conductance(cycle(6), [0, 1, 2]) == Fraction(1, 3)
        assert set_conductance(complete(4), [0, 1]) == Fraction(2, 3)
        assert set_conductance(complete(4), list(range(4))) == Fraction(0)

    def test_conductance_empty_rejected(self):
        with pytest.raises(PreconditionError):
            set_conductance(cycle(4), [])

    def test_conductance_zero_volume_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3, allow_isolated=True)
        with pytest.raises(PreconditionError, match="zero volume"):
            set_conductance(g, [2])


@pytest.mark.parametrize(
    "refuses",
    [volume, mask_of, induced_subgraph, boundary_edge_set],
    ids=lambda f: f.__name__,
)
def test_vertex_set_with_a_repeat_is_refused(refuses):
    with pytest.raises(PreconditionError, match="repeats"):
        refuses(cycle(5), [0, 1, 1])


class TestInducedSubgraph:
    def test_relabelling_map(self):
        g = cycle(5)
        sub, vs = induced_subgraph(g, [1, 2, 3])
        assert vs == (1, 2, 3)
        assert sub.edges == ((0, 1), (1, 2))

    def test_isolated_in_subgraph_rejected_by_default(self):
        g = cycle(5)
        with pytest.raises(PreconditionError, match="isolated"):
            induced_subgraph(g, [0, 1, 3])

    def test_isolated_allowed(self):
        g = cycle(5)
        sub, vs = induced_subgraph(g, [0, 1, 3], allow_isolated=True)
        assert vs == (0, 1, 3)
        assert sub.degrees == (1, 1, 0)

    def test_subgraph_edge_count_matches_bruteforce(self):
        rng = random.Random(23)
        for _ in range(60):
            g = _random_graph(rng, rng.randint(4, 9), 0.6)
            if g is None:
                continue
            k = rng.randint(2, g.n)
            s = sorted(rng.sample(range(g.n), k))
            expected = sum(1 for u, v in g.edges if u in set(s) and v in set(s))
            sub, _ = induced_subgraph(g, s, allow_isolated=True)
            assert sub.m == expected

    def test_direct_build_equals_from_edges(self):
        # the part is read off the parent's adjacency; it must be the graph
        # from_edges builds from the relabelled edges, refusals included
        rng = random.Random(29)
        refusals = set()
        for _ in range(300):
            g = _random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5)))
            if g is None:
                continue
            s = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            index = {v: i for i, v in enumerate(s)}
            relabelled = [
                (index[u], index[v]) for u, v in g.edges if u in index and v in index
            ]
            sub, vs = induced_subgraph(g, s, allow_isolated=True)
            assert vs == tuple(s)
            assert sub == Graph.from_edges(relabelled, n=len(s), allow_isolated=True)
            try:
                expected = Graph.from_edges(relabelled, n=len(s))
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    induced_subgraph(g, s)
                assert str(got.value) == str(exc)
                refusals.add(
                    "edge" if "at least one edge" in str(exc) else "isolated"
                )
            else:
                assert induced_subgraph(g, s) == (expected, vs)
        assert refusals == {"edge", "isolated"}


class TestComponents:
    def test_two_triangles(self):
        g = two_triangles()
        assert components(g) == [(0, 1, 2), (3, 4, 5)]

    def test_connected_path(self):
        assert len(components(path(6))) == 1


def _connected_mask(g: Graph, mask: int) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier ^= 1 << v
        fresh = g.adj_masks[v] & mask & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == mask


class TestConnectedSets:
    @pytest.mark.parametrize("filtered", [False, True])
    def test_matches_bruteforce(self, filtered):
        rng = random.Random(29 + filtered)
        checked = 0
        for _ in range(40):
            g = _random_graph(rng, rng.randint(3, 10), rng.choice((0.3, 0.5)))
            if g is None:
                continue
            weights = [rng.randint(1, 3) for _ in range(g.n)]
            cap = rng.randint(1, 12)
            # hereditary filter: at most two vertices of a fixed half
            half = mask_of(g, rng.sample(range(g.n), g.n // 2))
            admit = (lambda m: (m & half).bit_count() <= 2) if filtered else None
            expected = {
                mask
                for mask in range(1, 1 << g.n)
                if _connected_mask(g, mask)
                and sum(weights[v] for v in range(g.n) if mask >> v & 1) <= cap
                and (admit is None or admit(mask))
            }
            got = list(connected_sets(g.adj_masks, weights, cap, admit))
            masks = [mask_of(g, members) for members in got]
            assert len(masks) == len(set(masks))  # each set once
            assert set(masks) == expected
            seen = set()
            for members in got:
                assert members[0] == min(members)
                # members in the order added: every prefix is connected,
                # and the set it grew from came earlier (pre-order)
                for k in range(1, len(members) + 1):
                    assert _connected_mask(g, mask_of(g, members[:k]))
                if len(members) > 1:
                    assert members[:-1] in seen
                seen.add(members)
            checked += len(got)
        assert checked > 100


class TestAlphaExpander:
    def test_complete4_is_2_expander(self):
        ok, witness = is_alpha_expander(complete(4), 2)
        assert ok and witness is None

    def test_two_triangles_fail_with_witness(self):
        ok, witness = is_alpha_expander(two_triangles(), Fraction(1, 10))
        assert not ok
        assert witness == (0, 1, 2)
        g = two_triangles()
        assert boundary_size(g, witness) < Fraction(1, 10) * len(witness)

    def test_exact_threshold_boundary(self):
        # C_4: every |S| <= 2 has boundary 2, so alpha = 1 holds with equality.
        ok, _ = is_alpha_expander(cycle(4), 1)
        assert ok
        ok, witness = is_alpha_expander(cycle(4), Fraction(101, 100))
        assert not ok and witness is not None

    def test_cap(self):
        with pytest.raises(PreconditionError, match="capped"):
            is_alpha_expander(cycle(25), 0.5)

    def test_witness_minimality_order(self):
        # the witness is the first violating set in ascending-bitmask order
        g = path(4)
        ok, witness = is_alpha_expander(g, 2)
        assert not ok
        assert witness == (0,)  # mask 1 is checked first and violates
        # the Gray-order scan meets {1, 3} (mask 10) before {3} (mask 8)
        g = Graph.from_edges(
            [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (2, 5), (4, 5)]
        )
        ok, witness = is_alpha_expander(g, Fraction(4, 3))
        assert not ok
        assert witness == (3,)
