"""Exhaustive-enumeration reference tests with hand-frozen values."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pottspart.errors import BudgetError, PreconditionError
from pottspart.graphs import Graph, set_conductance, volume
from pottspart.oracle import exact_log_z, min_conductance
from pottspart.spectral import normalized_laplacian_spectrum
from pottspart.util import log_sum_exp

from conftest import complete, cycle, petersen, triangles_with_bridge, two_triangles
from reference import (
    exact_log_xi,
    exact_log_z_psi,
    exact_log_z_star,
    expansion_profile,
    k_way_expansion,
    monochromatic,
    random_connected,
    sparse_deviation_log_sum,
)


class TestExactLogZ:
    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)])
        for beta in (0.0, 0.5, 1.5):
            expected = math.log(2 * math.exp(beta) + 2)
            assert math.isclose(exact_log_z(g, 2, beta), expected, rel_tol=1e-12)

    def test_triangle_two_colours(self):
        expected = math.log(2 * math.e**3 + 6 * math.e)
        assert math.isclose(exact_log_z(complete(3), 2, 1.0), expected, rel_tol=1e-12)

    def test_triangle_three_colours(self):
        expected = math.log(3 * math.e**3 + 18 * math.e + 6)
        assert math.isclose(exact_log_z(complete(3), 3, 1.0), expected, rel_tol=1e-12)

    def test_zero_beta_counts_states(self):
        for g, q in [(cycle(5), 4), (petersen(), 2), (complete(4), 3)]:
            assert math.isclose(exact_log_z(g, q, 0.0), g.n * math.log(q), rel_tol=1e-12)

    def test_factorizes_over_components(self):
        left = complete(3)
        right = cycle(4)
        union_edges = list(left.edges) + [(a + 3, b + 3) for a, b in right.edges]
        union = Graph.from_edges(union_edges)
        assert exact_log_z(union, 2, 0.8) == exact_log_z(left, 2, 0.8) + exact_log_z(
            right, 2, 0.8
        )

    def test_bounds(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected(rng, rng.randrange(3, 7))
            q = rng.choice([2, 3])
            beta = rng.uniform(0.0, 3.0)
            lz = exact_log_z(g, q, beta)
            assert lz >= math.log(q) + beta * g.m - 1e-12
            assert lz <= g.n * math.log(q) + beta * g.m + 1e-12

    def test_monotone_in_beta(self):
        g = petersen()
        values = [exact_log_z(g, 2, b) for b in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_rejects_bad_arguments(self):
        g = cycle(4)
        with pytest.raises(PreconditionError):
            exact_log_z(g, 1, 1.0)
        with pytest.raises(PreconditionError):
            exact_log_z(g, 2, -0.5)
        with pytest.raises(PreconditionError):
            exact_log_z(g, 2, math.inf)

    def test_budget_counts_per_component(self):
        # One 30-vertex component is over budget ...
        with pytest.raises(BudgetError, match="budget"):
            exact_log_z(cycle(30), 3, 1.0)
        # ... but three 10-vertex components cost 3 * 4**10, not 4**30.
        edges = []
        for c in range(3):
            edges += [(c * 10 + i, c * 10 + (i + 1) % 10) for i in range(10)]
        g = Graph.from_edges(edges)
        expected = 3 * exact_log_z(cycle(10), 4, 0.9)
        assert math.isclose(exact_log_z(g, 4, 0.9), expected, rel_tol=1e-12)


class TestExactLogZPsi:
    def test_single_edge_one_part(self):
        g = Graph.from_edges([(0, 1)])
        # strict majority of a 2-vertex part means both vertices
        assert math.isclose(exact_log_z_psi(g, [range(2)], (0,), 2, 2.0), 2.0)

    def test_triangle_majority_count(self):
        # states with >= 2 zeros: all-zero (3 mono edges) and three
        # two-zero states (1 mono edge each)
        beta = 0.7
        expected = log_sum_exp([3 * beta, math.log(3) + beta])
        got = exact_log_z_psi(complete(3), [range(3)], (0,), 2, beta)
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_square_zero_beta_counts_majority_states(self):
        # > 2 of 4 vertices coloured zero: four 3-zero states plus one
        # all-zero state
        got = exact_log_z_psi(cycle(4), [range(4)], (0,), 2, 0.0)
        assert math.isclose(got, math.log(5), rel_tol=1e-12)

    def test_monotone_in_ground_state_quality(self):
        # aligned ground state on the bridge graph beats a misaligned one
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        hi = exact_log_z_psi(g, parts, (0, 0), 2, 1.5)
        lo = exact_log_z_psi(g, parts, (0, 1), 2, 1.5)
        assert hi > lo

    def test_at_most_full_sum(self):
        rng = random.Random(5)
        for _ in range(8):
            n = rng.randrange(3, 7)
            g = random_connected(rng, n)
            q = rng.choice([2, 3])
            beta = rng.uniform(0.0, 2.0)
            half = rng.randrange(1, n)
            parts = [list(range(half)), list(range(half, n))]
            psi = (rng.randrange(q), rng.randrange(q))
            assert exact_log_z_psi(g, parts, psi, q, beta) <= exact_log_z(
                g, q, beta
            ) + 1e-12

    def test_has_no_ground_state_cap(self):
        # 2**20 singleton parts are over star's cap; psi sums its one state
        g, parts = cycle(20), [[v] for v in range(20)]
        psi = (0,) * 10 + (1,) * 10
        assert exact_log_z_psi(g, parts, psi, 2, 0.5) == 0.5 * monochromatic(g, psi)
        with pytest.raises(BudgetError, match="ground states exceed budget"):
            exact_log_z_star(g, parts, 2, 0.5)


class TestExactLogZStar:
    def test_at_most_full_sum(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        assert exact_log_z_star(g, parts, 3, 1.1) <= exact_log_z(g, 3, 1.1) + 1e-12

    def test_equals_full_sum_for_odd_parts_two_colours(self):
        # with two colours and odd part sizes every state has a strict
        # majority colour in every part
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        assert math.isclose(
            exact_log_z_star(g, parts, 2, 1.3),
            exact_log_z(g, 2, 1.3),
            rel_tol=1e-12,
        )

    def test_sums_per_ground_state_contributions(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        q, beta = 3, 0.9
        per = [
            exact_log_z_psi(g, parts, (a, b), q, beta)
            for a in range(q)
            for b in range(q)
        ]
        assert math.isclose(
            exact_log_z_star(g, parts, q, beta), log_sum_exp(per), rel_tol=1e-10
        )

    def test_square_single_part_zero_beta(self):
        # 2 * 5 majority states, disjoint across the two ground states
        got = exact_log_z_star(cycle(4), [range(4)], 2, 0.0)
        assert math.isclose(got, math.log(10), rel_tol=1e-12)

    def test_ties_excluded(self):
        # q = 3 on a 3-vertex part: all-distinct colourings have no strict
        # majority anywhere, so they appear in the full sum but not here
        got = exact_log_z_star(complete(3), [range(3)], 3, 0.0)
        # majority states: 3 all-same + 18 two-same = 21
        assert math.isclose(got, math.log(21), rel_tol=1e-12)


class TestExactLogXi:
    def test_no_polymers_means_one(self):
        g = Graph.from_edges([(0, 1)])
        assert exact_log_xi(g, [[0], [1]], (0, 1), 2, 1.0) == 0.0

    def test_single_edge_single_part(self):
        g = Graph.from_edges([(0, 1)])
        got = exact_log_xi(g, [range(2)], (0,), 2, 3.0)
        assert math.isclose(got, math.log(1 + 2 * math.exp(-3.0)), rel_tol=1e-12)

    def test_incompatible_pairs_never_multiply(self):
        # two triangles, no bridge: polymers on opposite triangles are
        # compatible, polymers within one triangle are not
        g = two_triangles()
        parts = [[0, 1, 2], [3, 4, 5]]
        beta = 2.0
        w = math.exp(-2 * beta)  # each singleton: closure 2, R = 1
        expected = math.log((1 + 3 * w) ** 2)
        got = exact_log_xi(g, parts, (0, 0), 2, beta)
        assert math.isclose(got, expected, rel_tol=1e-10)

    def test_polymer_budget(self):
        with pytest.raises(BudgetError, match="polymers"):
            exact_log_xi(complete(12), [range(12)], (0,), 2, 1.0)


class TestDeviationIdentity:
    def test_ground_state_times_xi_equals_sparse_sum(self):
        cases = [
            (Graph.from_edges([(0, 1)]), [[0, 1]], (0,), 2, 1.0),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], (0, 1), 2, 0.8),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], (0, 0), 2, 1.4),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], (1, 2), 3, 0.6),
            (cycle(6), [[0, 1, 2], [3, 4, 5]], (0, 1), 3, 1.0),
            (cycle(4), [range(4)], (0,), 2, 1.2),
            (two_triangles(), [[0, 1, 2], [3, 4, 5]], (0, 1), 2, 0.9),
        ]
        for g, parts, psi, q, beta in cases:
            owner = {}
            for i, part in enumerate(parts):
                for v in sorted(part):
                    owner[v] = i
            ground = [psi[owner[v]] for v in range(g.n)]
            lhs = beta * monochromatic(g, ground) + exact_log_xi(g, parts, psi, q, beta)
            rhs = sparse_deviation_log_sum(g, parts, psi, q, beta)
            assert math.isclose(lhs, rhs, rel_tol=1e-10), (psi, q, beta)

    def test_sparse_sum_dominates_majority_sum(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        for psi in [(0, 0), (0, 1)]:
            sparse = sparse_deviation_log_sum(g, parts, psi, 2, 1.1)
            majority = exact_log_z_psi(g, parts, psi, 2, 1.1)
            assert sparse >= majority - 1e-12

    def test_sparse_sum_budget(self):
        with pytest.raises(BudgetError):
            sparse_deviation_log_sum(cycle(25), [range(25)], (0,), 2, 1.0)


class TestMinConductance:
    def test_complete_graph(self):
        val, wit = min_conductance(complete(4))
        assert val == Fraction(2, 3)
        assert wit == (0, 1)

    def test_bridge_graph(self):
        val, wit = min_conductance(triangles_with_bridge())
        assert val == Fraction(1, 7)
        assert wit == (0, 1, 2)

    def test_cycle(self):
        val, wit = min_conductance(cycle(6))
        assert val == Fraction(1, 3)
        assert wit == (0, 1, 2)

    def test_disconnected_graph_has_zero(self):
        val, wit = min_conductance(two_triangles())
        assert val == 0
        assert wit == (0, 1, 2)

    def test_witness_attains_value(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_connected(rng, rng.randrange(3, 8))
            val, wit = min_conductance(g)
            assert set_conductance(g, wit) == val
            assert 2 * volume(g, wit) <= 2 * g.m

    def test_budget(self):
        with pytest.raises(BudgetError):
            min_conductance(cycle(21))


class TestExpansionProfile:
    def test_matches_min_conductance_at_half_volume(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_connected(rng, rng.randrange(3, 8))
            val, _ = min_conductance(g)
            assert expansion_profile(g, g.m) == val

    def test_tighter_bound_restricts_candidates(self):
        g = complete(4)
        # volume 3 allows only single vertices
        assert expansion_profile(g, 3) == Fraction(1)
        assert expansion_profile(g, 6) == Fraction(2, 3)

    def test_monotone_in_bound(self):
        g = triangles_with_bridge()
        bounds = [2, 3, 5, 7]
        vals = [expansion_profile(g, b) for b in bounds]
        assert vals == sorted(vals, reverse=True)

    def test_fractional_bound(self):
        g = complete(4)
        assert expansion_profile(g, Fraction(7, 2)) == Fraction(1)

    def test_unreachable_bound(self):
        with pytest.raises(PreconditionError, match="volume"):
            expansion_profile(complete(4), 2)


class TestKWayExpansion:
    def test_one_set_is_free(self):
        assert k_way_expansion(cycle(6), 1) == 0

    def test_bridge_two_way(self):
        assert k_way_expansion(triangles_with_bridge(), 2) == Fraction(1, 7)

    def test_cycle_two_way(self):
        assert k_way_expansion(cycle(6), 2) == Fraction(1, 3)

    def test_all_singletons(self):
        assert k_way_expansion(cycle(6), 6) == Fraction(1)

    def test_monotone_in_k(self):
        rng = random.Random(17)
        for _ in range(6):
            g = random_connected(rng, rng.randrange(4, 8))
            vals = [k_way_expansion(g, k) for k in range(1, 4)]
            assert vals == sorted(vals)

    def test_dominates_half_spectral_value(self):
        rng = random.Random(19)
        for _ in range(6):
            g = random_connected(rng, rng.randrange(4, 8))
            spec = normalized_laplacian_spectrum(g, 3)
            for k in (2, 3):
                lam = spec.eigenvalue(k)
                assert float(k_way_expansion(g, k)) >= lam / 2 - 1e-9

    def test_rejects_bad_k(self):
        with pytest.raises(PreconditionError):
            k_way_expansion(cycle(4), 0)
        with pytest.raises(PreconditionError):
            k_way_expansion(cycle(4), 5)

    def test_budget(self):
        with pytest.raises(BudgetError):
            k_way_expansion(cycle(15), 2)
