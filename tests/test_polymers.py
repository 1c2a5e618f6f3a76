"""Polymer model tests: enumeration, compatibility, weights, cluster expansion."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pottspart.errors import BudgetError, PreconditionError
from pottspart.graphs import Graph, components, induced_subgraph
from pottspart.oracle import min_conductance
from pottspart import polymers
from pottspart.generate import clique_chain
from pottspart.polymers import (
    ClusterExpansion,
    check_weight_bounds,
    enumerate_polymers,
    kp_margin,
    kp_sufficient_beta,
    normalize_parts,
    polymer_log_weights,
    truncated_log_xi,
    truncation_depth,
    _signed_connected_sum,
)
from pottspart.util import log_sum_exp

from conftest import complete, cycle, triangles_with_bridge
from reference import (
    closure_size,
    compatible,
    compatible_families,
    exact_log_xi,
    incompatibility,
    is_small,
    is_sparse,
    kp_condition_holds,
    monochromatic,
    random_connected,
    restricted_log_partition,
)


def _random_partition(rng: random.Random, n: int, ell: int) -> list[list[int]]:
    while True:
        owner = [rng.randrange(ell) for _ in range(n)]
        parts = [[v for v in range(n) if owner[v] == i] for i in range(ell)]
        if all(parts):
            return parts


class TestNormalizeParts:
    def test_valid(self):
        g = cycle(6)
        parts = normalize_parts(g, [[2, 0, 1], [5, 3, 4]])
        assert parts == ((0, 1, 2), (3, 4, 5))

    def test_empty_part(self):
        with pytest.raises(PreconditionError, match="empty"):
            normalize_parts(cycle(4), [[0, 1, 2, 3], []])

    def test_overlap(self):
        with pytest.raises(PreconditionError, match="overlaps"):
            normalize_parts(cycle(4), [[0, 1], [1, 2, 3]])

    def test_missing_vertex(self):
        with pytest.raises(PreconditionError, match="cover"):
            normalize_parts(cycle(4), [[0, 1], [2]])

    def test_out_of_range(self):
        with pytest.raises(PreconditionError, match="invalid vertex"):
            normalize_parts(cycle(4), [[0, 1], [2, 3, 4]])

    def test_repeat_within_part(self):
        with pytest.raises(PreconditionError, match="repeats"):
            normalize_parts(cycle(4), [[0, 1, 1], [2, 3]])


class TestSmallAndSparse:
    def test_empty_set_is_small_and_sparse(self):
        g = cycle(6)
        parts = [[0, 1, 2], [3, 4, 5]]
        assert is_small([], parts)
        assert is_sparse(g, [], parts)

    def test_single_vertex_small(self):
        parts = [[0, 1, 2], [3, 4, 5]]
        assert is_small([0], parts)

    def test_majority_of_part_not_small(self):
        parts = [[0, 1, 2], [3, 4, 5]]
        assert not is_small([0, 1], parts)  # 2 of 3 is over half

    def test_half_of_even_part_is_small(self):
        parts = [[0, 1, 2, 3], [4, 5]]
        assert is_small([0, 1], parts)
        assert not is_small([0, 1, 2], parts)

    def test_sparse_but_not_small(self):
        # {0, 2} occupies 2 of 3 vertices of the first part, but splits into
        # two singleton components, each small.
        g = cycle(6)
        parts = [[0, 1, 2], [3, 4, 5]]
        assert not is_small([0, 2], parts)
        assert is_sparse(g, [0, 2], parts)

    def test_connected_majority_not_sparse(self):
        g = cycle(6)
        parts = [[0, 1, 2], [3, 4, 5]]
        assert not is_sparse(g, [0, 1], parts)

    def test_small_implies_sparse(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(4, 9)
            g = random_connected(rng, n)
            parts = _random_partition(rng, n, rng.randrange(1, 4))
            subset = [v for v in range(n) if rng.random() < 0.4]
            if is_small(subset, parts):
                assert is_sparse(g, subset, parts)


class TestEnumeratePolymers:
    def test_square_single_part_size_two(self):
        g = cycle(4)
        polys = enumerate_polymers(g, [range(4)], max_size=2)
        got = [p.vertices for p in polys]
        assert got == [
            (0,),
            (0, 1),
            (0, 3),
            (1,),
            (1, 2),
            (2,),
            (2, 3),
            (3,),
        ]

    def test_zero_max_size(self):
        assert enumerate_polymers(cycle(4), [range(4)], max_size=0) == []

    def test_cached_geometry(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        for p in enumerate_polymers(g, parts, max_size=2):
            assert p.mask == sum(1 << v for v in p.vertices)
            assert p.closure_size == closure_size(g, p.vertices)
            expected_nbhd = p.mask
            for v in p.vertices:
                expected_nbhd |= g.adj_masks[v]
            assert p.neighbourhood_mask == expected_nbhd
            # closure edges, from a scan of every edge of g
            pos = {v: i for i, v in enumerate(p.vertices)}
            internal, crossing = set(), set()
            for a, b in g.edges:
                if a in pos and b in pos:
                    internal.add((pos[a], pos[b]))
                elif a in pos:
                    crossing.add((pos[a], b))
                elif b in pos:
                    crossing.add((pos[b], a))
            assert sorted(p.internal) == sorted(internal)
            assert sorted(p.crossing) == sorted(crossing)

    def test_matches_subset_enumeration(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(4, 9)
            g = random_connected(rng, n)
            parts = _random_partition(rng, n, rng.randrange(1, 4))
            max_size = rng.randrange(1, n + 1)
            expected = set()
            for r in range(1, max_size + 1):
                for sub in itertools.combinations(range(n), r):
                    sg, _ = induced_subgraph(g, sub, allow_isolated=True)
                    if len(components(sg)) != 1:
                        continue
                    if is_small(sub, parts):
                        expected.add(sub)
            got = {p.vertices for p in enumerate_polymers(g, parts, max_size)}
            assert got == expected

    def test_size_cap(self):
        with pytest.raises(BudgetError, match="cap"):
            enumerate_polymers(cycle(4), [range(4)], max_size=21)

    def test_count_budget(self):
        with pytest.raises(BudgetError, match="polymers"):
            enumerate_polymers(cycle(6), [range(6)], max_size=3, budget=3)


class TestCompatibility:
    def test_distant_sets_compatible(self):
        g = cycle(6)
        assert compatible(g, [0], [3])
        assert compatible(g, [0], [2])  # distance two: boundaries disjoint

    def test_adjacent_sets_incompatible(self):
        g = cycle(6)
        assert not compatible(g, [0], [1])

    def test_overlapping_sets_incompatible(self):
        g = cycle(6)
        assert not compatible(g, [0, 1], [1, 2])

    def test_self_incompatible(self):
        g = cycle(6)
        assert not compatible(g, [0], [0])

    def test_accepts_polymer_objects(self):
        g = cycle(6)
        polys = enumerate_polymers(g, [range(6)], max_size=1)
        by_vertex = {p.vertices: p for p in polys}
        assert compatible(g, by_vertex[(0,)], by_vertex[(3,)])
        assert not compatible(g, by_vertex[(0,)], by_vertex[(1,)])

    def test_equivalent_characterizations(self):
        # definitional (disjoint vertices + disjoint boundary edge sets)
        # == neighbourhood-mask shortcut == graph distance at least two
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randrange(4, 8)
            g = random_connected(rng, n)
            parts = [_random_partition(rng, n, 1)[0]]
            polys = enumerate_polymers(g, parts, max_size=n)
            for a, b in itertools.combinations(polys, 2):
                definitional = compatible(g, a, b)
                mask_based = not (a.neighbourhood_mask & b.mask)
                dist2 = all(
                    u != v and not g.adj_masks[u] >> v & 1
                    for u in a.vertices
                    for v in b.vertices
                )
                assert definitional == mask_based == dist2


class TestRestrictedSum:
    def test_empty_set(self):
        g = cycle(4)
        assert restricted_log_partition(g, [range(4)], (0,), [], 3, 1.0) == 0.0

    def test_triangle_q2(self):
        g = complete(3)
        r = restricted_log_partition(g, [range(3)], (0,), [0], 2, 1.0)
        assert math.isclose(math.exp(r), 1.0, rel_tol=1e-12)

    def test_triangle_q3(self):
        g = complete(3)
        r = restricted_log_partition(g, [range(3)], (0,), [0], 3, 1.0)
        assert math.isclose(math.exp(r), 2.0, rel_tol=1e-12)

    def test_bichromatic_boundary_counts(self):
        # Bridge endpoint flipped to the far side's colour: the bridge is
        # counted once as monochromatic-under-the-flip and once as
        # ground-state-bichromatic.
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        beta = 0.7
        r = restricted_log_partition(g, parts, (0, 1), [0], 2, beta)
        assert math.isclose(r, 2 * beta, rel_tol=1e-12)

    def test_term_count(self):
        g = cycle(5)
        q = 4
        r = restricted_log_partition(g, [range(5)], (0,), [0, 1, 2], q, 0.0)
        assert math.isclose(math.exp(r), (q - 1) ** 3, rel_tol=1e-12)

    def test_matches_deviation_identity(self):
        # Independent route: sum over flips of
        # exp(beta * (mono(flipped) - mono(ground) + |closure edges|)).
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randrange(3, 7)
            g = random_connected(rng, n)
            ell = rng.randrange(1, 3)
            parts = _random_partition(rng, n, ell)
            q = rng.choice([2, 3])
            psi = tuple(rng.randrange(q) for _ in range(ell))
            beta = rng.uniform(0.0, 2.0)
            u = tuple(sorted(v for v in range(n) if rng.random() < 0.5))
            owner = {}
            for i, part in enumerate(parts):
                for v in part:
                    owner[v] = i
            ground = [psi[owner[v]] for v in range(n)]
            m_psi = monochromatic(g, ground)
            clo = closure_size(g, u) if u else 0
            terms = []
            choices = [[c for c in range(q) if c != ground[v]] for v in u]
            for lam in itertools.product(*choices):
                flipped = list(ground)
                for v, c in zip(u, lam):
                    flipped[v] = c
                terms.append(beta * (monochromatic(g, flipped) - m_psi + clo))
            expected = log_sum_exp(terms)
            got = restricted_log_partition(g, parts, psi, u, q, beta)
            assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)

    def test_term_budget(self):
        g = cycle(12)
        u = [0, 2, 4, 6, 8, 10]
        with pytest.raises(BudgetError, match="terms"):
            restricted_log_partition(g, [range(12)], (0,), u, 30, 1.0)

    def test_size_cap(self):
        # 21 vertices, one more than POLYMER_SIZE_CAP; q=2 keeps the term
        # count at 1, so only the size cap can refuse
        g = cycle(42)
        with pytest.raises(BudgetError, match="cap"):
            restricted_log_partition(g, [range(42)], (0,), range(0, 42, 2), 2, 1.0)


class TestWeights:
    def test_triangle_single_vertex(self):
        g = complete(3)
        (poly,) = [p for p in enumerate_polymers(g, [range(3)], 1) if p.vertices == (0,)]
        (lw,) = polymer_log_weights(g, [range(3)], (0,), [poly], 2, 10.0)
        assert math.isclose(lw, -20.0, rel_tol=1e-12)

    def test_ground_state_validated_once_per_call(self, monkeypatch):
        g = cycle(60)
        parts = [range(30), range(30, 60)]
        polys = enumerate_polymers(g, parts, max_size=2)
        assert len(polys) >= 50
        calls = 0
        real = polymers.normalize_parts

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(polymers, "normalize_parts", counting)
        polymer_log_weights(g, parts, (0, 1), polys, 3, 5.0)
        assert calls <= 1

    def test_accepts_polymer_object(self):
        g = complete(3)
        polys = enumerate_polymers(g, [range(3)], max_size=1)
        lws = polymer_log_weights(g, [range(3)], (0,), polys, 2, 10.0)
        assert all(math.isclose(lw, -20.0, rel_tol=1e-12) for lw in lws)

    def test_bound_holds_with_true_expansion(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        alpha = float(min_conductance(g)[0])
        beta = 54.0
        polys = enumerate_polymers(g, parts, max_size=3)
        lws = polymer_log_weights(g, parts, (0, 1), polys, 2, beta)
        check_weight_bounds(polys, lws, 2, beta, alpha)  # must not raise

    def test_bound_violation_detected(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        beta = 54.0
        polys = enumerate_polymers(g, parts, max_size=1)
        lws = polymer_log_weights(g, parts, (0, 1), polys, 2, beta)
        with pytest.raises(PreconditionError, match="weight bound"):
            check_weight_bounds(polys, lws, 2, beta, alpha=5.0)

    @given(
        st.integers(3, 7),
        st.integers(1, 3),
        st.integers(2, 4),
        st.floats(0.0, 30.0),
        st.integers(0, 2**30),
    )
    @settings(max_examples=60, deadline=None)
    def test_colour_permutation_keeps_weights_bitwise(self, n, ell, q, beta, seed):
        # the reuse of log Xi across a colour-permutation orbit rests on this
        rng = random.Random(seed)
        g = random_connected(rng, n)
        parts = _random_partition(rng, n, min(ell, n))
        polys = enumerate_polymers(g, parts, max_size=3)
        psi = [rng.randrange(q) for _ in parts]
        sigma = rng.sample(range(q), q)
        permuted = [sigma[c] for c in psi]
        lws = polymer_log_weights(g, parts, psi, polys, q, beta)
        assert polymer_log_weights(g, parts, permuted, polys, q, beta) == lws


class TestSummability:
    def test_holds_at_large_beta(self):
        assert kp_condition_holds(2, 2, 6.0, 1.0)

    def test_fails_at_zero_beta(self):
        assert not kp_condition_holds(2, 2, 0.0, 1.0)

    def test_margin_sign_matches_predicate(self):
        for beta in (0.0, 2.0, 5.0, 8.0):
            margin = kp_margin(3, 4, beta, 0.5)
            assert (margin <= 0) == kp_condition_holds(3, 4, beta, 0.5)

    def test_sufficient_beta_always_sufficient(self):
        for q in range(2, 11):
            for d in range(1, 11):
                for alpha in (0.1, 0.5, 1.0):
                    b = kp_sufficient_beta(q, d, alpha)
                    assert kp_condition_holds(q, d, b, alpha)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(PreconditionError):
            kp_sufficient_beta(2, 3, 0.0)
        with pytest.raises(PreconditionError):
            kp_margin(2, 3, 1.0, -0.5)


class TestUrsellCoefficients:
    def test_single(self):
        assert _signed_connected_sum((1,), 0) == 1

    def test_incompatible_pair(self):
        assert _signed_connected_sum((1, 1), 0b1) == -1

    def test_same_polymer_twice(self):
        assert _signed_connected_sum((2,), 0) == -1  # divided by 2! gives -1/2

    def test_triangle(self):
        assert _signed_connected_sum((1, 1, 1), 0b111) == 2

    def test_path(self):
        # groups 0-1 and 1-2 incompatible, 0-2 compatible
        assert _signed_connected_sum((1, 1, 1), 0b101) == 1

    def test_complete_support_factorial_pattern(self):
        # t mutually incompatible polymers, all multiplicity one:
        # coefficient is (-1)^(t-1) * (t-1)!
        for t in range(1, 6):
            pair_adj = (1 << (t * (t - 1) // 2)) - 1
            got = _signed_connected_sum((1,) * t, pair_adj)
            assert got == (-1) ** (t - 1) * math.factorial(t - 1)

    @staticmethod
    def _brute_signed_sum(mults, pair_adj):
        # direct enumeration: sum of (-1)^|A| over edge subsets A of the
        # copy graph that span it connectedly
        group_of = []
        for gi, m in enumerate(mults):
            group_of.extend([gi] * m)
        t = len(group_of)
        k = len(mults)

        def adjacent(a, b):
            if a == b:
                return True
            if a > b:
                a, b = b, a
            idx = a * k - a * (a + 1) // 2 + (b - a - 1)
            return bool(pair_adj >> idx & 1)

        all_edges = [
            (p, r)
            for p in range(t)
            for r in range(p + 1, t)
            if adjacent(group_of[p], group_of[r])
        ]
        total = 0
        for bits in range(1 << len(all_edges)):
            chosen = [e for i, e in enumerate(all_edges) if bits >> i & 1]
            parent = list(range(t))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in chosen:
                parent[find(a)] = find(b)
            if len({find(x) for x in range(t)}) == 1:
                total += (-1) ** len(chosen)
        return total

    def test_matches_spanning_subgraph_enumeration(self):
        cases = [
            ((1,), 0),
            ((2,), 0),
            ((3,), 0),
            ((4,), 0),
            ((1, 1), 0b0),
            ((1, 1), 0b1),
            ((2, 1), 0b1),
            ((2, 2), 0b1),
            ((3, 1), 0b1),
            ((1, 1, 1), 0b101),
            ((1, 1, 1), 0b011),
            ((1, 1, 1), 0b111),
            ((2, 1, 1), 0b101),
            ((1, 2, 1), 0b101),
            ((1, 1, 1, 1), 0b100101),  # 4-path patterns
            ((1, 1, 1, 1), 0b111111),
        ]
        for mults, pair_adj in cases:
            assert _signed_connected_sum(mults, pair_adj) == self._brute_signed_sum(
                mults, pair_adj
            )


class TestClusterExpansion:
    def _edge_model(self, beta: float, max_total: int):
        g = Graph.from_edges([(0, 1)])
        parts = [range(2)]
        polys = enumerate_polymers(g, parts, max_size=1)
        exp = ClusterExpansion(polys, max_total)
        lws = polymer_log_weights(g, parts, (0,), polys, 2, beta)
        return g, parts, polys, exp, lws

    def test_two_incompatible_polymers_converges(self):
        beta = 6.0
        g, parts, polys, exp, lws = self._edge_model(beta, 14)
        w = math.exp(-beta)
        expected = math.log(1 + 2 * w)
        assert math.isclose(exp.log_xi(lws), expected, rel_tol=1e-9)

    def test_repeated_polymer_cluster_coefficient(self):
        _, _, _, exp, _ = self._edge_model(6.0, 4)
        doubles = [
            c
            for c in exp.clusters
            if c.multiplicities == (2,) and len(c.support) == 1
        ]
        assert doubles and all(
            Fraction(c.ursell_num, c.ursell_den) == Fraction(-1, 2) for c in doubles
        )

    def test_truncation_improves_with_depth(self):
        beta = 2.0  # weights far from zero: truncation error visible
        w = math.exp(-beta)
        target = math.log(1 + 2 * w)
        errors = []
        for depth in (2, 4, 8, 16):
            _, _, _, exp, lws = self._edge_model(beta, depth)
            errors.append(abs(exp.log_xi(lws) - target))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-6

    def test_deterministic(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        vals = []
        for _ in range(2):
            polys = enumerate_polymers(g, parts, max_size=4)
            exp = ClusterExpansion(polys, 8)
            lws = polymer_log_weights(g, parts, (0, 1), polys, 2, 54.0)
            vals.append(exp.log_xi(lws))
        assert vals[0] == vals[1]

    def test_budget(self):
        g = cycle(8)
        polys = enumerate_polymers(g, [range(8)], max_size=4)
        with pytest.raises(BudgetError, match="budget"):
            ClusterExpansion(polys, 12, budget=50)

    def test_budget_counts_clusters_kept(self):
        # 11 polymers, 1371 clusters at depth 6; the budget is the number of
        # clusters kept, as cluster_count reports it, not a support count
        g = clique_chain(3, 3, 1)
        polys = enumerate_polymers(g, [range(3), range(3, 6), range(6, 9)], 6)
        count = ClusterExpansion(polys, 6).cluster_count
        assert count == 1371
        assert ClusterExpansion(polys, 6, budget=count).cluster_count == count
        with pytest.raises(BudgetError, match=f"budget {count - 1}"):
            ClusterExpansion(polys, 6, budget=count - 1)

    def test_weight_length_mismatch(self):
        _, _, _, exp, lws = self._edge_model(6.0, 4)
        with pytest.raises(PreconditionError, match="log-weights"):
            exp.log_xi(lws[:-1])

    def test_matches_exact_on_small_instances(self):
        # Deep truncation should agree with exhaustive family enumeration
        # far beyond the guaranteed tolerance.  Ground states with distinct
        # colours are only usable on instances whose polymers keep most of
        # their boundary inside a part (here: bridge graphs); otherwise the
        # weights are too large for the expansion to converge.
        cases = [
            (Graph.from_edges([(0, 1)]), [[0, 1]], (0,), 2, 6.0),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], (0, 1), 2, 8.0),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], (1, 1), 2, 8.0),
            (cycle(6), [[0, 1, 2], [3, 4, 5]], (0, 0), 3, 7.0),
        ]
        for g, parts, psi, q, beta in cases:
            exact = exact_log_xi(g, parts, psi, q, beta)
            polys = enumerate_polymers(g, parts, max_size=g.n // 2)
            exp = ClusterExpansion(polys, 8)
            lws = polymer_log_weights(g, parts, psi, polys, q, beta)
            assert math.isclose(exp.log_xi(lws), exact, rel_tol=1e-7, abs_tol=1e-9)

    def test_structure_reusable_across_ground_states(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        polys = enumerate_polymers(g, parts, max_size=3)
        exp = ClusterExpansion(polys, 8)
        for psi in [(0, 0), (0, 1), (1, 2)]:
            lws = polymer_log_weights(g, parts, psi, polys, 3, 9.0)
            exact = exact_log_xi(g, parts, psi, 3, 9.0)
            assert math.isclose(exp.log_xi(lws), exact, rel_tol=1e-7, abs_tol=1e-9)


def _log_xi_coefficients(g, polymers, log_weights, depth):
    """a_1..a_depth in log Xi(z) = sum_k a_k z^k, each weight scaled by z^|gamma|.

    Xi(z), the sum over compatible families with each polymer weighing
    w(gamma) z^|gamma|, is a polynomial p with p_0 = 1; its coefficients up
    to z^depth come from enumerating families with the definitional
    compatibility, and (log p)' p = p' gives k a_k = k p_k - sum over
    0 < j < k of j a_j p_(k-j).  The clusters of total size k sum to a_k, so
    the truncation at depth m is a_1 + ... + a_m, found here without the
    cluster machinery.
    """
    p = [1.0] + [0.0] * depth
    for family in compatible_families(incompatibility(g, polymers)):
        size = sum(len(polymers[j].vertices) for j in family)
        if family and size <= depth:
            p[size] += math.exp(sum((log_weights[j] for j in family), 0.0))
    a = [0.0] * (depth + 1)
    for k in range(1, depth + 1):
        a[k] = p[k] - sum(j * a[j] * p[k - j] for j in range(1, k)) / k
    return a[1:]


class TestTruncatedXi:
    def test_log_xi_has_teeth(self):
        """log Xi on K5 at 1.1x the expander threshold, q=2, alpha=3.

        log Xi = 3.2e-5 is at least twice the certified tail
        n*e^(-rho*(m+1)) at the depths m that xi = 1e-3 and 1e-4 give, so an
        answer of 0 fails the tail check.  Each cluster size up to 4 moves
        the sum by more than 1e-10 of it, so a build that drops its top-size
        clusters misses the series coefficient of that size.
        """
        g, parts, psi, q, alpha = complete(5), [tuple(range(5))], (0,), 2, 3.0
        beta = 1.1 * kp_sufficient_beta(q, g.max_degree, alpha)
        rho = 1.0 - kp_margin(q, g.max_degree, beta, alpha)
        exact = exact_log_xi(g, parts, psi, q, beta)
        polymers = enumerate_polymers(g, parts, max_size=g.n // 2)
        weights = polymer_log_weights(g, parts, psi, polymers, q, beta)
        coefficients = _log_xi_coefficients(g, polymers, weights, 4)
        for xi, depth in ((1e-3, 3), (1e-4, 4)):
            assert truncation_depth(g.n, xi, q, g.max_degree, beta, alpha) == depth
            tail = g.n * math.exp(-rho * (depth + 1))
            assert abs(exact) >= 2 * tail
            assert abs(math.fsum(coefficients[:depth]) - exact) <= tail
            got = truncated_log_xi(g, parts, psi, q, beta, xi, alpha).log_xi
            assert abs(got - exact) <= tail
        for depth in range(1, 5):
            assert abs(coefficients[depth - 1]) > 1e-10 * abs(exact)
            got = ClusterExpansion(polymers, depth).log_xi(weights)
            assert math.isclose(got, math.fsum(coefficients[:depth]), rel_tol=1e-13)

    def test_depth_formula(self):
        # margin -1.129 at q=3, max degree 4, beta=8, alpha=1: rho = 2.129
        assert truncation_depth(10, 0.01, 3, 4, 8.0, 1.0) == 4
        assert truncation_depth(2, 1.0, 3, 4, 8.0, 1.0) == 1
        # the sse regime: beta*alpha ~ 1e6 leaves depth 1 at any xi in reach
        assert truncation_depth(1000, 1e-3, 3, 10, 1e9, 1e-3) == 1
        # a margin of exactly 0 (rho = 1) gives the plain ceil(log(2n/xi))
        beta0 = 3.0 + math.log(6) + math.log(8)
        assert kp_margin(2, 6, beta0, 1.0) == 0.0
        assert truncation_depth(10, 0.01, 2, 6, beta0, 1.0) == math.ceil(
            math.log(2000)
        )
        # a positive margin certifies no depth
        assert kp_margin(2, 2, 1.0, 0.5) > 0
        with pytest.raises(PreconditionError, match="summability condition fails"):
            truncation_depth(10, 0.01, 2, 2, 1.0, 0.5)
        for xi in (0.0, math.nan, math.inf):
            with pytest.raises(PreconditionError, match="xi must be"):
                truncation_depth(5, xi, 3, 4, 8.0, 1.0)

    def test_within_tolerance_of_exact(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        alpha = float(min_conductance(g)[0])
        beta = kp_sufficient_beta(2, g.max_degree, alpha) + 1.0
        xi = 1e-3
        res = truncated_log_xi(g, parts, (0, 1), 2, beta, xi, alpha)
        exact = exact_log_xi(g, parts, (0, 1), 2, beta)
        assert abs(res.log_xi - exact) <= xi

    def test_refuses_when_condition_unverified(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        with pytest.raises(PreconditionError, match="summability"):
            truncated_log_xi(g, parts, (0, 1), 2, 1.0, 1e-3, 0.14)

    def test_refuses_on_weight_bound_violation(self):
        # An inflated expansion constant passes the summability check but
        # fails the per-polymer weight bound.
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        with pytest.raises(PreconditionError, match="weight bound"):
            truncated_log_xi(g, parts, (0, 1), 2, 54.0, 1e-3, 5.0)

    def test_reuses_supplied_expansion(self):
        g = cycle(6)
        parts = [[0, 1, 2], [3, 4, 5]]
        alpha = float(min_conductance(g)[0])
        beta = kp_sufficient_beta(3, 2, alpha) + 1.0
        xi = 1e-2
        depth = truncation_depth(6, xi, 3, 2, beta, alpha)
        polys = enumerate_polymers(g, parts, max_size=min(depth, 3))
        a = truncated_log_xi(g, parts, (0, 0), 3, beta, xi, alpha)
        b = truncated_log_xi(
            g, parts, (0, 0), 3, beta, xi, alpha,
            expansion=ClusterExpansion(polys, depth),
        )
        assert a.log_xi == b.log_xi
        # a deeper expansion is evaluated as given, at its own depth
        exp = ClusterExpansion(polys, depth + 1)
        c = truncated_log_xi(g, parts, (0, 0), 3, beta, xi, alpha, expansion=exp)
        lws = polymer_log_weights(g, parts, (0, 0), polys, 3, beta)
        assert c.log_xi == exp.log_xi(lws)

    def test_refuses_a_shallower_expansion(self):
        # depth 1 where xi = 1e-3 on 6 vertices needs depth 4 (rho = 3.02)
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        alpha = float(min_conductance(g)[0])
        beta = kp_sufficient_beta(2, g.max_degree, alpha) + 1.0
        exp = ClusterExpansion(enumerate_polymers(g, parts, 1), 1)
        with pytest.raises(PreconditionError, match="depth 1; .* needs depth 4"):
            truncated_log_xi(g, parts, (0, 1), 2, beta, 1e-3, alpha, expansion=exp)
