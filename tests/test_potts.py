"""Tests for the log-Z approximation pipelines and their certificates."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    complete,
    cycle,
    path,
    petersen,
    prism,
    triangles_with_bridge,
    two_triangles,
)
from reference import (
    bridged_cliques,
    check_bijection,
    check_deviation_identity,
    check_factorization,
    clique_edges,
    exact_log_xi,
    exact_log_z_psi,
    exact_log_z_star,
    is_sparse,
    kp_condition_holds,
    monochromatic,
    triangle_plus_k8,
    triangle_plus_pendant,
    two_triangles_plus_k6,
)
from pottspart.errors import BudgetError, PreconditionError
from pottspart.graphs import Graph, boundary_size, induced_subgraph, set_conductance
from pottspart.oracle import exact_log_z
from pottspart.partition import (
    ExpanderPartition,
    PartCertificate,
    PartitionParams,
    _inner_lower_bound,
    _min_degree_ratio,
    _sweep_in_part,
    partition_into_expanders,
)
from pottspart.polymers import (
    POLYMER_SIZE_CAP,
    ground_colouring,
    kp_margin,
    kp_sufficient_beta,
    truncated_log_xi,
    truncation_depth,
)
from pottspart import polymers, potts
from pottspart.generate import clique_chain
from pottspart.potts import (
    XI_CAP,
    approx_log_z_expander,
    approx_log_z_good_parts,
    approx_log_z_sse,
    approx_log_z_with_partition,
    certified_alpha,
    required_beta_expander,
    required_beta_good_parts,
    required_beta_sse,
)
from pottspart.util import log_sum_exp


def _random_connected(rng: random.Random, n: int) -> Graph:
    edges = {(min(a, b), max(a, b)) for a, b in
             ((i, rng.randrange(i)) for i in range(1, n))}
    extra = rng.randrange(0, n)
    pairs = list(itertools.combinations(range(n), 2))
    edges |= set(rng.sample(pairs, min(extra, len(pairs))))
    return Graph.from_edges(sorted(edges), n=n)


def _random_partition(rng: random.Random, n: int, ell: int):
    owner = [rng.randrange(ell) for _ in range(n)]
    for i in range(ell):  # every part nonempty
        owner[i % n] = i
    return [tuple(v for v in range(n) if owner[v] == i) for i in range(ell)]


def _brute_part_expansion(g: Graph, part) -> Fraction:
    """min |boundary(S)| / |S| inside G[part] over nonempty S, 2|S| <= |part|."""
    sub, _ = induced_subgraph(g, part, allow_isolated=True)
    best = None
    verts = range(sub.n)
    for r in range(1, sub.n // 2 + 1):
        for s in itertools.combinations(verts, r):
            ratio = Fraction(boundary_size(sub, s), r)
            if best is None or ratio < best:
                best = ratio
    return best


def _swept_partition(g: Graph, parts) -> ExpanderPartition:
    """ExpanderPartition of ``parts`` with certificates from per-part sweeps."""
    certificates = []
    for p in parts:
        sw = _sweep_in_part(g, set(p))
        phi = Fraction(1) if sw is None else sw[1]  # a single vertex has no cut
        certificates.append(
            PartCertificate(
                sweep_conductance=phi,
                phi_inner_lb=_inner_lower_bound(phi),
                phi_outer=set_conductance(g, p),
                min_degree_ratio=_min_degree_ratio(g, p),
            )
        )
    parts = tuple(tuple(p) for p in parts)
    return ExpanderPartition(
        parts=parts,
        cores=parts,
        ell=len(parts),
        certificates=tuple(certificates),
        iterations={},
    )


class TestQBetaCheck:
    """Every pipeline refuses q < 2 and beta <= 0 through the shared check."""

    @staticmethod
    def _pipelines(q, beta):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        return (
            lambda: approx_log_z_expander(g, q, beta, 0.01, 1.0),
            lambda: approx_log_z_good_parts(g, parts, q, beta, 0.01),
            lambda: approx_log_z_with_partition(g, parts, q, beta, 0.01, 0.5),
            lambda: approx_log_z_sse(g, 2, q, beta, 0.01),
        )

    def test_rejects_bad_q(self):
        for q in (1, 2.0):
            for run in self._pipelines(q, 40.0):
                with pytest.raises(PreconditionError, match="q must be"):
                    run()

    def test_rejects_bad_beta(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            for run in self._pipelines(2, beta):
                with pytest.raises(PreconditionError, match="beta must be"):
                    run()
        # the oracle shares the check but sums beta = 0 like any other beta
        g = triangles_with_bridge()
        assert exact_log_z(g, 2, 0.0) == pytest.approx(g.n * math.log(2))


class TestMonochromaticEdges:
    """The monochromaticEdges each ground state of a good-parts sum reports."""

    @staticmethod
    def _edges_of(g, parts, beta):
        res = approx_log_z_good_parts(g, parts, 2, beta, XI_CAP)
        return {tuple(p["psi"]): p["monochromaticEdges"] for p in res.per_psi}

    def test_constant_colouring_counts_all_edges(self):
        g = triangles_with_bridge()
        edges = self._edges_of(g, [[0, 1, 2], [3, 4, 5]], 40.0)
        assert edges[(0, 0)] == edges[(1, 1)] == g.m

    def test_proper_colouring_counts_none(self):
        # single-vertex parts certify alpha = inf and have no polymers
        edges = self._edges_of(cycle(4), [[0], [1], [2], [3]], 1.0)
        assert edges[(0, 1, 0, 1)] == edges[(1, 0, 1, 0)] == 0

    def test_triangle_partial(self):
        assert self._edges_of(complete(3), [[0], [1], [2]], 1.0)[(0, 0, 1)] == 1

    def test_ground_state_edges(self):
        g = triangles_with_bridge()
        edges = self._edges_of(g, [[0, 1, 2], [3, 4, 5]], 40.0)
        assert edges[(0, 0)] == 7
        assert edges[(0, 1)] == 6

    @pytest.mark.parametrize(
        "parts, psi, match",
        [
            ([[0, 1, 2]], (0,), "cover"),
            ([[0, 1, 2], [2, 3, 4, 5]], (0, 1), "overlaps"),
            ([[0, 1, 2], [3, 4, 5]], (0,), "1 colours for 2 parts"),
        ],
        ids=["uncovered", "overlapping", "short-psi"],
    )
    def test_ground_state_edges_refuses_a_bad_ground_state(self, parts, psi, match):
        with pytest.raises(PreconditionError, match=match):
            ground_colouring(cycle(6), parts, psi, 2, 1.0)


class TestCertifiedAlpha:
    def test_bridged_triangles(self):
        g = triangles_with_bridge()
        # each triangle induces K_3: sweep conductance 1, bound 1/4, min degree 2
        assert certified_alpha(g, [[0, 1, 2], [3, 4, 5]]) == 0.5

    def test_single_clique(self):
        g = complete(8)
        # K_8: sweep 4/7, bound (4/7)^2/4 = 4/49, min degree 7
        assert certified_alpha(g, [range(8)]) == pytest.approx(4 / 7)

    def test_all_singletons_is_infinite(self):
        g = cycle(4)
        assert certified_alpha(g, [[0], [1], [2], [3]]) == math.inf

    def test_singleton_parts_are_skipped(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3], [4], [5]]
        assert certified_alpha(g, parts) == 0.5

    def test_edgeless_part_certifies_nothing(self):
        g = Graph.from_edges([(0, 1)], n=4, allow_isolated=True)
        assert certified_alpha(g, [[0, 1], [2, 3]]) == 0.0

    def test_explicit_bounds_override_sweep(self):
        g = triangles_with_bridge()
        bounds = [Fraction(1, 8), Fraction(1, 16)]
        assert certified_alpha(g, [[0, 1, 2], [3, 4, 5]], bounds) == pytest.approx(
            1 / 8
        )


class TestThresholds:
    def test_expander_threshold_matches_summability(self):
        for q, d, a in [(2, 3, 1.0), (3, 5, 0.5), (2, 1, 2.0)]:
            assert required_beta_expander(q, d, a) == kp_sufficient_beta(q, d, a)

    def test_good_parts_frozen_value(self):
        # q*Delta = 6: the steeper form 2+4log(6) wins; alpha=1/2, eta=1/2
        need = required_beta_good_parts(2, 3, 0.5, 0.5)
        assert need == pytest.approx((2 + 4 * math.log(6)) / 0.25)
        assert need == pytest.approx(36.668, abs=1e-3)

    def test_good_parts_numerator_switches(self):
        # q*Delta = 2 < e: the flatter form 4+2log(2) is the larger one
        assert required_beta_good_parts(2, 1, 1.0, 1.0) == pytest.approx(
            4 + 2 * math.log(2)
        )
        # q*Delta = 16 > e: the steeper form wins
        assert required_beta_good_parts(2, 8, 1.0, 1.0) == pytest.approx(
            2 + 4 * math.log(16)
        )

    def test_good_parts_validation(self):
        with pytest.raises(PreconditionError):
            required_beta_good_parts(2, 3, 0.0, 0.5)
        with pytest.raises(PreconditionError):
            required_beta_good_parts(2, 3, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            required_beta_good_parts(2, 3, 1.0, 1.5)

    @pytest.mark.parametrize(
        "threshold",
        [
            lambda alpha: kp_margin(2, 3, 30.0, alpha),
            lambda alpha: kp_condition_holds(2, 3, 30.0, alpha),
            lambda alpha: kp_sufficient_beta(2, 3, alpha),
            lambda alpha: truncation_depth(20, 0.1, 2, 3, 30.0, alpha),
            lambda alpha: required_beta_expander(2, 3, alpha),
            lambda alpha: required_beta_good_parts(2, 3, alpha, 0.5),
        ],
        ids=[
            "kp_margin",
            "kp_condition_holds",
            "kp_sufficient_beta",
            "truncation_depth",
            "required_beta_expander",
            "required_beta_good_parts",
        ],
    )
    def test_nan_alpha_is_refused_and_infinite_alpha_kept(self, threshold):
        # nan fails every comparison, so "alpha <= 0" would let it through
        with pytest.raises(PreconditionError, match="alpha must be positive, got nan"):
            threshold(math.nan)
        # certified_alpha gives inf for all-singleton partitions
        threshold(math.inf)

    def test_zero_beta_with_infinite_alpha_is_refused_by_name(self):
        # 0 * inf is nan, which a "margin > 0" refusal lets through
        message = "margin is undefined at beta=0.0 with alpha=inf"
        with pytest.raises(PreconditionError, match=message):
            kp_margin(2, 3, 0.0, math.inf)
        with pytest.raises(PreconditionError, match=message):
            truncation_depth(10, 0.1, 2, 3, 0.0, math.inf)

    @pytest.mark.parametrize(
        "g, k",
        [
            (complete(8), 2),
            (cycle(30), 4),
            (petersen(), 3),
            (clique_chain(3, 5, 1), 3),
            (clique_chain(3, 50, 1), 4),
        ],
        ids=["complete8", "cycle30", "petersen", "chain3x5", "chain3x50"],
    )
    @pytest.mark.parametrize("q", [2, 3, 10])
    def test_sse_threshold_is_the_inner_composition(self, g, k, q):
        # the good-parts threshold for the guaranteed certificates, which is
        # at least 392000*(k-1)/k >= 196000 times the headline form
        params = PartitionParams.from_graph(g, k)
        delta, lam = min(g.degrees), params.lambda_k
        alpha_t = _inner_lower_bound(params.phi_in) * float(params.tau) * delta
        inner = required_beta_good_parts(q, g.max_degree, alpha_t, 1.0 / k)
        assert required_beta_sse(params, q, g.max_degree, delta) == inner
        headline = k**6 * (4 + 2 * math.log(q * g.max_degree)) / (lam * lam * delta)
        assert inner >= 196_000 * headline

    @pytest.mark.parametrize(
        "refuse, text",
        [
            pytest.param(
                lambda: required_beta_good_parts(2, 3, 0.0, 0.5),
                "alpha must be positive, got 0.0",
                id="alpha-good-parts",
            ),
            pytest.param(
                lambda: kp_margin(2, 3, 1.0, -1.0),
                "alpha must be positive, got -1.0",
                id="alpha-kp-margin",
            ),
            pytest.param(
                lambda: kp_sufficient_beta(2, 3, math.nan),
                "alpha must be positive, got nan",
                id="alpha-kp-sufficient-beta",
            ),
            pytest.param(
                lambda: required_beta_good_parts(2, 3, 1.0, 0.0),
                "eta must be in (0, 1], got 0.0",
                id="eta-good-parts",
            ),
            pytest.param(
                lambda: approx_log_z_with_partition(
                    clique_chain(2, 5, 1), [range(5), range(5, 10)], 2, 1.0, 0.1, 1.5
                ),
                "eta must be in (0, 1], got 1.5",
                id="eta-with-partition",
            ),
            pytest.param(
                lambda: required_beta_sse(
                    PartitionParams.from_graph(two_triangles(), 2), 2, 2, 2
                ),
                "the 2-th eigenvalue must be positive, got 0.0; "
                "the graph has too many near-components",
                id="lambda-k-sse",
            ),
            pytest.param(
                lambda: partition_into_expanders(
                    two_triangles(), PartitionParams.from_graph(two_triangles(), 2)
                ),
                "the 2-th eigenvalue must be positive, got 0.0; "
                "the graph has too many near-components",
                id="lambda-k-partitioner",
            ),
            pytest.param(
                lambda: approx_log_z_expander(complete(4), 2, 1.0, 0.1, 1.0),
                "beta=1 is below the required threshold 7.58352 for q=2, "
                "max degree 3, alpha=1",
                id="beta-expander",
            ),
            pytest.param(
                lambda: approx_log_z_good_parts(
                    clique_chain(2, 5, 1), [range(5), range(5, 10)], 3, 2.0, 0.1
                ),
                "beta=2 is below the required threshold 45.6256 for q=3, "
                "max degree 5, alpha=0.5625, eta=0.5",
                id="beta-cut-and-sum",
            ),
            pytest.param(
                lambda: approx_log_z_sse(complete(8), 2, 2, 1.0, 0.1),
                "beta=1 is below the required threshold 1.72271e+07 for k=2, "
                "q=2, max degree 7, lambda_k=1.14286, min degree 7",
                id="beta-sse",
            ),
        ],
    )
    def test_shared_refusal_texts(self, refuse, text):
        # each hypothesis is checked in one place; its words stay as they were
        with pytest.raises(PreconditionError) as refused:
            refuse()
        assert str(refused.value) == text

    def test_sse_requires_positive_eigenvalue(self):
        g = two_triangles()  # disconnected: lambda_2 = 0
        with pytest.raises(PreconditionError):
            required_beta_sse(PartitionParams.from_graph(g, 2), 2, 2, 2)


class TestExpanderPipeline:
    def test_single_edge_frozen_value(self):
        res = approx_log_z_expander(Graph.from_edges([(0, 1)]), 2, 6.0, 0.01, 1.0)
        assert abs(res.log_z - math.log(2 * math.exp(6) + 2)) <= 0.01
        assert res.mode == "bruteforce"  # n=2 makes exactness cheaper
        assert res.eps_bound == 0.0

    def test_triangle_matches_oracle(self):
        g = complete(3)
        res = approx_log_z_expander(g, 2, 8.0, 0.01, 1.0)
        assert abs(res.log_z - exact_log_z(g, 2, 8.0)) <= 0.01

    def test_cycle_cluster_expansion_path(self):
        g = cycle(12)
        xi = 0.01
        res = approx_log_z_expander(g, 2, 21.0, xi, 1.0 / 3.0)
        assert res.mode == "expander"
        assert abs(res.log_z - exact_log_z(g, 2, 21.0)) <= xi
        assert res.truncation_depth == truncation_depth(12, xi / 2, 2, 2, 21.0, 1 / 3)
        assert res.clusters_evaluated > 0
        assert res.ground_states == 2
        assert [p["psi"] for p in res.per_psi] == [[0], [1]]
        assert all(p["monochromaticEdges"] == 12 for p in res.per_psi)

    def test_petersen_cluster_expansion_path(self):
        g = petersen()
        res = approx_log_z_expander(g, 2, 8.0, 0.01, 1.0)
        assert res.mode == "expander"
        assert abs(res.log_z - exact_log_z(g, 2, 8.0)) <= 0.01
        # KP margin -2.29, so rho = 3.29 and log(4000) / rho gives depth 3
        assert res.truncation_depth <= 3

    def test_below_threshold_names_threshold(self):
        with pytest.raises(PreconditionError, match="required threshold"):
            approx_log_z_expander(petersen(), 2, 0.1, 0.01, 1.0)

    def test_non_expander_names_witness(self):
        with pytest.raises(PreconditionError, match="not an .*expander"):
            approx_log_z_expander(path(4), 2, 8.0, 0.01, 1.0)

    def test_edgeless_graph_is_rejected(self):
        g = Graph.from_edges([], n=3, allow_isolated=True)
        with pytest.raises(PreconditionError, match="not an expander"):
            approx_log_z_expander(g, 2, 8.0, 0.01, 1.0)

    def test_single_vertex_is_exact(self):
        g = Graph.from_edges([], n=1, allow_isolated=True)
        res = approx_log_z_expander(g, 3, 8.0, 0.01, 1.0)
        assert res.log_z == pytest.approx(math.log(3))
        assert res.eps_bound == 0.0

    def test_alpha_validation(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(PreconditionError):
                approx_log_z_expander(cycle(12), 2, 21.0, 0.01, alpha)

    def test_accuracy_validation(self):
        for xi in (0.0, -0.1, math.inf):
            with pytest.raises(PreconditionError):
                approx_log_z_expander(cycle(12), 2, 21.0, xi, 1.0 / 3.0)

    @pytest.mark.parametrize(
        "alpha, xi, message",
        [
            (math.inf, 0.01, "alpha must be finite and positive, got inf"),
            (1.0 / 3.0, math.inf, "accuracy must be finite and positive, got inf"),
        ],
        ids=["alpha", "accuracy"],
    )
    def test_infinite_arguments_are_called_not_finite(self, alpha, xi, message):
        with pytest.raises(PreconditionError, match=message):
            approx_log_z_expander(cycle(12), 2, 21.0, xi, alpha)

    def test_depth_beyond_polymer_size_cap_is_refused_at_once(self):
        # xi = 1e-28 on 200 vertices needs clusters of 22 vertices (rho =
        # 3.37); clamping the polymer size to the cap would drop the larger
        # polymers
        alpha = 0.02
        beta = 1.1 * required_beta_expander(2, 2, alpha)
        assert truncation_depth(200, 0.5e-28, 2, 2, beta, alpha) == 22
        assert 22 > POLYMER_SIZE_CAP
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeds enumeration cap"):
            approx_log_z_expander(cycle(200), 2, beta, 1e-28, alpha)
        assert time.perf_counter() - start < 1.0


class TestGoodPartsPipeline:
    def test_bridged_triangles_frozen_instance(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        res = approx_log_z_good_parts(g, parts, 2, 40.0, 0.05)
        assert res.mode == "partition"
        assert abs(res.log_z - exact_log_z(g, 2, 40.0)) <= 0.05
        assert res.ground_states == 4
        assert [p["psi"] for p in res.per_psi] == [[0, 0], [1, 0], [0, 1], [1, 1]]
        assert [p["monochromaticEdges"] for p in res.per_psi] == [7, 6, 6, 7]

    def test_cheap_accuracy_falls_back_to_exact(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        res = approx_log_z_good_parts(g, parts, 2, 40.0, 0.04)  # 0.04 <= e^{-3}
        assert res.mode == "bruteforce"
        assert res.log_z == exact_log_z(g, 2, 40.0)
        assert res.eps_bound == 0.0
        assert res.per_psi == ()

    def test_ground_state_sum_is_dominated(self):
        g = triangles_with_bridge()
        res = approx_log_z_good_parts(g, [[0, 1, 2], [3, 4, 5]], 2, 40.0, 0.05)
        lhs = log_sum_exp(40.0 * p["monochromaticEdges"] for p in res.per_psi)
        assert lhs <= res.log_z + 0.05
        assert all(p["logXi"] >= -0.025 for p in res.per_psi)

    def test_prism_two_part_instance(self):
        g = prism()
        parts = [[0, 1, 2], [3, 4, 5]]
        res = approx_log_z_good_parts(g, parts, 2, 40.0, 0.05)
        assert res.mode == "partition"
        assert abs(res.log_z - exact_log_z(g, 2, 40.0)) <= 0.05

    def test_weak_boundary_vertices_are_refused(self):
        # Splitting a cycle into two arcs leaves end-vertices with a single
        # in-part edge; under ground states that colour the arcs differently
        # such a vertex flips at no cost, so its polymer weight stays 1 and
        # the certified decay never materializes.  No beta fixes that, and
        # the runtime weight check must refuse rather than answer.
        g = cycle(12)
        parts = [range(6), range(6, 12)]
        alpha = certified_alpha(g, parts)
        beta = required_beta_good_parts(2, 2, alpha, 0.5) * 1.05
        with pytest.raises(PreconditionError, match="weight bound"):
            approx_log_z_good_parts(g, parts, 2, beta, 0.05)

    def test_all_singleton_parts_reproduce_exact_sum(self):
        g = cycle(4)
        res = approx_log_z_good_parts(g, [[0], [1], [2], [3]], 2, 1.7, 0.2)
        assert res.log_z == pytest.approx(exact_log_z(g, 2, 1.7), abs=1e-10)
        assert res.ground_states == 16
        assert res.clusters_evaluated == 0  # no sparse deviations exist
        assert all(p["logXi"] == 0.0 for p in res.per_psi)

    def test_edgeless_part_is_refused(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)], n=4)
        with pytest.raises(PreconditionError, match="no expansion"):
            approx_log_z_good_parts(g, [[0, 1], [2, 3]], 2, 50.0, 0.05)

    def test_ground_state_budget(self):
        g = path(21)
        parts = [[v] for v in range(21)]
        with pytest.raises(BudgetError, match="ground states"):
            approx_log_z_good_parts(g, parts, 2, 5.0, 0.1)

    def test_accepts_partitioner_output(self):
        # At this scale the bridge cut (conductance 1/21) is far above the
        # partitioner's split threshold, so the graph is kept whole; the
        # pipeline must consume the certificate rather than re-deriving it.
        g = bridged_cliques(5)
        part = partition_into_expanders(g, PartitionParams.from_graph(g, 3))
        assert [sorted(p) for p in part.parts] == [list(range(10))]
        bounds = [c.phi_inner_lb for c in part.certificates]
        a_cert = certified_alpha(g, part.parts, bounds)
        a_raw = certified_alpha(g, [range(10)])
        assert a_cert > 0 and a_raw > 0
        beta = 1.05 * required_beta_good_parts(2, 5, min(a_cert, a_raw), 1.0)
        res = approx_log_z_good_parts(g, part, 2, beta, 0.05)
        raw = approx_log_z_good_parts(g, [range(10)], 2, beta, 0.05)
        assert res.mode == "partition"
        assert res.clusters_evaluated > 0
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= 0.05
        # alpha feeds only the admission checks, never the estimate
        assert res.log_z == raw.log_z

    def test_depth_follows_the_kp_slack(self):
        # the ground-states benchmark's clique-chain(4,4,1) q=3 request: its
        # KP margin is about -30, so depth 1 (16 singleton clusters) already
        # certifies xi; rate 1 would need depth 7 and 112,937 clusters
        g = clique_chain(4, 4, 1)
        parts = [list(range(4 * i, 4 * i + 4)) for i in range(4)]
        _, beta = _good_parts_instance(g, parts, 3)
        out = approx_log_z_good_parts(g, parts, 3, beta, 0.1).to_dict()
        assert out["truncationDepth"] == 1
        assert out["clustersEvaluated"] == 16
        # exact_log_z over the 3^16 states takes ~14 s; a bridge multiplies
        # Z by (e^beta + q - 1) / q, which is checked against exact_log_z on
        # a two-clique chain first
        def bridge(b):
            return b + math.log1p(2.0 * math.exp(-b)) - math.log(3)

        for b in (2.0, beta):
            blocks = 2 * exact_log_z(complete(3), 3, b) + bridge(b)
            chain = exact_log_z(clique_chain(2, 3, 1), 3, b)
            assert chain == pytest.approx(blocks, rel=1e-12)
        exact = 4 * exact_log_z(complete(4), 3, beta) + 3 * bridge(beta)
        assert abs(out["logZ"] - exact) <= out["epsBound"]


def _clique_path(sizes):
    """Cliques of the given sizes in a row, each joined to the next by one edge."""
    edges, parts, start = [], [], 0
    for s in sizes:
        part = list(range(start, start + s))
        if parts:
            edges.append((parts[-1][-1], part[0]))
        edges += clique_edges(part)
        parts.append(part)
        start += s
    return Graph.from_edges(edges), parts


def _good_parts_instance(g, parts, q):
    alpha = certified_alpha(g, parts)
    eta = min(len(p) for p in parts) / g.n
    return alpha, 1.1 * required_beta_good_parts(q, g.max_degree, alpha, eta)


class TestColourPatternReuse:
    """log Xi is evaluated once per colour-permutation orbit of ground states."""

    @staticmethod
    def _record_calls(monkeypatch, module, name, calls):
        """Append the positional arguments of each call of module.name to calls."""
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize(
        "g, parts, q",
        [
            (clique_chain(3, 3, 1), [[0, 1, 2], [3, 4, 5], [6, 7, 8]], 3),
            (*_clique_path([3, 4, 3]), 4),
        ],
        ids=["clique-chain(3,3,1) q=3", "K3-K4-K3 q=4"],
    )
    def test_every_ground_state_matches_a_direct_evaluation(self, g, parts, q):
        xi = 0.1
        alpha, beta = _good_parts_instance(g, parts, q)
        res = approx_log_z_good_parts(g, parts, q, beta, xi)
        assert res.mode == "partition"
        assert res.ground_states == len(res.per_psi) == q ** len(parts)
        for entry in res.per_psi:
            psi = entry["psi"]
            direct = truncated_log_xi(g, parts, psi, q, beta, xi / 2, alpha)
            assert entry["logXi"] == direct.log_xi
            ground = ground_colouring(g, parts, psi, q, beta)[1]
            assert entry["monochromaticEdges"] == monochromatic(g, ground)
        # the same colour multiset, but a different pattern and value: a
        # cache keyed on the sorted colours would fail the loop above
        by_psi = {tuple(p["psi"]): p["logXi"] for p in res.per_psi}
        assert by_psi[(0, 0, 1)] != by_psi[(0, 1, 0)]

    @pytest.mark.parametrize("t, evaluations", [(3, 5), (4, 14)])
    def test_good_parts_evaluates_one_state_per_pattern(
        self, monkeypatch, t, evaluations
    ):
        # sum over j <= q of S(t, j): 1 + 3 + 1 for t=3, 1 + 7 + 6 for t=4
        g = clique_chain(t, 3, 1)
        parts = [list(range(3 * i, 3 * i + 3)) for i in range(t)]
        _, beta = _good_parts_instance(g, parts, 3)
        calls = []
        self._record_calls(monkeypatch, potts, "truncated_log_xi", calls)
        res = approx_log_z_good_parts(g, parts, 3, beta, 0.1)
        assert res.ground_states == 3**t
        assert len(calls) == evaluations
        assert len({potts._colour_pattern(args[2]) for args in calls}) == evaluations

    def test_parts_are_validated_once_per_pattern(self, monkeypatch):
        # the ground-states benchmark's clique-chain(4,4,1) q=3 request: one
        # validation to certify the parts, one to enumerate the polymers and
        # one weight pass for each of the 14 patterns (m_G comes from the
        # part-edge table)
        g = clique_chain(4, 4, 1)
        parts = [list(range(4 * i, 4 * i + 4)) for i in range(4)]
        _, beta = _good_parts_instance(g, parts, 3)
        calls = []
        for module in (polymers, potts):
            self._record_calls(monkeypatch, module, "normalize_parts", calls)
        res = approx_log_z_good_parts(g, parts, 3, beta, 0.1)
        assert res.ground_states == 81
        assert len(calls) <= 16

    def test_expander_evaluates_one_state(self, monkeypatch):
        calls = []
        self._record_calls(monkeypatch, potts, "truncated_log_xi", calls)
        res = approx_log_z_expander(cycle(12), 2, 21.0, 0.01, 1.0 / 3.0)
        assert res.mode == "expander"
        assert res.ground_states == 2
        assert [args[2] for args in calls] == [(0,)]
        assert res.per_psi[0]["logXi"] == res.per_psi[1]["logXi"]


class TestWithPartitionPipeline:
    def test_one_bad_part_bound_is_honest(self):
        # triangle (bad) + K_8 (good) joined by one edge; the removed edge
        # contributes beta/2 to the estimate and the error bound
        g = triangle_plus_k8()
        parts = [[0, 1, 2], list(range(3, 11))]
        res = approx_log_z_with_partition(g, parts, 2, 55.0, 0.01, 0.5)
        assert res.mode == "partition"
        assert res.eps_bound == pytest.approx(2 * 0.01 + 55.0 / 2)
        diff = abs(res.log_z - exact_log_z(g, 2, 55.0))
        assert diff <= res.eps_bound
        # the dominant-state analysis pins the actual deviation
        assert diff == pytest.approx(55.0 / 2 - math.log(2), abs=1e-6)

    def test_no_bad_parts_delegates(self):
        g = triangles_with_bridge()
        parts = [[0, 1, 2], [3, 4, 5]]
        res = approx_log_z_with_partition(g, parts, 2, 40.0, 0.05, 0.5)
        ref = approx_log_z_good_parts(g, parts, 2, 40.0, 0.05)
        assert res.log_z == ref.log_z
        assert res.eps_bound == ref.eps_bound == 0.05
        assert res.mode == "partition"

    def test_two_bad_parts(self):
        g = two_triangles_plus_k6()
        parts = [[0, 1, 2], [3, 4, 5], list(range(6, 12))]
        res = approx_log_z_with_partition(g, parts, 2, 90.0, 0.01, 0.3)
        assert res.eps_bound == pytest.approx(3 * 0.01 + 90.0)  # X = 2
        diff = abs(res.log_z - exact_log_z(g, 2, 90.0))
        assert diff <= res.eps_bound
        assert diff == pytest.approx(90.0 - 2 * math.log(2), abs=1e-6)

    def test_shared_boundary_edges_count_once(self):
        g = path(4)
        parts = [[0], [1], [2, 3]]
        res = approx_log_z_with_partition(g, parts, 2, 80.0, 0.01, 0.4)
        # bad parts {0} and {1} share the edge (0,1): X = 2, not 3
        assert res.eps_bound == pytest.approx(3 * 0.01 + 80.0)
        diff = abs(res.log_z - exact_log_z(g, 2, 80.0))
        assert diff <= res.eps_bound

    def test_singleton_bad_part_contributes_exactly(self):
        g = triangle_plus_pendant()
        res = approx_log_z_with_partition(g, [[0, 1, 2], [3]], 2, 50.0, 0.01, 0.4)
        tri = exact_log_z(complete(3), 2, 50.0)
        assert res.log_z == pytest.approx(25.0 + tri + math.log(2), abs=1e-9)
        assert res.eps_bound == pytest.approx(2 * 0.01 + 25.0)
        assert abs(res.log_z - exact_log_z(g, 2, 50.0)) <= res.eps_bound

    def test_all_parts_bad_drops_every_edge(self):
        g = cycle(4)
        res = approx_log_z_with_partition(
            g, [[0], [1], [2], [3]], 2, 3.0, 0.1, 0.3
        )
        assert res.log_z == pytest.approx(2 * 3.0 + 4 * math.log(2), abs=1e-12)
        assert res.eps_bound == pytest.approx(5 * 0.1 + 2 * 3.0)
        assert abs(res.log_z - exact_log_z(g, 2, 3.0)) <= res.eps_bound

    def test_disjoint_union_splits_exactly(self):
        g = two_triangles()
        res = approx_log_z_with_partition(g, [[0, 1, 2], [3, 4, 5]], 2, 40.0, 0.01, 1.0)
        # both parts are bad at eta=1 but no edges cross: X = 0 and each
        # triangle is handled exactly, so the estimate is exact
        assert res.eps_bound == pytest.approx(3 * 0.01)
        assert res.log_z == pytest.approx(exact_log_z(g, 2, 40.0), abs=1e-9)
        assert res.log_z == pytest.approx(
            2 * exact_log_z(complete(3), 2, 40.0), abs=1e-9
        )

    def test_eta_validation(self):
        g = triangles_with_bridge()
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(PreconditionError):
                approx_log_z_with_partition(
                    g, [[0, 1, 2], [3, 4, 5]], 2, 40.0, 0.05, eta
                )

    def test_below_threshold_names_threshold(self):
        g = triangle_plus_k8()
        with pytest.raises(PreconditionError, match="required threshold"):
            approx_log_z_with_partition(
                g, [[0, 1, 2], list(range(3, 11))], 2, 40.0, 0.01, 0.5
            )

    @staticmethod
    def _cut_pendant_triangle(monkeypatch, name, calls):
        """Two bridged K5's plus a pendant triangle, cut at eta = 0.3.

        Records each call of potts.name in calls and returns the parts; the
        triangle is the one bad part.
        """
        g = Graph.from_edges(
            list(clique_chain(2, 5, 1).edges)
            + [(10, 11), (10, 12), (11, 12), (9, 10)]
        )
        parts = [list(range(5)), list(range(5, 10)), [10, 11, 12]]
        need = required_beta_good_parts(3, g.max_degree, certified_alpha(g, parts), 0.3)
        inner = getattr(potts, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(potts, name, counted)
        res = approx_log_z_with_partition(g, parts, 3, 1.1 * need, 0.25, 0.3)
        assert res.eps_bound == pytest.approx(2 * 0.25 + 1.1 * need / 2)
        return parts

    def test_each_part_is_swept_once(self, monkeypatch):
        # neither the cut triangle nor the rest is certified a second time
        calls = []
        parts = self._cut_pendant_triangle(monkeypatch, "_sweep_in_part", calls)
        swept = [frozenset(part) for _, part in calls]
        assert sorted(swept, key=min) == [frozenset(p) for p in parts]

    def test_threshold_is_checked_once(self, monkeypatch):
        # the good rest {K5, K5} is summed without a second beta gate, since
        # its alpha, Delta and eta are no worse than the whole partition's
        calls = []
        self._cut_pendant_triangle(monkeypatch, "required_beta_good_parts", calls)
        assert len(calls) == 1

    def test_pieces_are_added_in_part_order(self):
        # bad parts: a triangle (expander pipeline) and then the edgeless
        # vertex 3 (q^1 exactly); the K_6 rest takes the good-parts pipeline
        g = Graph.from_edges(
            clique_edges(range(3))
            + clique_edges(range(4, 10))
            + [(2, 3), (3, 4), (0, 4)]
        )
        parts = [[0, 1, 2], [3], list(range(4, 10))]
        alpha = certified_alpha(g, parts)
        beta, xi = 100.0, 0.05
        assert beta >= required_beta_good_parts(2, g.max_degree, alpha, 0.4)
        res = approx_log_z_with_partition(g, parts, 2, beta, xi, 0.4)
        triangle, _ = induced_subgraph(g, parts[0], allow_isolated=True)
        rest, _ = induced_subgraph(g, parts[2], allow_isolated=True)
        expected = beta * 3 / 2.0  # X = 3 removed edges
        expected += approx_log_z_expander(triangle, 2, beta, xi, alpha).log_z
        expected += math.log(2)
        good = approx_log_z_good_parts(rest, [range(6)], 2, beta, xi)
        expected += good.log_z
        assert good.mode == "partition"  # the rest runs the expansion
        assert res.log_z == expected
        assert res.eps_bound == pytest.approx(3 * xi + beta * 3 / 2)
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= res.eps_bound


class TestSsePipeline:
    def test_complete_graph_single_part(self):
        g = complete(8)
        need = required_beta_sse(PartitionParams.from_graph(g, 2), 2, 7, 7)
        beta = need * 1.01
        res = approx_log_z_sse(g, 2, 2, beta, 0.1)
        assert res.mode == "sse"
        assert res.ground_states == 2  # one part survives
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= 0.1

    def test_bridged_cliques(self):
        g = bridged_cliques(5)
        need = required_beta_sse(PartitionParams.from_graph(g, 2), 2, 5, 4)
        beta = need * 1.01
        res = approx_log_z_sse(g, 2, 2, beta, 0.1)
        assert res.mode == "sse"
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= 0.1

    def test_below_threshold_names_threshold(self):
        with pytest.raises(PreconditionError, match="required threshold"):
            approx_log_z_sse(complete(8), 2, 2, 1.0, 0.1)

    def test_disconnected_graph_is_refused(self):
        g = two_triangles()
        match = (
            "the 2-th eigenvalue must be positive, got 0.0; "
            "the graph has too many near-components"
        )
        with pytest.raises(PreconditionError, match=match):
            approx_log_z_sse(g, 2, 2, 1e9, 0.1)
        with pytest.raises(PreconditionError, match=match):
            required_beta_sse(PartitionParams.from_graph(g, 2), 2, 2, 2)

    def test_bad_model_is_refused_before_the_spectrum(self, monkeypatch):
        import pottspart.partition as partition_module

        def no_spectrum(g, k):
            raise AssertionError("the spectrum was computed")

        monkeypatch.setattr(
            partition_module, "normalized_laplacian_spectrum", no_spectrum
        )
        for q, beta, eps in ((1, 1e9, 0.1), (2, 0.0, 0.1), (2, 1e9, 0.0)):
            with pytest.raises(PreconditionError):
                approx_log_z_sse(complete(8), 2, q, beta, eps)

    def test_accuracy_is_clamped(self):
        g = complete(8)
        need = required_beta_sse(PartitionParams.from_graph(g, 2), 2, 7, 7)
        res = approx_log_z_sse(g, 2, 2, need * 1.01, 0.7)
        assert res.eps_bound == XI_CAP

    def test_small_part_falls_back_to_weaker_bound(self, monkeypatch):
        # The splitter only severs cuts sparser than phi_in = lambda_k/(140k^2),
        # so at test scale every returned part has >= n/k vertices; inject a
        # valid partition with one small part to drive the fallback branch.
        g = triangle_plus_k8()
        injected = ExpanderPartition(
            parts=((0, 1, 2), tuple(range(3, 11))),
            cores=((0, 1, 2), tuple(range(3, 11))),
            ell=2,
            certificates=(
                PartCertificate(
                    sweep_conductance=Fraction(1),
                    phi_inner_lb=Fraction(1, 4),
                    phi_outer=Fraction(1, 7),
                    min_degree_ratio=Fraction(2, 3),
                ),
                PartCertificate(
                    sweep_conductance=Fraction(4, 7),
                    phi_inner_lb=Fraction(4, 49),
                    phi_outer=Fraction(1, 57),
                    min_degree_ratio=Fraction(7, 8),
                ),
            ),
            iterations={},
        )
        import pottspart.potts as potts_module

        monkeypatch.setattr(
            potts_module, "partition_into_expanders", lambda g_, p_: injected
        )
        need = required_beta_sse(PartitionParams.from_graph(g, 3), 2, 8, 2)
        beta = need * 1.01
        res = approx_log_z_sse(g, 3, 2, beta, 0.01)
        assert res.mode == "partition"  # the weaker-bound path reports itself
        assert res.eps_bound == pytest.approx(2 * 0.01 + beta / 2)
        expected = (
            beta / 2
            + exact_log_z(complete(3), 2, beta)
            + exact_log_z(complete(8), 2, beta)
        )
        assert res.log_z == pytest.approx(expected, abs=1e-6)
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= res.eps_bound

    def test_part_of_exactly_n_over_k_is_kept(self, monkeypatch):
        # n = 15, k = 5: only the pendant vertex 0 has |P| * k < n.  The two
        # triangles have exactly n/k vertices and stay in the good rest,
        # although the float 1/5 lies above 1/5.
        g = Graph.from_edges(
            [(0, 1)]
            + clique_edges(range(1, 4))
            + clique_edges(range(4, 7))
            + clique_edges(range(7, 15))
            + [(3, 4), (6, 7)]
        )
        parts = [(0,), (1, 2, 3), (4, 5, 6), tuple(range(7, 15))]
        injected = _swept_partition(g, parts)
        monkeypatch.setattr(potts, "partition_into_expanders", lambda g_, p_: injected)
        need = max(
            required_beta_sse(PartitionParams.from_graph(g, 5), 2, g.max_degree, 1),
            required_beta_good_parts(2, g.max_degree, certified_alpha(g, parts), 0.2),
        )
        beta = need * 1.01
        res = approx_log_z_sse(g, 5, 2, beta, 0.25)
        assert res.mode == "partition"
        assert res.eps_bound == pytest.approx(2 * 0.25 + beta / 2)  # X = 1
        assert abs(res.log_z - exact_log_z(g, 2, beta)) <= res.eps_bound


class TestResultSerialization:
    def test_dict_schema(self):
        res = approx_log_z_expander(cycle(12), 2, 21.0, 0.01, 1.0 / 3.0)
        d = res.to_dict()
        assert set(d) == {
            "logZ",
            "epsBound",
            "mode",
            "groundStates",
            "truncationDepth",
            "clustersEvaluated",
            "perPsi",
        }
        assert d["mode"] in {"sse", "partition", "expander", "bruteforce"}
        for entry in d["perPsi"]:
            assert set(entry) == {"psi", "monochromaticEdges", "logXi"}
        round_trip = json.loads(json.dumps(d, sort_keys=True))
        assert round_trip["logZ"] == res.log_z

    def test_bruteforce_dict(self):
        res = approx_log_z_good_parts(
            triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], 2, 40.0, 0.04
        )
        d = res.to_dict()
        assert d["mode"] == "bruteforce"
        assert d["epsBound"] == 0.0
        assert d["perPsi"] == []


class TestStructuralProperties:
    """Identities and bounds the construction relies on, checked by oracle."""

    def test_restricted_sum_factorizes_over_components(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(12):
            n = rng.randrange(5, 8)
            g = _random_connected(rng, n)
            ell = rng.randrange(1, 3)
            parts = _random_partition(rng, n, ell)
            q = rng.choice([2, 3])
            psi = tuple(rng.randrange(q) for _ in range(ell))
            beta = rng.uniform(0.5, 1.5)
            checked += check_factorization(g, parts, psi, q, beta)
        assert checked > 50

    def test_deviation_identity_exhaustive(self):
        # every colouring that deviates from a ground state exactly on U has
        # m_G(omega) = m_G(psi) - |edges touching U| + restricted count
        for g, parts, q in [
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], 2),
            (prism(), [[0, 1, 2], [3, 4, 5]], 3),
        ]:
            check_deviation_identity(g, parts, q)

    def test_sparse_sets_biject_with_compatible_families(self):
        rng = random.Random(31)
        for _ in range(8):
            n = rng.randrange(5, 8)
            g = _random_connected(rng, n)
            ell = rng.randrange(1, 3)
            check_bijection(g, _random_partition(rng, n, ell))

    def test_sparse_sets_expand_part_by_part(self):
        instances = [
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]]),
            (cycle(8), [range(4), range(4, 8)]),
            (bridged_cliques(5), [range(5), range(5, 10)]),
        ]
        for g, parts in instances:
            parts = [tuple(p) for p in parts]
            alpha = certified_alpha(g, parts)
            for part in parts:
                # the certificate never exceeds the true expansion constant
                assert alpha <= _brute_part_expansion(g, part) + 1e-12
            subs = [induced_subgraph(g, p, allow_isolated=True) for p in parts]
            for bits in range(1, 1 << g.n):
                u = set(v for v in range(g.n) if bits >> v & 1)
                if not is_sparse(g, tuple(sorted(u)), parts):
                    continue
                for (sub, vs), part in zip(subs, parts):
                    inside = [i for i, v in enumerate(vs) if v in u]
                    if not inside:
                        continue
                    assert boundary_size(sub, inside) >= alpha * len(inside) - 1e-9

    def test_exact_xi_is_at_least_one(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(4, 8)
            g = _random_connected(rng, n)
            ell = rng.randrange(1, 3)
            parts = _random_partition(rng, n, ell)
            q = rng.choice([2, 3])
            psi = tuple(rng.randrange(q) for _ in range(ell))
            beta = rng.uniform(0.5, 3.0)
            assert exact_log_xi(g, parts, psi, q, beta) >= -1e-12

    def test_sandwich_between_restricted_and_polymer_sums(self):
        # Both instances give every boundary vertex at least two edges inside
        # its own part, so all polymer weights decay and the truncation
        # guarantees apply; splitting a cycle into arcs, by contrast, leaves
        # unit-weight polymers and the chain genuinely fails.
        instances = [
            (triangles_with_bridge(), [(0, 1, 2), (3, 4, 5)], 40.0),
            (prism(), [(0, 1, 2), (3, 4, 5)], 40.0),
        ]
        for g, parts, beta in instances:
            slack = math.exp(-g.n)
            log_z = exact_log_z(g, 2, beta)
            log_z_star = exact_log_z_star(g, parts, 2, beta)
            assert log_z - slack - 1e-9 <= log_z_star <= log_z + 1e-12
            for psi in itertools.product(range(2), repeat=len(parts)):
                log_close = exact_log_z_psi(g, parts, psi, 2, beta)
                ground = ground_colouring(g, parts, psi, 2, beta)[1]
                log_tilde = beta * monochromatic(g, ground) + exact_log_xi(
                    g, parts, psi, 2, beta
                )
                assert log_close - 1e-9 <= log_tilde <= log_close + slack + 1e-9

    def test_ground_state_dominance_threshold(self):
        for g, q, eps in [
            (complete(3), 2, 0.1),
            (complete(4), 3, 0.01),
            (path(4), 2, 0.5),
        ]:
            beta = (g.n - 1) * math.log(q) - math.log(math.expm1(eps)) + 1e-9
            approx = math.log(q) + beta * g.m
            assert abs(approx - exact_log_z(g, q, beta)) <= eps
