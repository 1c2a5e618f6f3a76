"""Acceptance battery for the whole package.

Eight criteria gate a release; each test prints one
``[acceptance] criterion N: PASS/FAIL`` line directly to the terminal
(bypassing capture) so the verdicts appear in every run log:

1. end-to-end accuracy of all four pipelines against the exact oracle,
2. cluster-expansion truncation against the exact polymer sum,
3. partition certificates on regular graphs and clique chains at scale,
4. the vertex-removal conductance closed form (exact rational equality),
5. spectral sanity (eigenvalue range, Cheeger sandwich, k-way lower bound),
6. ground-state decomposition identities (exhaustive on small graphs),
7. ground-state dominance at large beta,
8. bit-level determinism across repeated runs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

from conftest import (
    all_connected_graphs,
    complete,
    cube,
    cycle,
    path,
    petersen,
    prism,
    triangles_with_bridge,
    two_triangles,
)
from reference import (
    check_bijection,
    check_deviation_identity,
    check_factorization,
    exact_log_xi,
    exact_log_z_psi,
    exact_log_z_star,
    k_way_expansion,
    kp_condition_holds,
    monochromatic,
    sparse_deviation_log_sum,
    triangle_plus_k8,
    triangle_plus_pendant,
    two_triangles_plus_k6,
)
from pottspart.generate import clique_chain, random_regular
from pottspart.graphs import Graph, boundary_size, volume
from pottspart.oracle import exact_log_z, min_conductance
from pottspart.partition import (
    PartitionParams,
    partition_into_expanders,
    phi_after_vertex_removal,
    verify_partition,
)
from pottspart.polymers import (
    ClusterExpansion,
    check_weight_bounds,
    enumerate_polymers,
    ground_colouring,
    kp_margin,
    kp_sufficient_beta,
    polymer_log_weights,
    truncation_depth,
)
from pottspart.potts import (
    approx_log_z_expander,
    approx_log_z_good_parts,
    approx_log_z_sse,
    approx_log_z_with_partition,
    certified_alpha,
    required_beta_expander,
    required_beta_good_parts,
    required_beta_sse,
)
from pottspart.spectral import normalized_laplacian_spectrum
from pottspart.util import log_sum_exp


@contextlib.contextmanager
def _verdict(capsys, num: int):
    """Print the criterion verdict even when pytest captures output."""
    try:
        yield
    except BaseException:
        _verdict_line(capsys, num, False)
        raise
    _verdict_line(capsys, num, True)


def _verdict_line(capsys, num: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}", flush=True)


def brute_expansion(g: Graph) -> float:
    """Exact edge-expansion constant: min |boundary(S)| / |S| over small S."""
    best = None
    for bits in range(1, 1 << g.n):
        size = bits.bit_count()
        if 2 * size > g.n:
            continue
        vs = [v for v in range(g.n) if bits >> v & 1]
        f = Fraction(boundary_size(g, vs), size)
        if best is None or f < best:
            best = f
    # one ulp down so the float never exceeds the exact rational minimum
    return math.nextafter(float(best), 0.0)


def bridged(s: int) -> Graph:
    return clique_chain(2, s, 1)


def test_criterion_1_end_to_end_accuracy(capsys):
    with _verdict(capsys, 1):
        started = time.time()
        runs = 0

        def verify(result, g, q, beta):
            nonlocal runs
            exact = exact_log_z(g, q, beta)
            assert abs(result.log_z - exact) <= result.eps_bound
            runs += 1

        for q in (2, 3):
            # single-expander pipeline, expansion certified by brute force
            for g in (complete(5), complete(8), cycle(8), cycle(10),
                      cycle(12), cube()):
                alpha = brute_expansion(g)
                beta = 1.1 * required_beta_expander(q, max(g.degrees), alpha)
                for eps in (0.01, 0.1):
                    verify(
                        approx_log_z_expander(g, q, beta, eps, alpha), g, q, beta
                    )

            # good-parts pipeline on two-part instances
            for g, parts in (
                (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]]),
                (prism(), [[0, 1, 2], [3, 4, 5]]),
                (bridged(4), [[0, 1, 2, 3], [4, 5, 6, 7]]),
                (bridged(5), [list(range(5)), list(range(5, 10))]),
                (two_triangles(), [[0, 1, 2], [3, 4, 5]]),
            ):
                alpha = certified_alpha(g, parts)
                eta = min(len(p) for p in parts) / g.n
                beta = 1.1 * required_beta_good_parts(
                    q, max(g.degrees), alpha, eta
                )
                for eps in (0.01, 0.1):
                    verify(
                        approx_log_z_good_parts(g, parts, q, beta, eps),
                        g, q, beta,
                    )

            # partition pipeline with small (bad) parts
            for g, parts, eta in (
                (triangle_plus_k8(), [[0, 1, 2], list(range(3, 11))], 0.5),
                (path(4), [[0], [1], [2, 3]], 0.4),
                (triangle_plus_pendant(), [[0, 1, 2], [3]], 0.4),
                (two_triangles_plus_k6(),
                 [[0, 1, 2], [3, 4, 5], list(range(6, 12))], 0.3),
            ):
                alpha = certified_alpha(g, parts)
                beta = 1.1 * required_beta_good_parts(
                    q, max(g.degrees), alpha, eta
                )
                for eps in (0.01, 0.1):
                    verify(
                        approx_log_z_with_partition(g, parts, q, beta, eps, eta),
                        g, q, beta,
                    )

            # spectral end-to-end pipeline
            for g, k in ((complete(4), 2), (complete(8), 2), (cycle(6), 2),
                         (bridged(5), 2)):
                params = PartitionParams.from_graph(g, k)
                beta = 1.1 * required_beta_sse(
                    params, q, max(g.degrees), min(g.degrees)
                )
                for eps in (0.01, 0.1):
                    verify(approx_log_z_sse(g, k, q, beta, eps), g, q, beta)

        elapsed = time.time() - started
        assert runs >= 50
        assert elapsed <= 300.0


def _criterion_2_catalog():
    """(graph, parts, q, beta / kp_sufficient_beta, deepest m) of criterion 2."""
    catalog = []
    for q in (2, 3):
        catalog += [
            (complete(3), [range(3)], q, 1.1, 12),
            (complete(4), [range(4)], q, 1.1, 12),
            (complete(5), [range(5)], q, 1.5, 8),
            (cycle(4), [range(4)], q, 1.1, 10),
            (cycle(5), [range(5)], q, 1.1, 10),
            (cycle(6), [range(6)], q, 1.5, 8),
            (path(4), [range(4)], q, 1.1, 10),
            (prism(), [[0, 1, 2], [3, 4, 5]], q, 1.5, 8),
            (triangles_with_bridge(), [[0, 1, 2], [3, 4, 5]], q, 1.5, 8),
            (bridged(4), [[0, 1, 2, 3], [4, 5, 6, 7]], q, 2.0, 8),
        ]
    return catalog


def _truncations(expansion, log_weights, depths):
    """log Xi truncated at each depth, read off one deeper expansion.

    The depth-m truncation is the sum over the expansion's clusters of total
    size at most m, each term formed as ClusterExpansion.log_xi forms it;
    fsum is correctly rounded, so which clusters are summed fixes the value.
    """
    sizes = [len(p.vertices) for p in expansion.polymers]
    sized_terms = []
    for cl in expansion.clusters:
        s = 0.0
        for idx, mult in zip(cl.support, cl.multiplicities):
            s += mult * log_weights[idx]
        total = sum(mult * sizes[idx] for idx, mult in zip(cl.support, cl.multiplicities))
        sized_terms.append((total, (cl.ursell_num / cl.ursell_den) * math.exp(s)))
    return [math.fsum(t for total, t in sized_terms if total <= m) for m in depths]


def test_criterion_2_truncation_against_exact_polymer_sum(capsys):
    with _verdict(capsys, 2):
        catalog = _criterion_2_catalog()
        # the clusters depend only on the polymers, so one build per polymer
        # model serves every depth, every ground state and both q
        expansions = {}
        instances = 0
        for g, parts, q, mult, m_max in catalog:
            parts = [tuple(p) for p in parts]
            alpha = certified_alpha(g, parts)
            delta = max(g.degrees)
            beta = mult * kp_sufficient_beta(q, delta, alpha)
            assert kp_condition_holds(q, delta, beta, alpha)
            key = (g.edges, tuple(parts), m_max)
            if key not in expansions:
                polymers = enumerate_polymers(g, parts, max_size=g.n // 2)
                expansions[key] = ClusterExpansion(polymers, m_max)
            expansion = expansions[key]
            polymers = expansion.polymers
            psis = [(0,) * len(parts)]
            if len(parts) == 2:
                psis.append((0, 1))
            for psi in psis:
                weights = polymer_log_weights(g, parts, psi, polymers, q, beta)
                check_weight_bounds(polymers, weights, q, beta, alpha)
                exact = exact_log_xi(g, parts, psi, q, beta)
                depths = range(1, m_max + 1)
                truncations = _truncations(expansion, weights, depths)
                assert truncations[-1] == expansion.log_xi(weights)
                for m, truncated in zip(depths, truncations):
                    assert abs(truncated - exact) <= g.n * math.exp(-m)
                # at full depth the tail is far below the reporting tolerance
                assert abs(truncations[-1] - exact) <= 1e-9
            instances += 1
        assert instances >= 20


def test_truncations_read_off_a_deeper_build_are_the_builds():
    """Criterion 2's depth-m values are ClusterExpansion(polymers, m), bit for bit.

    On the 6-cycle at criterion 2's beta, arcs of every length have
    boundary 2, so clusters of total size 1, 2 and 3 each move the sum and a
    wrong cut shows in the last bit.
    """
    g, parts, q = cycle(6), [tuple(range(6))], 2
    alpha = certified_alpha(g, parts)
    beta = 1.5 * kp_sufficient_beta(q, max(g.degrees), alpha)
    polymers = enumerate_polymers(g, parts, max_size=g.n // 2)
    weights = polymer_log_weights(g, parts, (0,), polymers, q, beta)
    depths = (1, 2, 3, 4)
    built = [ClusterExpansion(polymers, m).log_xi(weights) for m in depths]
    assert len(set(built)) == 3
    assert _truncations(ClusterExpansion(polymers, 5), weights, depths) == built


def test_kp_slack_tail_against_exact_polymer_sum():
    """The depth-m tail is at most n*e^(-rho*(m+1)), rho = 1 - KP margin.

    Checked where that bound is at least 1e-12: exact_log_xi itself carries
    about 1e-16 of rounding.  At the pipeline depth for xi (truncation at
    xi/2) the error is at most xi/4.
    """
    for g, parts, q, mult, m_max in _criterion_2_catalog():
        parts = [tuple(p) for p in parts]
        alpha = certified_alpha(g, parts)
        delta = max(g.degrees)
        beta = mult * kp_sufficient_beta(q, delta, alpha)
        rho = 1.0 - kp_margin(q, delta, beta, alpha)
        polymers = enumerate_polymers(g, parts, max_size=g.n // 2)
        psis = [(0,) * len(parts)]
        if len(parts) == 2:
            psis.append((0, 1))
        for psi in psis:
            weights = polymer_log_weights(g, parts, psi, polymers, q, beta)
            check_weight_bounds(polymers, weights, q, beta, alpha)
            exact = exact_log_xi(g, parts, psi, q, beta)
            for m in range(1, m_max + 1):
                bound = g.n * math.exp(-rho * (m + 1))
                if bound < 1e-12:
                    break
                truncated = ClusterExpansion(polymers, m).log_xi(weights)
                assert abs(truncated - exact) <= bound
            for xi in (0.1, 0.01):
                depth = truncation_depth(g.n, xi / 2, q, delta, beta, alpha)
                truncated = ClusterExpansion(polymers, depth).log_xi(weights)
                assert abs(truncated - exact) <= xi / 4


def test_criterion_3_partition_certificates_at_scale(capsys):
    with _verdict(capsys, 3):
        cases = []
        for n, seed in ((50, 1), (120, 2), (200, 3)):
            for k in (2, 3, 4):
                cases.append((random_regular(n, 3, seed=seed), k, None))
        cases += [
            (bridged(75), 2, [list(range(150))]),
            (bridged(75), 3, [list(range(75)), list(range(75, 150))]),
            (clique_chain(3, 50, 1), 4,
             [list(range(50)), list(range(50, 100)), list(range(100, 150))]),
            (bridged(10), 3, [list(range(20))]),
        ]
        for g, k, expected_parts in cases:
            started = time.time()
            params = PartitionParams.from_graph(g, k)
            partition = partition_into_expanders(g, params)
            report = verify_partition(g, partition.parts, params)
            assert partition.ell < k
            assert report.passed
            assert partition.iterations["main"] <= 10 * k * g.n * g.m
            inner_floor = params.phi_in * params.phi_in / 4.0
            for cert in partition.certificates:
                assert float(cert.phi_inner_lb) >= inner_floor
                assert cert.min_degree_ratio >= params.tau
            if expected_parts is not None:
                assert sorted(sorted(p) for p in partition.parts) == expected_parts
            assert time.time() - started <= 120.0


def test_criterion_4_vertex_removal_closed_form(capsys):
    with _verdict(capsys, 4):
        rng = random.Random(5)
        pool = [
            cycle(8), cycle(12), complete(6), path(7), petersen(), cube(),
            prism(), triangles_with_bridge(), bridged(4), bridged(5),
            random_regular(12, 3, seed=4),
        ]
        checked = 0
        while checked < 1000:
            g = rng.choice(pool)
            bits = rng.randrange(1, 1 << g.n)
            b = [v for v in range(g.n) if bits >> v & 1]
            if len(b) < 2:
                continue
            u = rng.choice(b)
            rest = [v for v in b if v != u]
            direct = Fraction(boundary_size(g, rest), volume(g, rest))
            assert phi_after_vertex_removal(g, b, u) == direct
            checked += 1


def test_criterion_5_spectral_sanity(capsys):
    with _verdict(capsys, 5):
        catalog = [
            complete(3), complete(5), complete(8), cycle(4), cycle(7),
            cycle(12), cycle(14), path(6), petersen(), cube(), prism(),
            triangles_with_bridge(), two_triangles(), bridged(4), bridged(5),
            clique_chain(3, 4, 1), random_regular(12, 3, seed=1),
            random_regular(50, 3, seed=2), bridged(20),
        ]
        for g in catalog:
            lam = normalized_laplacian_spectrum(g, g.n).eigenvalues
            assert lam[0] <= 1e-10
            assert lam[-1] <= 2 + 1e-10
            if g.n <= 14:
                phi = float(min_conductance(g)[0])
                assert lam[1] / 2 <= phi + 1e-12
                assert phi <= math.sqrt(2 * lam[1]) + 1e-12
            if g.n <= 12:
                for k in range(2, min(4, g.n) + 1):
                    rho = float(k_way_expansion(g, k))
                    assert lam[k - 1] / 2 <= rho + 1e-12


def _check_ground_state_sums(g, parts, q, beta=0.8):
    per_psi = [
        exact_log_z_psi(g, parts, psi, q, beta)
        for psi in itertools.product(range(q), repeat=len(parts))
    ]
    assert math.isclose(
        exact_log_z_star(g, parts, q, beta),
        log_sum_exp(per_psi),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )
    for psi in itertools.product(range(q), repeat=len(parts)):
        lhs = sparse_deviation_log_sum(g, parts, psi, q, beta)
        ground = ground_colouring(g, parts, psi, q, beta)[1]
        rhs = beta * monochromatic(g, ground) + exact_log_xi(g, parts, psi, q, beta)
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


def test_criterion_6_decomposition_identities(capsys):
    with _verdict(capsys, 6):
        instances = []
        for n in (3, 4):
            for g in all_connected_graphs(n):
                instances.append((g, [tuple(range(n))], 2))
                if n == 4:
                    instances.append((g, [(0, 1), (2, 3)], 2))
        curated = [
            (complete(3), [(0, 1, 2)], 3),
            (path(4), [(0, 1), (2, 3)], 3),
            (cycle(5), [(0, 1, 2, 3, 4)], 2),
            (cycle(5), [(0, 1, 2, 3, 4)], 3),
            (cycle(6), [(0, 1, 2), (3, 4, 5)], 2),
            (cycle(6), [(0, 1, 2), (3, 4, 5)], 3),
            (triangles_with_bridge(), [(0, 1, 2), (3, 4, 5)], 2),
            (triangles_with_bridge(), [(0, 1, 2), (3, 4, 5)], 3),
            (prism(), [(0, 1, 2), (3, 4, 5)], 2),
            (prism(), [(0, 1, 2), (3, 4, 5)], 3),
            (cycle(8), [(0, 1, 2, 3), (4, 5, 6, 7)], 2),
            (cube(), [(0, 1, 2, 3), (4, 5, 6, 7)], 2),
            (complete(8), [tuple(range(8))], 2),
        ]
        for g, parts, q in instances + curated:
            assert g.n <= 8
            check_deviation_identity(g, parts, q)
            check_factorization(g, parts, tuple(i % q for i in range(len(parts))), q)
            check_bijection(g, parts)
            _check_ground_state_sums(g, parts, q)


def test_criterion_7_ground_state_dominance(capsys):
    with _verdict(capsys, 7):
        catalog = [
            complete(3), complete(4), complete(6), cycle(4), cycle(7),
            cycle(10), path(5), path(8), petersen(), cube(), prism(),
            triangles_with_bridge(),
        ]
        for g in catalog:
            for q in (2, 3):
                for eps in (0.5, 0.1):
                    beta = (
                        (g.n - 1) * math.log(q)
                        - math.log(math.expm1(eps))
                        + 1e-9
                    )
                    approx = math.log(q) + beta * g.m
                    assert abs(approx - exact_log_z(g, q, beta)) <= eps


def test_criterion_8_determinism(capsys):
    with _verdict(capsys, 8):
        c10_alpha = brute_expansion(cycle(10))

        def run_expander():
            return approx_log_z_expander(
                cycle(10), 2, 1.1 * required_beta_expander(2, 2, c10_alpha),
                0.05, c10_alpha,
            )

        g5 = bridged(5)
        parts5 = [list(range(5)), list(range(5, 10))]
        beta5 = 1.1 * required_beta_good_parts(
            2, 5, certified_alpha(g5, parts5), 0.5
        )

        def run_good_parts():
            return approx_log_z_good_parts(g5, parts5, 2, beta5, 0.1)

        mixed = triangle_plus_k8()
        parts_mixed = [[0, 1, 2], list(range(3, 11))]
        beta_mixed = 1.1 * required_beta_good_parts(
            2, 7, certified_alpha(mixed, parts_mixed), 0.5
        )

        def run_with_partition():
            return approx_log_z_with_partition(
                mixed, parts_mixed, 2, beta_mixed, 0.1, 0.5
            )

        c6 = cycle(6)
        beta_sse = 1.1 * required_beta_sse(
            PartitionParams.from_graph(c6, 2), 2, 2, 2
        )

        def run_sse():
            return approx_log_z_sse(c6, 2, 2, beta_sse, 0.1)

        for runner in (run_expander, run_good_parts, run_with_partition,
                       run_sse):
            first = runner()
            repeat = runner()
            assert first.to_dict() == repeat.to_dict()
            assert first.log_z == repeat.log_z
            assert first.per_psi == repeat.per_psi
