"""Tests for the expander partitioner and its exact certificates."""

import json
import math
import random
from fractions import Fraction

import pytest

import pottspart.partition as partition_module
import pottspart.spectral as spectral_module
from conftest import (
    complete,
    cycle,
    path,
    petersen,
    triangles_with_bridge,
    two_triangles,
)
from reference import bridged_cliques, clique_edges, is_connected
from pottspart.cli import main
from pottspart.errors import PreconditionError, VerificationError
from pottspart.generate import clique_chain, random_regular
from pottspart.graphs import (
    Graph,
    mask_of,
    serialize_graph,
    set_conductance,
    volume,
)
from pottspart.partition import (
    PartitionParams,
    _relative_conductance_leq,
    _strongest_attachment,
    partition_into_expanders,
    phi_after_vertex_removal,
    verify_partition,
)
from pottspart.potts import approx_log_z_sse, required_beta_sse


class TestPartitionParams:
    def test_complete_graph_constants(self):
        g = complete(8)
        p = PartitionParams.from_graph(g, 2)
        assert p.lambdas[0] == 0.0
        assert p.lambdas[1] == pytest.approx(8 / 7, rel=1e-12)
        # lambda_1 = 0 makes the sqrt term vanish
        assert p.rho_star == 0.0
        assert p.phi_in == pytest.approx((8 / 7) / 560, rel=1e-12)
        assert p.phi_out == 0.0
        assert p.tau == Fraction(1, 5)

    def test_tau_is_exact(self):
        g = complete(8)
        assert PartitionParams.from_graph(g, 3).tau == Fraction(1, 10)
        assert PartitionParams.from_graph(g, 6).tau == Fraction(1, 25)

    def test_disconnected_eigenvalue_snaps_to_zero(self):
        p = PartitionParams.from_graph(two_triangles(), 2)
        assert p.lambdas[1] == 0.0
        assert p.lambda_k == 0.0

    def test_k_validation(self):
        g = complete(5)
        with pytest.raises(PreconditionError):
            PartitionParams.from_graph(g, 1)
        with pytest.raises(PreconditionError):
            PartitionParams.from_graph(g, 6)

    def test_to_dict(self):
        d = PartitionParams.from_graph(complete(4), 2).to_dict()
        assert d["k"] == 2
        assert set(d["constants"]) == {"rhoStar", "phiIn", "phiOut", "tau"}
        assert len(d["lambda"]) == 2  # the k lowest


class TestPhiAfterVertexRemoval:
    def test_complete_graph_example(self):
        g = complete(4)
        assert phi_after_vertex_removal(g, range(4), 0) == Fraction(1, 3)

    def test_matches_direct_computation(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1000:
            n = rng.randint(3, 10)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            try:
                g = Graph.from_edges(edges, n=n)
            except PreconditionError:
                continue
            size = rng.randint(2, n)
            b = rng.sample(range(n), size)
            u = rng.choice(b)
            if volume(g, b) <= g.degrees[u]:
                continue
            rest = [v for v in b if v != u]
            if volume(g, rest) == 0:
                continue
            assert phi_after_vertex_removal(g, b, u) == set_conductance(g, rest)
            checked += 1

    def test_decrease_iff_low_internal_degree(self):
        # removal lowers the conductance exactly when the vertex keeps at
        # most (1 - phi(b)) * deg / 2 of its degree inside the set
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            n = rng.randint(4, 9)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            try:
                g = Graph.from_edges(edges, n=n)
            except PreconditionError:
                continue
            b = rng.sample(range(n), rng.randint(2, n))
            u = rng.choice(b)
            if volume(g, b) <= g.degrees[u]:
                continue
            if volume(g, [v for v in b if v != u]) == 0:
                continue
            phi_b = set_conductance(g, b)
            d_v = g.degrees[u]
            d_b = (g.adj_masks[u] & mask_of(g, b)).bit_count()
            after = phi_after_vertex_removal(g, b, u)
            assert (after <= phi_b) == (
                Fraction(d_b) <= (1 - phi_b) * Fraction(d_v, 2)
            )
            checked += 1

    def test_errors(self):
        g = complete(4)
        with pytest.raises(PreconditionError):
            phi_after_vertex_removal(g, [0, 1], 2)
        with pytest.raises(PreconditionError):
            phi_after_vertex_removal(g, [0], 0)  # vol == degree

    def test_repeated_vertex_is_refused(self):
        g = bridged_cliques(3)
        assert phi_after_vertex_removal(g, [0, 1, 2], 1) == Fraction(3, 5)
        with pytest.raises(PreconditionError, match="repeats a vertex"):
            phi_after_vertex_removal(g, [0, 0, 1, 2], 1)


class TestSweepInPart:
    def test_isolated_vertex_is_the_zero_conductance_piece(self):
        # inside {0, 1, 3, 5} of a path, 3 and 5 have no neighbour: the
        # lowest of them is the component of least volume, at conductance 0
        g = path(7)
        sweep = partition_module._sweep_in_part
        assert sweep(g, {0, 1, 3, 5}) == ({3}, Fraction(0))
        assert sweep(g, {0, 1, 4}) == ({4}, Fraction(0))

    def test_the_params_spectrum_sweeps_v_as_a_fresh_one_does(self):
        for g in (random_regular(200, 3, 0), bridged_cliques(12), two_triangles()):
            v = set(range(g.n))
            params = PartitionParams.from_graph(g, 2)
            assert partition_module._sweep_in_part(
                g, v, params.spectrum
            ) == partition_module._sweep_in_part(g, v)


class TestOneSpectrumPerGraph:
    """Each request computes the whole graph's spectrum once."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        calls = []
        spectrum = spectral_module.normalized_laplacian_spectrum

        def counting_spectrum(g, k):
            calls.append(g.n)
            return spectrum(g, k)

        for module in (partition_module, spectral_module):
            monkeypatch.setattr(
                module, "normalized_laplacian_spectrum", counting_spectrum
            )
        return calls

    def test_partition_command(self, spectra, tmp_path, capsys):
        # l = 1: the loop and the verifier both sweep V, the params' spectrum
        path = tmp_path / "rr200.el"
        path.write_text(serialize_graph(random_regular(200, 3, 0)))
        assert main(["partition", "--k", "3", str(path)]) == 0
        assert '"ell":1,' in capsys.readouterr().out
        assert spectra == [200]

    def test_sse(self, spectra):
        g = complete(8)
        need = required_beta_sse(PartitionParams.from_graph(g, 2), 2, 7, 7)
        spectra.clear()
        approx_log_z_sse(g, 2, 2, need * 1.01, 0.7)
        assert spectra == [8]


class TestCanonicalPartOrder:
    """Parts are listed by smallest vertex, whatever the Fiedler sign."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_bytes_do_not_hang_on_the_fiedler_sign(
        self, seed, tmp_path, capsys, monkeypatch
    ):
        # on a mirror-symmetric chain float rounding picks the sign of the
        # Fiedler vector; negating it must not change the output
        g = clique_chain(3, 50, 1)
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        path = tmp_path / "chain.el"
        path.write_text(
            serialize_graph(Graph.from_edges([(perm[u], perm[v]) for u, v in g.edges]))
        )
        assert main(["partition", "--k", "4", str(path)]) == 0
        plain = capsys.readouterr().out
        fix_sign = spectral_module._fix_sign

        def flipped(x):
            fix_sign(x)
            x *= -1
            return x

        monkeypatch.setattr(spectral_module, "_fix_sign", flipped)
        assert main(["partition", "--k", "4", str(path)]) == 0
        assert capsys.readouterr().out == plain
        parts = json.loads(plain)["parts"]
        assert len(parts) > 1
        assert [p[0] for p in parts] == sorted(p[0] for p in parts)


class TestStrongestAttachment:
    def test_tie_break_own_part_and_no_other_part(self):
        g = path(4)  # 0-1-2-3
        s = mask_of(g, [1])
        both, left, right = mask_of(g, [0, 2]), mask_of(g, [0]), mask_of(g, [2])
        # the own part (index 0) is the strongest and is skipped; the tie
        # between indices 1 and 2 goes to the lower index
        assert _strongest_attachment(g, s, [both, left, right], 0) == (1, 1)
        assert _strongest_attachment(g, s, [left, right, both], 2) == (0, 1)
        assert _strongest_attachment(g, s, [left, both, right], 0) == (1, 2)
        assert _strongest_attachment(g, s, [both], 0) == (-1, -1)
        assert _strongest_attachment(g, s, [], 0) == (-1, -1)


class TestRelativeConductance:
    def test_path_examples(self):
        g = path(4)
        # s = {2} inside b = {0,1,2}: one edge into b, one edge out of b,
        # vol(b) = 5, vol(b minus s) = 3: ratio 5/3
        assert _relative_conductance_leq(g, {2}, {0, 1, 2}, Fraction(5, 3))
        assert not _relative_conductance_leq(g, {2}, {0, 1, 2}, Fraction(3, 2))

    def test_zero_outside_edges_is_infinite(self):
        g = path(4)
        # s = {0} has no edges leaving b = {0,1,2}: ratio is +infinity
        assert not _relative_conductance_leq(g, {0}, {0, 1, 2}, Fraction(100))

    def test_zero_over_zero_counts_as_zero(self):
        g = two_triangles()
        # s = {0,1,2} is a whole component of b = V: no edges into b's rest,
        # none out of b
        assert _relative_conductance_leq(g, {0, 1, 2}, set(range(6)), Fraction(1, 100))


class TestPartitionIntoExpanders:
    def test_complete_graph_stays_whole(self):
        g = complete(8)
        p = PartitionParams.from_graph(g, 2)
        part = partition_into_expanders(g, p)
        assert part.ell == 1
        assert part.parts == (tuple(range(8)),)
        assert part.cores == (tuple(range(8)),)
        cert = part.certificates[0]
        assert cert.sweep_conductance == Fraction(4, 7)
        assert cert.phi_inner_lb == Fraction(4, 49)
        assert cert.phi_outer == 0
        assert cert.min_degree_ratio == 1

    def test_petersen_stays_whole(self):
        g = petersen()
        part = partition_into_expanders(g, PartitionParams.from_graph(g, 2))
        assert part.ell == 1
        assert part.parts == (tuple(range(10)),)

    def test_bridged_cliques_k2_cannot_split(self):
        # with k = 2 the split thresholds are zero (the sqrt term vanishes),
        # so even an extreme dumbbell stays in one part
        g = bridged_cliques(5)
        p = PartitionParams.from_graph(g, 2)
        assert p.rho_star == 0.0
        part = partition_into_expanders(g, p)
        assert part.ell == 1

    def test_bridged_cliques_k3_splits_into_cliques(self):
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        part = partition_into_expanders(g, p)
        assert part.ell == 2
        assert sorted(part.parts) == [
            tuple(range(40)),
            tuple(range(40, 80)),
        ]
        assert part.parts == part.cores
        assert part.iterations["coreSplit"] == 1
        for cert in part.certificates:
            assert cert.sweep_conductance == Fraction(20, 39)
            assert cert.phi_inner_lb == Fraction(100, 1521)
            assert cert.phi_outer == Fraction(1, 1561)
            assert cert.min_degree_ratio == Fraction(39, 40)

    def test_terminal_parts_are_swept_once(self, monkeypatch):
        # the pass that ends the loop sweeps every part; the terminal
        # certificates reuse those sweeps instead of sweeping again
        swept = []
        sweep = partition_module._sweep_in_part

        def counting_sweep(g, part, spectrum=None):
            swept.append(frozenset(part))
            return sweep(g, part, spectrum)

        monkeypatch.setattr(partition_module, "_sweep_in_part", counting_sweep)
        g = bridged_cliques(40)
        part = partition_into_expanders(g, PartitionParams.from_graph(g, 3))
        assert part.ell == 2
        for p in part.parts:
            assert swept.count(frozenset(p)) == 1

    def test_small_bridged_cliques_k3_stay_whole(self):
        # K_10 pairs are too well connected relative to the threshold
        g = bridged_cliques(10)
        part = partition_into_expanders(g, PartitionParams.from_graph(g, 3))
        assert part.ell == 1

    def test_clique_chain_k4_splits_into_three(self):
        a = list(range(50))
        b = list(range(50, 100))
        c = list(range(100, 150))
        g = Graph.from_edges(
            clique_edges(a)
            + clique_edges(b)
            + clique_edges(c)
            + [(a[0], b[0]), (b[1], c[0])]
        )
        part = partition_into_expanders(g, PartitionParams.from_graph(g, 4))
        assert part.ell == 3
        assert sorted(map(len, part.parts)) == [50, 50, 50]
        assert part.iterations["coreSplit"] == 2

    def test_disconnected_k2_rejected(self):
        g = two_triangles()
        with pytest.raises(PreconditionError):
            partition_into_expanders(g, PartitionParams.from_graph(g, 2))

    def test_disconnected_k3_splits_into_components(self):
        g = two_triangles()
        p = PartitionParams.from_graph(g, 3)
        assert p.lambda_k > 0
        part = partition_into_expanders(g, p)
        assert part.ell == 2
        assert sorted(part.parts) == [(0, 1, 2), (3, 4, 5)]

    def test_deterministic(self):
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        a = partition_into_expanders(g, p)
        b = partition_into_expanders(g, p)
        assert a.parts == b.parts
        assert a.cores == b.cores
        assert dict(a.iterations) == dict(b.iterations)

    def test_post_invariants_on_random_connected_graphs(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            n = rng.randint(6, 16)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.uniform(0.25, 0.6)
            ]
            try:
                g = Graph.from_edges(edges, n=n)
            except PreconditionError:
                continue
            if not is_connected(g):
                continue
            for k in (3, 4):
                if k > n:
                    continue
                params = PartitionParams.from_graph(g, k)
                if params.lambda_k <= 0:
                    continue
                part = partition_into_expanders(g, params)
                assert part.ell < k
                assert sorted(v for p_ in part.parts for v in p_) == list(range(n))
                for p_, c_, cert in zip(part.parts, part.cores, part.certificates):
                    assert set(c_) <= set(p_)
                    assert cert.min_degree_ratio >= params.tau
                    assert cert.sweep_conductance >= params.phi_in
                    if part.ell > 1:
                        assert cert.phi_outer <= part.ell * math.e * params.rho_star
                assert verify_partition(g, part.parts, params).passed
            checked += 1

    def test_verify_accepts_all_structured_outputs(self):
        for g, k in [
            (complete(8), 2),
            (petersen(), 2),
            (bridged_cliques(40), 3),
            (cycle(9), 2),
        ]:
            params = PartitionParams.from_graph(g, k)
            part = partition_into_expanders(g, params)
            assert verify_partition(g, part.parts, params).passed

    @pytest.mark.parametrize(
        "g, k, expected",
        [
            (
                clique_chain(3, 50, 1),
                4,
                [
                    (range(0, 50), (25, 49), (625, 9604), (1, 2451), (49, 50)),
                    (range(50, 100), (25, 49), (625, 9604), (1, 1226), (49, 50)),
                    (range(100, 150), (25, 49), (625, 9604), (1, 2451), (49, 50)),
                ],
            ),
            (
                random_regular(200, 3, 0),
                3,
                [(range(0, 200), (17, 144), (289, 82944), (0, 1), (1, 1))],
            ),
        ],
        ids=["clique-chain(3,50,1)", "random-regular(200,3)"],
    )
    def test_pinned_partitions(self, g, k, expected):
        # the order of the parts is left open: on a mirror-symmetric chain
        # it follows the Fiedler vector's sign, which rounding decides
        params = PartitionParams.from_graph(g, k)
        part = partition_into_expanders(g, params)
        assert part.ell == len(expected)
        got = sorted(
            (
                p,
                c,
                cert.sweep_conductance,
                cert.phi_inner_lb,
                cert.phi_outer,
                cert.min_degree_ratio,
            )
            for p, c, cert in zip(part.parts, part.cores, part.certificates)
        )
        assert got == [
            (tuple(vs), tuple(vs), *(Fraction(*f) for f in fractions))
            for vs, *fractions in expected
        ]
        assert verify_partition(g, part.parts, params).passed


class TestResumedStates:
    """Drive the rarer actions from validated intermediate states."""

    def test_repairs_fix_a_misplaced_core_vertex(self):
        # one clique-B vertex sits in part/core A: the degree repair expels
        # it from the core and the attraction repair moves it home
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        a = list(range(40))
        b = list(range(40, 80))
        x = 70
        state = (
            [a + [x], [v for v in b if v != x]],
            [a + [x], [v for v in b if v != x]],
        )
        part = partition_into_expanders(g, p, _resume=state)
        assert part.iterations["repairDegree"] == 1
        assert part.iterations["repairAttraction"] == 1
        assert sorted(part.parts) == [tuple(a), tuple(b)]

    def test_degree_repair_refuses_to_empty_a_core(self):
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        a = list(range(40))
        b = list(range(40, 80))
        x = 70
        state = ([[x], a + [v for v in b if v != x]], [[x], a])
        with pytest.raises(VerificationError, match="emptied"):
            partition_into_expanders(g, p, _resume=state)

    @staticmethod
    def _sweep_move_instance():
        # part 0: core A = K_60 plus two pendant K_8 lumps; lump L1 anchors
        # to A with 2 edges, lump L2 with 1 edge plus 6 edges per vertex
        # into the cloud C. part 1: core B = K_60 plus cloud C = K_10 tied
        # to B with 4 edges.
        a = list(range(60))
        b = list(range(60, 120))
        c = list(range(120, 130))
        l1 = list(range(130, 138))
        l2 = list(range(138, 146))
        edges = (
            clique_edges(a)
            + clique_edges(b)
            + clique_edges(c)
            + clique_edges(l1)
            + clique_edges(l2)
        )
        edges += [(c[i], b[i]) for i in range(4)]
        edges += [(l1[0], a[0]), (l1[1], a[1]), (l2[0], a[2])]
        rng = random.Random(11)
        for v in l2:
            for u in rng.sample(c, 6):
                edges.append((v, u))
        g = Graph.from_edges(edges)
        return g, ([a + l1 + l2, b + c], [a, b]), (a, b, c, l1, l2)

    def test_sweep_move_reassigns_a_lump(self):
        g, state, (a, b, c, l1, l2) = self._sweep_move_instance()
        p = PartitionParams.from_graph(g, 3)
        part = partition_into_expanders(g, p, _resume=state)
        assert part.iterations["sweepMove"] == 1
        assert sorted(map(sorted, part.parts)) == sorted(
            [sorted(a + l1), sorted(b + c + l2)]
        )

    @staticmethod
    def _fragment_merge_instance():
        # as above but lump L2 connects straight into core B, so the whole
        # fragment is pulled over core-to-core; lump L1 then returns to A
        # via a sweep move on a disconnected induced subgraph
        a = list(range(60))
        b = list(range(60, 120))
        l1 = list(range(120, 128))
        l2 = list(range(128, 136))
        edges = (
            clique_edges(a) + clique_edges(b) + clique_edges(l1) + clique_edges(l2)
        )
        edges += [(l1[i], a[i]) for i in range(6)]
        edges += [(l2[0], a[6])]
        rng = random.Random(12)
        seen = set(edges)
        for v in l2:
            for u in rng.sample(b, 6):
                if (v, u) not in seen and (u, v) not in seen:
                    seen.add((v, u))
                    edges.append((v, u))
        g = Graph.from_edges(edges)
        return g, ([a + l1 + l2, b], [a, b]), (a, b, l1, l2)

    def test_fragment_merge_then_sweep_move(self):
        g, state, (a, b, l1, l2) = self._fragment_merge_instance()
        p = PartitionParams.from_graph(g, 3)
        part = partition_into_expanders(g, p, _resume=state)
        assert part.iterations["fragmentMerge"] == 1
        assert part.iterations["sweepMove"] == 1
        assert sorted(map(sorted, part.parts)) == sorted(
            [sorted(a + l1), sorted(b + l2)]
        )

    def test_part_split_spins_off_a_pendant_expander(self):
        # a K_60 pendant hanging off part 0 outside the core becomes its own
        # part: it is internally an expander but barely attached
        a = list(range(60))
        ell = list(range(60, 120))
        b = list(range(120, 180))
        g = Graph.from_edges(
            clique_edges(a)
            + clique_edges(ell)
            + clique_edges(b)
            + [(a[0], ell[0]), (ell[1], b[0])]
        )
        p = PartitionParams.from_graph(g, 4)
        part = partition_into_expanders(g, p, _resume=([a + ell, b], [a, b]))
        assert part.iterations["partSplit"] == 1
        assert part.ell == 3
        assert sorted(map(sorted, part.parts)) == sorted(
            [sorted(a), sorted(ell), sorted(b)]
        )

    @staticmethod
    def _fallback_instance():
        # fragment T+U of part 0 is attracted to part 1 only through part
        # 1's own fragment F2, and the sweep piece U prefers to stay: no
        # listed action applies, so the whole-fragment fallback move fires
        b1 = list(range(60))
        t = list(range(60, 72))
        u = list(range(72, 84))
        b2 = list(range(84, 144))
        f2 = list(range(144, 164))
        edges = (
            clique_edges(b1)
            + clique_edges(t)
            + clique_edges(u)
            + clique_edges(b2)
            + clique_edges(f2)
        )
        seen = {(min(x, y), max(x, y)) for x, y in edges}

        def add(x, y):
            key = (min(x, y), max(x, y))
            if key not in seen:
                seen.add(key)
                edges.append(key)

        for i in range(30):
            add(t[i % 12], b1[i])
        for i in range(50):
            add(t[i % 12], f2[i % 20])
        add(u[0], b1[40])
        add(u[1], b1[41])
        for i in range(9):
            add(u[i % 12], t[(i + 3) % 12])
        for i in range(8):
            add(u[(i + 4) % 12], b2[i])
        for i in range(30):
            add(f2[i % 20], b2[i + 10])
        g = Graph.from_edges(edges)
        return g, ([b1 + t + u, b2 + f2], [b1, b2])

    def test_fallback_merge_moves_the_whole_fragment(self):
        g, state = self._fallback_instance()
        p = PartitionParams.from_graph(g, 3)
        part = partition_into_expanders(g, p, _resume=state)
        assert part.iterations["fallbackMerge"] >= 1
        assert sorted(map(len, part.parts)) == [60, 104]

    def test_resume_state_validation(self):
        g = bridged_cliques(5)
        p = PartitionParams.from_graph(g, 3)
        v = list(range(10))
        with pytest.raises(PreconditionError, match="cover"):
            partition_into_expanders(g, p, _resume=([v[:9]], [v[:9]]))
        with pytest.raises(PreconditionError, match="overlap"):
            partition_into_expanders(
                g, p, _resume=([v, v[:2]], [v, v[:2]])
            )
        with pytest.raises(PreconditionError, match="nonempty subset"):
            partition_into_expanders(g, p, _resume=([v], [[]]))
        with pytest.raises(PreconditionError, match="one core per part"):
            partition_into_expanders(g, p, _resume=([v], []))
        for bad in (12, -1):
            with pytest.raises(
                PreconditionError, match=f"part 0 contains invalid vertex {bad}"
            ):
                partition_into_expanders(
                    g, p, _resume=([v[:9] + [bad]], [v[:9] + [bad]])
                )

    def test_resume_rejects_invariant_violations(self):
        # cores with conductance far above the level bound are refused
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        odd = [v for v in range(80) if v % 2 == 0]
        even = [v for v in range(80) if v % 2 == 1]
        with pytest.raises(VerificationError, match="conductance"):
            partition_into_expanders(g, p, _resume=([odd, even], [odd, even]))


class TestVerifyPartition:
    def test_trivial_partition_of_expander_passes(self):
        g = complete(8)
        p = PartitionParams.from_graph(g, 2)
        report = verify_partition(g, [list(range(8))], p)
        assert report.passed
        assert report.parts[0].phi_outer == 0
        assert report.parts[0].brute_inner == Fraction(4, 7)

    def test_clique_split_passes_for_k3(self):
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        report = verify_partition(g, [range(40), range(40, 80)], p)
        assert report.passed
        # parts above the brute-force cutoff use the sweep lower bound
        assert all(r.brute_inner is None for r in report.parts)
        assert all(r.inner_lower_bound is not None for r in report.parts)

    def test_each_part_is_induced_once(self, monkeypatch):
        # the sweep bound comes from the part's one induced subgraph and
        # equals the partitioner's own sweep of that part
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        parts = [range(40), range(40, 80)]
        expected = [
            partition_module._sweep_in_part(g, set(part))[1] ** 2 / 4
            for part in parts
        ]
        induced = []
        real = partition_module.induced_subgraph

        def counting(g, s, allow_isolated=False):
            induced.append(tuple(s))
            return real(g, s, allow_isolated=allow_isolated)

        monkeypatch.setattr(partition_module, "induced_subgraph", counting)
        report = verify_partition(g, parts, p)
        assert induced == [tuple(part) for part in parts]
        assert [r.inner_lower_bound for r in report.parts] == expected

    def test_one_part_sweeps_g_with_the_params_spectrum(self, monkeypatch):
        # all of V above the brute-force cutoff: the sweep runs on g itself,
        # with the spectrum the params already hold, and nothing is induced
        g = random_regular(200, 3, 0)
        p = PartitionParams.from_graph(g, 3)
        expected = partition_module._sweep_in_part(g, set(range(g.n)))[1] ** 2 / 4
        induced, swept = [], []
        real_induced = partition_module.induced_subgraph
        real_sweep = partition_module.sweep_cut

        def counting_induced(g, s, allow_isolated=False):
            induced.append(tuple(s))
            return real_induced(g, s, allow_isolated=allow_isolated)

        def recording_sweep(graph, spectrum=None):
            swept.append((graph, spectrum))
            return real_sweep(graph, spectrum)

        monkeypatch.setattr(partition_module, "induced_subgraph", counting_induced)
        monkeypatch.setattr(partition_module, "sweep_cut", recording_sweep)
        report = verify_partition(g, [range(g.n)], p)
        assert induced == []
        assert len(swept) == 1
        assert swept[0][0] is g and swept[0][1] is p.spectrum
        assert report.parts[0].brute_inner is None
        assert report.parts[0].inner_lower_bound == expected

    def test_whole_graph_fails_inner_check_for_k3_dumbbell(self):
        # the dumbbell is not an inner expander at the k = 3 threshold:
        # the bridge cut is sparser than required
        g = bridged_cliques(40)
        p = PartitionParams.from_graph(g, 3)
        report = verify_partition(g, [range(80)], p)
        assert not report.passed
        assert not report.parts[0].inner_ok
        assert report.parts[0].phi_outer_ok  # outer is trivially 0

    def test_adversarial_split_fails_degree_ratio(self):
        g = triangles_with_bridge()
        p = PartitionParams.from_graph(g, 2)
        report = verify_partition(g, [[0], [1, 2, 3, 4, 5]], p)
        assert not report.passed
        assert report.parts[0].min_degree_ratio == 0
        assert not report.parts[0].min_degree_ratio_ok
        assert report.parts[0].inner_ok  # single vertex: vacuous
        assert not report.parts[1].inner_ok  # induced subgraph disconnected

    def test_partition_validation(self):
        g = complete(4)
        p = PartitionParams.from_graph(g, 2)
        with pytest.raises(PreconditionError, match="cover"):
            verify_partition(g, [[0, 1]], p)
        with pytest.raises(PreconditionError, match="overlap"):
            verify_partition(g, [[0, 1, 2], [2, 3]], p)
        with pytest.raises(PreconditionError, match="empty"):
            verify_partition(g, [[0, 1, 2, 3], []], p)

    def test_report_to_dict(self):
        g = complete(4)
        p = PartitionParams.from_graph(g, 2)
        d = verify_partition(g, [range(4)], p).to_dict()
        assert d["passed"] is True
        assert d["parts"][0]["vertices"] == [0, 1, 2, 3]
        assert d["parts"][0]["phiOuter"] == "0"
