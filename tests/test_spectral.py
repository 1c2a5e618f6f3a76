"""Normalized Laplacian spectrum and sweep-cut tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pottspart.spectral as spectral_module
from pottspart.errors import PreconditionError, VerificationError
from pottspart.cli import main
from pottspart.generate import clique_chain, random_regular
from pottspart.graphs import Graph, boundary_size, components, serialize_graph, volume
from pottspart.spectral import (
    Spectrum,
    _fix_sign,
    normalized_laplacian_spectrum,
    sweep_cut,
)

from conftest import complete, complete_bipartite, cycle, path, petersen, two_triangles
from reference import random_connected


def _textbook_laplacian(g: Graph) -> np.ndarray:
    """I - D^(-1/2) A D^(-1/2), symmetrised, as dense products."""
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d = 1.0 / np.sqrt(np.array(g.degrees, float))
    lap = np.eye(n) - d[:, None] * a * d[None, :]
    return (lap + lap.T) / 2.0


def _fiedler_cases() -> list[Graph]:
    # lambda_2 has multiplicity 5 on Petersen, 7 on K_8 and 2 on cycle(12);
    # two triangles have lambda_2 = 0, spanned with lambda_1 by the
    # component indicators
    return [
        petersen(),
        complete(8),
        cycle(12),
        random_regular(50, 3, 0),
        two_triangles(),
    ]


class TestSpectrum:
    def test_k2(self):
        s = normalized_laplacian_spectrum(complete(2), 2)
        assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert s.eigenvalues[1] == pytest.approx(2.0, abs=1e-12)

    def test_complete_graph_eigenvalues(self):
        for n in (3, 4, 6):
            s = normalized_laplacian_spectrum(complete(n), n)
            assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
            for lam in s.eigenvalues[1:]:
                assert lam == pytest.approx(n / (n - 1), abs=1e-10)

    def test_range_invariants(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 10))
            s = normalized_laplacian_spectrum(g, g.n)
            assert s.eigenvalues[0] <= 1e-10
            assert s.eigenvalues[-1] <= 2 + 1e-10

    def test_zero_eigenvalue_count_is_component_count(self):
        for g in (two_triangles(), cycle(5), complete(4)):
            s = normalized_laplacian_spectrum(g, g.n)
            zeros = sum(1 for lam in s.eigenvalues if lam < 1e-8)
            assert zeros == len(components(g))

    def test_deterministic_including_signs(self):
        g = petersen()
        s1 = normalized_laplacian_spectrum(g, g.n)
        s2 = normalized_laplacian_spectrum(g, g.n)
        assert s1.eigenvalues == s2.eigenvalues
        assert np.array_equal(s1.fiedler, s2.fiedler)

    def test_fiedler_sign_convention(self):
        # the first entry of largest magnitude is positive
        graphs = _fiedler_cases() + [random_connected(random.Random(9), 8)]
        for g in graphs:
            f = normalized_laplacian_spectrum(g, g.n).fiedler
            big = np.abs(f).max()
            first = next(i for i in range(g.n) if abs(f[i]) == big)
            assert f[first] > 0

    def test_sign_fix_matches_the_column_loop(self):
        # reference: per column, negate when the first entry of largest
        # magnitude is negative; small integers make ties common
        rng = np.random.default_rng(7)
        for shape in ((2, 3), (5, 5), (7, 4)):
            v = rng.integers(-2, 3, size=shape).astype(float)
            for j in range(v.shape[1]):
                col = v[:, j].copy()
                expected = -col if col[int(np.argmax(np.abs(col)))] < 0 else col
                assert np.array_equal(_fix_sign(col), expected)
        assert np.array_equal(_fix_sign(np.array([-1.0, 1.0])), [1.0, -1.0])
        assert np.array_equal(_fix_sign(np.array([1.0, -1.0])), [1.0, -1.0])

    def test_eigenvalues_match_the_textbook_laplacian_bit_for_bit(self):
        graphs = _fiedler_cases() + [random_connected(random.Random(41), 11)]
        for g in graphs:
            lam = np.linalg.eigvalsh(_textbook_laplacian(g))
            s = normalized_laplacian_spectrum(g, g.n)
            assert s.eigenvalues == tuple(float(x) for x in lam)

    def test_fiedler_eigen_equation(self):
        for g in _fiedler_cases():
            lap = _textbook_laplacian(g)
            s = normalized_laplacian_spectrum(g, g.n)
            f = s.fiedler
            assert f.shape == (g.n,)
            assert np.max(np.abs(lap @ f - s.eigenvalues[1] * f)) <= 1e-9
            assert abs(float(np.linalg.norm(f)) - 1.0) <= 1e-12
            sqrt_d = np.sqrt(np.array(g.degrees, float))
            assert abs(float(f @ sqrt_d)) <= 1e-9
            assert np.array_equal(normalized_laplacian_spectrum(g, g.n).fiedler, f)

    def test_a_perturbed_solve_fails_the_residual_check(self, monkeypatch):
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[0] += 1e-3 * np.abs(x).max()
            return x

        monkeypatch.setattr(spectral_module.np.linalg, "solve", perturbed)
        with pytest.raises(VerificationError, match="residual"):
            normalized_laplacian_spectrum(random_regular(50, 3, 0), 2)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3, allow_isolated=True)
        with pytest.raises(PreconditionError, match="isolated"):
            normalized_laplacian_spectrum(g, g.n)

    def test_spectrum_checks_the_returned_values(self):
        f = np.ones(4) / 2
        Spectrum(eigenvalues=(0.0, 0.5, 2.0), fiedler=f)
        for lam, match in (
            ((0.0, 0.6, 0.5), "ascending"),
            ((-2e-10, 0.5), "zero"),
            ((2e-10, 0.5), "zero"),
            ((0.0, 2 + 2e-10), "exceeds 2"),
        ):
            with pytest.raises(VerificationError, match=match):
                Spectrum(eigenvalues=lam, fiedler=f)
        with pytest.raises(VerificationError, match="Fiedler"):
            Spectrum(eigenvalues=(0.0, 0.5, 1.0), fiedler=np.ones(2))

    def test_one_fiedler_entry_per_vertex(self, monkeypatch):
        # a vector with one entry too many passes Spectrum's own check
        # (at least k entries) but not the check against g.n
        dense = spectral_module._dense_spectrum

        def padded(*args):
            eigenvalues, x = dense(*args)
            return eigenvalues, np.append(x, 0.0)

        monkeypatch.setattr(spectral_module, "_dense_spectrum", padded)
        with pytest.raises(VerificationError, match="shape"):
            normalized_laplacian_spectrum(petersen(), 3)

    def test_k_out_of_range(self):
        for k in (1, 11):
            with pytest.raises(PreconditionError, match="spectrum size"):
                normalized_laplacian_spectrum(petersen(), k)

    def test_eigenvalue_accessor_1_indexed(self):
        s = normalized_laplacian_spectrum(complete(3), 3)
        assert s.eigenvalue(1) == s.eigenvalues[0]
        assert s.eigenvalue(3) == s.eigenvalues[2]
        with pytest.raises(PreconditionError):
            s.eigenvalue(4)


def _two_cliques(s: int) -> Graph:
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    return Graph.from_edges(edges + [(s + i, s + j) for i, j in edges])


def _cyclic_lift(base: Graph, r: int, seed: int) -> Graph:
    """An r-fold cover of base: edge (u, v) joins (u, i) to (v, i + s_uv)."""
    rng = random.Random(seed)
    edges = []
    for u, v in base.edges:
        s = rng.randrange(r)
        edges += [(u * r + i, v * r + (i + s) % r) for i in range(r)]
    return Graph.from_edges(edges)


def _lanczos_cases() -> list[tuple[Graph, int]]:
    # lambda_2 = lambda_3 on cycle(12); lambda_2..lambda_6 = 2/3 on
    # Petersen; all of lambda_2..lambda_8 = 8/7 on K_8; lambda_2 = 0 on two
    # cliques; four small eigenvalues below a gap on the clique chain.  On
    # the 3-fold cover, lambda_2 = lambda_3 comes from a complex character
    # and its conjugate among many distinct eigenvalues, so the Krylov space
    # converges long before it fills the space, and one vector per block
    # would return lambda_4 as lambda_3
    return [
        (cycle(12), 3),
        (petersen(), 6),
        (complete(8), 8),
        (_two_cliques(5), 3),
        (clique_chain(4, 30, 1), 5),
        (random_regular(200, 3, 0), 3),
        (_cyclic_lift(random_regular(100, 3, 4), 3, 4), 3),
    ]


@pytest.fixture
def lanczos_only(monkeypatch):
    """Block Lanczos at every size, room for the whole space, no dense route."""

    def no_dense(*args):
        raise AssertionError("the dense route ran")

    monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
    monkeypatch.setattr(spectral_module, "_LANCZOS_CAP", 1.0)
    monkeypatch.setattr(spectral_module, "_dense_spectrum", no_dense)


class TestBlockLanczos:
    @pytest.mark.parametrize(
        "g, k",
        _lanczos_cases(),
        ids=["cycle12", "petersen", "K8", "2K5", "chain", "rr200", "lift300"],
    )
    def test_matches_eigvalsh_on_the_k_lowest(self, lanczos_only, g, k):
        s = normalized_laplacian_spectrum(g, k)
        lap = _textbook_laplacian(g)
        assert len(s.eigenvalues) == k
        lam = np.linalg.eigvalsh(lap)[:k]
        assert np.max(np.abs(np.array(s.eigenvalues) - lam)) <= 1e-12
        f = s.fiedler
        assert f.shape == (g.n,)
        assert np.max(np.abs(lap @ f - s.eigenvalues[1] * f)) <= 1e-9
        assert abs(float(np.linalg.norm(f)) - 1.0) <= 1e-12
        assert abs(float(f @ np.sqrt(np.array(g.degrees, float)))) <= 1e-9
        assert np.array_equal(normalized_laplacian_spectrum(g, k).fiedler, f)

    def test_an_unconverged_ritz_pair_fails_its_residual_check(
        self, lanczos_only, monkeypatch
    ):
        # accepting any residual stops at the first check, at dimension 32
        monkeypatch.setattr(spectral_module, "_LANCZOS_RESIDUAL", 1.0)
        with pytest.raises(VerificationError, match="Ritz pair"):
            normalized_laplacian_spectrum(random_regular(200, 3, 0), 3)

    @pytest.mark.parametrize("cap", [0.0, 0.2])
    def test_the_capped_fallback_is_the_dense_spectrum_bit_for_bit(
        self, monkeypatch, cap
    ):
        # cap 0 leaves no room for one block; at 0.2 the basis grows to
        # the cap or to the residual trend's verdict first
        g = random_regular(200, 3, 0)
        dense = normalized_laplacian_spectrum(g, 3)
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(spectral_module, "_LANCZOS_CAP", cap)
        capped = normalized_laplacian_spectrum(g, 3)
        assert capped.eigenvalues == dense.eigenvalues
        assert np.array_equal(capped.fiedler, dense.fiedler)

    @pytest.mark.parametrize(
        "g, k", [(clique_chain(4, 30, 1), 5), (random_regular(300, 3, 1), 3)]
    )
    def test_partition_payload_is_the_same_on_both_routes(
        self, monkeypatch, tmp_path, capsys, g, k
    ):
        path = tmp_path / "g.el"
        path.write_text(serialize_graph(g))
        argv = ["partition", "--k", str(k), str(path)]
        assert main(argv) == 0
        dense = capsys.readouterr().out
        monkeypatch.setattr(spectral_module, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(spectral_module, "_LANCZOS_CAP", 1.0)
        assert main(argv) == 0
        assert capsys.readouterr().out == dense
        assert '"verified":true' in dense

    def test_random_cubic_graph_above_the_crossover(self, monkeypatch):
        # the partition-scale instance, with the module's own constants
        g = random_regular(2000, 3, 1)
        calls = []
        dense = spectral_module._dense_spectrum
        monkeypatch.setattr(
            spectral_module,
            "_dense_spectrum",
            lambda *args: calls.append(1) or dense(*args),
        )
        # the basis as the last append left it: the rows that span the
        # Ritz vectors
        appended = []
        append_rows = spectral_module._append_rows

        def spy(basis, *args, **kwargs):
            grown = append_rows(basis, *args, **kwargs)
            if grown is not None:
                appended.append((basis, grown[0]))
            return grown

        monkeypatch.setattr(spectral_module, "_append_rows", spy)
        s = normalized_laplacian_spectrum(g, 3)
        assert calls == []
        lam = np.linalg.eigvalsh(_textbook_laplacian(g))[:3]
        assert np.max(np.abs(np.array(s.eigenvalues) - lam)) <= 1e-12
        basis, d = appended[-1]
        assert d > 300
        q = basis[:d]
        assert np.max(np.abs(q @ q.T - np.eye(d))) <= 1e-12

    @pytest.mark.parametrize(
        "g, k",
        _lanczos_cases(),
        ids=["cycle12", "petersen", "K8", "2K5", "chain", "rr200", "lift300"],
    )
    def test_a_full_pass_on_every_step_matches_eigvalsh(
        self, lanczos_only, monkeypatch, g, k
    ):
        # any lost orthogonality at all switches to a full pass every step
        monkeypatch.setattr(spectral_module, "_ORTHO_LOSS", 0.0)
        passes = []
        append_rows = spectral_module._append_rows

        def spy(basis, d, w, fresh, orthogonal=True):
            passes.append(orthogonal)
            return append_rows(basis, d, w, fresh, orthogonal)

        monkeypatch.setattr(spectral_module, "_append_rows", spy)
        s = normalized_laplacian_spectrum(g, k)
        assert all(passes)
        lam = np.linalg.eigvalsh(_textbook_laplacian(g))[:k]
        assert np.max(np.abs(np.array(s.eigenvalues) - lam)) <= 1e-12

    def test_ill_conditioned_blocks_are_orthogonal_to_the_basis(
        self, lanczos_only, monkeypatch
    ):
        # the ill-conditioned path of _append_rows reads w's singular
        # directions as new ones, so w has had a full pass before it
        seen = []
        append_rows = spectral_module._append_rows

        def spy(basis, d, w, fresh, orthogonal=True):
            sv = np.linalg.svd(w, compute_uv=False)
            if orthogonal and sv[-1] <= spectral_module._WELL_CONDITIONED:
                seen.append(float(np.max(np.abs(w @ basis[:d].T))))
            return append_rows(basis, d, w, fresh, orthogonal)

        monkeypatch.setattr(spectral_module, "_append_rows", spy)
        normalized_laplacian_spectrum(clique_chain(4, 30, 1), 5)
        assert len(seen) >= 3
        assert max(seen) <= 1e-14

    def test_every_check_follows_a_full_pass_on_its_step(
        self, lanczos_only, monkeypatch
    ):
        # the residual estimate reads the newest block, so that block has
        # had a full pass on the step of each Rayleigh-Ritz check; every
        # check short of the last one places the next by the trend
        events = []
        full_pass = spectral_module._full_pass
        extrapolated = spectral_module._extrapolated_dimension

        def pass_spy(q, w, h_rows):
            events.append(("pass", len(q) - 1))
            return full_pass(q, w, h_rows)

        def check_spy(last, dim, resid):
            events.append(("check", dim))
            return extrapolated(last, dim, resid)

        monkeypatch.setattr(spectral_module, "_full_pass", pass_spy)
        monkeypatch.setattr(spectral_module, "_extrapolated_dimension", check_spy)
        normalized_laplacian_spectrum(random_regular(200, 3, 0), 3)
        checks = [i for i, (kind, _) in enumerate(events) if kind == "check"]
        assert len(checks) >= 3
        for i in checks:
            assert events[i - 1] == ("pass", events[i][1])
        # most steps take no pass: a step adds a block of 2 rows, so a pass
        # on every step would give passes[-1] // 2 of them
        passes = [dim for kind, dim in events if kind == "pass"]
        assert len(passes) < passes[-1] // 4

    def test_a_ghost_ritz_vector_fails_the_gram_check(
        self, lanczos_only, monkeypatch
    ):
        # a second copy of the lowest Ritz pair in place of the next one:
        # what a basis that lost orthogonality returns, and its residual
        # is as small as the original's
        eigh = np.linalg.eigh

        def ghost(a, UPLO="L"):
            theta, s = eigh(a, UPLO=UPLO)
            theta[1] = theta[0]
            s[:, 1] = s[:, 0]
            return theta, s

        monkeypatch.setattr(spectral_module.np.linalg, "eigh", ghost)
        with pytest.raises(VerificationError, match="Gram matrix"):
            normalized_laplacian_spectrum(random_regular(200, 3, 0), 3)


class TestSweepCut:
    def test_needs_two_vertices(self):
        g = Graph.from_edges([(0, 1)])
        cut = sweep_cut(g)
        assert len(cut.vertices) == 1
        assert cut.conductance == Fraction(1)

    def test_volume_at_most_half(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 11))
            cut = sweep_cut(g)
            assert 2 * volume(g, cut.vertices) <= 2 * g.m

    def test_cheeger_upper_bound(self):
        rng = random.Random(33)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 11))
            cut = sweep_cut(g)
            assert float(cut.conductance) <= math.sqrt(2 * cut.lambda2) + 1e-9

    def test_conductance_matches_returned_set(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 11))
            cut = sweep_cut(g)
            vol = volume(g, cut.vertices)
            assert cut.conductance == Fraction(
                boundary_size(g, cut.vertices), min(vol, 2 * g.m - vol)
            )

    def test_disconnected_returns_component(self):
        g = two_triangles()
        cut = sweep_cut(g)
        assert cut.conductance == 0
        assert cut.vertices == (0, 1, 2)

    def test_disconnected_lambda2_is_exactly_zero(self):
        # the float spectrum's lambda_2 is only near zero; the component
        # cut reports the true value whether or not a spectrum is passed
        g = two_triangles()
        spectrum = normalized_laplacian_spectrum(g, g.n)
        assert sweep_cut(g).lambda2 == 0.0
        assert sweep_cut(g, spectrum).lambda2 == 0.0
        assert sweep_cut(g, spectrum) == sweep_cut(g)

    def test_disconnected_min_volume_component(self):
        # triangle (vol 6) + single edge (vol 2): the edge side is returned
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        cut = sweep_cut(g)
        assert cut.vertices == (3, 4)

    def test_barbell_finds_the_bridge(self):
        # two K_5's joined by one edge: the sweep must find a near-perfect cut
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)]
        edges.append((0, 5))
        g = Graph.from_edges(edges)
        cut = sweep_cut(g)
        assert set(cut.vertices) in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})
        assert cut.conductance == Fraction(1, 21)

    def test_deterministic(self):
        g = petersen()
        c1, c2 = sweep_cut(g), sweep_cut(g)
        assert c1.vertices == c2.vertices
        assert c1.conductance == c2.conductance

    def test_star_and_bipartite_sanity(self):
        for g in (complete_bipartite(1, 5), complete_bipartite(3, 3), path(7)):
            cut = sweep_cut(g)
            assert 0 < float(cut.conductance) <= 1
