"""Normalized Laplacian spectrum and sweep-cut tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pottspart.spectral as spectral_module
from pottspart.errors import PreconditionError, VerificationError
from pottspart.generate import random_regular
from pottspart.graphs import Graph, boundary_size, components, volume
from pottspart.spectral import (
    _fix_sign,
    normalized_laplacian_spectrum,
    sweep_cut,
)

from conftest import complete, complete_bipartite, cycle, path, petersen, two_triangles


def _random_connected(rng: random.Random, n: int) -> Graph:
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        try:
            g = Graph.from_edges(edges, n=n)
        except PreconditionError:
            continue
        if len(components(g)) == 1:
            return g


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
        s = normalized_laplacian_spectrum(complete(2))
        assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert s.eigenvalues[1] == pytest.approx(2.0, abs=1e-12)

    def test_complete_graph_eigenvalues(self):
        for n in (3, 4, 6):
            s = normalized_laplacian_spectrum(complete(n))
            assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
            for lam in s.eigenvalues[1:]:
                assert lam == pytest.approx(n / (n - 1), abs=1e-10)

    def test_range_invariants(self):
        rng = random.Random(5)
        for _ in range(25):
            g = _random_connected(rng, rng.randint(2, 10))
            s = normalized_laplacian_spectrum(g)
            assert s.eigenvalues[0] <= 1e-10
            assert s.eigenvalues[-1] <= 2 + 1e-10

    def test_zero_eigenvalue_count_is_component_count(self):
        for g in (two_triangles(), cycle(5), complete(4)):
            s = normalized_laplacian_spectrum(g)
            zeros = sum(1 for lam in s.eigenvalues if lam < 1e-8)
            assert zeros == len(components(g))

    def test_deterministic_including_signs(self):
        g = petersen()
        s1 = normalized_laplacian_spectrum(g)
        s2 = normalized_laplacian_spectrum(g)
        assert s1.eigenvalues == s2.eigenvalues
        assert np.array_equal(s1.fiedler, s2.fiedler)

    def test_fiedler_sign_convention(self):
        # the first entry of largest magnitude is positive
        graphs = _fiedler_cases() + [_random_connected(random.Random(9), 8)]
        for g in graphs:
            f = normalized_laplacian_spectrum(g).fiedler
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
        graphs = _fiedler_cases() + [_random_connected(random.Random(41), 11)]
        for g in graphs:
            lam = np.linalg.eigvalsh(_textbook_laplacian(g))
            s = normalized_laplacian_spectrum(g)
            assert s.eigenvalues == tuple(float(x) for x in lam)

    def test_fiedler_eigen_equation(self):
        for g in _fiedler_cases():
            lap = _textbook_laplacian(g)
            s = normalized_laplacian_spectrum(g)
            f = s.fiedler
            assert f.shape == (g.n,)
            assert np.max(np.abs(lap @ f - s.eigenvalues[1] * f)) <= 1e-9
            assert abs(float(np.linalg.norm(f)) - 1.0) <= 1e-12
            sqrt_d = np.sqrt(np.array(g.degrees, float))
            assert abs(float(f @ sqrt_d)) <= 1e-9
            assert np.array_equal(normalized_laplacian_spectrum(g).fiedler, f)

    def test_a_perturbed_solve_fails_the_residual_check(self, monkeypatch):
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[0] += 1e-3 * np.abs(x).max()
            return x

        monkeypatch.setattr(spectral_module.np.linalg, "solve", perturbed)
        with pytest.raises(VerificationError, match="residual"):
            normalized_laplacian_spectrum(random_regular(50, 3, 0))

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3, allow_isolated=True)
        with pytest.raises(PreconditionError, match="isolated"):
            normalized_laplacian_spectrum(g)

    def test_eigenvalue_accessor_1_indexed(self):
        s = normalized_laplacian_spectrum(complete(3))
        assert s.eigenvalue(1) == s.eigenvalues[0]
        assert s.eigenvalue(3) == s.eigenvalues[2]
        with pytest.raises(PreconditionError):
            s.eigenvalue(4)


class TestSweepCut:
    def test_needs_two_vertices(self):
        g = Graph.from_edges([(0, 1)])
        cut = sweep_cut(g)
        assert len(cut.vertices) == 1
        assert cut.conductance == Fraction(1)

    def test_volume_at_most_half(self):
        rng = random.Random(31)
        for _ in range(40):
            g = _random_connected(rng, rng.randint(2, 11))
            cut = sweep_cut(g)
            assert 2 * volume(g, cut.vertices) <= 2 * g.m

    def test_cheeger_upper_bound(self):
        rng = random.Random(33)
        for _ in range(40):
            g = _random_connected(rng, rng.randint(2, 11))
            cut = sweep_cut(g)
            assert float(cut.conductance) <= math.sqrt(2 * cut.lambda2) + 1e-9

    def test_conductance_matches_returned_set(self):
        rng = random.Random(37)
        for _ in range(40):
            g = _random_connected(rng, rng.randint(2, 11))
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
        spectrum = normalized_laplacian_spectrum(g)
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
