"""Normalized Laplacian spectra and the spectral sweep cut.

The normalized Laplacian is I - D^{-1/2} A D^{-1/2}.  Eigenvalues are
ascending; eigenvectors are orthonormal columns with a deterministic sign
convention (the entry of largest magnitude is made positive, ties broken by
lowest index), so repeated runs yield bit-identical spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, VerificationError
from .graphs import Graph, components

TOL_ZERO = 1e-10
TOL_ORTHO = 1e-8
_FULL_ORTHO_CHECK_MAX_N = 256


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a normalized Laplacian."""

    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    def __post_init__(self) -> None:
        lam = self.eigenvalues
        n = len(lam)
        if n == 0:
            raise PreconditionError("empty spectrum")
        if any(lam[i] > lam[i + 1] for i in range(n - 1)):
            raise VerificationError("eigenvalues are not ascending")
        if lam[0] > TOL_ZERO:
            raise VerificationError(
                f"smallest eigenvalue {lam[0]} exceeds zero tolerance {TOL_ZERO}"
            )
        if lam[-1] > 2 + TOL_ZERO:
            raise VerificationError(
                f"largest eigenvalue {lam[-1]} exceeds 2 + {TOL_ZERO}"
            )
        v = self.eigenvectors
        if v.shape != (n, n):
            raise VerificationError("eigenvector matrix shape mismatch")
        if n <= _FULL_ORTHO_CHECK_MAX_N:
            gram = v.T @ v
            err = float(np.max(np.abs(gram - np.eye(n))))
        else:
            # Deterministic spot check on a fixed set of probe columns.
            idx = list(range(0, n, max(1, n // 8)))[:8]
            err = 0.0
            for j in idx:
                col = v @ (v.T @ np.eye(n, 1, -j).ravel())
                probe = np.zeros(n)
                probe[j] = 1.0
                err = max(err, float(np.max(np.abs(col - probe))))
        if err > TOL_ORTHO:
            raise VerificationError(
                f"eigenvectors not orthonormal within {TOL_ORTHO}: error {err}"
            )

    def eigenvalue(self, k: int) -> float:
        """k-th smallest eigenvalue, 1-indexed."""
        if not 1 <= k <= len(self.eigenvalues):
            raise PreconditionError(
                f"eigenvalue index k={k} out of range 1..{len(self.eigenvalues)}"
            )
        return self.eigenvalues[k - 1]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose largest-magnitude entry is negative.

    np.argmax takes the lowest index among ties.
    """
    rows = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[rows, np.arange(vectors.shape[1])] < 0
    np.negative(vectors, out=vectors, where=flip)
    return vectors


def normalized_laplacian_spectrum(g: Graph) -> Spectrum:
    if any(d == 0 for d in g.degrees):
        raise PreconditionError(
            "normalized Laplacian undefined: graph has an isolated vertex"
        )
    # one buffer: -d_u^(-1/2) d_v^(-1/2) on each edge entry, 1 on the
    # diagonal; both entries of an edge get the same float, so it is
    # symmetric bit for bit
    lap = np.zeros((g.n, g.n), dtype=np.float64)
    inv_sqrt_d = 1.0 / np.sqrt(np.asarray(g.degrees, dtype=np.float64))
    us, vs = np.asarray(g.edges, dtype=np.intp).T
    off = -(inv_sqrt_d[us] * inv_sqrt_d[vs])
    lap[us, vs] = off
    lap[vs, us] = off
    np.fill_diagonal(lap, 1.0)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    return Spectrum(
        eigenvalues=tuple(float(x) for x in eigenvalues),
        eigenvectors=_fix_signs(eigenvectors),
    )


@dataclass(frozen=True)
class SweepCut:
    """Best prefix cut of the second-eigenvector sweep.

    vertices is the side with vol <= vol(V)/2; conductance is the exact
    rational |boundary| / min(vol, vol(V)-vol) of the best prefix.
    """

    vertices: tuple[int, ...]
    conductance: Fraction
    lambda2: float


def sweep_cut(g: Graph, spectrum: Spectrum | None = None) -> SweepCut:
    """Deterministic spectral sweep satisfying conductance <= sqrt(2*lambda2).

    For a disconnected graph returns a connected component of minimum volume
    (conductance exactly 0), which realizes the bound at lambda2 = 0.
    """
    if g.n < 2:
        raise PreconditionError("sweep cut needs at least 2 vertices")
    comps = components(g)
    if len(comps) > 1:
        best = min(comps, key=lambda c: (sum(g.degrees[v] for v in c), c))
        return SweepCut(vertices=best, conductance=Fraction(0), lambda2=0.0)

    if spectrum is None:
        spectrum = normalized_laplacian_spectrum(g)
    lam2 = spectrum.eigenvalues[1]
    psi2 = spectrum.eigenvectors[:, 1]
    embedding = psi2 / np.sqrt(np.asarray(g.degrees, dtype=np.float64))
    order = sorted(range(g.n), key=lambda v: (float(embedding[v]), v))

    vol_total = 2 * g.m
    in_prefix = 0  # bitmask of prefix vertices
    vol = 0
    bnd = 0
    best_num = best_den = 0  # conductance best_num/best_den, den 0 = +inf
    best_t = -1
    best_vol = 0
    best_bnd = 0
    for t, v in enumerate(order[:-1]):
        inside = (g.adj_masks[v] & in_prefix).bit_count()
        bnd += g.degrees[v] - 2 * inside
        vol += g.degrees[v]
        in_prefix |= 1 << v
        side_vol = min(vol, vol_total - vol)
        # compare bnd/side_vol < best_num/best_den  (cross-multiplied)
        if best_t < 0 or bnd * best_den < best_num * side_vol:
            best_num, best_den = bnd, side_vol
            best_t = t
            best_vol = vol
            best_bnd = bnd
    prefix = tuple(sorted(order[: best_t + 1]))
    if best_vol <= vol_total - best_vol:
        side = prefix
    else:
        taken = set(prefix)
        side = tuple(v for v in range(g.n) if v not in taken)
    phi = Fraction(best_bnd, best_den)
    cheeger = math.sqrt(max(2.0 * lam2, 0.0))
    if float(phi) > cheeger + 1e-9:
        raise VerificationError(
            f"sweep conductance {float(phi)} exceeds sqrt(2*lambda2) = {cheeger}"
        )
    return SweepCut(vertices=side, conductance=phi, lambda2=lam2)
