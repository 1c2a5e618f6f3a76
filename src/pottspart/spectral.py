"""Normalized Laplacian spectra and the spectral sweep cut.

The normalized Laplacian is L = I - D^{-1/2} A D^{-1/2}.  A spectrum holds
what the partitioner reads: all n eigenvalues, ascending, and one
eigenvector for lambda_2 (the Fiedler vector) that the sweep cut orders
vertices by.  Both come from one dense buffer: the eigenvalues from a
symmetric eigenvalue solver, the vector from one step of inverse iteration
with a shift just below lambda_2.  Computing every eigenvector instead
costs about twice the time and an n x n output that nothing reads.

Checked on every spectrum: the eigenvalues ascend, the smallest is at most
TOL_ZERO and the largest at most 2 + TOL_ZERO; the vector has exactly one
entry per eigenvalue; and its residual ||L f - lambda_2 f||_inf, computed
from the edge list, is at most TOL_ORTHO.  The vector is a unit vector orthogonal to D^{1/2} 1, with a
deterministic sign (its first entry of largest magnitude is positive), so
repeated runs give bit-identical spectra.  When lambda_2 is repeated the
vector is one deterministic member of its eigenspace.
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
# the shift sits this far below lambda_2, relative to max(1, lambda_2):
# above the eigenvalue solver's error, far below any gap it must resolve
_SHIFT = 1e-12
# golden-ratio increment of the start vector's Weyl sequence
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Spectrum:
    """Normalized-Laplacian eigenvalues and one lambda_2 eigenvector.

    eigenvalues holds all n eigenvalues, ascending.  fiedler is a unit
    eigenvector for eigenvalues[1], orthogonal to D^{1/2} 1, with its first
    entry of largest magnitude positive.  normalized_laplacian_spectrum
    checks its residual against the graph; this class checks what it can
    without the graph.
    """

    eigenvalues: tuple[float, ...]
    fiedler: np.ndarray

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
        if self.fiedler.shape != (n,):
            raise VerificationError(
                f"Fiedler vector shape {self.fiedler.shape} is not ({n},)"
            )

    def eigenvalue(self, k: int) -> float:
        """k-th smallest eigenvalue, 1-indexed."""
        if not 1 <= k <= len(self.eigenvalues):
            raise PreconditionError(
                f"eigenvalue index k={k} out of range 1..{len(self.eigenvalues)}"
            )
        return self.eigenvalues[k - 1]


def _fix_sign(x: np.ndarray) -> np.ndarray:
    """Negate x, in place, when its largest-magnitude entry is negative.

    np.argmax takes the lowest index among ties.
    """
    if x[np.argmax(np.abs(x))] < 0:
        np.negative(x, out=x)
    return x


def normalized_laplacian_spectrum(g: Graph) -> Spectrum:
    if any(d == 0 for d in g.degrees):
        raise PreconditionError(
            "normalized Laplacian undefined: graph has an isolated vertex"
        )
    n = g.n
    # one buffer: -d_u^(-1/2) d_v^(-1/2) on each edge entry, 1 on the
    # diagonal; both entries of an edge get the same float, so it is
    # symmetric bit for bit
    lap = np.zeros((n, n), dtype=np.float64)
    sqrt_d = np.sqrt(np.asarray(g.degrees, dtype=np.float64))
    inv_sqrt_d = 1.0 / sqrt_d
    us, vs = np.asarray(g.edges, dtype=np.intp).T
    off = -(inv_sqrt_d[us] * inv_sqrt_d[vs])
    lap[us, vs] = off
    lap[vs, us] = off
    np.fill_diagonal(lap, 1.0)
    eigenvalues = np.linalg.eigvalsh(lap)
    lam2 = float(eigenvalues[1])

    # inverse iteration: one solve of (L - sigma I) x = b scales b's
    # lambda_2 component by 1/(lambda_2 - sigma), about 10^12, and every
    # other by at most 1/(lambda_3 - sigma); D^(1/2) 1 spans lambda_1 = 0
    # and is projected out before and after
    trivial = sqrt_d / np.linalg.norm(sqrt_d)
    x = np.arange(1, n + 1) * _GOLDEN % 1.0 - 0.5
    x -= trivial * (trivial @ x)
    np.fill_diagonal(lap, 1.0 - (lam2 - _SHIFT * max(1.0, lam2)))
    x = np.linalg.solve(lap, x)
    x -= trivial * (trivial @ x)
    x /= np.linalg.norm(x)
    _fix_sign(x)

    # L x from the edge list, O(m)
    y = inv_sqrt_d * x
    ay = np.bincount(us, weights=y[vs], minlength=n)
    ay += np.bincount(vs, weights=y[us], minlength=n)
    residual = float(np.max(np.abs(x - inv_sqrt_d * ay - lam2 * x)))
    if not residual <= TOL_ORTHO:
        raise VerificationError(
            f"Fiedler vector residual {residual} exceeds {TOL_ORTHO}"
        )
    return Spectrum(eigenvalues=tuple(eigenvalues.tolist()), fiedler=x)


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
    embedding = spectrum.fiedler / np.sqrt(np.asarray(g.degrees, dtype=np.float64))
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
