"""Normalized Laplacian spectra and the spectral sweep cut.

The normalized Laplacian is L = I - D^{-1/2} A D^{-1/2}.  A spectrum holds
what the partitioner reads: the k lowest eigenvalues, ascending, and one
eigenvector for lambda_2 (the Fiedler vector) that the sweep cut orders
vertices by.  PartitionParams asks for its k, the sweep cut for 2.

Two routes, chosen from n and from convergence:

* Above _LANCZOS_MIN_N vertices, block Lanczos on the edge list (Golub and
  Underwood; Parlett, The Symmetric Eigenvalue Problem).  D^{1/2} 1 spans
  lambda_1 = 0 and is deflated exactly: it is the first basis vector.  The
  block size is k - 1, so lambda_2..lambda_k are resolved whatever their
  multiplicities; the start block is the Weyl sequence the dense route
  starts from.  Each new block is orthogonalized against the two blocks
  before it, and against the whole basis, once, only where that is needed
  (partial reorthogonalization; _FULL_PASS_EVERY says where).
  Rayleigh-Ritz checks, placed by the residual's trend, stop the iteration
  once the k - 1 lowest Ritz pairs have residual at most
  _LANCZOS_RESIDUAL.  The basis is given up, for the dense route, at a
  Krylov dimension of _LANCZOS_CAP * n, or earlier once the residual's
  trend predicts that cap.
* Otherwise one dense buffer: all n eigenvalues from a symmetric eigenvalue
  solver, the vector from one step of inverse iteration with a shift just
  below lambda_2.

Checked on every spectrum: the eigenvalues ascend, the smallest is within
TOL_ZERO of zero and the largest at most 2 + TOL_ZERO; the vector has one
entry per vertex; and its residual ||L f - lambda_2 f||_inf, computed from
the edge list, is at most TOL_ORTHO.  On the Lanczos route, in addition,
||L D^{1/2} 1||_inf is at most TOL_ZERO and every returned Ritz pair has
residual ||L y - theta y||_2 at most TOL_ORTHO, both from the edge list,
and the Ritz vectors' Gram matrix is within _RITZ_GRAM of the identity.
That route does not prove that no eigenvalue was missed: a Ritz value is
never below the eigenvalue of its rank, so a missed one can only make
lambda_k come out too large.  The vector is a unit vector orthogonal to
D^{1/2} 1, with a deterministic sign (its first entry of largest magnitude
is positive), so repeated runs give bit-identical spectra.  When lambda_2
is repeated the vector is one deterministic member of its eigenspace.
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
# golden-ratio increment of the first start vector's Weyl sequence
_GOLDEN = 0.6180339887498949
# block Lanczos above this many vertices: random 3-regular graphs of
# 1200-2400 vertices needed a Krylov dimension of 300-450 for k = 3, more
# than the cap leaves at n = 1000, where the dense route takes 0.08 s
_LANCZOS_MIN_N = 1000
# largest Krylov dimension, as a fraction of n: there, on a random
# 3-regular graph, the basis costs about half a dense spectrum
_LANCZOS_CAP = 0.25
# Ritz pairs are converged at this residual norm
_LANCZOS_RESIDUAL = 1e-9
# the first Rayleigh-Ritz check is at this dimension; each next one where
# the straight line through log(residual) at the last two checks reaches
# the target, but at least one block on and at most 1.2-fold
_FIRST_CHECK = 32
_CHECK_GROWTH = 1.2
# from this fraction of the cap on, give up once the straight line through
# log(residual) at the last two checks reaches the target past the cap
_EXTRAPOLATE_FROM = 0.6
# each block step orthogonalizes against its own block and the one before;
# a full Gram-Schmidt pass against the whole basis follows on the first two
# steps of every _FULL_PASS_EVERY, on each step that ends in a check and
# before an ill-conditioned block, and on every step once a pass finds a
# component above _ORTHO_LOSS times its row's norm: orthogonality to
# sqrt(eps) keeps Ritz values accurate to working precision (Simon 1984;
# Grimes, Lewis and Simon 1994)
_FULL_PASS_EVERY = 8
_ORTHO_LOSS = math.sqrt(np.finfo(np.float64).eps)
# the returned Ritz vectors' Gram matrix is within this of the identity
_RITZ_GRAM = 1e-10
# a new block with a singular value below this is orthonormalized row by
# row; a direction whose norm falls below _RANK_TOL is dropped
_WELL_CONDITIONED = 1e-4
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """The k lowest normalized-Laplacian eigenvalues and a lambda_2 vector.

    eigenvalues holds the k >= 2 lowest eigenvalues, ascending.  fiedler is
    a unit eigenvector for eigenvalues[1], one entry per vertex, orthogonal
    to D^{1/2} 1, with its first entry of largest magnitude positive.
    normalized_laplacian_spectrum checks its length and residual against
    the graph; this class checks what it can without the graph.
    """

    eigenvalues: tuple[float, ...]
    fiedler: np.ndarray

    def __post_init__(self) -> None:
        lam = self.eigenvalues
        k = len(lam)
        if k < 2:
            raise PreconditionError(f"spectrum of {k} eigenvalues has no lambda_2")
        if any(lam[i] > lam[i + 1] for i in range(k - 1)):
            raise VerificationError("eigenvalues are not ascending")
        if not -TOL_ZERO <= lam[0] <= TOL_ZERO:
            raise VerificationError(
                f"smallest eigenvalue {lam[0]} is not within {TOL_ZERO} of zero"
            )
        if lam[-1] > 2 + TOL_ZERO:
            raise VerificationError(
                f"largest eigenvalue {lam[-1]} exceeds 2 + {TOL_ZERO}"
            )
        if self.fiedler.ndim != 1 or len(self.fiedler) < k:
            raise VerificationError(
                f"Fiedler vector of shape {self.fiedler.shape} for {k} eigenvalues"
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


def _weyl(first: int, rows: int, n: int) -> np.ndarray:
    """Rows first .. first+rows-1 of the start vectors, as rows x n.

    Row j is the centred Weyl sequence (i * a_j mod 1) - 1/2, i = 1..n:
    a_0 is the golden-ratio increment, and a_j for j >= 1 the fractional
    part of the square root of the j-th non-square, j + round(sqrt(j)).
    Shifts of one sequence would span only a few dimensions.
    """
    a = [
        _GOLDEN if j == 0 else math.sqrt(j + math.floor(0.5 + math.sqrt(j))) % 1.0
        for j in range(first, first + rows)
    ]
    return np.outer(a, np.arange(1, n + 1, dtype=np.float64)) % 1.0 - 0.5


class _EdgeListLaplacian:
    """x -> L x from the edge list, for one vector or a block of rows."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.sqrt_d = np.sqrt(np.asarray(g.degrees, dtype=np.float64))
        self.inv_sqrt_d = 1.0 / self.sqrt_d
        self.us, self.vs = np.asarray(g.edges, dtype=np.intp).T
        # both directions of every edge: entry u gathers from entry v
        self._to = np.concatenate((self.us, self.vs))
        self._from = np.concatenate((self.vs, self.us))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        rows = x.reshape(-1, n)
        r = len(rows)
        y = rows * self.inv_sqrt_d
        # one bincount for the whole block: row i's entries sit at i*n..
        index = (np.arange(r)[:, None] * n + self._to).ravel()
        ay = np.bincount(index, weights=y[:, self._from].ravel(), minlength=r * n)
        return (rows - self.inv_sqrt_d * ay.reshape(r, n)).reshape(x.shape)


def _dense_spectrum(lap: _EdgeListLaplacian, trivial: np.ndarray):
    """All n eigenvalues, ascending, and a lambda_2 vector from one solve."""
    n = lap.n
    # one buffer: -d_u^(-1/2) d_v^(-1/2) on each edge entry, 1 on the
    # diagonal; both entries of an edge get the same float, so it is
    # symmetric bit for bit
    dense = np.zeros((n, n), dtype=np.float64)
    off = -(lap.inv_sqrt_d[lap.us] * lap.inv_sqrt_d[lap.vs])
    dense[lap.us, lap.vs] = off
    dense[lap.vs, lap.us] = off
    np.fill_diagonal(dense, 1.0)
    eigenvalues = np.linalg.eigvalsh(dense)
    lam2 = float(eigenvalues[1])

    # inverse iteration: one solve of (L - sigma I) x = b scales b's
    # lambda_2 component by 1/(lambda_2 - sigma), about 10^12, and every
    # other by at most 1/(lambda_3 - sigma); D^(1/2) 1 spans lambda_1 = 0
    # and is projected out before and after
    x = _weyl(0, 1, n)[0]
    x -= trivial * (trivial @ x)
    np.fill_diagonal(dense, 1.0 - (lam2 - _SHIFT * max(1.0, lam2)))
    x = np.linalg.solve(dense, x)
    x -= trivial * (trivial @ x)
    return eigenvalues, x


def _orthogonalize(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Remove from w's rows, in place, their components along q's rows.

    q's rows are orthonormal; block Gram-Schmidt, done twice.
    """
    for _ in range(2):
        w -= (w @ q.T) @ q
    return w


def _full_pass(q: np.ndarray, w: np.ndarray, h_rows: np.ndarray) -> bool:
    """One classical Gram-Schmidt pass of w's rows, in place, against q's.

    q's rows are orthonormal.  The pass's coefficients are added to h_rows.
    Returns whether some row of w had a component along some row of q
    above _ORTHO_LOSS times its norm: the basis has lost orthogonality.
    """
    c = w @ q.T
    lost = bool(np.any(np.abs(c) > _ORTHO_LOSS * np.linalg.norm(w, axis=1)[:, None]))
    w -= c @ q
    h_rows += c
    return lost


def _append_rows(
    basis: np.ndarray, d: int, w: np.ndarray, fresh: int, orthogonal: bool = True
) -> tuple[int, int] | None:
    """Append an orthonormal basis of w's row space to basis[:d].

    Returns the new row count and the number of start vectors used.  When
    w is well conditioned its right singular vectors are appended.
    Otherwise w must be orthogonal to basis[:d]: when the caller does not
    know it to be (orthogonal false), None is returned and nothing is
    appended.  Each singular direction is then orthogonalized again on its
    own, and one that vanishes (the Krylov space is invariant in it) is
    replaced by the next start vector, number fresh.  Once a start vector
    vanishes too, basis[:d] spans the whole space and fewer rows are
    appended.
    """
    _, sv, vt = np.linalg.svd(w, full_matrices=False)
    if sv[-1] > _WELL_CONDITIONED:
        basis[d : d + len(vt)] = vt
        return d + len(vt), fresh
    if not orthogonal:
        return None
    missing = 0
    for row in sv[:, None] * vt:
        row = _orthogonalize(row[None, :], basis[:d])[0]
        norm = np.linalg.norm(row)
        if norm <= _RANK_TOL:
            missing += 1
            continue
        basis[d] = row / norm
        d += 1
    for _ in range(missing):
        row = _weyl(fresh, 1, basis.shape[1])
        fresh += 1
        before = np.linalg.norm(row)
        row = _orthogonalize(row, basis[:d])[0]
        norm = np.linalg.norm(row)
        if norm <= _RANK_TOL * before:
            break
        basis[d] = row / norm
        d += 1
    return d, fresh


def _extrapolated_dimension(last, dim: int, resid: float) -> float:
    """Dimension where the straight line through log(residual) at the last
    check, last = (dimension, residual), and at dim reaches the target."""
    if last is None or not resid < last[1]:
        return math.inf
    per_dim = math.log(last[1] / resid) / (dim - last[0])
    return dim + math.log(resid / _LANCZOS_RESIDUAL) / per_dim


def _block_lanczos(lap: _EdgeListLaplacian, trivial: np.ndarray, k: int):
    """The k lowest eigenpairs by block Lanczos, or None for the dense route.

    Returns (eigenvalues, vectors): 0 for D^(1/2) 1 and the k - 1 lowest
    Ritz values of L on its orthogonal complement, ascending, and their
    Ritz vectors as rows, lowest first, each checked from the edge list.
    """
    n = lap.n
    b = k - 1
    cap = int(_LANCZOS_CAP * n)
    if b > cap:
        return None
    kernel = float(np.max(np.abs(lap(trivial))))
    if not kernel <= TOL_ZERO:
        raise VerificationError(
            f"||L D^(1/2) 1||_inf = {kernel} exceeds {TOL_ZERO}"
        )
    # basis[:d] holds orthonormal rows: D^(1/2) 1, then the blocks, the
    # newest at d0..d-1 and the one before at p0..d0-1; h[i, j] for j <= i
    # is basis[i] . L basis[j]
    basis = np.empty((cap + b + 1, n))
    h = np.zeros((cap + b + 1, cap + b + 1))
    basis[0] = trivial
    start = _orthogonalize(_weyl(0, b, n), basis[:1])
    d, fresh = _append_rows(basis, 1, start, b)
    p0, d0 = 0, 1
    check = max(_FIRST_CHECK, 2 * b)
    last = None  # (dimension, residual) at the previous check
    lost = False  # a full pass has found orthogonality lost: one every step
    step = 0
    while True:
        lq = lap(basis[d0:d])
        # the local recurrence: in exact arithmetic L basis[d0:d] is
        # orthogonal to every block but this one and the one before
        near = basis[p0:d]
        c = lq @ near.T
        w = lq - c @ near
        h[d0:d, p0:d] = c
        dim = d - 1
        checking = dim >= check or dim == n - 1 or dim >= cap
        # a pass on one step alone is undone on the next, whose recurrence
        # reads the block before, so passes come in pairs (Simon 1984)
        full = lost or checking or step % _FULL_PASS_EVERY < 2
        if full:
            lost |= _full_pass(basis[:d], w, h[d0:d, :d])
        if checking:
            theta, s = np.linalg.eigh(h[1:d, 1:d], UPLO="L")
            # L basis = basis h + (w on the newest block's rows), so the
            # residual of y = basis[1:d] s is w's share of it
            resid = float(np.max(np.linalg.norm(s[d0 - 1 :, :b].T @ w, axis=1)))
            if dim == n - 1 or resid <= _LANCZOS_RESIDUAL:
                break
            target = _extrapolated_dimension(last, dim, resid)
            # a cap at the whole space is never reached short of convergence
            if dim >= cap or (
                dim >= _EXTRAPOLATE_FROM * cap and cap < n - 1 and target > cap
            ):
                return None
            last = (dim, resid)
            check = min(math.ceil(dim * _CHECK_GROWTH), max(dim + b, target))
        step += 1
        grown = _append_rows(basis, d, w, fresh, orthogonal=full)
        if grown is None:  # ill conditioned, and w not yet orthogonal
            lost |= _full_pass(basis[:d], w, h[d0:d, :d])
            grown = _append_rows(basis, d, w, fresh)
        p0, d0 = d0, d
        d, fresh = grown
        if d == d0:
            return None  # no direction left short of the whole space
    theta = theta[:b]
    vectors = s[:, :b].T @ basis[1:d]
    residuals = np.linalg.norm(lap(vectors) - theta[:, None] * vectors, axis=1)
    for t, r in zip(theta, residuals):
        if not r <= TOL_ORTHO:
            raise VerificationError(
                f"Ritz pair for {t} has residual {r}, above {TOL_ORTHO}"
            )
    # a basis that lost orthogonality can hold a second, "ghost" copy of a
    # converged Ritz vector, which passes the residual check
    gram = float(np.max(np.abs(vectors @ vectors.T - np.eye(b))))
    if not gram <= _RITZ_GRAM:
        raise VerificationError(
            f"Ritz vectors' Gram matrix is {gram} away from the identity,"
            f" above {_RITZ_GRAM}"
        )
    # theta ascends; L is positive semidefinite, so a Ritz value below 0 is
    # rounding (lambda_2 = 0 on a disconnected graph), sorted before the 0
    return np.sort(np.concatenate(([0.0], theta))), vectors


def normalized_laplacian_spectrum(g: Graph, k: int) -> Spectrum:
    """The k lowest eigenvalues of L, 2 <= k <= n, and a Fiedler vector."""
    if any(d == 0 for d in g.degrees):
        raise PreconditionError(
            "normalized Laplacian undefined: graph has an isolated vertex"
        )
    n = g.n
    if not 2 <= k <= n:
        raise PreconditionError(f"spectrum size k={k} out of range 2..{n}")
    lap = _EdgeListLaplacian(g)
    trivial = lap.sqrt_d / np.linalg.norm(lap.sqrt_d)
    found = _block_lanczos(lap, trivial, k) if n > _LANCZOS_MIN_N else None
    if found is None:
        eigenvalues, x = _dense_spectrum(lap, trivial)
    else:
        eigenvalues, vectors = found
        x = vectors[0]
    eigenvalues = eigenvalues[:k]
    lam2 = float(eigenvalues[1])
    x /= np.linalg.norm(x)
    _fix_sign(x)
    if x.shape != (n,):
        raise VerificationError(f"Fiedler vector shape {x.shape} is not ({n},)")
    residual = float(np.max(np.abs(lap(x) - lam2 * x)))
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
        spectrum = normalized_laplacian_spectrum(g, 2)
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
