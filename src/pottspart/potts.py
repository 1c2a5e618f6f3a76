"""Approximation pipelines for the ferromagnetic Potts partition function.

Z_G(beta) = sum over colourings omega of exp(beta * m_G(omega)), with
m_G the monochromatic-edge count.  At low temperature (large beta) the sum
is dominated by colourings near "ground states" that colour each part of an
expander partition monochromatically; each ground state contributes a
polymer-model partition function evaluated by a truncated cluster expansion.

Every pipeline returns a :class:`PottsResult` whose ``eps_bound`` is a
guaranteed relative error: e^(-eps) <= Z / exp(log_z) <= e^(eps).  The
pipelines refuse (with structured errors) whenever a hypothesis they rely on
cannot be verified, rather than returning an unguaranteed number.  The
keyword ``budgets`` caps the enumerations of one call (:class:`Budgets`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .budgets import GROUND_STATE_CAP, Budgets
from .errors import BudgetError, PreconditionError
from .graphs import (
    SUBSET_ENUM_MAX_N,
    Graph,
    induced_subgraph,
    is_alpha_expander,
    mask_of,
)
from .oracle import exact_log_z
from .partition import (
    ExpanderPartition,
    PartitionParams,
    _inner_lower_bound,
    _sweep_in_part,
    partition_into_expanders,
)
from .polymers import (
    ClusterExpansion,
    boundary_edge_set,
    check_alpha,
    check_q_beta,
    enumerate_polymers,
    kp_sufficient_beta,
    normalize_parts,
    truncated_log_xi,
    truncation_depth,
)
from .util import log_sum_exp

__all__ = [
    "PottsResult",
    "GROUND_STATE_CAP",
    "XI_CAP",
    "certified_alpha",
    "required_beta_expander",
    "required_beta_good_parts",
    "required_beta_sse",
    "approx_log_z_expander",
    "approx_log_z_good_parts",
    "approx_log_z_with_partition",
    "approx_log_z_sse",
]

XI_CAP = 0.25  # accuracy requests are clamped to this (a stronger promise)


def _colour_pattern(psi: Sequence[int]) -> tuple[int, ...]:
    """psi with its colours renamed in order of first appearance.

    Two ground states share a pattern exactly when a colour permutation maps
    one onto the other: (2, 0, 2) and (0, 1, 0) both give (0, 1, 0).
    """
    names: dict[int, int] = {}
    return tuple(names.setdefault(c, len(names)) for c in psi)


# ---------------------------------------------------------------------------
# certified expansion constants
# ---------------------------------------------------------------------------


def _part_min_inside_degree(g: Graph, vs: Sequence[int]) -> int:
    pm = mask_of(g, vs)
    return min((g.adj_masks[v] & pm).bit_count() for v in vs)


def certified_alpha(
    g: Graph,
    parts: Sequence[Sequence[int]],
    inner_bounds: Sequence[Fraction] | None = None,
) -> float:
    """Edge-expansion constant alpha certified by the partition.

    Within each part, any set taking at most half the part has boundary (in
    the induced subgraph) at least phi_inner * volume >= phi_inner * mindeg
    * size, so alpha = min over parts of (inner conductance lower bound) *
    (min induced degree).  The inner bound is the per-part sweep-cut
    certificate (partition._inner_lower_bound) unless explicit bounds are
    supplied.
    Single-vertex parts admit no nonempty small set and contribute nothing;
    the result is +inf when every part is a single vertex.
    """
    alpha = math.inf
    for idx, vs in enumerate(parts):
        vs = tuple(vs)
        if len(vs) < 2:
            continue
        if inner_bounds is not None:
            phi_lb = inner_bounds[idx]
        else:
            sw = _sweep_in_part(g, set(vs))
            if sw is None:
                return 0.0  # edgeless multi-vertex part: no expansion at all
            phi_lb = _inner_lower_bound(sw[1])
        alpha = min(alpha, float(phi_lb) * _part_min_inside_degree(g, vs))
    return alpha


def _coerce_partition(
    g: Graph, partition
) -> tuple[tuple[tuple[int, ...], ...], list[float]]:
    """Accept an ExpanderPartition or raw parts; return (parts, alpha per part)."""
    if isinstance(partition, ExpanderPartition):
        parts = normalize_parts(g, partition.parts)
        bounds = [(c.phi_inner_lb,) for c in partition.certificates]
    else:
        parts = normalize_parts(g, partition)
        bounds = [None] * len(parts)
    alphas = [certified_alpha(g, (p,), b) for p, b in zip(parts, bounds, strict=True)]
    return parts, alphas


def _check_eta(eta: float) -> None:
    """Refuse a good-part share eta outside (0, 1] (or NaN)."""
    if not 0 < eta <= 1:
        raise PreconditionError(f"eta must be in (0, 1], got {eta}")


def _check_beta(beta: float, need: float, hypotheses: str) -> None:
    """Refuse beta below ``need``, the threshold under ``hypotheses``."""
    if beta < need:
        raise PreconditionError(
            f"beta={beta:.6g} is below the required threshold {need:.6g} "
            f"for {hypotheses}"
        )


def required_beta_expander(q: int, max_degree: int, alpha: float) -> float:
    """Smallest inverse temperature the expander pipeline accepts."""
    return kp_sufficient_beta(q, max_degree, alpha)


def required_beta_good_parts(
    q: int, max_degree: int, alpha: float, eta: float
) -> float:
    """Smallest inverse temperature the good-parts pipeline accepts.

    Two threshold forms circulate for this composition; we enforce the
    pointwise maximum of both, so the accepted regime satisfies each.
    """
    check_alpha(alpha)
    _check_eta(eta)
    lg = math.log(q * max_degree)
    return max(4.0 + 2.0 * lg, 2.0 + 4.0 * lg) / (alpha * eta)


def required_beta_sse(
    params: PartitionParams, q: int, max_degree: int, min_degree: int
) -> float:
    """Smallest inverse temperature the spectral pipeline accepts.

    This is the good-parts threshold at eta = 1/k for the worst certificate
    the partitioner guarantees: inner conductance at least phi_in^2/4 and a
    share tau of every degree inside the part.  It is 392000*(k-1)/k times
    the headline form k^6*(4+2log(q*Delta))/(lambda_k^2*delta) or more, so
    that form is implied and not computed.
    """
    params.check_lambda_k()
    alpha_guaranteed = (
        _inner_lower_bound(params.phi_in) * float(params.tau) * min_degree
    )
    return required_beta_good_parts(q, max_degree, alpha_guaranteed, 1.0 / params.k)


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PottsResult:
    """log Z approximation with its guaranteed relative-error bound."""

    log_z: float
    eps_bound: float
    mode: str  # "sse" | "partition" | "expander" | "bruteforce"
    ground_states: int
    truncation_depth: int
    clusters_evaluated: int
    per_psi: tuple[Mapping, ...]

    def to_dict(self) -> dict:
        return {
            "logZ": self.log_z,
            "epsBound": self.eps_bound,
            "mode": self.mode,
            "groundStates": self.ground_states,
            "truncationDepth": self.truncation_depth,
            "clustersEvaluated": self.clusters_evaluated,
            "perPsi": [dict(p) for p in self.per_psi],
        }


def _check_q_beta_xi(q: int, beta: float, xi: float) -> float:
    check_q_beta(q, beta)
    if not (math.isfinite(xi) and xi > 0):
        raise PreconditionError(f"accuracy must be finite and positive, got {xi}")
    return min(xi, XI_CAP)


# ---------------------------------------------------------------------------
# the shared ground-state pipeline
# ---------------------------------------------------------------------------


def _approx_core(
    g: Graph,
    parts: Sequence[Sequence[int]],
    q: int,
    beta: float,
    xi: float,
    alpha: float,
    mode: str,
    budgets: Budgets,
) -> PottsResult:
    """Sum exp(beta*m_G(psi) + log Xi^psi) over all ground states psi.

    xi must already be clamped and the convergence gate checked by the
    caller.  When xi <= e^(-n/2) the exact oracle is cheaper than the
    expansion and is used instead (the result is then exact).

    m_G(psi) is the sum of ``between[i][j]``, the number of edges (u, v) in
    ``g.edges`` with u in part i and v in part j, over the pairs (i, j)
    with psi_i = psi_j.  It and log Xi^psi are evaluated once per colour
    pattern (:func:`_colour_pattern`), at the first psi of each pattern in
    index order (part 0 varies fastest), and copied to the rest.  The copy
    is bit-exact; for a colour permutation s:

    1. s keeps which parts share a colour, so m_G(s.psi) = m_G(psi): the
       same integer sum over the same entries of the table;
    2. lambda -> s.lambda maps the colourings allowed under psi onto those
       allowed under s.psi and keeps X, so each restricted sum has the same
       integer histogram and hence the same float;
    3. closure sizes do not depend on psi, so the log-weights, the
       weight-bound check and log Xi are bitwise equal across the orbit;
    4. an orbit breaks the weight bound in all of its members or in none, so
       the first violating psi is an evaluated one and every refusal is
       unchanged.
    """
    n = g.n
    ell = len(parts)
    states = q**ell
    if states > budgets.ground_states:
        raise BudgetError(
            f"{states} ground states exceed the cap {budgets.ground_states}"
        )
    if xi <= math.exp(-n / 2.0):
        return PottsResult(
            log_z=exact_log_z(g, q, beta, budget=budgets.states),
            eps_bound=0.0,
            mode="bruteforce",
            ground_states=states,
            truncation_depth=0,
            clusters_evaluated=0,
            per_psi=(),
        )
    # truncation at zeta = xi/2 leaves e^(-n) <= xi/2 of slack for the
    # states the ground-state decomposition misses or double-counts
    zeta = xi / 2.0
    depth = truncation_depth(n, zeta, q, g.max_degree, beta, alpha)
    model = enumerate_polymers(g, parts, depth, budget=budgets.polymers)
    expansion = ClusterExpansion(model, depth, budget=budgets.clusters)
    part_of = [0] * n
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    between = [[0] * ell for _ in range(ell)]
    for u, v in g.edges:
        between[part_of[u]][part_of[v]] += 1
    evaluated = []
    of_pattern: dict[tuple[int, ...], tuple[int, float]] = {}  # -> (m, log Xi)
    for digits in itertools.product(range(q), repeat=ell):
        psi = digits[::-1]
        pattern = _colour_pattern(psi)
        if pattern not in of_pattern:
            of_pattern[pattern] = (
                sum(
                    between[i][j]
                    for i in range(ell)
                    for j in range(ell)
                    if psi[i] == psi[j]
                ),
                truncated_log_xi(
                    g, parts, psi, q, beta, zeta, alpha, expansion=expansion
                ).log_xi,
            )
        evaluated.append((psi, *of_pattern[pattern]))

    log_z = log_sum_exp(beta * m + lx for _, m, lx in evaluated)
    per_psi = tuple(
        {"psi": list(psi), "monochromaticEdges": m, "logXi": lx}
        for psi, m, lx in evaluated
    )
    return PottsResult(
        log_z=log_z,
        eps_bound=xi,
        mode=mode,
        ground_states=states,
        truncation_depth=depth,
        clusters_evaluated=expansion.cluster_count,
        per_psi=per_psi,
    )


# ---------------------------------------------------------------------------
# public pipelines
# ---------------------------------------------------------------------------


def approx_log_z_expander(
    g: Graph,
    q: int,
    beta: float,
    xi: float,
    alpha: float,
    *,
    budgets: Budgets = Budgets(),
) -> PottsResult:
    """Relative xi-approximation of log Z for an alpha-expander graph.

    The expansion hypothesis is the caller's responsibility; it is checked
    exactly, over every set, when n <= SUBSET_ENUM_MAX_N and trusted
    otherwise.  The single-part pipeline runs with the q monochromatic
    colourings as ground states.
    """
    xi = _check_q_beta_xi(q, beta, xi)
    if not (math.isfinite(alpha) and alpha > 0):
        raise PreconditionError(f"alpha must be finite and positive, got {alpha}")
    if g.m == 0:
        if g.n == 1:
            # a single vertex is vacuously an expander; Z = q exactly
            return PottsResult(math.log(q), 0.0, "bruteforce", q, 0, 0, ())
        raise PreconditionError(
            f"an edgeless graph on {g.n} vertices is not an expander"
        )
    _check_beta(
        beta,
        required_beta_expander(q, g.max_degree, alpha),
        f"q={q}, max degree {g.max_degree}, alpha={alpha:.6g}",
    )
    if g.n <= SUBSET_ENUM_MAX_N:
        ok, witness = is_alpha_expander(g, alpha)
        if not ok:
            raise PreconditionError(
                f"the graph is not an {alpha:.6g}-expander: the set {witness} "
                "has too small a boundary"
            )
    return _approx_core(
        g, (tuple(range(g.n)),), q, beta, xi, alpha, "expander", budgets
    )


def approx_log_z_good_parts(
    g: Graph,
    partition,
    q: int,
    beta: float,
    xi: float,
    *,
    budgets: Budgets = Budgets(),
) -> PottsResult:
    """Relative xi-approximation of log Z given an all-good expander partition.

    ``partition`` is an ExpanderPartition or a raw sequence of vertex sets;
    raw parts are certified here (per-part sweep bound and induced minimum
    degree).  Every part counts toward eta = min |P_i| / n.
    """
    xi = _check_q_beta_xi(q, beta, xi)
    parts, alphas = _coerce_partition(g, partition)
    eta = min(len(p) for p in parts) / g.n
    return _cut_and_sum(g, parts, alphas, (), eta, q, beta, xi, "partition", budgets)


def approx_log_z_with_partition(
    g: Graph,
    partition,
    q: int,
    beta: float,
    xi: float,
    eta: float,
    *,
    budgets: Budgets = Budgets(),
) -> PottsResult:
    """Approximate log Z for a partition that may contain small (bad) parts.

    Parts with |P_i| < eta*n are cut out: their boundary edges (X of them,
    counted once each) are removed, each bad part is handled by the
    single-expander pipeline on its induced subgraph, the remaining good
    parts by the good-parts pipeline, and the removed edges contribute
    beta*X/2 to both the estimate and the (reported) error bound
    (s+1)*xi + beta*X/2, where s is the number of bad parts.
    """
    xi = _check_q_beta_xi(q, beta, xi)
    _check_eta(eta)
    parts, alphas = _coerce_partition(g, partition)
    # exact comparison: lift the float eta so classification is reproducible
    eta_exact = Fraction(eta)
    bad = [i for i, p in enumerate(parts) if len(p) < eta_exact * g.n]
    return _cut_and_sum(g, parts, alphas, bad, eta, q, beta, xi, "partition", budgets)


def _cut_and_sum(
    g: Graph,
    parts: tuple[tuple[int, ...], ...],
    alphas: Sequence[float],
    bad: Sequence[int],
    eta: float,
    q: int,
    beta: float,
    xi: float,
    mode: str,
    budgets: Budgets,
) -> PottsResult:
    """Check beta at eta, cut out the ``bad`` parts and sum the pieces.

    ``alphas`` holds one certified alpha per part; the composition is the
    one :func:`approx_log_z_with_partition` describes.  Without a bad part
    the result carries ``mode``; a cut is reported as "partition".
    """
    alpha = min(alphas)
    if alpha <= 0:
        raise PreconditionError(
            "the partition certifies no expansion (a multi-vertex part has "
            "sweep conductance 0); the polymer weights are unbounded"
        )
    if math.isfinite(alpha):
        _check_beta(
            beta,
            required_beta_good_parts(q, g.max_degree, alpha, eta),
            f"q={q}, max degree {g.max_degree}, alpha={alpha:.6g}, eta={eta:.6g}",
        )
    if not bad:
        return _approx_core(g, parts, q, beta, xi, alpha, mode, budgets)

    removed: set[tuple[int, int]] = set()
    for i in bad:
        removed |= boundary_edge_set(g, parts[i])
    x_count = len(removed)

    # float additions in a fixed order: beta*X/2, each bad part, the rest
    log_z = beta * x_count / 2.0
    pieces = []
    for i in bad:
        sub, _ = induced_subgraph(g, parts[i], allow_isolated=True)
        if sub.m == 0:
            # isolated piece after edge removal: contributes q^|P_i| exactly
            log_z += sub.n * math.log(q)
            continue
        pieces.append(approx_log_z_expander(sub, q, beta, xi, alpha, budgets=budgets))
        log_z += pieces[-1].log_z

    bad_set = set(bad)
    good = [i for i in range(len(parts)) if i not in bad_set]
    if good:
        keep = sorted(v for i in good for v in parts[i])
        sub, vs = induced_subgraph(g, keep, allow_isolated=True)
        relabel = {v: j for j, v in enumerate(vs)}
        sub_parts = tuple(tuple(relabel[v] for v in parts[i]) for i in good)
        # The good rest needs no gate of its own: its alpha (a min over
        # fewer parts) is >= alpha, Delta(G[rest]) <= Delta, and
        # min |P| / |rest| >= eta, because a good part has |P| >=
        # Fraction(eta) * n (with-partition) or |P| * k >= n (sse).  Every
        # float step of required_beta_good_parts is monotone, so its
        # threshold on the rest is at most the one beta passed above.
        alpha_rest = min(alphas[i] for i in good)
        res = _approx_core(sub, sub_parts, q, beta, xi, alpha_rest, "partition", budgets)
        log_z += res.log_z
        pieces.append(res)

    return PottsResult(
        log_z=log_z,
        eps_bound=(len(bad) + 1) * xi + beta * x_count / 2.0,
        mode="partition",
        ground_states=sum(r.ground_states for r in pieces),
        truncation_depth=max((r.truncation_depth for r in pieces), default=0),
        clusters_evaluated=sum(r.clusters_evaluated for r in pieces),
        per_psi=(),
    )


def approx_log_z_sse(
    g: Graph,
    k: int,
    q: int,
    beta: float,
    eps: float,
    *,
    budgets: Budgets = Budgets(),
) -> PottsResult:
    """End-to-end approximation driven by the spectral partitioner.

    Requires lambda_k > 0 and beta at or above the stated threshold.  The
    graph is partitioned into at most k-1 expander parts; when every part
    has at least n/k vertices the good-parts pipeline gives a relative
    eps-approximation.  Otherwise exactly the parts with |P_i| * k < n (an
    integer test, so a part of n/k vertices stays good) are cut out, beta
    is checked at eta = 1/k, and the (weaker) with-partition bound is
    returned.
    """
    eps = _check_q_beta_xi(q, beta, eps)
    params = PartitionParams.from_graph(g, k)
    delta = min(g.degrees)
    _check_beta(
        beta,
        required_beta_sse(params, q, g.max_degree, delta),
        f"k={k}, q={q}, max degree {g.max_degree}, "
        f"lambda_k={params.lambda_k:.6g}, min degree {delta}",
    )
    parts, alphas = _coerce_partition(g, partition_into_expanders(g, params))
    bad = [i for i, p in enumerate(parts) if len(p) * k < g.n]
    eta = 1.0 / k if bad else min(len(p) for p in parts) / g.n
    return _cut_and_sum(g, parts, alphas, bad, eta, q, beta, eps, "sse", budgets)
