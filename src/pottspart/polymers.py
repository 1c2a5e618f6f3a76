"""Polymer models over partitioned graphs.

A *polymer* is a connected vertex set that occupies at most half of every
part of a given vertex partition.  Polymers carry positive weights derived
from a restricted colouring sum, and the log of the resulting polymer
partition function is approximated by a truncated cluster expansion whose
convergence is guarded by an explicit summability condition.

Colours are 0-based everywhere: a ground state assigns one colour in
``range(q)`` to each part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .budgets import CLUSTER_BUDGET, POLYMER_COUNT_BUDGET
from .errors import BudgetError, PreconditionError
from .graphs import Graph, _vertex_tuple, connected_sets, mask_of
from .util import log_count_sum

__all__ = [
    "Polymer",
    "Cluster",
    "ClusterExpansion",
    "TruncatedXi",
    "check_q_beta",
    "check_alpha",
    "normalize_parts",
    "ground_colouring",
    "enumerate_polymers",
    "boundary_edge_set",
    "polymer_log_weights",
    "check_weight_bounds",
    "kp_margin",
    "kp_sufficient_beta",
    "truncation_depth",
    "truncated_log_xi",
    "POLYMER_SIZE_CAP",
]

POLYMER_SIZE_CAP = 20
RESTRICTED_TERM_BUDGET = 50_000_000

# exp(x) is exactly 0.0 below this, so pruning such cluster terms from an
# fsum is bit-identical to summing them.
_EXP_ZERO_LOG = -746.0

# Absolute slack of the comparison in check_weight_bounds.  It does not scale
# with beta, although log w = -beta * closure + log r cancels terms of that
# size.
_WEIGHT_BOUND_TOL = 1e-9


# ---------------------------------------------------------------------------
# model parameters, partitions and ground states
# ---------------------------------------------------------------------------


def check_q_beta(q: int, beta: float, *, zero_beta_ok: bool = False) -> None:
    """Refuse q below 2 and beta that is infinite, NaN or negative.

    beta = 0 is refused too unless ``zero_beta_ok``: the exact oracle sums
    it like any other beta, but the pipelines' thresholds need beta > 0.
    """
    if not isinstance(q, int) or q < 2:
        raise PreconditionError(f"q must be an integer >= 2, got {q!r}")
    if not (math.isfinite(beta) and (beta >= 0 if zero_beta_ok else beta > 0)):
        sign = "nonnegative" if zero_beta_ok else "positive"
        raise PreconditionError(f"beta must be finite and {sign}, got {beta}")


def check_alpha(alpha: float) -> None:
    """Refuse an expansion constant alpha that is not positive (or is NaN)."""
    if not alpha > 0:  # nan fails this test too
        raise PreconditionError(f"alpha must be positive, got {alpha}")


def normalize_parts(
    g: Graph, parts: Sequence[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Validate that ``parts`` partitions V(g); return sorted-tuple parts.

    Part order is preserved (ground states index into it); vertices within a
    part are sorted.
    """
    norm = []
    seen = 0
    for idx, part in enumerate(parts):
        vs = tuple(sorted(part))
        if not vs:
            raise PreconditionError(f"part {idx} is empty")
        mask = 0
        for v in vs:
            if not (0 <= v < g.n):
                raise PreconditionError(f"part {idx} contains invalid vertex {v}")
            mask |= 1 << v
        if len(vs) != mask.bit_count():
            raise PreconditionError(f"part {idx} repeats a vertex")
        if mask & seen:
            raise PreconditionError(f"part {idx} overlaps an earlier part")
        seen |= mask
        norm.append(vs)
    if seen != (1 << g.n) - 1:
        raise PreconditionError("parts do not cover every vertex")
    return tuple(norm)


def ground_colouring(
    g: Graph,
    parts: Sequence[Iterable[int]],
    psi: Sequence[int],
    q: int,
    beta: float,
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Validate a ground state; return (normalized parts, colour of each vertex).

    Vertex v gets psi[i] for the part i that holds it.  Refuses parts that do
    not partition V(g), a psi with one colour too many or too few, a bad q or
    beta and a colour outside range(q).
    """
    parts = normalize_parts(g, parts)
    psi = tuple(psi)
    if len(psi) != len(parts):
        raise PreconditionError(
            f"ground state has {len(psi)} colours for {len(parts)} parts"
        )
    check_q_beta(q, beta, zero_beta_ok=True)
    for c in psi:
        if not (0 <= c < q):
            raise PreconditionError(f"ground-state colour {c} outside range(0, {q})")
    colour_of = [0] * g.n
    for part, c in zip(parts, psi):
        for v in part:
            colour_of[v] = c
    return parts, colour_of


# ---------------------------------------------------------------------------
# polymers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polymer:
    """A connected small vertex set with cached geometry.

    ``internal`` and ``crossing`` list the closure edges (the edges with at
    least one endpoint inside) once each: an internal edge as a pair (i, j),
    i < j, of positions in ``vertices``, a crossing edge as (position in
    ``vertices``, outside vertex).  None of this depends on the ground state.
    """

    vertices: tuple[int, ...]
    mask: int
    neighbourhood_mask: int  # vertices at distance <= 1
    internal: tuple[tuple[int, int], ...]
    crossing: tuple[tuple[int, int], ...]

    @property
    def closure_size(self) -> int:
        """Number of edges with at least one endpoint inside."""
        return len(self.internal) + len(self.crossing)

    def __len__(self) -> int:
        return len(self.vertices)


def _closure_edges(g: Graph, vs: tuple[int, ...]):
    """(internal, crossing) closure edges of the sorted set vs, as in Polymer."""
    local = {v: i for i, v in enumerate(vs)}
    internal = []
    crossing = []
    for i, v in enumerate(vs):
        for w in g.adj[v]:
            j = local.get(w)
            if j is None:
                crossing.append((i, w))
            elif j > i:
                internal.append((i, j))
    return tuple(internal), tuple(crossing)


def enumerate_polymers(
    g: Graph,
    parts: Sequence[Sequence[int]],
    max_size: int,
    *,
    budget: int = POLYMER_COUNT_BUDGET,
) -> list[Polymer]:
    """All connected small vertex sets of size <= max_size.

    Each set appears exactly once; the list is sorted lexicographically by
    sorted vertex tuple.
    """
    if max_size > POLYMER_SIZE_CAP:
        raise BudgetError(
            f"polymer size {max_size} exceeds enumeration cap {POLYMER_SIZE_CAP}"
        )
    parts = normalize_parts(g, parts)
    if max_size <= 0:
        return []
    part_masks = [mask_of(g, part) for part in parts]
    part_sizes = [len(part) for part in parts]

    def small_ok(mask: int) -> bool:
        for pm, sz in zip(part_masks, part_sizes):
            if 2 * (mask & pm).bit_count() > sz:
                return False
        return True

    adj = g.adj_masks
    sets: list[tuple[int, ...]] = []
    for members in connected_sets(adj, [1] * g.n, max_size, small_ok):
        sets.append(members)
        if len(sets) > budget:
            raise BudgetError(
                f"more than {budget} polymers; the instance is too dense for "
                "this truncation depth"
            )

    polymers = []
    for members in sets:
        vs = tuple(sorted(members))
        mask = nbhd = mask_of(g, vs)
        for v in vs:
            nbhd |= adj[v]
        internal, crossing = _closure_edges(g, vs)
        polymers.append(
            Polymer(
                vertices=vs,
                mask=mask,
                neighbourhood_mask=nbhd,
                internal=internal,
                crossing=crossing,
            )
        )
    polymers.sort(key=lambda p: p.vertices)
    return polymers


def boundary_edge_set(g: Graph, u: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The set of edges with exactly one endpoint in ``u``."""
    vs = _vertex_tuple(g, u)
    inside = set(vs)
    out = set()
    for a in vs:
        for b in g.adj[a]:
            if b not in inside:
                out.add((a, b) if a < b else (b, a))
    return frozenset(out)


# ---------------------------------------------------------------------------
# restricted colouring sums and weights
# ---------------------------------------------------------------------------


def _restricted_log_sum(
    vs: tuple[int, ...],
    internal: Sequence[tuple[int, int]],
    crossing: Sequence[tuple[int, int]],
    colour_of: Sequence[int],
    q: int,
    beta: float,
) -> float:
    """log of the restricted colouring sum over vs, from its closure edges."""
    if len(vs) > POLYMER_SIZE_CAP:
        raise BudgetError(
            f"restricted sum over {len(vs)} vertices exceeds cap {POLYMER_SIZE_CAP}"
        )
    n_terms = (q - 1) ** len(vs)
    if n_terms > RESTRICTED_TERM_BUDGET:
        raise BudgetError(
            f"restricted sum has {n_terms} terms, over budget {RESTRICTED_TERM_BUDGET}"
        )
    ground = [colour_of[v] for v in vs]
    outside = [(i, colour_of[w]) for i, w in crossing]  # (position, ground colour)
    # edges touching vs that are bichromatic under the ground state
    base = sum(1 for i, j in internal if ground[i] != ground[j])
    base += sum(1 for i, c in outside if ground[i] != c)
    allowed = [tuple(c for c in range(q) if c != gc) for gc in ground]

    max_x = base + len(internal) + len(outside)
    counts = [0] * (max_x + 1)
    lam = [0] * len(vs)
    for digits in itertools.product(range(q - 1), repeat=len(vs)):
        for i, d in enumerate(digits):
            lam[i] = allowed[i][d]
        x = base
        for ia, ib in internal:
            if lam[ia] == lam[ib]:
                x += 1
        for ia, c in outside:
            if lam[ia] == c:
                x += 1
        counts[x] += 1
    return log_count_sum(counts, beta)


def polymer_log_weights(
    g: Graph,
    parts: Sequence[Sequence[int]],
    psi: Sequence[int],
    polymers: Sequence[Polymer],
    q: int,
    beta: float,
) -> list[float]:
    """log w = -beta * |closure edges| + restricted log sum, for each polymer."""
    _, colour_of = ground_colouring(g, parts, psi, q, beta)
    return [
        -beta * p.closure_size
        + _restricted_log_sum(p.vertices, p.internal, p.crossing, colour_of, q, beta)
        for p in polymers
    ]


def check_weight_bounds(
    polymers: Sequence[Polymer],
    log_weights: Sequence[float],
    q: int,
    beta: float,
    alpha: float,
) -> None:
    """Require log w <= |gamma| * (log(q-1) - beta*alpha) for every polymer.

    The convergence guarantee of the truncated expansion rests on this
    per-polymer bound; refusing loudly beats returning an unguaranteed
    number.
    """
    rate = math.log(q - 1) - beta * alpha
    for poly, lw in zip(polymers, log_weights):
        if lw > len(poly.vertices) * rate + _WEIGHT_BOUND_TOL:
            raise PreconditionError(
                "polymer weight bound violated: set "
                f"{poly.vertices} has log-weight {lw:.6g} above "
                f"{len(poly.vertices) * rate:.6g}; the truncation guarantee "
                "does not apply"
            )


# ---------------------------------------------------------------------------
# summability (convergence) condition
# ---------------------------------------------------------------------------


def kp_margin(q: int, max_degree: int, beta: float, alpha: float) -> float:
    """Slack of the convergence condition; nonpositive means it holds.

    The cluster tail decays at rate rho = 1 - margin per vertex (see
    :func:`truncation_depth`), so a margin of 0 gives rate 1.
    """
    check_q_beta(q, beta, zero_beta_ok=True)
    if max_degree < 1:
        raise PreconditionError(f"max degree must be positive, got {max_degree}")
    check_alpha(alpha)
    a = 3.0 - beta * alpha + math.log(q - 1) + math.log(max_degree)
    margin = a + math.log(max_degree + 2)
    if math.isnan(margin):  # beta = 0 with alpha = inf
        raise PreconditionError(
            f"the convergence margin is undefined at beta={beta} with alpha={alpha}"
        )
    return margin


def kp_sufficient_beta(q: int, max_degree: int, alpha: float) -> float:
    """A beta at or above this value always satisfies the condition."""
    check_alpha(alpha)
    return (4.0 + 2.0 * math.log(q * max_degree)) / alpha


# ---------------------------------------------------------------------------
# cluster expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A multiset of polymers whose incompatibility graph is connected."""

    support: tuple[int, ...]  # polymer indices in search order, root (smallest) first
    multiplicities: tuple[int, ...]
    ursell_num: int
    ursell_den: int


def _signed_connected_sum(mults: tuple[int, ...], pair_adj: int) -> int:
    """Sum of (-1)^|A| over spanning connected edge subsets.

    Positions are the multiset elements laid out group by group; two
    positions are adjacent when they are copies of the same polymer or their
    polymers are incompatible.  ``pair_adj`` packs the upper-triangle
    adjacency between the len(mults) groups.
    """
    t = sum(mults)
    k = len(mults)
    if pair_adj == (1 << (k * (k - 1) // 2)) - 1:
        # all positions mutually adjacent (copies of one polymer always are):
        # the signed sum telescopes to (-1)^(t-1) * (t-1)!
        return (-1) ** (t - 1) * math.factorial(t - 1)
    group_of = []
    for gi, m in enumerate(mults):
        group_of.extend([gi] * m)

    def groups_adjacent(a: int, b: int) -> bool:
        if a == b:
            return True
        if a > b:
            a, b = b, a
        idx = a * k - a * (a + 1) // 2 + (b - a - 1)
        return bool(pair_adj >> idx & 1)

    adj = [0] * t
    for p in range(t):
        for r in range(t):
            if p != r and groups_adjacent(group_of[p], group_of[r]):
                adj[p] |= 1 << r

    full = (1 << t) - 1
    edge_free = [False] * (full + 1)
    edge_free[0] = True
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        edge_free[mask] = edge_free[rest] and not (adj[low.bit_length() - 1] & rest)

    memo: dict[int, int] = {}

    def c(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            memo[mask] = 1
            return 1
        total = 1 if edge_free[mask] else 0
        v0 = mask & -mask
        rest = mask ^ v0
        # proper subsets containing v0 whose complement within mask is
        # edge-free
        sub = rest
        while True:
            s = sub | v0
            if s != mask and edge_free[mask ^ s]:
                total -= c(s)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        memo[mask] = total
        return total

    return c(full)


class ClusterExpansion:
    """One truncation of a polymer model: its polymers, depth and clusters.

    ``clusters`` holds every cluster of total size at most
    ``max_total_size`` over ``polymers`` whose Ursell coefficient is
    nonzero, in support search order.  The structure depends only on
    polymer geometry, so one instance can be evaluated under many ground
    states by supplying fresh log-weights.  ``budget`` caps the clusters
    kept, the number :attr:`cluster_count` reports.
    """

    def __init__(
        self,
        polymers: Sequence[Polymer],
        max_total_size: int,
        *,
        budget: int = CLUSTER_BUDGET,
    ):
        self.polymers = tuple(polymers)
        self.max_total_size = max_total_size
        t = len(self.polymers)
        sizes = [len(p.vertices) for p in self.polymers]
        inc = [0] * t
        for i, pi in enumerate(self.polymers):
            for j in range(i + 1, t):
                pj = self.polymers[j]
                if pi.neighbourhood_mask & pj.mask:
                    inc[i] |= 1 << j
                    inc[j] |= 1 << i

        # (multiplicities, pair_adj) -> (Ursell numerator, denominator)
        ursell_cache: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
        clusters: list[Cluster] = []
        max_log_coeff = 0.0

        # supports are the connected sets of the incompatibility graph
        for support in connected_sets(inc, sizes, max_total_size):
            k = len(support)
            pair_adj = 0
            bit = 0
            for a in range(k):
                for b in range(a + 1, k):
                    if inc[support[a]] >> support[b] & 1:
                        pair_adj |= 1 << bit
                    bit += 1
            base = sum(sizes[i] for i in support)
            mults = [1] * k

            def emit():
                nonlocal max_log_coeff
                key = (tuple(mults), pair_adj)
                coeff = ursell_cache.get(key)
                if coeff is None:
                    num = _signed_connected_sum(*key)
                    den = 1
                    for m in mults:
                        den *= math.factorial(m)
                    coeff = ursell_cache[key] = (num, den)
                    if num:
                        mag = math.log(abs(num)) - math.log(den)
                        max_log_coeff = max(max_log_coeff, mag)
                if coeff[0] == 0:
                    return
                if len(clusters) == budget:
                    raise BudgetError(
                        f"cluster enumeration exceeded budget {budget}; "
                        "request a looser accuracy or a smaller instance"
                    )
                clusters.append(Cluster(support, key[0], *coeff))

            # enumerate multiplicity vectors >= 1 with total size bounded
            def mult_rec(pos: int):
                nonlocal base
                if pos == k:
                    emit()
                    return
                mult_rec(pos + 1)
                added = 0
                while base + sizes[support[pos]] <= max_total_size:
                    base += sizes[support[pos]]
                    added += 1
                    mults[pos] += 1
                    mult_rec(pos + 1)
                base -= sizes[support[pos]] * added
                mults[pos] = 1

            mult_rec(0)

        self.clusters = tuple(clusters)
        self._prune_log = _EXP_ZERO_LOG - max_log_coeff

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def log_xi(self, log_weights: Sequence[float]) -> float:
        """Evaluate the truncated expansion under the given log-weights."""
        if len(log_weights) != len(self.polymers):
            raise PreconditionError(
                f"expected {len(self.polymers)} log-weights, got {len(log_weights)}"
            )
        terms = []
        prune = self._prune_log
        for cl in self.clusters:
            s = 0.0
            for idx, mult in zip(cl.support, cl.multiplicities):
                s += mult * log_weights[idx]
            if s < prune:
                # the term would round to exactly 0.0; skipping it leaves
                # the fsum bit-identical
                continue
            terms.append((cl.ursell_num / cl.ursell_den) * math.exp(s))
        # fsum is correctly rounded, so cluster order cannot change the result
        return math.fsum(terms)


# ---------------------------------------------------------------------------
# truncated polymer partition function
# ---------------------------------------------------------------------------


def truncation_depth(
    n: int, xi: float, q: int, max_degree: int, beta: float, alpha: float
) -> int:
    """Cluster depth at which the truncation tail drops below xi/2.

    Returns m = max(1, ceil(log(2n/xi) / rho)) with rho = 1 -
    kp_margin(q, max_degree, beta, alpha).  Refuses a positive margin
    (rho < 1), under which the bound below is not proved, naming the beta
    that would pass.

    Proof (Kotecky-Preiss, Comm. Math. Phys. 103, 1986, with a(g) = |g| and
    d(g) = rho*|g|; the truncation step as in Helmuth-Perkins-Regts,
    arXiv 1806.11548).  Write D = max_degree and tau = beta*alpha -
    log(q-1), so that |w(g)| <= e^(-tau*|g|).  A polymer g' is incompatible
    with g when it meets N[g], and |N[g]| <= (D+1)|g|; at most (eD)^(k-1)
    connected k-sets contain a given vertex.  Hence

        sum over g' ~ g of |w(g')| e^((1+rho)|g'|)
            <= (D+1)|g| sum_{k>=1} (eD)^(k-1) e^(-(tau-1-rho)k)
            <= |g| / (eD) <= |g|

    whenever rho <= tau - 2 - log D - log(D+2), which is exactly
    rho <= 1 - margin: then e^(-(tau-2-rho)) <= 1/(D(D+2)), the ratio of
    the geometric series is at most 1/(D+2), and the factors (D+1) and
    (D+2)/(D+1) cancel.  The same bound holds for a test set {v} that is
    not itself a polymer (|N[v]| <= D+1), so KP gives, for each vertex v,
    sum over clusters C touching N[v] of |phi(C) w^C| e^(rho*||C||) <= 1.
    Every cluster touches N[v] for some v in V, so the clusters of total
    size > m, i.e. ||C|| >= m+1, sum to at most n*e^(-rho*(m+1)).  The
    depth formula needs only n*e^(-rho*m) <= xi/2; the spare factor
    e^(-rho) <= 1/e absorbs the float rounding of rho and of the ceiling.

    The argument needs the weight bound for polymers of every size.  The
    expansion lemma gives it from the certified alpha only where no edge
    joins two parts of different ground-state colours, as with one part
    (mode expander): a small polymer g then has at least alpha*|g|
    boundary edges inside its parts, which flipping it makes bichromatic,
    and it gains no monochromatic edge.  With several parts coloured
    differently, g may gain its edges into other parts, which alpha does
    not bound, so the bound is not proved at every size there (see the open
    item in ROADMAP.md on certifying the weight bound per ground state).
    The run-time :func:`check_weight_bounds` guards only the enumerated
    polymers (those of size <= m).
    """
    margin = kp_margin(q, max_degree, beta, alpha)
    if margin > 0:
        raise PreconditionError(
            "summability condition fails: "
            f"beta={beta:.6g} with alpha={alpha:.6g} needs beta >= "
            f"{kp_sufficient_beta(q, max_degree, alpha):.6g}"
        )
    if not xi > 0:
        raise PreconditionError(f"xi must be positive, got {xi}")
    if math.isinf(xi):
        raise PreconditionError(f"xi must be finite, got {xi}")
    return max(1, math.ceil(math.log(2 * n / xi) / (1.0 - margin)))


@dataclass(frozen=True)
class TruncatedXi:
    log_xi: float


def truncated_log_xi(
    g: Graph,
    parts: Sequence[Sequence[int]],
    psi: Sequence[int],
    q: int,
    beta: float,
    xi: float,
    alpha: float,
    *,
    expansion: ClusterExpansion | None = None,
) -> TruncatedXi:
    """Relative xi-approximation to the polymer partition function.

    Evaluates ``expansion`` under the ground state psi: its polymers are the
    model and its ``max_total_size`` is the depth.  Without one,
    the expansion is built at :func:`truncation_depth`; a supplied
    expansion shallower than that depth is refused.  Refuses too (rather
    than answering) when the summability condition or the per-polymer
    weight bound cannot be verified, since the truncation error guarantee
    would then be unsupported.
    """
    depth = truncation_depth(g.n, xi, q, g.max_degree, beta, alpha)
    if expansion is None:
        expansion = ClusterExpansion(enumerate_polymers(g, parts, depth), depth)
    elif expansion.max_total_size < depth:
        raise PreconditionError(
            f"the expansion has depth {expansion.max_total_size}; xi={xi:.6g} "
            f"on {g.n} vertices needs depth {depth}"
        )
    model = expansion.polymers
    lws = polymer_log_weights(g, parts, psi, model, q, beta)
    check_weight_bounds(model, lws, q, beta, alpha)
    return TruncatedXi(log_xi=expansion.log_xi(lws))
