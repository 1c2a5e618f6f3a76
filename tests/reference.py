"""Reference implementations the tests check the package against.

No pipeline or CLI command runs these.  They compute the identities of the
algorithm's proof by plain enumeration: the restricted sums Z^psi and Z*,
the polymer partition function Xi by compatible families, the
sparse-deviation sum, and the expansion profile and k-way expansion that
lambda_k/2 <= rho(k) is checked against.  With them are the definitional
set predicates and the graph builders several test files share.  The
restricted sums run in the blocks of :func:`pottspart.oracle._mono_blocks`
sized by this module's ``_BLOCK``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from pottspart.budgets import GROUND_STATE_CAP, STATE_BUDGET
from pottspart.errors import BudgetError, PreconditionError, VerificationError
from pottspart.graphs import (
    SUBSET_ENUM_MAX_N,
    Graph,
    VertexSet,
    _vertex_tuple,
    components,
    induced_subgraph,
    mask_of,
    subset_scan,
)
from pottspart.oracle import _BLOCK, _block_min, _mono_blocks
from pottspart.polymers import (
    POLYMER_SIZE_CAP,
    Polymer,
    _closure_edges,
    _restricted_log_sum,
    boundary_edge_set,
    check_q_beta,
    enumerate_polymers,
    ground_colouring,
    kp_margin,
    normalize_parts,
    polymer_log_weights,
)
from pottspart.util import as_fraction, log_count_sum, log_sum_exp

XI_POLYMER_BUDGET = 10**3
XI_FAMILY_BUDGET = 10**7
KWAY_MAX_N = 14


# ---------------------------------------------------------------------------
# graph builders and counts shared by the test files
# ---------------------------------------------------------------------------


def random_connected(rng: random.Random, n: int) -> Graph:
    """A connected graph on n vertices, each pair an edge with chance 1/2."""
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        try:
            g = Graph.from_edges(edges, n=n)
        except PreconditionError:
            continue
        if len(components(g)) == 1:
            return g


def monochromatic(g: Graph, colours) -> int:
    """The number of edges whose endpoints get the same colour."""
    return sum(1 for a, b in g.edges if colours[a] == colours[b])


def clique_edges(vs):
    return list(itertools.combinations(vs, 2))


def bridged_cliques(s: int) -> Graph:
    """Two K_s's joined by the single edge (0, s)."""
    return Graph.from_edges(
        clique_edges(range(s)) + clique_edges(range(s, 2 * s)) + [(0, s)]
    )


def triangle_plus_k8() -> Graph:
    """A triangle joined to a K_8 by the edge (0, 3)."""
    return Graph.from_edges(
        clique_edges(range(3)) + clique_edges(range(3, 11)) + [(0, 3)]
    )


def two_triangles_plus_k6() -> Graph:
    """Two triangles, each joined to a K_6 by one edge."""
    return Graph.from_edges(
        clique_edges(range(3))
        + clique_edges(range(3, 6))
        + clique_edges(range(6, 12))
        + [(0, 6), (3, 7)]
    )


def triangle_plus_pendant() -> Graph:
    """A triangle with the pendant vertex 3 on vertex 0."""
    return Graph.from_edges(clique_edges(range(3)) + [(0, 3)])


# ---------------------------------------------------------------------------
# graphs, sets and summation
# ---------------------------------------------------------------------------


def total_volume(g: Graph) -> int:
    return 2 * g.m


def closure_size(g: Graph, s: VertexSet) -> int:
    """Number of edges with at least one endpoint in s."""
    s_mask = mask_of(g, s)
    inside2 = 0
    outward = 0
    mk = s_mask
    while mk:
        low = mk & -mk
        v = low.bit_length() - 1
        mk ^= low
        inside2 += (g.adj_masks[v] & s_mask).bit_count()
        outward += (g.adj_masks[v] & ~s_mask).bit_count()
    return inside2 // 2 + outward


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


class OnlineLogSumExp:
    """Streaming log-sum-exp accumulator with O(1) memory.

    Deterministic for a fixed insertion order.
    """

    def __init__(self) -> None:
        self._max = float("-inf")
        self._sum = 0.0  # sum of exp(v - self._max) over added values

    def add(self, value: float) -> None:
        if value <= self._max:
            self._sum += math.exp(value - self._max)
        else:
            if math.isinf(self._max):
                self._sum = 1.0
            else:
                self._sum = self._sum * math.exp(self._max - value) + 1.0
            self._max = value

    def result(self) -> float:
        if math.isinf(self._max):
            return float("-inf")
        return self._max + math.log(self._sum)


# ---------------------------------------------------------------------------
# polymers by definition
# ---------------------------------------------------------------------------


def is_small(u: Iterable[int], parts: Sequence[Sequence[int]]) -> bool:
    """True iff ``u`` occupies at most half of every part."""
    uset = set(u)
    for part in parts:
        inside = sum(1 for v in part if v in uset)
        if 2 * inside > len(part):
            return False
    return True


def is_sparse(g: Graph, u: Iterable[int], parts: Sequence[Sequence[int]]) -> bool:
    """True iff every connected component of ``g[u]`` is small."""
    uset = set(_vertex_tuple(g, u))
    remaining = set(uset)
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if y in uset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if not is_small(comp, parts):
            return False
        remaining -= comp
    return True


def compatible(g: Graph, first, second) -> bool:
    """True iff the two polymers are vertex-disjoint with disjoint boundaries."""
    a = first.vertices if isinstance(first, Polymer) else _vertex_tuple(g, first)
    b = second.vertices if isinstance(second, Polymer) else _vertex_tuple(g, second)
    if set(a) & set(b):
        return False
    return not (boundary_edge_set(g, a) & boundary_edge_set(g, b))


def incompatibility(g: Graph, polymers: Sequence[Polymer]) -> list[int]:
    """Bit j of entry i is set iff polymers i and j are not :func:`compatible`."""
    boundary = [boundary_edge_set(g, p.vertices) for p in polymers]
    vsets = [set(p.vertices) for p in polymers]
    incompat = [0] * len(polymers)
    for i, j in itertools.combinations(range(len(polymers)), 2):
        if (vsets[i] & vsets[j]) or (boundary[i] & boundary[j]):
            incompat[i] |= 1 << j
            incompat[j] |= 1 << i
    return incompat


def compatible_families(incompat: Sequence[int]):
    """Yield every family of pairwise compatible polymers once.

    A family is a list of increasing polymer indices; bit j of incompat[i]
    marks polymers i and j incompatible.  The families come depth first,
    each before its extensions, the empty family first.  One list is
    yielded throughout and changes between steps.
    """
    chosen: list[int] = []

    def rec(start: int, banned: int):
        yield chosen
        for j in range(start, len(incompat)):
            if not banned >> j & 1:
                chosen.append(j)
                yield from rec(j + 1, banned | incompat[j])
                chosen.pop()

    return rec(0, 0)


def restricted_log_partition(
    g: Graph,
    parts: Sequence[Sequence[int]],
    psi: Sequence[int],
    u: Iterable[int],
    q: int,
    beta: float,
) -> float:
    """log of the boundary-conditioned colouring sum over ``u``.

    Sums, over all colourings of ``u`` that disagree with the ground state
    pointwise, the weight exp(beta * X) where X counts the edges touching
    ``u`` that are monochromatic under (colouring inside, ground state
    outside), plus the edges touching ``u`` whose endpoints already receive
    distinct ground-state colours.
    """
    _, colour_of = ground_colouring(g, parts, psi, q, beta)
    vs = _vertex_tuple(g, u)
    if not vs:
        return 0.0
    return _restricted_log_sum(vs, *_closure_edges(g, vs), colour_of, q, beta)


def kp_condition_holds(q: int, max_degree: int, beta: float, alpha: float) -> bool:
    """True iff the cluster-expansion summability condition is verified."""
    return kp_margin(q, max_degree, beta, alpha) <= 0.0


# ---------------------------------------------------------------------------
# restricted colouring sums
# ---------------------------------------------------------------------------


def _low_block(n: int, q: int) -> np.ndarray:
    """Colours of the low vertices in every state of the low block.

    The low vertices are 0..L-1 for the largest L <= n with q**L <= _BLOCK.
    Row v of the (L, q**L) result is vertex v's colour in each low state:
    state s gives vertex v the base-q digit v of s (vertex 0 least
    significant).
    """
    low = 0
    while low < n and q ** (low + 1) <= _BLOCK:
        low += 1
    states = np.arange(q**low, dtype=np.int64)
    # q <= _BLOCK whenever there is a low vertex, so colours fit 16 bits
    cols = np.empty((low, q**low), dtype=np.uint8 if q <= 256 else np.uint16)
    for v in range(low):
        cols[v] = states // q**v % q
    return cols


def _majority_blocks(g: Graph, parts: Sequence[Sequence[int]], q: int):
    """Yield (ok, ground, mono) for each step of the block enumeration.

    Over the low states of one colouring of the high vertices: ``ok`` marks
    the states in which every part has a colour held by a strict majority
    of its vertices, ``ground`` is sum_i c_i * q**i over those colours c_i
    (part i), meaningful where ``ok``, and ``mono`` counts the
    monochromatic edges.  Each state is close to at most one ground state,
    the one ``ground`` names.  Refuses more than STATE_BUDGET colourings
    before the first step.
    """
    if q**g.n > STATE_BUDGET:
        raise BudgetError(
            f"enumeration needs {q**g.n} states, over budget {STATE_BUDGET}"
        )
    cols = _low_block(g.n, q)
    low, size = cols.shape
    states = np.arange(size)
    # per part: its low vertices' colour counts (row c counts colour c) and
    # its high vertices' offsets
    tallies = []
    for part in parts:
        counts = np.zeros((q, size), dtype=np.int32)
        for v in part:
            if v < low:
                counts[cols[v], states] += 1
        tallies.append((counts, [v - low for v in part if v >= low], len(part)))
    for high, mono in _mono_blocks(g.n, g.edges, q, cols):
        ok = np.ones(size, dtype=bool)
        ground = np.zeros(size, dtype=np.int64)
        scale = 1
        for counts, tops, part_size in tallies:
            extra = np.zeros((q, 1), dtype=np.int32)
            for j in tops:
                extra[high[j]] += 1
            total = counts + extra
            ok &= 2 * total.max(axis=0) > part_size
            ground += total.argmax(axis=0) * scale
            scale *= q
        yield ok, ground, mono


def exact_log_z_psi(
    g: Graph,
    parts: Sequence[Iterable[int]],
    psi: Sequence[int],
    q: int,
    beta: float,
) -> float:
    """log of the colouring sum restricted to states close to one ground state.

    Close means: in every part, a strict majority of vertices receives the
    ground state's colour for that part.
    """
    parts, colour_of = ground_colouring(g, parts, psi, q, beta)
    target = sum(colour_of[part[0]] * q**i for i, part in enumerate(parts))
    hist = np.zeros(g.m + 1, dtype=np.int64)
    for ok, ground, mono in _majority_blocks(g, parts, q):
        hist += np.bincount(mono[ok & (ground == target)], minlength=g.m + 1)
    return log_count_sum(hist.tolist(), beta)


def exact_log_z_star(
    g: Graph,
    parts: Sequence[Iterable[int]],
    q: int,
    beta: float,
) -> float:
    """log of the colouring sum over states close to any ground state.

    Computed in one pass; each state is close to at most one ground state,
    and the per-ground-state split is re-summed as an internal consistency
    check.
    """
    check_q_beta(q, beta, zero_beta_ok=True)
    parts = normalize_parts(g, parts)
    ell = len(parts)
    if q**ell > GROUND_STATE_CAP:
        raise BudgetError(f"{q**ell} ground states exceed budget {GROUND_STATE_CAP}")
    width = g.m + 1
    hist = np.zeros(q**ell * width, dtype=np.int64)
    for ok, ground, mono in _majority_blocks(g, parts, q):
        hist += np.bincount(ground[ok] * width + mono[ok], minlength=len(hist))
    # an empty slice gives -inf, which adds exactly 0.0 to the re-sum
    per_psi = [
        log_count_sum(hist[w * width : (w + 1) * width].tolist(), beta)
        for w in range(q**ell)
    ]
    total = log_sum_exp(
        [math.log(int(c)) + beta * (j % width) for j, c in enumerate(hist) if c]
    )
    recombined = log_sum_exp(per_psi)
    if abs(recombined - total) > 1e-9:
        raise VerificationError(
            "per-ground-state split does not re-sum to the total: "
            f"{recombined} vs {total}"
        )
    return total


def exact_log_xi(
    g: Graph,
    parts: Sequence[Iterable[int]],
    psi: Sequence[int],
    q: int,
    beta: float,
) -> float:
    """log of the polymer partition function by full family enumeration.

    Enumerates every family of pairwise-compatible polymers (compatibility
    decided definitionally from boundary edge sets) and sums the weight
    products.
    """
    parts, _ = ground_colouring(g, parts, psi, q, beta)
    if g.n // 2 > POLYMER_SIZE_CAP:
        raise BudgetError(
            f"polymers may have up to {g.n // 2} vertices, over cap {POLYMER_SIZE_CAP}"
        )
    polymers = enumerate_polymers(g, parts, max_size=max(1, g.n // 2))
    t = len(polymers)
    if t > XI_POLYMER_BUDGET:
        raise BudgetError(f"{t} polymers exceed budget {XI_POLYMER_BUDGET}")
    lws = polymer_log_weights(g, parts, psi, polymers, q, beta)
    acc = OnlineLogSumExp()
    families = compatible_families(incompatibility(g, polymers))
    for count, family in enumerate(families, start=1):
        if count > XI_FAMILY_BUDGET:
            raise BudgetError(
                f"compatible-family enumeration exceeded budget {XI_FAMILY_BUDGET}"
            )
        acc.add(sum((lws[j] for j in family), 0.0))
    return acc.result()


def sparse_deviation_log_sum(
    g: Graph,
    parts: Sequence[Iterable[int]],
    psi: Sequence[int],
    q: int,
    beta: float,
    *,
    budget: int = 2 * 10**6,
) -> float:
    """log of the colouring sum over states whose disagreement set is sparse.

    Pure-Python state loop, fully independent of the polymer machinery: for
    each colouring, the set of vertices disagreeing with the ground state is
    checked for sparseness definitionally.
    """
    parts, ground = ground_colouring(g, parts, psi, q, beta)
    n = g.n
    if q**n > budget:
        raise BudgetError(f"enumeration needs {q**n} states, over budget {budget}")
    acc = OnlineLogSumExp()
    state = [0] * n
    for _ in range(q**n):
        deviating = [v for v in range(n) if state[v] != ground[v]]
        if is_sparse(g, deviating, parts):
            acc.add(beta * monochromatic(g, state))
        for v in range(n):
            state[v] += 1
            if state[v] < q:
                break
            state[v] = 0
    return acc.result()


# ---------------------------------------------------------------------------
# expansion by subset enumeration
# ---------------------------------------------------------------------------


def expansion_profile(g: Graph, volume_bound) -> Fraction:
    """Minimum conductance over nonempty sets of volume at most the bound."""
    if g.n > SUBSET_ENUM_MAX_N:
        raise BudgetError(
            f"subset enumeration limited to n <= {SUBSET_ENUM_MAX_N}, got {g.n}"
        )
    bound = as_fraction(volume_bound, "volume_bound")
    # an integer volume is at most the bound exactly when it is at most its
    # floor; clipping to [-1, 2m] keeps that in int64
    cap = max(-1, min(bound.numerator // bound.denominator, 2 * g.m))
    best: tuple[int, int] | None = None
    for _, _, bnd, vol in subset_scan(g):
        found = _block_min(bnd, vol, (vol > 0) & (vol <= cap))
        if found is not None and (best is None or found[0] * best[1] < best[0] * found[1]):
            best = found[:2]
    if best is None:
        raise PreconditionError(
            f"no nonempty set has volume at most {bound}; bound below min degree"
        )
    return Fraction(best[0], best[1])


def k_way_expansion(g: Graph, k: int) -> Fraction:
    """Minimum over k disjoint nonempty sets of the maximum conductance."""
    if g.n > KWAY_MAX_N:
        raise BudgetError(f"k-way enumeration limited to n <= {KWAY_MAX_N}, got {g.n}")
    if not (1 <= k <= g.n):
        raise PreconditionError(f"k must be between 1 and {g.n}, got {k}")
    size = 1 << g.n
    # the scan's masks run 0, 1, ..., size - 1 over its blocks
    blocks = list(subset_scan(g))
    bnd_arr = np.concatenate([block[2] for block in blocks]).tolist()
    vol_arr = np.concatenate([block[3] for block in blocks]).tolist()

    values = sorted({Fraction(b, v) for b, v in zip(bnd_arr[1:], vol_arr[1:])})

    def feasible(threshold: Fraction) -> bool:
        num, den = threshold.numerator, threshold.denominator
        qual = bytearray(size)
        for m in range(1, size):
            if bnd_arr[m] * den <= num * vol_arr[m]:
                qual[m] = 1
        best = bytearray(size)
        for m in range(1, size):
            vbit = m & -m
            res = best[m ^ vbit]
            sub = m
            while sub:
                if sub & vbit and qual[sub]:
                    cand = 1 + best[m ^ sub]
                    if cand > res:
                        res = cand
                sub = (sub - 1) & m
            best[m] = min(res, 255)
        return best[size - 1] >= k

    lo, hi = 0, len(values) - 1
    if not feasible(values[hi]):
        raise VerificationError("k disjoint nonempty sets must always exist for k <= n")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


# ---------------------------------------------------------------------------
# decomposition identities, checked exhaustively
# ---------------------------------------------------------------------------


def check_deviation_identity(g, parts, q, beta=0.9):
    """Check every restricted sum against the colourings it sums.

    For each ground state psi and nonempty set U: a colouring omega that
    deviates from psi exactly on U has m_G(omega) = m_G(psi) - |edges
    touching U| + its restricted count.
    """
    owner = {}
    for i, part in enumerate(parts):
        for v in part:
            owner[v] = i
    for psi in itertools.product(range(q), repeat=len(parts)):
        ground = [psi[owner[v]] for v in range(g.n)]
        m_psi = monochromatic(g, ground)
        for bits in range(1, 1 << g.n):
            u = tuple(v for v in range(g.n) if bits >> v & 1)
            touching = len(boundary_edge_set(g, u)) + sum(
                1 for a, b in g.edges if a in u and b in u
            )
            terms = []
            choices = [[c for c in range(q) if c != ground[v]] for v in u]
            for lam in itertools.product(*choices):
                omega = list(ground)
                for v, c in zip(u, lam):
                    omega[v] = c
                terms.append(beta * (monochromatic(g, omega) - m_psi + touching))
            got = restricted_log_partition(g, parts, psi, u, q, beta)
            assert math.isclose(got, log_sum_exp(terms), rel_tol=1e-10, abs_tol=1e-10)


def check_factorization(g, parts, psi, q, beta=0.9) -> int:
    """Check that a sparse set's restricted sum factorizes over its components.

    Less beta per boundary edge, the sum over the set is the sum of those
    over its components.  Returns how many sets of two components or more
    were checked.
    """
    checked = 0
    for bits in range(1, 1 << g.n):
        u = tuple(v for v in range(g.n) if bits >> v & 1)
        if not is_sparse(g, u, parts):
            continue
        sub, vs = induced_subgraph(g, u, allow_isolated=True)
        comps = [tuple(vs[i] for i in comp) for comp in components(sub)]
        if len(comps) < 2:
            continue
        whole = restricted_log_partition(g, parts, psi, u, q, beta) - beta * len(
            boundary_edge_set(g, u)
        )
        split = sum(
            restricted_log_partition(g, parts, psi, c, q, beta)
            - beta * len(boundary_edge_set(g, c))
            for c in comps
        )
        assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-9)
        checked += 1
    return checked


def check_bijection(g, parts):
    """Check that sparse sets biject with compatible polymer families.

    Forward, each sparse set's components are a compatible family and no
    two sets give the same one; backward, every compatible family arises.
    """
    cap = sum(len(p) // 2 for p in parts)
    polymers = enumerate_polymers(g, parts, max_size=max(cap, 1))
    by_vertices = {p.vertices: i for i, p in enumerate(polymers)}
    families_from_sets = set()
    for bits in range(1 << g.n):
        u = tuple(v for v in range(g.n) if bits >> v & 1)
        if not is_sparse(g, u, parts):
            continue
        if u:
            sub, vs = induced_subgraph(g, u, allow_isolated=True)
            fam = frozenset(
                by_vertices[tuple(sorted(vs[i] for i in comp))]
                for comp in components(sub)
            )
        else:
            fam = frozenset()  # the empty set maps to the empty family
        for a, b in itertools.combinations(fam, 2):
            assert compatible(g, polymers[a], polymers[b])
        assert fam not in families_from_sets
        families_from_sets.add(fam)
    families = compatible_families(incompatibility(g, polymers))
    assert families_from_sets == {frozenset(f) for f in families}
