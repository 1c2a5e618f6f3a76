"""Exact ground truth.

Everything here is exact and computed under hard budgets; nothing is
approximated.  These functions are the reference values the rest of the
package is tested against.

:func:`exact_log_z` builds the exact histogram of monochromatic edge counts
by a sum-product contraction along :func:`graphs.elimination_order`
(:func:`_mono_histogram`): a dense integer table with one axis per
frontier vertex, whose size depends on the frontier, not on n, so it stays
small on graphs of small pathwidth such as cycles and random 3-regular
graphs.  :func:`graphs.is_alpha_expander` accepts by the min-plus twin of
the same contraction.  The state budget still counts all q**n colourings,
so what it refuses does not depend on the graph's shape.

What the table cannot hold, and the restricted sums behind
:func:`exact_log_z_psi` and :func:`exact_log_z_star`, is enumerated in
blocks.  The colourings of the first L vertices, q**L <= 2**15 of them, are
laid out once as numpy vectors, and a Python loop runs over the q**(n-L)
colourings of the others.  Each step adds a scalar for the edges among the
high vertices and, for each edge between the two sides, one comparison of a
precomputed low column with a high colour, so q**n states cost q**(n-L)
vector steps of q**L entries.  The subset scans behind the conductance
functions, and behind an expansion check that fails or whose table would
be too large, have the same shape: :func:`graphs.subset_scan` yields blocks
of 2**15 low subsets, each stepped from the one before by about two vector
adds of int16 gains (for n <= 20).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .budgets import GROUND_STATE_CAP, STATE_BUDGET
from .errors import BudgetError, PreconditionError, VerificationError
from .graphs import (
    SUBSET_ENUM_MAX_N,
    Graph,
    components,
    elimination_order,
    induced_subgraph,
    subset_scan,
    vertices_of_mask,
)
from .polymers import (
    POLYMER_SIZE_CAP,
    boundary_edge_set,
    check_q_beta,
    enumerate_polymers,
    ground_colouring,
    is_sparse,
    normalize_parts,
    polymer_log_weights,
)
from .util import OnlineLogSumExp, as_fraction, log_count_sum, log_sum_exp

__all__ = [
    "STATE_BUDGET",
    "exact_log_z",
    "exact_log_z_psi",
    "exact_log_z_star",
    "exact_log_xi",
    "sparse_deviation_log_sum",
    "min_conductance",
    "expansion_profile",
    "k_way_expansion",
]

XI_POLYMER_BUDGET = 10**3
XI_FAMILY_BUDGET = 10**7
KWAY_MAX_N = 14

_BLOCK = 1 << 15


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


def _mono_blocks(
    n: int,
    edges: Iterable[tuple[int, int]],
    q: int,
    cols: np.ndarray,
    base: np.ndarray | None = None,
):
    """Yield (high, mono) for each colouring of the high vertices.

    ``cols`` is a table of low states: row v gives low vertex v's colour in
    each state, as in :func:`_low_block`; the high vertices are L..n-1, and
    ``high[i]`` is the colour of vertex L+i.  The colourings come in
    ``itertools.product`` order of their reversed digits.  ``mono[s]`` counts
    the monochromatic edges of the colouring made of low state s and
    ``high``, plus ``base[s]`` when given: the low-low count is one
    precomputed vector, the high-high count a scalar, and each low-high edge
    (a, b) adds the indicator ``cols[a] == high[b - L]``.  So one high step
    costs a vector operation per low-high edge on the table's entries, with
    no division, and there are q**(n-L) steps.  ``mono`` is one buffer that
    the next step overwrites.  Edges may be given either way round.
    """
    low, size = cols.shape
    inner = np.zeros(size, dtype=np.int32) if base is None else base.copy()
    top: list[tuple[int, int]] = []  # high-high edges, as high offsets
    cross: list[tuple[np.ndarray, int]] = []  # (low column, high offset)
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        if b < low:
            inner += cols[a] == cols[b]
        elif a >= low:
            top.append((a - low, b - low))
        else:
            cross.append((cols[a], b - low))
    mono = np.empty(size, dtype=np.int32)
    for digits in itertools.product(range(q), repeat=n - low):
        high = digits[::-1]
        np.add(inner, sum(high[a] == high[b] for a, b in top), out=mono)
        for col, j in cross:
            mono += col == high[j]
        yield high, mono


def _mono_histogram(g: Graph, q: int) -> np.ndarray:
    """hist[j] = the number of colourings with j monochromatic edges.

    A sum-product contraction along :func:`graphs.elimination_order`.  The
    table has one axis of q per frontier vertex, its colour, and a last
    axis for the number of monochromatic edges counted so far; an entry is
    the number of colourings of the visited vertices with that frontier
    colouring and count.  A visited vertex joins as an axis of length 1,
    which broadcasts to q once an edge needs its colour.  An edge stays
    implicit in the frontier colouring until its first endpoint leaves;
    then, where the two colours agree, the table moves up one count, and
    the leaving vertex's axis is summed.  The table, with the padding of a
    leaving vertex's counts, never holds more than _BLOCK entries: when the
    next one would, :func:`_hand_off` enumerates the unvisited vertices
    over its nonzero entries.  Counts are int64, so q**n must stay below
    2**63.
    """
    adj = g.adj_masks
    same = np.eye(q, dtype=bool)
    steps = elimination_order(g)
    front: list[int] = []
    # an axis of length 1 does not depend on its vertex's colour
    table = np.ones(1, dtype=np.int64)
    for t, (v, gone) in enumerate(steps):
        if q ** (len(front) + 1) * table.shape[-1] > _BLOCK:
            return _hand_off(g, q, table, front, [w for w, _ in steps[t:]])
        table = table.reshape(*table.shape[:-1], 1, table.shape[-1])
        front.append(v)
        for x in gone:
            i = front.index(x)
            ends = [j for j, w in enumerate(front) if adj[x] >> w & 1]
            k = len(ends)
            counts = table.shape[-1]
            if q ** len(front) * (counts + 2 * k) > _BLOCK:
                return _hand_off(g, q, table, front, [w for w, _ in steps[t + 1 :]])
            if k:
                # k zeros each side: each edge moves the window down one
                # count, except where the two colours agree
                window = np.zeros((*table.shape[:-1], counts + 2 * k), np.int64)
                window[..., k : k + counts] = table
                for j in ends:
                    shape = [1] * table.ndim
                    shape[i] = shape[j] = q
                    agree = same.reshape(shape)
                    window = np.where(agree, window[..., :-1], window[..., 1:])
                table = window
            table = table.sum(axis=i) * (q if table.shape[i] == 1 else 1)
            front.remove(x)
    return table


def _hand_off(
    g: Graph, q: int, table: np.ndarray, front: list[int], unvisited: list[int]
) -> np.ndarray:
    """Finish :func:`_mono_histogram` by enumerating the unvisited colourings.

    The frontier vertices become the low rows of :func:`_mono_blocks`, one
    column per nonzero entry of the table.  The edges among them, implicit
    in the table, are counted into the base first.  The frontier colourings
    are laid out one vertex at a time, each entry repeated once per colour
    of the new vertex, and each edge is counted when its later endpoint is
    laid out, so a full frontier costs about twice its last vertex's rows
    and edges.
    """
    adj = g.adj_masks
    dtype = np.uint8 if q <= 256 else np.uint16
    cols = np.empty((0, 1), dtype=dtype)
    inner = np.zeros(1, dtype=np.int32)
    for a, v in enumerate(front):
        size = cols.shape[1]
        grown = np.empty((a + 1, size, q), dtype=dtype)
        for c in range(q):
            grown[:a, :, c] = cols
            grown[a, :, c] = c
        cols = grown.reshape(a + 1, size * q)
        inner = np.repeat(inner, q)
        for b in range(a):
            if adj[v] >> front[b] & 1:
                inner += cols[b] == cols[a]
    counts = table.shape[-1]
    flat = np.broadcast_to(table, (q,) * len(front) + (counts,)).reshape(-1)
    if counts == 1:
        # no edge is counted yet, so every entry is a positive count
        base, mult = inner, flat
    else:
        # entry e of the flat table has frontier colouring e // counts and
        # count e % counts
        where = np.flatnonzero(flat)
        colouring = where // counts
        cols, mult = cols[:, colouring], flat[where]
        base = inner[colouring] + (where % counts).astype(np.int32)
    label = {w: i for i, w in enumerate(front + unvisited)}
    later = set(unvisited)
    rest = [
        (label[u], label[w])
        for u, w in g.edges
        if u in later and w in label or w in later and u in label
    ]
    hist = np.zeros(g.m + 1, dtype=np.int64)
    for _, total in _mono_blocks(len(label), rest, q, cols, base):
        np.add.at(hist, total, mult)
    return hist


def exact_log_z(
    g: Graph, q: int, beta: float, *, budget: int = STATE_BUDGET
) -> float:
    """log of the full colouring sum, from its exact monochromatic histogram.

    Factorizes over connected components; the state budget applies to the
    total number of colourings of the components, q**|component| each,
    whatever the dynamic program actually visits.
    """
    check_q_beta(q, beta, zero_beta_ok=True)
    comps = components(g)
    cost = sum(q ** len(c) for c in comps)
    if cost > budget:
        raise BudgetError(f"enumeration needs {cost} states, over budget {budget}")
    if cost >> 63:
        raise BudgetError(f"{cost} colourings overflow the 64-bit histogram counts")
    total = 0.0
    for comp in comps:
        if len(comp) == 1:
            total += math.log(q)
            continue
        # a connected g is its own component, with its elimination order
        sub = g if len(comp) == g.n else induced_subgraph(g, comp)[0]
        total += log_count_sum(_mono_histogram(sub, q).tolist(), beta)
    return total


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
    parts, ground = ground_colouring(g, parts, psi, q, beta)
    if q**g.n > STATE_BUDGET:
        raise BudgetError(
            f"enumeration needs {q**g.n} states, over budget {STATE_BUDGET}"
        )
    cols = _low_block(g.n, q)
    low = cols.shape[0]
    # per part: its low vertices' agreement vector, its high vertices
    # (offset, ground colour) and its size
    checks = []
    for part in parts:
        agree = np.zeros(cols.shape[1], dtype=np.int32)
        for v in part:
            if v < low:
                agree += cols[v] == ground[v]
        tops = [(v - low, ground[v]) for v in part if v >= low]
        checks.append((agree, tops, len(part)))
    hist = np.zeros(g.m + 1, dtype=np.int64)
    for high, mono in _mono_blocks(g.n, g.edges, q, cols):
        ok = np.ones(cols.shape[1], dtype=bool)
        for agree, tops, size in checks:
            ok &= 2 * (agree + sum(high[j] == c for j, c in tops)) > size
        hist += np.bincount(mono[ok], minlength=g.m + 1)
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
    width = g.m + 1
    hist = np.zeros(q**ell * width, dtype=np.int64)
    for high, mono in _mono_blocks(g.n, g.edges, q, cols):
        ok = np.ones(size, dtype=bool)
        psi_idx = np.zeros(size, dtype=np.int64)
        scale = 1
        for counts, tops, part_size in tallies:
            extra = np.zeros((q, 1), dtype=np.int32)
            for j in tops:
                extra[high[j]] += 1
            total = counts + extra
            ok &= 2 * total.max(axis=0) > part_size
            psi_idx += total.argmax(axis=0) * scale
            scale *= q
        combined = psi_idx[ok] * width + mono[ok]
        hist += np.bincount(combined, minlength=len(hist))
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
    boundary = [boundary_edge_set(g, p.vertices) for p in polymers]
    vsets = [set(p.vertices) for p in polymers]
    incompat = [0] * t
    for i in range(t):
        for j in range(i + 1, t):
            if (vsets[i] & vsets[j]) or (boundary[i] & boundary[j]):
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i

    acc = OnlineLogSumExp()
    count = 0

    def rec(start: int, banned: int, log_prod: float) -> None:
        nonlocal count
        count += 1
        if count > XI_FAMILY_BUDGET:
            raise BudgetError(
                f"compatible-family enumeration exceeded budget {XI_FAMILY_BUDGET}"
            )
        acc.add(log_prod)
        for j in range(start, t):
            if banned >> j & 1:
                continue
            rec(j + 1, banned | incompat[j], log_prod + lws[j])

    rec(0, 0, 0.0)
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
            mono = sum(1 for a, b in g.edges if state[a] == state[b])
            acc.add(beta * mono)
        for v in range(n):
            state[v] += 1
            if state[v] < q:
                break
            state[v] = 0
    return acc.result()


# ---------------------------------------------------------------------------
# conductance by subset enumeration
# ---------------------------------------------------------------------------


def _block_min(bnd: np.ndarray, vol: np.ndarray, ok: np.ndarray):
    """Exact minimum of bnd/vol over the entries ok selects, and where.

    Returns (b, v, positions) with b/v the minimum and positions every
    entry that attains it, or None when ok selects nothing.  Rounding is
    monotone, so every exact minimiser has the smallest float ratio; the
    exact minimum among those entries, which are usually all exact ties,
    is found and kept by vectorized integer cross-multiplication, in int64:
    the scan's fields are as narrow as 2m allows, and a product of two can
    reach 2m**2.
    """
    if not ok.any():
        return None
    ratio = np.divide(bnd, vol, out=np.full(len(bnd), np.inf), where=ok)
    near = np.flatnonzero(ratio == ratio.min())
    near_bnd = bnd[near].astype(np.int64)
    near_vol = vol[near].astype(np.int64)
    b, v = int(near_bnd[0]), int(near_vol[0])
    while (below := near_bnd * v < b * near_vol).any():
        first = below.argmax()
        b, v = int(near_bnd[first]), int(near_vol[first])
    return b, v, near[near_bnd * v == b * near_vol]


def _first_by_vertex_tuple(masks: np.ndarray) -> int:
    """The mask whose sorted vertex tuple is lexicographically smallest.

    Keeps the sets whose next vertex is the smallest, one position at a
    time; a set with no vertex left is then a prefix of the others, which
    makes it the smallest.
    """
    rest = masks
    while len(masks) > 1:
        low = rest & -rest
        if not low.all():
            return int(masks[low.argmin()])
        keep = low == low.min()
        masks, rest = masks[keep], (rest ^ low)[keep]
    return int(masks[0])


def min_conductance(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact conductance of the graph with a minimizing witness.

    Minimizes boundary/volume over nonempty sets of at most half the total
    volume; ties resolve to the lexicographically smallest vertex tuple,
    picked among each block's exact minimisers by their bitmasks
    (:func:`_first_by_vertex_tuple`).
    """
    if g.n > SUBSET_ENUM_MAX_N:
        raise BudgetError(
            f"subset enumeration limited to n <= {SUBSET_ENUM_MAX_N}, got {g.n}"
        )
    best: tuple[int, int, tuple[int, ...]] | None = None
    for masks, _, bnd, vol in subset_scan(g):
        # half the total volume 2m is m
        found = _block_min(bnd, vol, (vol > 0) & (vol <= g.m))
        if found is None:
            continue
        b, v, where = found
        if best is not None and b * best[1] > best[0] * v:
            continue
        witness = vertices_of_mask(_first_by_vertex_tuple(masks[where]))
        if best is None or b * best[1] < best[0] * v or witness < best[2]:
            best = (b, v, witness)
    if best is None:
        raise PreconditionError("graph has no nonempty set within half the volume")
    return Fraction(best[0], best[1]), best[2]


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
