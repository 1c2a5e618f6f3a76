"""Exact ground truth.

Everything here is exact and computed under hard budgets; nothing is
approximated.  :func:`exact_log_z` is the exact route of the pipelines and
of the ``oracle`` and ``verify`` commands; :func:`min_conductance`
certifies small parts in :func:`partition.verify_partition`.

:func:`exact_log_z` builds the exact histogram of monochromatic edge counts
by a sum-product contraction along :func:`graphs.elimination_order`
(:func:`_mono_histogram`): a dense integer table with one axis per
frontier vertex, whose size depends on the frontier, not on n, so it stays
small on graphs of small pathwidth such as cycles and random 3-regular
graphs.  :func:`graphs.is_alpha_expander` accepts by the min-plus twin of
the same contraction.  The state budget still counts all q**n colourings,
so what it refuses does not depend on the graph's shape.  What the table
cannot hold, :func:`_hand_off` enumerates in blocks
(:func:`_mono_blocks`).  The subset scan behind :func:`min_conductance`
yields blocks of 2**15 low subsets (:func:`graphs.subset_scan`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .budgets import STATE_BUDGET
from .errors import BudgetError, PreconditionError
from .graphs import (
    SUBSET_ENUM_MAX_N,
    _SUBSET_BLOCK_BITS,
    Graph,
    components,
    elimination_order,
    induced_subgraph,
    subset_scan,
    vertices_of_mask,
)
from .polymers import check_q_beta
from .util import log_count_sum

__all__ = ["STATE_BUDGET", "exact_log_z", "min_conductance"]

_BLOCK = 1 << _SUBSET_BLOCK_BITS


def _mono_blocks(
    n: int,
    edges: Iterable[tuple[int, int]],
    q: int,
    cols: np.ndarray,
    base: np.ndarray | None = None,
):
    """Yield (high, mono) for each colouring of the high vertices.

    ``cols`` is a table of low states: row v gives low vertex v's colour in
    each state; the high vertices are L..n-1, and
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
