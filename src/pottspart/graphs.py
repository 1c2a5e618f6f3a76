"""Undirected simple graphs and exact combinatorial set quantities.

Vertices are 0..n-1. Graphs are simple (no self-loops, no parallel edges),
undirected, and — unless explicitly permitted — free of isolated vertices.
Every Graph is built by one private constructor, ``_graph``, from sorted
neighbour tuples: it derives the edge list, degrees, edge count and
neighbour bitmasks and owns the two structural refusals (no edges, an
isolated vertex).  ``Graph.from_edges`` and ``parse_graph`` check each edge
(with their own messages) before calling it and, when the ids outnumber
the 2m edge endpoints, name the smallest id no edge names
(``_refuse_missing_ids``), so a huge id costs no per-vertex list;
``induced_subgraph`` calls it on the relabelled adjacency of its parent.
All set quantities (volume, boundary, cut counts, conductance) are
exact integer/rational computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .errors import ParseError, PreconditionError
from .util import as_fraction

VertexSet = Iterable[int]

# Largest n for which a scan over all 2^n vertex subsets is attempted.
SUBSET_ENUM_MAX_N = 20
# subset_scan's low block holds the subsets of this many first vertices;
# the exact oracle's tables are capped at 2 ** this many entries too
_SUBSET_BLOCK_BITS = 15


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    m: int
    adj_masks: tuple[int, ...]

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[int, int]],
        n: int | None = None,
        allow_isolated: bool = False,
    ) -> "Graph":
        edge_set: set[tuple[int, int]] = set()
        max_v = -1
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise PreconditionError(f"negative vertex id in edge {u} {v}")
            e = (u, v) if u < v else (v, u)
            if e in edge_set:
                raise PreconditionError(f"duplicate edge {e[0]} {e[1]}")
            edge_set.add(e)
            max_v = max(max_v, u, v)
        if n is None:
            n = max_v + 1
        elif max_v >= n:
            raise PreconditionError(
                f"edge endpoint {max_v} out of range for declared n={n}"
            )
        if edge_set and not allow_isolated:
            _refuse_missing_ids(n, edge_set)
        return _graph(_sorted_neighbours(n, edge_set), allow_isolated)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @cached_property
    def _elimination_steps(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return _greedy_elimination(self)


def _graph(adj: tuple[tuple[int, ...], ...], allow_isolated: bool) -> Graph:
    """The one Graph constructor, from sorted neighbour tuples.

    adj[v] lists v's neighbours in increasing order, and every edge appears
    in both endpoints' tuples.  Refuses a graph without edges (unless
    allow_isolated and n >= 1) and an isolated vertex (unless
    allow_isolated).
    """
    degrees = tuple(len(ns) for ns in adj)
    m = sum(degrees) // 2
    if m == 0 and not (allow_isolated and adj):
        raise PreconditionError("graph must have at least one edge")
    if not allow_isolated and 0 in degrees:
        raise PreconditionError(f"vertex {degrees.index(0)} is isolated")
    edges = tuple((u, v) for u, ns in enumerate(adj) for v in ns if v > u)
    # the neighbours are distinct, so summing their bits is or-ing them
    masks = tuple(sum(1 << v for v in ns) for ns in adj)
    return Graph(len(adj), adj, edges, degrees, m, masks)


def _refuse_missing_ids(n: int, edge_set: Collection[tuple[int, int]]) -> None:
    """Refuse, as _graph would, a vertex of 0..n-1 that no edge names.

    When n exceeds the 2m edge endpoints some id is missing, and building
    adjacency for all n ids would cost more than the input: then the sorted
    distinct endpoints are compared with 0..n-1 and the smallest missing id
    is named, at a cost in m.  Otherwise n <= 2m, and _graph's own check
    costs no more than the edges do.
    """
    if n > 2 * len(edge_set):
        ids = sorted({v for e in edge_set for v in e})
        # ids[i] >= i, so the first i with ids[i] != i is missing
        missing = next((i for i, v in enumerate(ids) if v != i), len(ids))
        raise PreconditionError(f"vertex {missing} is isolated")


def _sorted_neighbours(
    n: int, edge_set: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of vertices 0..n-1 from distinct edges."""
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        neigh[u].append(v)
        neigh[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in neigh)


def _vertex_tuple(g: Graph, s: VertexSet) -> tuple[int, ...]:
    """The vertices of s, sorted; refuses a repeated or out-of-range vertex."""
    vs = tuple(sorted(s))
    if len(set(vs)) != len(vs):
        raise PreconditionError(f"vertex set {list(vs)} repeats a vertex")
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise PreconditionError(f"vertex set {list(vs)} out of range for n={g.n}")
    return vs


def mask_of(g: Graph, s: VertexSet) -> int:
    mk = 0
    for v in _vertex_tuple(g, s):
        mk |= 1 << v
    return mk


def vertices_of_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list: one "u v" pair per line.

    Blank lines and lines starting with '#' are ignored; every other line is
    an edge.  The vertices are 0..n-1 for the largest id n-1 named, and an
    isolated vertex is refused, so the text needs no "n m" header.
    """
    edge_set: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected two integers, got {line!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected two integers, got {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        e = (u, v) if u < v else (v, u)
        if e in edge_set:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        edge_set.add(e)
    if not edge_set:
        raise ParseError("no edges: empty graph text")
    n = 1 + max(v for _, v in edge_set)
    try:
        _refuse_missing_ids(n, edge_set)
        return _graph(_sorted_neighbours(n, edge_set), allow_isolated=False)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: sorted "u v" lines, trailing newline."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def volume(g: Graph, s: VertexSet) -> int:
    """Sum of degrees over the set (degrees in g)."""
    return sum(g.degrees[v] for v in _vertex_tuple(g, s))


def cross_edges(g: Graph, s: VertexSet, t: VertexSet) -> int:
    """Number of edges with one endpoint in s and the other in t \\ s."""
    return cross_edges_mask(g, mask_of(g, s), mask_of(g, t))


def cross_edges_mask(g: Graph, s_mask: int, t_mask: int) -> int:
    """Mask-based variant of cross_edges (sets given as bitmasks)."""
    target = t_mask & ~s_mask
    count = 0
    mk = s_mask
    while mk:
        low = mk & -mk
        v = low.bit_length() - 1
        mk ^= low
        count += (g.adj_masks[v] & target).bit_count()
    return count


def boundary_size(g: Graph, s: VertexSet) -> int:
    """Number of edges with exactly one endpoint in s."""
    return cross_edges_mask(g, mask_of(g, s), (1 << g.n) - 1)


def set_conductance(g: Graph, s: VertexSet) -> Fraction:
    """|boundary(s)| / vol(s) as an exact rational."""
    vs = _vertex_tuple(g, s)
    if not vs:
        raise PreconditionError("conductance of the empty set is undefined")
    vol = volume(g, vs)
    if vol == 0:
        raise PreconditionError(
            "conductance undefined: set has zero volume (all vertices isolated)"
        )
    return Fraction(boundary_size(g, vs), vol)


def induced_subgraph(
    g: Graph, s: VertexSet, allow_isolated: bool = False
) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on s, relabelled 0..|s|-1 in sorted vertex order.

    Returns (subgraph, vertices) where vertices[i] is the original id of the
    subgraph's vertex i.  The subgraph is read off g's sorted adjacency,
    which relabelling in sorted order keeps sorted, so its edges are not
    validated again; it equals Graph.from_edges of the relabelled edges,
    refusals included.
    """
    vs = _vertex_tuple(g, s)
    if not vs:
        raise PreconditionError("induced subgraph of the empty set")
    index = {v: i for i, v in enumerate(vs)}
    adj = tuple(tuple(index[u] for u in g.adj[v] if u in index) for v in vs)
    return _graph(adj, allow_isolated), vs


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, sorted by first vertex."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def subset_scan(g: Graph):
    """Yield (masks, sizes, boundary, volume) blocks over all vertex subsets.

    The first L = min(n, _SUBSET_BLOCK_BITS) vertices are low.  One block
    of 2**L subsets follows per subset H of the high vertices (L..n-1), in
    increasing order of H, so the masks rise over the whole scan, the empty
    set (mask 0) first; entry s of a block is the low subset with mask s
    joined to H.

    The low tables are built by doubling: the subsets of the first v+1
    vertices are those of the first v, then the same sets with v added,
    which adds 1 to the size, deg(v) to the volume and v's gain to the
    boundary.  A vertex's gain on a set is deg - 2*(its neighbours in the
    set), and the gain vectors of the vertices still to come double
    alongside, as rows of the same table.  For a high vertex b that gives
    its gain on every low subset, and a block's boundary vector is the low
    boundaries plus the gains of H's vertices, less twice the number of
    edges inside H, a scalar.  One running sum of gains steps from H - 1 to
    H by subtracting the gains of the trailing ones it clears and adding
    the gain of the bit it sets, about two vector adds per block.

    Every field is a fresh array of length 2**L: the masks are int64 and
    the other three the narrowest of int16, int32 and int64 that holds 2m,
    which is int16 for every graph with n <= 20.
    """
    n = g.n
    low = min(n, _SUBSET_BLOCK_BITS)
    dtype = (
        np.int16 if 2 * g.m < 1 << 15 else np.int32 if 2 * g.m < 1 << 31 else np.int64
    )
    # row w < n: vertex w's gain on each low subset; rows n to n+2: size,
    # volume and boundary.  Vertex v doubles the rows after its own: steps[v]
    # takes 2 from the gain of each later neighbour, adds 1 to the size and
    # deg(v) to the volume; the boundary adds v's gain on the set without v.
    table = np.zeros((n + 3, 1 << low), dtype=dtype)
    table[:n, 0] = g.degrees
    steps = np.zeros((low, n + 3), dtype=dtype)
    steps[:, n] = 1
    steps[:, n + 1] = g.degrees[:low]
    for u, w in g.edges:
        if u < low:
            steps[u, w] = -2
    for v in range(low):
        old, new = slice(0, 1 << v), slice(1 << v, 2 << v)
        np.add(table[v + 1 :, old], steps[v, v + 1 :, None], out=table[v + 1 :, new])
        table[-1, new] += table[v, old]
    low_sizes, low_vol, low_bnd = table[n:]
    gains = table[low:n]
    high_deg = g.degrees[low:]
    high_adj = [mk >> low for mk in g.adj_masks[low:]]
    # per high subset H: its volume and the number of edges inside it,
    # each from H without its lowest vertex, which the scan met earlier
    high_vol = [0] * (1 << (n - low))
    high_inner = [0] * (1 << (n - low))
    low_masks = np.arange(1 << low, dtype=np.int64)
    running = low_bnd.copy()
    for top in range(1 << (n - low)):
        if top:
            j = (top & -top).bit_length() - 1
            rest = top ^ (1 << j)
            high_vol[top] = high_vol[rest] + high_deg[j]
            high_inner[top] = high_inner[rest] + (high_adj[j] & rest).bit_count()
            # top - 1 is rest plus the vertices below j
            for i in range(j):
                running -= gains[i]
            running += gains[j]
        yield (
            low_masks + (top << low),
            low_sizes + top.bit_count(),
            running - 2 * high_inner[top],
            low_vol + high_vol[top],
        )


def connected_sets(
    adj: Sequence[int],
    weights: Sequence[int],
    cap: int,
    admit: Callable[[int], bool] | None = None,
):
    """Yield every connected vertex set of total weight at most ``cap``, once.

    ``adj[v]`` is the neighbour bitmask of vertex v and weights are
    positive.  ``admit``, when given, is a test on a set's bitmask that
    every subset of an admitted set also passes; sets it refuses are not
    grown further.  Each set is a tuple of its members in the order they
    were added, its smallest vertex first.  The sets come in depth-first
    pre-order: a set, then everything grown from it.
    """
    full = (1 << len(adj)) - 1
    for root, root_weight in enumerate(weights):
        rbit = 1 << root
        if root_weight > cap or (admit is not None and not admit(rbit)):
            continue
        above = full ^ ((rbit << 1) - 1)  # only vertices after the root join
        # a frame is (members, their mask, the vertices it may still add,
        # members and their neighbours, weight); the top frame is next
        stack = [((root,), rbit, adj[root] & above, adj[root] | rbit, root_weight)]
        while stack:
            members, mask, ext, nbhd, weight = stack.pop()
            yield members
            # push the children highest vertex first, so the lowest is
            # yielded next; a child may add what its later siblings may
            # add, plus the new neighbours of its last vertex
            later = 0
            while ext:
                w = ext.bit_length() - 1
                wbit = 1 << w
                ext ^= wbit
                grown = weight + weights[w]
                if grown <= cap and (admit is None or admit(mask | wbit)):
                    fresh = adj[w] & ~nbhd & above
                    child = members + (w,)
                    stack.append(
                        (child, mask | wbit, later | fresh, nbhd | adj[w], grown)
                    )
                later |= wbit


def elimination_order(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A greedy vertex order for contractions, as steps (v, gone).

    Each step visits v, which joins the frontier: the visited vertices with
    an unvisited neighbour.  gone lists, in frontier order, the vertices
    that then leave it because their last unvisited neighbour was visited
    (v itself last, when it has no unvisited neighbour).  Next is the
    vertex that leaves the smallest frontier, then the fewest edges between
    visited and unvisited vertices, then the smallest label.  A table with
    one axis per frontier vertex stays small on graphs of small pathwidth
    such as cycles and random 3-regular graphs.  The order is computed once
    per Graph object and kept on it, so the expander check and the exact
    oracle on one graph share it.
    """
    return g._elimination_steps


def _greedy_elimination(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Compute the steps of :func:`elimination_order`."""
    adj, deg = g.adj_masks, g.degrees
    unseen = list(deg)  # each vertex's unvisited neighbours
    visited = 0
    frontier: list[int] = []
    unvisited = list(range(g.n))
    steps = []
    while unvisited:
        # a frontier vertex whose one unvisited neighbour is u leaves with u
        closes: dict[int, int] = {}
        for w in frontier:
            if unseen[w] == 1:
                u = (adj[w] & ~visited).bit_length() - 1
                closes[u] = closes.get(u, 0) + 1
        # unvisited less visited neighbours is the growth of the edges
        # between visited and unvisited vertices
        _, _, v = min(
            [
                ((unseen[u] > 0) - closes.get(u, 0), 2 * unseen[u] - deg[u], u)
                for u in unvisited
            ]
        )
        unvisited.remove(v)
        visited |= 1 << v
        for u in g.adj[v]:
            unseen[u] -= 1
        frontier.append(v)
        steps.append((v, tuple(w for w in frontier if not unseen[w])))
        frontier = [w for w in frontier if unseen[w]]
    return tuple(steps)


def _least_boundaries(g: Graph) -> list[int] | None:
    """B[s] = the least boundary of an s-vertex set, for s <= n/2.

    A min-plus contraction along :func:`elimination_order`.  The table has
    one axis of 2 per frontier vertex (outside, inside) and a last axis
    for the number of left vertices inside; an entry is the least number of
    edges with an endpoint that has left and exactly one endpoint inside.
    A visited vertex joins as an axis of length 1, which broadcasts to 2
    once an edge needs its side.  When it leaves, each edge to a vertex
    still on the frontier adds one where their sides differ, and its axis
    is reduced: the minimum of outside and inside, shifted up one size.
    Sizes above n/2 are dropped, as no set of that size is asked about.
    None when a table would hold more than one subset-scan block, which
    the order decides before any array is built.
    """
    steps = elimination_order(g)
    half = g.n // 2
    width = widest = 0
    for _, gone in steps:
        width += 1
        widest = max(widest, width)
        width -= len(gone)
    if (half + 1) << widest > 1 << _SUBSET_BLOCK_BITS:
        return None
    adj = g.adj_masks
    differ = 1 - np.eye(2, dtype=np.int32)
    # m + 1 exceeds every boundary: no set of that size yet
    table = np.full(half + 1, g.m + 1, dtype=np.int32)
    table[0] = 0
    front: list[int] = []
    for v, gone in steps:
        # an axis of length 1 does not depend on its vertex's side
        table = table.reshape(*table.shape[:-1], 1, half + 1)
        front.append(v)
        for x in gone:
            i = front.index(x)
            for j, w in enumerate(front):
                if adj[x] >> w & 1:
                    shape = [1] * table.ndim
                    shape[i] = shape[j] = 2
                    table = table + differ.reshape(shape)
            outside = table[(slice(None),) * i + (0,)].copy()
            inside = table[(slice(None),) * i + (-1,)]
            np.minimum(outside[..., 1:], inside[..., :-1], out=outside[..., 1:])
            table = outside
            front.remove(x)
    return table.tolist()


def is_alpha_expander(
    g: Graph, alpha: int | float | Fraction
) -> tuple[bool, tuple[int, ...] | None]:
    """Check |boundary(S)| >= alpha*|S| for all |S| <= n/2, exactly.

    Exact rational comparison.  Only for n <= SUBSET_ENUM_MAX_N.  Accepts
    when the least boundary of each size s <= n/2, from the contraction
    :func:`_least_boundaries`, is at least alpha*s.  Otherwise, and when
    that table would be too large, the sets are scanned in the blocks of
    :func:`subset_scan`.  Within a block, a set's size is its low size plus
    the block's high size, so one threshold vector per high size, built at
    the first block of that size, serves every block of that size.  On
    failure returns the violating set with the smallest bitmask: the blocks
    come in mask order, so the scan stops at the first block that holds a
    violation and takes that block's smallest violating mask.
    """
    if g.n > SUBSET_ENUM_MAX_N:
        raise PreconditionError(
            f"is_alpha_expander is exhaustive and capped at n <= "
            f"{SUBSET_ENUM_MAX_N} (got n={g.n})"
        )
    a = as_fraction(alpha, "alpha")
    if a < 0:
        raise PreconditionError("alpha must be nonnegative")
    num, den = a.numerator, a.denominator
    least = _least_boundaries(g)
    if least is not None and all(b * den >= num * s for s, b in enumerate(least)):
        return True, None
    # an integer boundary b violates b >= (num/den)*size exactly when
    # b < ceil(num*size/den); capping at m+1 keeps that (b <= m) in the
    # scan's integer type, and sets above half the vertices need nothing
    need = [
        min(-(-num * size // den), g.m + 1) if 2 * size <= g.n else 0
        for size in range(g.n + 1)
    ]
    thresholds: dict[int, np.ndarray] = {}
    for masks, sizes, bnd, _ in subset_scan(g):
        # entry 0 holds no low vertex, so sizes[0] is the block's high size
        high = int(sizes[0])
        if high not in thresholds:
            thresholds[high] = np.array(need, dtype=bnd.dtype)[sizes]
        bad = bnd < thresholds[high]
        if bad.any():
            return False, vertices_of_mask(int(masks[bad.argmax()]))
    return True, None
