"""Brute-force ground truth.

Everything here is computed by exhaustive enumeration under hard budgets;
nothing is approximated.  These functions are the reference values the rest
of the package is tested against.
"""

from __future__ import annotations

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


def _colour_blocks(n: int, q: int):
    """Yield (block_size, colours) arrays over all q**n colourings.

    Colour of vertex v in state s is digit v of s in base q (vertex 0 least
    significant).
    """
    total = q**n
    radix = q ** np.arange(n, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        cols = ((idx[:, None] // radix[None, :]) % q).astype(np.uint8)
        yield cols


def _mono_counts(cols: np.ndarray, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    acc = np.zeros(cols.shape[0], dtype=np.int32)
    for a, b in edges:
        acc += cols[:, a] == cols[:, b]
    return acc


def _log_z_component(n: int, edges: Sequence[tuple[int, int]], q: int, beta: float) -> float:
    hist = np.zeros(len(edges) + 1, dtype=np.int64)
    for cols in _colour_blocks(n, q):
        acc = _mono_counts(cols, edges)
        hist += np.bincount(acc, minlength=len(edges) + 1)
    return log_count_sum(hist.tolist(), beta)


def exact_log_z(
    g: Graph, q: int, beta: float, *, budget: int = STATE_BUDGET
) -> float:
    """log of the full colouring sum, by exhaustive enumeration.

    Factorizes over connected components, so the state budget applies to
    the total per-component enumeration cost.
    """
    check_q_beta(q, beta, zero_beta_ok=True)
    comps = components(g)
    cost = sum(q ** len(c) for c in comps)
    if cost > budget:
        raise BudgetError(f"enumeration needs {cost} states, over budget {budget}")
    total = 0.0
    for comp in comps:
        if len(comp) == 1:
            total += math.log(q)
            continue
        sub, _ = induced_subgraph(g, comp)
        total += _log_z_component(sub.n, sub.edges, q, beta)
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
    hist = np.zeros(g.m + 1, dtype=np.int64)
    for cols in _colour_blocks(g.n, q):
        acc = _mono_counts(cols, g.edges)
        ok = np.ones(cols.shape[0], dtype=bool)
        for part in parts:
            agree = np.zeros(cols.shape[0], dtype=np.int32)
            for v in part:
                agree += cols[:, v] == ground[v]
            ok &= 2 * agree > len(part)
        hist += np.bincount(acc[ok], minlength=g.m + 1)
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
    width = g.m + 1
    hist = np.zeros(q**ell * width, dtype=np.int64)
    for cols in _colour_blocks(g.n, q):
        acc = _mono_counts(cols, g.edges).astype(np.int64)
        ok = np.ones(cols.shape[0], dtype=bool)
        psi_idx = np.zeros(cols.shape[0], dtype=np.int64)
        scale = 1
        for part in parts:
            counts = np.stack(
                [sum((cols[:, v] == c) for v in part) for c in range(q)], axis=1
            )
            best = counts.max(axis=1)
            ok &= 2 * best > len(part)
            psi_idx += counts.argmax(axis=1) * scale
            scale *= q
        combined = psi_idx[ok] * width + acc[ok]
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


def min_conductance(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact conductance of the graph with a minimizing witness.

    Minimizes boundary/volume over nonempty sets of at most half the total
    volume; ties resolve to the lexicographically smallest vertex tuple.
    """
    if g.n > SUBSET_ENUM_MAX_N:
        raise BudgetError(
            f"subset enumeration limited to n <= {SUBSET_ENUM_MAX_N}, got {g.n}"
        )
    total = 2 * g.m
    best_num = 1
    best_den = 0  # represents +infinity
    best_witness: tuple[int, ...] | None = None
    for mask, bnd, vol in subset_scan(g):
        if vol == 0 or 2 * vol > total:
            continue
        lhs = bnd * best_den
        rhs = best_num * vol
        if lhs < rhs:
            best_num, best_den, best_witness = bnd, vol, vertices_of_mask(mask)
        elif lhs == rhs:
            witness = vertices_of_mask(mask)
            if best_witness is None or witness < best_witness:
                best_num, best_den, best_witness = bnd, vol, witness
    if best_witness is None:
        raise PreconditionError("graph has no nonempty set within half the volume")
    return Fraction(best_num, best_den), best_witness


def expansion_profile(g: Graph, volume_bound) -> Fraction:
    """Minimum conductance over nonempty sets of volume at most the bound."""
    if g.n > SUBSET_ENUM_MAX_N:
        raise BudgetError(
            f"subset enumeration limited to n <= {SUBSET_ENUM_MAX_N}, got {g.n}"
        )
    bound = as_fraction(volume_bound)
    best: tuple[int, int] | None = None
    for mask, bnd, vol in subset_scan(g):
        if vol == 0 or vol * bound.denominator > bound.numerator:
            continue
        if best is None or bnd * best[1] < best[0] * vol:
            best = (bnd, vol)
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
    bnd_arr = [0] * size
    vol_arr = [0] * size
    for mask, bnd, vol in subset_scan(g):
        bnd_arr[mask] = bnd
        vol_arr[mask] = vol

    values = sorted({Fraction(bnd_arr[m], vol_arr[m]) for m in range(1, size)})

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
