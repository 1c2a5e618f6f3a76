"""Partitioning a graph into expander-induced parts with core repair.

The partitioner maintains a list of parts P_1..P_l with cores B_i inside
them, splitting cores along sweep cuts, splitting off low-conductance
pieces, and merging stray fragments toward their strongest attachment,
until every part induces an expander and no fragment prefers another part.
All comparisons that drive control flow are exact rational arithmetic; the
spectral quantities enter only through precomputed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

from .errors import BudgetError, PreconditionError, VerificationError
from .graphs import (
    SUBSET_ENUM_MAX_N,
    Graph,
    _vertex_tuple,
    cross_edges,
    cross_edges_mask,
    induced_subgraph,
    mask_of,
    set_conductance,
    volume,
)
from .oracle import min_conductance
from .polymers import normalize_parts
from .spectral import Spectrum, normalized_laplacian_spectrum, sweep_cut

__all__ = [
    "PartitionParams",
    "PartCertificate",
    "ExpanderPartition",
    "PartReport",
    "PartitionReport",
    "phi_after_vertex_removal",
    "partition_into_expanders",
    "verify_partition",
]

_EIGENVALUE_ZERO_SNAP = 1e-8


@dataclass(frozen=True)
class PartitionParams:
    """Spectral constants controlling the partitioner, fixed per graph.

    spectrum is the graph's normalized-Laplacian spectrum that the
    constants come from.  The partitioner and verify_partition sweep the
    whole vertex set with it instead of computing it again; it takes no
    part in equality, repr or to_dict.
    """

    k: int
    lambdas: tuple[float, ...]  # the k lowest normalized-Laplacian eigenvalues
    rho_star: float
    phi_in: float
    phi_out: float
    tau: Fraction
    spectrum: Spectrum = field(compare=False, repr=False)

    @staticmethod
    def from_graph(g: Graph, k: int) -> "PartitionParams":
        if not isinstance(k, int) or k < 2:
            raise PreconditionError(f"k must be an integer >= 2, got {k!r}")
        if k > g.n:
            raise PreconditionError(f"k={k} exceeds the vertex count {g.n}")
        spectrum = normalized_laplacian_spectrum(g, k)
        lambdas = tuple(
            0.0 if lam <= _EIGENVALUE_ZERO_SNAP else lam
            for lam in spectrum.eigenvalues
        )
        lam_k = lambdas[k - 1]
        lam_km1 = lambdas[k - 2]
        # the paper fixes rho_star and phi_out up to an absolute constant C,
        # taken as 1 here
        rho_star = min(lam_k / 10.0, 30.0 * k**5 * math.sqrt(lam_km1))
        phi_in = lam_k / (140.0 * k * k)
        phi_out = 90.0 * k**6 * math.sqrt(lam_km1)
        tau = Fraction(1, 5 * (k - 1))
        return PartitionParams(
            k=k,
            lambdas=lambdas,
            rho_star=rho_star,
            phi_in=phi_in,
            phi_out=phi_out,
            tau=tau,
            spectrum=spectrum,
        )

    @property
    def lambda_k(self) -> float:
        return self.lambdas[self.k - 1]

    def check_lambda_k(self) -> None:
        """Refuse a graph whose k-th eigenvalue is not positive."""
        if self.lambda_k <= 0:
            raise PreconditionError(
                f"the {self.k}-th eigenvalue must be positive, got "
                f"{self.lambda_k}; the graph has too many near-components"
            )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": list(self.lambdas),
            "constants": {
                "rhoStar": self.rho_star,
                "phiIn": self.phi_in,
                "phiOut": self.phi_out,
                "tau": float(self.tau),
            },
        }


@dataclass(frozen=True)
class PartCertificate:
    """Exact per-part quantities backing the partition's guarantees."""

    sweep_conductance: Fraction  # best sweep cut inside the part
    phi_inner_lb: Fraction  # certified lower bound on the part's conductance
    phi_outer: Fraction  # boundary/volume of the part within the whole graph
    min_degree_ratio: Fraction  # min over v of inside-degree / full degree


@dataclass(frozen=True)
class ExpanderPartition:
    parts: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]
    ell: int
    certificates: tuple[PartCertificate, ...]
    iterations: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "cores": [list(c) for c in self.cores],
            "certificates": [
                {
                    "sweepConductance": str(c.sweep_conductance),
                    "phiInnerLowerBound": str(c.phi_inner_lb),
                    "phiOuter": str(c.phi_outer),
                    "minDegreeRatio": str(c.min_degree_ratio),
                }
                for c in self.certificates
            ],
            "iterations": dict(self.iterations),
        }


def phi_after_vertex_removal(g: Graph, b: Iterable[int], u: int) -> Fraction:
    """Conductance of b minus one vertex, by closed form (exact).

    With d the full degree of u and d_b its degree into b, removing u
    rescales the conductance as
    phi(b - u) = vol(b)/(vol(b)-d) * phi(b) - (d - 2*d_b)/(vol(b)-d).
    """
    bs = _vertex_tuple(g, b)
    if u not in bs:
        raise PreconditionError(f"vertex {u} is not in the set")
    vol_b = volume(g, bs)
    d_v = g.degrees[u]
    if vol_b <= d_v:
        raise PreconditionError(
            f"removal leaves no volume: vol={vol_b}, degree of {u} is {d_v}"
        )
    b_mask = mask_of(g, bs)
    d_b = (g.adj_masks[u] & b_mask).bit_count()
    phi_b = Fraction(cross_edges_mask(g, b_mask, (1 << g.n) - 1), vol_b)
    return (
        Fraction(vol_b, vol_b - d_v) * phi_b
        - Fraction(d_v - 2 * d_b, vol_b - d_v)
    )


def _inner_lower_bound(sweep):
    """Lower bound on a part's conductance from its sweep conductance.

    Cheeger gives phi >= lambda_2 / 2 and the sweep is at most
    sqrt(2 * lambda_2), so phi >= sweep^2 / 4: exact for a Fraction, and
    the guaranteed bound when given the float threshold phi_in.
    """
    return sweep * sweep / 4


def _min_degree_ratio(g: Graph, vs: Collection[int]) -> Fraction:
    """Min over v in vs of (degree of v into vs) / (degree of v)."""
    pm = mask_of(g, vs)
    return min(Fraction((g.adj_masks[v] & pm).bit_count(), g.degrees[v]) for v in vs)


# ---------------------------------------------------------------------------
# the partitioner
# ---------------------------------------------------------------------------


def _sweep_in_part(g: Graph, part: set[int], spectrum: Spectrum | None = None):
    """Sweep cut of the induced subgraph, in original labels.

    Returns (vertex set, conductance) or None when the part is too small or
    edgeless to sweep.  spectrum, when given, must be g's own; it is used
    when the part is all of V, whose induced subgraph is g itself.
    """
    if len(part) < 2:
        return None
    if spectrum is not None and len(part) == g.n:
        sc = sweep_cut(g, spectrum)
        return set(sc.vertices), sc.conductance
    sub, vs = induced_subgraph(g, sorted(part), allow_isolated=True)
    if sub.m == 0:
        return None
    sc = sweep_cut(sub)
    return {vs[j] for j in sc.vertices}, sc.conductance


def _strongest_attachment(
    g: Graph, s_mask: int, target_masks: Sequence[int], own: int
) -> tuple[int, int]:
    """(j, e(s, target j)) with the most edges from s, over targets j != own.

    Ties go to the lowest index; (-1, -1) when there is no other target.
    """
    best_j = best_e = -1
    for j, t_mask in enumerate(target_masks):
        if j != own:
            e_j = cross_edges_mask(g, s_mask, t_mask)
            if e_j > best_e:
                best_j, best_e = j, e_j
    return best_j, best_e


def _relative_conductance_leq(
    g: Graph, s: set[int], b: set[int], threshold: Fraction
) -> bool:
    """Exact test of e(s,b)*vol(b) / (vol(b\\s)*e(s,V\\b)) <= threshold.

    A zero denominator counts as +infinity (test fails) unless the numerator
    is zero too.
    """
    num = cross_edges(g, s, b) * volume(g, b) * threshold.denominator
    rest = set(range(g.n)) - b
    den = volume(g, b - s) * cross_edges(g, s, rest) * threshold.numerator
    return num <= den


def partition_into_expanders(
    g: Graph,
    params: PartitionParams,
    *,
    _resume: tuple[Sequence[Iterable[int]], Sequence[Iterable[int]]] | None = None,
) -> ExpanderPartition:
    """Partition V into parts that induce expanders, with exact certificates.

    The parts are listed in increasing order of their smallest vertex, each
    with its core and certificate.  Raises when the spectral precondition
    fails, when the iteration budget is exhausted, or when a certified
    invariant breaks (the latter signals an implementation bug, never an
    unlucky input).

    _resume is a testing hook: a (parts, cores) pair to continue from
    instead of the single all-vertex part. The state is validated and
    repaired before the loop runs, and every invariant is enforced on it.
    """
    params.check_lambda_k()
    k = params.k
    n, m = g.n, g.m
    budget = 10 * k * n * m
    parts: list[set[int]] = [set(range(n))]
    cores: list[set[int]] = [set(range(n))]
    if _resume is not None:
        parts_in, cores_in = _resume
        parts = [set(p) for p in normalize_parts(g, parts_in)]
        cores = [set(c) for c in cores_in]
        if len(parts) != len(cores):
            raise PreconditionError("resume state needs one core per part")
        for idx, (p, c) in enumerate(zip(parts, cores)):
            if not c or not c <= p:
                raise PreconditionError(
                    f"resume core {idx} must be a nonempty subset of its part"
                )
    counters = {
        "main": 0,
        "coreSplit": 0,
        "coreRefine": 0,
        "partSplit": 0,
        "fragmentMerge": 0,
        "sweepMove": 0,
        "fallbackMerge": 0,
        "repairDegree": 0,
        "repairAttraction": 0,
    }

    def threshold(level: int) -> float:
        return params.rho_star * (1.0 + 1.0 / k) ** level

    def repairs() -> None:
        # (a) drop core vertices that lost most of their degree to the core
        changed = True
        while changed:
            changed = False
            for i, core in enumerate(cores):
                core_mask = mask_of(g, core)
                for v in sorted(core):
                    deg_in = (g.adj_masks[v] & core_mask).bit_count()
                    if 5 * deg_in < g.degrees[v]:
                        if len(core) == 1:
                            raise VerificationError(
                                f"core {i} would be emptied by degree repair"
                            )
                        phi_before = set_conductance(g, core)
                        phi_after = phi_after_vertex_removal(g, core, v)
                        if phi_after > phi_before:
                            raise VerificationError(
                                "degree repair increased core conductance: "
                                f"{phi_before} -> {phi_after}"
                            )
                        core.discard(v)
                        counters["repairDegree"] += 1
                        if counters["repairDegree"] > budget:
                            raise BudgetError(
                                "degree-repair steps exceeded the iteration "
                                f"budget {budget}"
                            )
                        changed = True
                        break
                if changed:
                    break
        # (b) move non-core vertices toward their strongest attachment
        changed = True
        while changed:
            changed = False
            part_masks = [mask_of(g, p) for p in parts]
            for i in range(len(parts)):
                for v in sorted(parts[i] - cores[i]):
                    e_here = (g.adj_masks[v] & part_masks[i]).bit_count()
                    j, e_j = _strongest_attachment(g, 1 << v, part_masks, i)
                    if e_here < e_j:
                        parts[i].discard(v)
                        parts[j].add(v)
                        counters["repairAttraction"] += 1
                        if counters["repairAttraction"] > budget:
                            raise BudgetError(
                                "attraction-repair steps exceeded the "
                                f"iteration budget {budget}"
                            )
                        changed = True
                        break
                if changed:
                    break
        for i, (part, core) in enumerate(zip(parts, cores)):
            if not core:
                raise VerificationError(f"core {i} became empty")
            if not core <= part:
                raise VerificationError(f"core {i} escaped its part")

    def assert_invariants() -> None:
        if len(parts) >= k:
            raise VerificationError(
                f"{len(parts)} parts created; fewer than {k} are guaranteed"
            )
        bound = threshold(len(parts))
        for i, core in enumerate(cores):
            phi_core = set_conductance(g, core)
            if phi_core > bound:
                raise VerificationError(
                    f"core {i} conductance {phi_core} exceeds level bound {bound}"
                )

    repairs()
    assert_invariants()
    while True:
        counters["main"] += 1
        if counters["main"] > budget:
            raise BudgetError(
                f"main loop exceeded the iteration budget {budget}; "
                "this signals an implementation bug"
            )

        # evaluate the two progress conditions, lowest part index first; a
        # pass that chooses no part has swept every part, and those sweeps
        # back the terminal certificates
        part_masks = [mask_of(g, p) for p in parts]
        sweeps = []
        chosen = -1
        merge_holds = False
        for i, part in enumerate(parts):
            frag = part - cores[i]
            attract = bool(frag) and (
                _strongest_attachment(g, mask_of(g, frag), part_masks, i)[1]
                > cross_edges(g, frag, cores[i])
            )
            sw = _sweep_in_part(g, part, params.spectrum)
            sweeps.append(sw)
            if attract or (sw is not None and sw[1] < params.phi_in):
                chosen = i
                merge_holds = attract
                break
        if chosen < 0:
            break

        i = chosen
        acted = False
        s_set: set[int] | None = None
        if sweeps[i] is not None:
            s_set = sweeps[i][0]
            # orient the cut so it takes at most half the core's volume
            if 2 * volume(g, s_set & cores[i]) > volume(g, cores[i]):
                s_set = parts[i] - s_set

        if s_set is not None:
            core = cores[i]
            s_b = s_set & core
            s_b_bar = core - s_set
            s_p = s_set - core
            level_bound = threshold(len(parts) + 1)

            if (
                s_b
                and s_b_bar
                and set_conductance(g, s_b) <= level_bound
                and set_conductance(g, s_b_bar) <= level_bound
            ):
                # split the core: keep the light half, spin off the heavy half
                cores[i] = s_b
                parts[i] = parts[i] - s_b_bar
                parts.append(s_b_bar)
                cores.append(set(s_b_bar))
                counters["coreSplit"] += 1
                acted = True
            elif (
                s_b
                and s_b_bar
                and _relative_conductance_leq(g, s_b, core, Fraction(1, 3 * k))
                and _relative_conductance_leq(g, s_b_bar, core, Fraction(1, 3 * k))
            ):
                # shrink the core to whichever cut half has smaller
                # conductance; this never increases the core's conductance
                phi_core = set_conductance(g, core)
                picked = min(s_b, s_b_bar, key=lambda s: set_conductance(g, s))
                phi_picked = set_conductance(g, picked)
                if phi_picked > phi_core:
                    raise VerificationError(
                        "core refinement increased core conductance: "
                        f"{phi_core} -> {phi_picked}"
                    )
                cores[i] = picked
                counters["coreRefine"] += 1
                acted = True
            elif s_p and set_conductance(g, s_p) <= level_bound:
                # the sweep found a low-conductance piece outside the core:
                # make it a part of its own
                parts[i] = parts[i] - s_p
                parts.append(s_p)
                cores.append(set(s_p))
                counters["partSplit"] += 1
                acted = True

        if not acted:
            frag = parts[i] - cores[i]
            if frag:
                core_masks = [mask_of(g, c) for c in cores]
                j, e_j = _strongest_attachment(g, mask_of(g, frag), core_masks, i)
                if cross_edges(g, frag, cores[i]) < e_j:
                    parts[j] |= frag
                    parts[i] = set(cores[i])
                    counters["fragmentMerge"] += 1
                    acted = True

        # nothing has changed the parts while acted is False, so the two
        # actions below still use this pass's part_masks
        if not acted and s_set is not None:
            s_p = s_set - cores[i]
            if s_p:
                j, e_j = _strongest_attachment(g, mask_of(g, s_p), part_masks, i)
                if cross_edges(g, s_p, parts[i]) < e_j:
                    parts[i] = parts[i] - s_p
                    parts[j] |= s_p
                    counters["sweepMove"] += 1
                    acted = True

        if not acted:
            if not merge_holds:
                raise VerificationError(
                    f"a sparse cut exists in part {i} but no action applies; "
                    "the progress guarantee is violated"
                )
            # the fragment is attracted to another part as a whole even
            # though no listed action applies; moving it to its strongest
            # attachment strictly reduces cross edges
            frag = parts[i] - cores[i]
            j, e_j = _strongest_attachment(g, mask_of(g, frag), part_masks, i)
            if j < 0 or e_j <= cross_edges(g, frag, cores[i]):
                raise VerificationError(
                    "attraction condition held but no better part exists"
                )
            parts[j] |= frag
            parts[i] = set(cores[i])
            counters["fallbackMerge"] += 1

        repairs()
        assert_invariants()

    # terminal certificates, from the sweeps of the pass that ended the loop
    certificates = []
    for i, (part, sw) in enumerate(zip(parts, sweeps)):
        if sw is None or sw[1] < params.phi_in:
            raise VerificationError(
                f"terminal part {i} still admits a sparse cut "
                "(or is degenerate); the loop must not have ended"
            )
        phi_outer = set_conductance(g, part)
        ratio = _min_degree_ratio(g, part)
        if ratio < params.tau:
            raise VerificationError(
                f"part {i} keeps only {ratio} of some vertex degree, "
                f"below the guaranteed {params.tau}"
            )
        outer_bound = len(parts) * math.e * params.rho_star
        if len(parts) > 1 and phi_outer > outer_bound:
            raise VerificationError(
                f"part {i} outer conductance {phi_outer} exceeds {outer_bound}"
            )
        certificates.append(
            PartCertificate(
                sweep_conductance=sw[1],
                phi_inner_lb=_inner_lower_bound(sw[1]),
                phi_outer=phi_outer,
                min_degree_ratio=ratio,
            )
        )

    # list the parts by smallest vertex, so the order does not hang on the
    # sign that float rounding gives a Fiedler vector of a symmetric graph
    order = sorted(range(len(parts)), key=lambda i: min(parts[i]))
    return ExpanderPartition(
        parts=tuple(tuple(sorted(parts[i])) for i in order),
        cores=tuple(tuple(sorted(cores[i])) for i in order),
        ell=len(parts),
        certificates=tuple(certificates[i] for i in order),
        iterations=dict(counters),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartReport:
    vertices: tuple[int, ...]
    phi_outer: Fraction
    phi_outer_ok: bool
    min_degree_ratio: Fraction
    min_degree_ratio_ok: bool
    inner_lower_bound: Fraction | None  # via sweep, None for degenerate parts
    brute_inner: Fraction | None  # exact, only for small parts
    inner_ok: bool


@dataclass(frozen=True)
class PartitionReport:
    parts: tuple[PartReport, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "parts": [
                {
                    "vertices": list(p.vertices),
                    "phiOuter": str(p.phi_outer),
                    "phiOuterOk": p.phi_outer_ok,
                    "minDegreeRatio": str(p.min_degree_ratio),
                    "minDegreeRatioOk": p.min_degree_ratio_ok,
                    "innerLowerBound": (
                        None
                        if p.inner_lower_bound is None
                        else str(p.inner_lower_bound)
                    ),
                    "bruteInner": (
                        None if p.brute_inner is None else str(p.brute_inner)
                    ),
                    "innerOk": p.inner_ok,
                }
                for p in self.parts
            ],
        }


def verify_partition(
    g: Graph,
    parts: Sequence[Iterable[int]],
    params: PartitionParams,
) -> PartitionReport:
    """Check a claimed partition against the three per-part certificates.

    Inner conductance is verified by brute force for parts of at most
    SUBSET_ENUM_MAX_N vertices and by the sweep bound otherwise; the outer
    conductance and degree-ratio checks are exact.
    """
    norm = normalize_parts(g, parts)
    inner_threshold = _inner_lower_bound(params.phi_in)
    reports = []
    for vs in norm:
        phi_outer = Fraction(0) if len(norm) == 1 else set_conductance(g, vs)
        phi_outer_ok = phi_outer <= params.phi_out
        ratio = _min_degree_ratio(g, vs)
        ratio_ok = ratio >= params.tau
        inner_lb: Fraction | None = None
        brute: Fraction | None = None
        if len(vs) == 1:
            inner_ok = True  # vacuous: no cut exists inside a single vertex
        elif (
            len(vs) > SUBSET_ENUM_MAX_N
            and (sw := _sweep_in_part(g, set(vs), params.spectrum)) is not None
        ):
            inner_lb = _inner_lower_bound(sw[1])
            inner_ok = inner_lb >= inner_threshold
        else:
            # exact for small parts; an edgeless large part has conductance 0
            sub, _ = induced_subgraph(g, vs, allow_isolated=True)
            brute = (
                min_conductance(sub)[0]
                if all(d > 0 for d in sub.degrees)
                else Fraction(0)
            )
            inner_ok = brute >= inner_threshold
        reports.append(
            PartReport(
                vertices=vs,
                phi_outer=phi_outer,
                phi_outer_ok=phi_outer_ok,
                min_degree_ratio=ratio,
                min_degree_ratio_ok=ratio_ok,
                inner_lower_bound=inner_lb,
                brute_inner=brute,
                inner_ok=inner_ok,
            )
        )
    return PartitionReport(
        parts=tuple(reports),
        passed=all(
            r.phi_outer_ok and r.min_degree_ratio_ok and r.inner_ok for r in reports
        ),
    )
