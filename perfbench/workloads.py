"""The benchmark's four workloads: inputs made from a seed, and request ladders.

A workload turns ``--seed`` into edge-list files and a fixed ladder of
``pottspart`` command lines that read them.  The program sees only those
files and flags.

Instances whose oracle reference is expensive are fixed graphs whose vertex
labels the seed permutes.  Relabelling preserves every graph invariant the
request depends on, such as the spectrum, the degrees and the cost of the
run, so figures stay steady across seeds.  It also means the inverse
temperatures (computed on the canonical labelling) and the exact ``log Z``
do not depend on the seed, so oracle references can be cached by instance.
The partition-scale workload draws fresh random regular graphs from the seed
instead: it needs no oracle, and its cost hardly varies between draws.

No request passes ``--threads`` or ``--budget-*``: both are due to change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sse-regular", "ground-states", "partition-scale", "exact-fallback")

# The same threshold margin the acceptance battery uses.
BETA_MARGIN = 1.1
# Accuracy for the polymer pipelines; the exact-fallback workload asks for
# less than e^(-n/2) at n = 20, so every request there falls back to the oracle.
XI = "0.1"
XI_FALLBACK = "1e-6"


@dataclass(frozen=True)
class Request:
    """One CLI call of the ladder and what its output is checked against."""

    label: str  # stable across seeds
    argv: tuple[str, ...]
    instance: str  # canonical instance name (the oracle cache key, with q and beta)
    n: int
    q: int | None = None  # potts requests
    beta: float | None = None
    k: int | None = None  # partition requests


@dataclass
class Ladder:
    requests: list[Request]
    graphs: dict  # instance name -> Graph as written to disk (relabelled)


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


class _Builder:
    """Writes relabelled instances and assembles the ladder."""

    def __init__(self, pp, workload: str, seed: int, workdir: Path):
        self.pp = pp
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.requests: list[Request] = []
        self.graphs: dict = {}
        self._files: dict[str, tuple[str, list[int]]] = {}

    def add_graph(self, name: str, g, *, relabel: bool = True) -> None:
        """Write g with its vertices permuted by the seed."""
        perm = list(range(g.n))
        if relabel:
            random.Random(f"{self.seed}/{self.workload}/{name}").shuffle(perm)
        h = self.pp.graphs.Graph.from_edges(
            [(perm[u], perm[v]) for u, v in g.edges], n=g.n
        )
        path = self.workdir / (name.replace("(", "_").replace(")", "").replace(",", "_") + ".el")
        path.write_text(self.pp.graphs.serialize_graph(h))
        self.graphs[name] = h
        self._files[name] = (str(path), perm)

    def potts(self, label, name, g, q, beta, mode_args, xi=XI, parts=None):
        path, perm = self._files[name]
        argv = ["potts", "--q", str(q), "--beta", repr(beta), "--eps", xi, *mode_args]
        if parts is not None:
            argv += ["--parts", "/".join(",".join(str(perm[v]) for v in p) for p in parts)]
        self.requests.append(
            Request(label, tuple(argv + [path]), name, g.n, q=q, beta=beta)
        )

    def partition(self, label, name, g, k):
        path, _ = self._files[name]
        self.requests.append(
            Request(label, ("partition", "--k", str(k), path), name, g.n, k=k)
        )


def _sse_beta(pp, g, k, q):
    params = pp.partition.PartitionParams.from_graph(g, k)
    need = pp.potts.required_beta_sse(params, q, g.max_degree, min(g.degrees))
    return BETA_MARGIN * need


def _sse_regular(b: _Builder) -> None:
    """The headline pipeline: sse mode at 1.1x its threshold, xi = 0.1."""
    gen = b.pp.generate
    instances = [
        ("petersen", b.pp.graphs.Graph.from_edges(petersen_edges()), 2),
        ("clique-chain(2,5,1)", gen.clique_chain(2, 5, 1), 2),
        ("clique-chain(3,5,1)", gen.clique_chain(3, 5, 1), 3),
        ("random-regular(16,3)", gen.random_regular(16, 3, 0), 2),
    ]
    for name, g, k in instances:
        b.add_graph(name, g)
        for q in (2, 3):
            beta = _sse_beta(b.pp, g, k, q)
            b.potts(f"{name} q={q}", name, g, q, beta, ["--mode", "sse", "--k", str(k)])


def _ground_states(b: _Builder) -> None:
    """Many ground states with live weights: a small build evaluated often."""
    gen, potts = b.pp.generate, b.pp.potts
    q = 3
    for t in (3, 4):
        for s in (3, 4):
            name = f"clique-chain({t},{s},1)"
            g = gen.clique_chain(t, s, 1)
            parts = [list(range(i * s, (i + 1) * s)) for i in range(t)]
            alpha = potts.certified_alpha(g, parts)
            eta = s / g.n
            beta = BETA_MARGIN * potts.required_beta_good_parts(q, g.max_degree, alpha, eta)
            b.add_graph(name, g)
            b.potts(f"{name} q={q}", name, g, q, beta, ["--mode", "good-parts"], parts=parts)
    # two bridged 5-cliques plus a triangle hanging off vertex 9; with eta =
    # 0.3 the triangle is a bad part (3 < 0.3 * 13) that gets cut out
    name = "two-K5-pendant-K3"
    triangle = [(10, 11), (10, 12), (11, 12), (9, 10)]
    g = b.pp.graphs.Graph.from_edges(list(gen.clique_chain(2, 5, 1).edges) + triangle)
    parts = [list(range(5)), list(range(5, 10)), [10, 11, 12]]
    eta = "0.3"
    alpha = potts.certified_alpha(g, parts)
    beta = BETA_MARGIN * potts.required_beta_good_parts(q, g.max_degree, alpha, float(eta))
    b.add_graph(name, g)
    b.potts(
        f"{name} q={q}", name, g, q, beta,
        ["--mode", "with-partition", "--eta", eta], parts=parts,
    )


def _partition_scale(b: _Builder) -> None:
    """Spectrum, partitioner loop and verification; no polymers at all."""
    gen = b.pp.generate
    instances = [
        ("random-regular(1000,3)", gen.random_regular(1000, 3, b.seed), 3, False),
        ("random-regular(2000,3)", gen.random_regular(2000, 3, b.seed), 3, False),
        ("clique-chain(4,100,1)", gen.clique_chain(4, 100, 1), 5, True),
        ("clique-chain(3,50,1)", gen.clique_chain(3, 50, 1), 4, True),
    ]
    for name, g, k, relabel in instances:
        b.add_graph(name, g, relabel=relabel)
        b.partition(f"{name} k={k}", name, g, k)


def _exact_fallback(b: _Builder) -> None:
    """xi <= e^(-n/2): every request is answered by the exact oracle."""
    gen, potts = b.pp.generate, b.pp.potts
    instances = [
        ("cycle(14)", gen.cycle_graph(14), (("expander", 2), ("expander", 3))),
        ("random-regular(14,3)", gen.random_regular(14, 3, 0), (("sse", 3),)),
        ("random-regular(16,3)", gen.random_regular(16, 3, 0), (("expander", 2), ("sse", 2))),
        ("random-regular(18,3)", gen.random_regular(18, 3, 0), (("expander", 2), ("sse", 2))),
        ("random-regular(20,3)", gen.random_regular(20, 3, 0), (("expander", 2), ("sse", 2))),
    ]
    for name, g, runs in instances:
        b.add_graph(name, g)
        for mode, q in runs:
            if mode == "expander":
                alpha = potts.certified_alpha(g, [list(range(g.n))])
                beta = BETA_MARGIN * potts.required_beta_expander(q, g.max_degree, alpha)
                args = ["--mode", "expander", "--alpha", repr(alpha)]
            else:
                beta = _sse_beta(b.pp, g, 2, q)
                args = ["--mode", "sse", "--k", "2"]
            b.potts(f"{name} {mode} q={q}", name, g, q, beta, args, xi=XI_FALLBACK)


_BUILDERS = {
    "sse-regular": _sse_regular,
    "ground-states": _ground_states,
    "partition-scale": _partition_scale,
    "exact-fallback": _exact_fallback,
}


def build(pp, workload: str, seed: int, workdir: Path) -> Ladder:
    """Write the workload's inputs into workdir and return its ladder.

    pp is a namespace holding the program's modules (graphs, generate,
    partition, potts).  Thresholds are computed on the canonical labelling.
    """
    b = _Builder(pp, workload, seed, workdir)
    _BUILDERS[workload](b)
    return Ladder(b.requests, b.graphs)
