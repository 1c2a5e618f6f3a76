"""Correctness of each request's output, and the oracle references it needs.

A potts request fails when its exit code is nonzero or when
|logZ - exact| > epsBound against ``oracle.exact_log_z``.  A request whose
instance needs more states than ``oracle.STATE_BUDGET`` has no reference
and is checked by its exit code and payload only.  A partition request
fails unless it exits 0 and its payload is a verified partition of the
vertex set into fewer than k parts.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path


class References:
    """Exact log Z per (instance, q, beta), cached in a JSON file.

    The instances are fixed graphs whose labels the seed permutes, and
    exact log Z does not depend on labels, so one entry serves every seed.
    """

    def __init__(self, path: Path, oracle, components):
        self.path = path
        self.oracle = oracle
        self.components = components
        self.values: dict[str, float] = {}
        if path.is_file():
            self.values = json.loads(path.read_text())
        self.computed = 0

    def states(self, g, q: int) -> int:
        return sum(q ** len(c) for c in self.components(g))

    def get(self, request, g) -> float | None:
        if request.q is None or self.states(g, request.q) > self.oracle.STATE_BUDGET:
            return None
        key = f"{request.instance}|q={request.q}|beta={request.beta!r}"
        if key not in self.values:
            self.values[key] = self.oracle.exact_log_z(g, request.q, request.beta)
            self.computed += 1
        return self.values[key]

    def save(self) -> None:
        if not self.computed:
            return
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.values, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def check_potts(rc: int, payload: str, reference: float | None) -> tuple[str | None, float]:
    """(reason it failed or None, |logZ - exact| / epsBound)."""
    if rc != 0:
        return f"exit code {rc}", 0.0
    try:
        d = json.loads(payload)
        log_z, eps = float(d["logZ"]), float(d["epsBound"])
    except (ValueError, KeyError, TypeError):
        return "payload has no numeric logZ and epsBound", 0.0
    if not (math.isfinite(log_z) and math.isfinite(eps) and eps >= 0):
        return f"logZ={log_z!r} epsBound={eps!r} are not finite", 0.0
    if reference is None:
        return None, 0.0
    err = abs(log_z - reference)
    ratio = err / eps if eps > 0 else (0.0 if err == 0 else math.inf)
    if err > eps:
        return f"|logZ - exact| = {err!r} > epsBound = {eps!r}", ratio
    return None, ratio


def check_partition(rc: int, payload: str, n: int, k: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        d = json.loads(payload)
        parts = [[int(v) for v in p] for p in d["parts"]]
        verified, ell = d["verified"], d["ell"]
    except (ValueError, KeyError, TypeError):
        return "payload has no parts, ell and verified fields"
    if verified is not True:
        return "partition not verified"
    if ell != len(parts) or not 1 <= ell < k:
        return f"ell={ell} with {len(parts)} parts, want 1 <= ell < k={k}"
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(n)):
        return "parts do not partition the vertex set"
    return None


def self_test(samples: list[tuple[str, str, object]]) -> list[str]:
    """Perturbed payloads must fail; returns the perturbations that passed.

    samples holds (kind, payload, reference or (n, k)) of requests that
    passed.  A potts logZ moves by 2*epsBound (to the next float when
    epsBound is 0), away from the reference; a partition loses a vertex.
    """
    escaped = []
    synthetic = json.dumps({"logZ": 10.0, "epsBound": 0.1})
    for kind, payload, ref in [("potts", synthetic, 10.0), *samples]:
        d = json.loads(payload)
        if kind == "potts":
            eps, log_z = d["epsBound"], d["logZ"]
            away = math.inf if log_z >= ref else -math.inf
            d["logZ"] = log_z + math.copysign(2 * eps, away) if eps > 0 else math.nextafter(log_z, away)
            bad = check_potts(0, json.dumps(d), ref)[0] is None
        else:
            d["parts"][0] = d["parts"][0][1:]
            bad = check_partition(0, json.dumps(d), *ref) is None
        if bad:
            escaped.append(f"{kind} perturbation not detected")
    return escaped
