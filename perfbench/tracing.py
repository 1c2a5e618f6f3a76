"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces functions in the program's module namespaces with
wrappers that record a span (name, parent, request, start, end, error) and,
for a few boundaries, a counter taken from the arguments or the result.
Nothing inside the program changes; uninstall() puts every binding back.

What is wrapped:

* every function one layer imports from another, at the importing module
  (for example ``potts.truncated_log_xi`` and ``partition.sweep_cut``);
* the in-layer stages the per-layer metrics name, at their own module too:
  ``spectral.normalized_laplacian_spectrum``, ``potts.certified_alpha``,
  ``polymers.polymer_log_weights`` and ``polymers.check_weight_bounds``;
* the methods ``ClusterExpansion.__init__``, ``ClusterExpansion.log_xi``
  and ``PartitionParams.from_graph``;
* ``cli.main``, at the benchmark's own call site.

Calls inside a layer to its small helpers stay unwrapped: the exhaustive
expander check alone calls ``boundary_size_mask`` once per subset, and a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "graphs", "spectral", "partition", "potts", "polymers", "oracle")

IN_LAYER = {
    "spectral": ("normalized_laplacian_spectrum",),
    "potts": ("certified_alpha",),
    "polymers": ("polymer_log_weights", "check_weight_bounds"),
}
METHODS = {
    ("polymers", "ClusterExpansion"): ("__init__", "log_xi"),
    ("partition", "PartitionParams"): ("from_graph",),
}

# Boundaries whose self times make up one per-layer timing metric.
TIMED = {
    "cli.self_s": None,  # the whole cli layer
    "potts.self_s": None,  # the whole potts layer
    "graphs.parse_s": ("graphs.parse_graph",),
    "graphs.expander_check_s": ("graphs.is_alpha_expander",),
    "spectral.spectrum_s": ("spectral.normalized_laplacian_spectrum",),
    "spectral.sweep_s": ("spectral.sweep_cut",),
    "partition.params_s": ("partition.PartitionParams.from_graph",),
    "partition.loop_s": ("partition.partition_into_expanders",),
    "partition.verify_s": ("partition.verify_partition",),
    "polymers.enumerate_s": ("polymers.enumerate_polymers",),
    "polymers.clusters_build_s": ("polymers.ClusterExpansion.__init__",),
    "polymers.evaluate_s": ("polymers.ClusterExpansion.log_xi",),
    "polymers.weights_s": ("polymers.polymer_log_weights", "polymers.check_weight_bounds"),
    "potts.certified_alpha_s": ("potts.certified_alpha",),
    "oracle.exact_s": ("oracle.exact_log_z",),
}
# Per-layer metrics that are plain counts, taken at the boundaries.
COUNTED = (
    "spectral.dense_bytes",
    "partition.iterations",
    "partition.verify_bruteforce_parts",
    "polymers.polymers",
    "polymers.clusters",
    "polymers.cluster_terms",
    "polymers.weight_evals",
    "potts.ground_states",
    "oracle.states",
    "oracle.bytes_computed",
)
# Counts behind the ratio metrics.
_RATIO_PARTS = ("polymers.cluster_builds", "polymers.depth_sum", "polymers.zero_xi")
# The pipelines the CLI calls; an exception out of one is a refusal.
_PIPELINES = frozenset(
    f"potts.approx_log_z_{mode}"
    for mode in ("sse", "expander", "good_parts", "with_partition")
)


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self, pp):
        self.pp = pp  # namespace of the program's layer modules
        self.spans: list[tuple] = []  # (name, parent, request, start, end, error)
        self.counters = dict.fromkeys(COUNTED + _RATIO_PARTS, 0)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "spectral.normalized_laplacian_spectrum": self._count_dense,
            "partition.partition_into_expanders": self._count_iterations,
            "partition.verify_partition": self._count_bruteforce,
            "polymers.enumerate_polymers": self._count_polymers,
            "polymers.ClusterExpansion.__init__": self._count_build,
            "polymers.ClusterExpansion.log_xi": self._count_terms,
            "polymers.polymer_log_weights": self._count_weights,
            "polymers.truncated_log_xi": self._count_xi,
            "oracle.exact_log_z": self._count_states,
        }
        self._components = pp.graphs.components

    # -- counters (run after the span closes) --------------------------------

    def _count_dense(self, args, kwargs, result):
        self.counters["spectral.dense_bytes"] += 8 * args[0].n ** 2

    def _count_iterations(self, args, kwargs, result):
        self.counters["partition.iterations"] += result.iterations.get("main", 0)

    def _count_bruteforce(self, args, kwargs, result):
        self.counters["partition.verify_bruteforce_parts"] += sum(
            p.brute_inner is not None for p in result.parts
        )

    def _count_polymers(self, args, kwargs, result):
        self.counters["polymers.polymers"] += len(result)

    def _count_build(self, args, kwargs, result):
        expansion = args[0]
        self.counters["polymers.clusters"] += expansion.cluster_count
        self.counters["polymers.cluster_builds"] += 1
        self.counters["polymers.depth_sum"] += expansion.max_total_size

    def _count_terms(self, args, kwargs, result):
        self.counters["polymers.cluster_terms"] += args[0].cluster_count

    def _count_weights(self, args, kwargs, result):
        self.counters["polymers.weight_evals"] += len(result)

    def _count_xi(self, args, kwargs, result):
        self.counters["potts.ground_states"] += 1
        self.counters["polymers.zero_xi"] += result.log_xi == 0.0

    def _count_states(self, args, kwargs, result):
        g, q = args[0], args[1]
        for comp in self._components(g):
            states = q ** len(comp)
            self.counters["oracle.states"] += states
            # one byte per vertex colour per state: the colour matrix the
            # enumeration materialises (computed, not measured)
            self.counters["oracle.bytes_computed"] += states * len(comp)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.request, start, end, error)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: getattr(self.pp, layer) for layer in LAYERS}
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                layer = by_module[fn.__module__]
                wrappers[id(fn)] = self.wrap(f"{layer}.{fn.__name__}", fn)
            return wrappers[id(fn)]

        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in by_module:
                    continue
                home = by_module[obj.__module__]
                if home != layer or attr in IN_LAYER.get(layer, ()):
                    self._replace(module, attr, wrapper_for(obj))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(f"{layer}.{cls_name}.{attr}", raw.__func__))
                else:
                    new = self.wrap(f"{layer}.{cls_name}.{attr}", raw)
                self._replace(cls, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass of the ladder."""
        own = self.self_times()
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        by_layer = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        refusals = 0
        for (name, _, _, _, _, error), t in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            by_name[name] = by_name.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            by_layer[layer] += t
            if error is not None:
                errors[layer] += 1
                refusals += name in _PIPELINES
        out: dict[str, float] = {}
        for metric, names in TIMED.items():
            if names is None:
                out[metric] = by_layer[metric.split(".", 1)[0]]
            else:
                out[metric] = sum(by_name.get(n, 0.0) for n in names)
        c = self.counters
        out.update((name, c[name]) for name in COUNTED)
        out["spectral.spectrum_calls"] = calls.get("spectral.normalized_laplacian_spectrum", 0)
        out["potts.refusals"] = refusals
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        out = {k: v / passes for k, v in out.items()}
        # ratios, not per-pass totals
        builds, xi_evals = c["polymers.cluster_builds"], c["potts.ground_states"]
        out["polymers.truncation_depth"] = c["polymers.depth_sum"] / builds if builds else 0.0
        out["polymers.zero_xi_frac"] = c["polymers.zero_xi"] / xi_evals if xi_evals else 0.0
        exact_s = out["oracle.exact_s"]
        out["oracle.states_per_s"] = out["oracle.states"] / exact_s if exact_s > 0 else 0.0
        return out

    def dump(self, path, labels: list[str]) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"requests": labels}) + "\n")
            for sid, (name, parent, request, start, end, error) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "parent": parent,
                            "request": request,
                            "start": start,
                            "end": end,
                            "error": error,
                        }
                    )
                    + "\n"
                )
