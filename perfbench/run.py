#!/usr/bin/env python3
"""Benchmark of the ``pottspart`` command line, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ground-states --seed 1 --seconds 40 --trace 0

Each request is one in-process call to ``pottspart.cli.main(argv)`` with
stdout captured as the payload.  Requests go out one at a time from this
process (a closed loop with one client).  One full pass over the
workload's ladder always runs; after it, requests are repeated on a
time-shared schedule (``serve_until``) until ``--seconds`` have elapsed,
and each request's time is the median of its repeats.  The program is
imported from ``src/`` of the checkout.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes while another pair
fits in ``--seconds`` (at least one pair runs) and reports the per-layer
metrics of the traced ones, plus the tracing overhead (median traced pass
minus median untraced pass); the spans are written to
``perfbench/.state/spans/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means a result was
printed; without the program's sources the run stops with code 1 first.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"  # inputs, oracle references, digests, spans
SETUP_PROBES = 5  # fresh processes timed for setup_s
WARMUP_MAX_N = 1000  # largest eigh that warms up LAPACK in set-up
PROBE_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# set-up: everything a request needs before the first timed call
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    package = SRC / "pottspart"
    sys.path.insert(0, str(SRC))
    from pottspart import cli, generate, graphs, oracle, partition, polymers, potts, spectral

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: pottspart was imported from {cli.__file__}, not {package}")
    return SimpleNamespace(
        cli=cli,
        generate=generate,
        graphs=graphs,
        oracle=oracle,
        partition=partition,
        polymers=polymers,
        potts=potts,
        spectral=spectral,
    )


def warm_up_lapack(n: int) -> None:
    """The first eigh of a size pays one-off start-up costs; pay them here.

    The costs are BLAS thread start-up and the allocator's first mapping of
    matrices that large, so the warm-up matches the workload's largest input.
    """
    import numpy as np

    n = min(n, WARMUP_MAX_N)
    a = np.random.default_rng(0).standard_normal((n, n))
    np.linalg.eigh(a + a.T)


def set_up(workload: str, seed: int, workdir: Path):
    pp = load_program()
    ladder = workloads.build(pp, workload, seed, workdir)
    warm_up_lapack(max(r.n for r in ladder.requests))
    return pp, ladder


def probe(args) -> int:
    """Set up once in this fresh process and print the monotonic clock."""
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=STATE))
    try:
        set_up(args.workload, args.seed, workdir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from process start to ready, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# serving the ladder
# ---------------------------------------------------------------------------


def call(main, argv) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def serve(main, requests, tracer=None) -> list[tuple[int, float, str, str]]:
    results = []
    for req in requests:
        gc.collect()  # start every request from the same heap, untimed
        if tracer is not None:
            tracer.request += 1
        results.append(call(main, req.argv))
    return results


def serve_until(stop: float, deadline: float, main, requests, samples: list[list]) -> None:
    """Repeat requests on a time-shared schedule until stop.

    samples holds each request's results so far, at least one each.  The
    next request is the one with the least served seconds times samples
    among those whose last time still fits before the deadline of the run.
    A request taking t seconds so gets about 1/sqrt(t) of the samples:
    short requests collect many, long ones at least one; all of them
    interleave over the whole run, and the run ends near the deadline
    instead of overrunning it by a pass.
    """
    served = [sum(t for _, t, _, _ in runs) for runs in samples]
    while time.monotonic() < stop:
        left = deadline - time.monotonic()
        fits = [i for i, runs in enumerate(samples) if runs[-1][1] <= left]
        if not fits:
            return
        i = min(fits, key=lambda j: served[j] * len(samples[j]))
        gc.collect()
        samples[i].append(call(main, requests[i].argv))
        served[i] += samples[i][-1][1]


# ---------------------------------------------------------------------------
# correctness and determinism
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pottspart").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def digests_of(results) -> list[str]:
    return [hashlib.sha256(out.encode()).hexdigest() for _, _, out, _ in results]


def check_determinism(args, requests, samples) -> list[str]:
    """Every repeat of a request must match its first; a stored earlier run must agree.

    Earlier runs are keyed by a digest of the program's sources, so digests
    are only ever compared within one version of the program.
    """
    problems = []
    first = {}
    for req, runs in zip(requests, samples):
        digests = digests_of(runs)
        first[req.label] = digests[0]
        for i, d in enumerate(digests[1:], start=1):
            if d != digests[0]:
                problems.append(f"{req.label}: repeat {i} payload differs from the first")
    store = STATE / "digests" / source_digest() / f"{args.workload}-seed{args.seed}.json"
    if store.is_file():
        earlier = json.loads(store.read_text())
        for label, d in first.items():
            if earlier.get(label, d) != d:
                problems.append(f"{label}: payload differs from an earlier run of this version")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, indent=1))
    return problems


def check_outputs(requests, references, samples):
    """(attempted, failed reasons, worst |err|/epsBound, self-test samples)."""
    attempted, reasons, worst, self_test = 0, [], 0.0, []
    for req, ref, runs in zip(requests, references, samples):
        for j, (rc, _, out, err) in enumerate(runs):
            attempted += 1
            if req.k is not None:
                reason = check.check_partition(rc, out, req.n, req.k)
                sample = ("partition", out, (req.n, req.k))
            else:
                reason, ratio = check.check_potts(rc, out, ref)
                worst = max(worst, ratio)
                sample = ("potts", out, ref) if ref is not None else None
            if reason is not None:
                tail = err.strip().splitlines()[-1:] or [""]
                reasons.append(f"{req.label}: {reason} {tail[0]}".rstrip())
            elif sample is not None and j == 0:
                self_test.append(sample)
    return attempted, reasons, worst, self_test


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) >= 1000:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def declared_metrics(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace_on else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def emit(correct: bool, attempted: int, failed: int, values: dict, trace_on: bool) -> None:
    units = declared_metrics(trace_on)
    if set(units) != set(values):
        missing, extra = set(units) - set(values), set(values) - set(units)
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "pottspart" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'pottspart'}; run from a checkout")
    if args.setup_probe:
        return probe(args)
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    pp, ladder = set_up(args.workload, args.seed, workdir)
    requests = ladder.requests
    refs = check.References(STATE / "oracle_refs.json", pp.oracle, pp.graphs.components)
    references = [refs.get(r, ladder.graphs[r.instance]) for r in requests]
    refs.save()

    deadline = time.monotonic() + args.seconds
    tracer = None
    if args.trace:
        # alternate untraced and traced passes so that both see the same
        # machine; their difference is the tracing overhead
        tracer = tracing.Tracer(pp)
        traced_main = tracer.wrap("cli.main", pp.cli.main)
        untraced, traced = [], []
        pair_s = 0.0
        while not traced or time.monotonic() + pair_s <= deadline:
            start = time.monotonic()
            untraced.append(serve(pp.cli.main, requests))
            tracer.install()
            try:
                traced.append(serve(traced_main, requests, tracer))
            finally:
                tracer.uninstall()
            pair_s = time.monotonic() - start
        walls = [sum(t for _, t, _, _ in results) for results in untraced + traced]
        samples = [list(runs) for runs in zip(*(untraced + traced))]  # per request
    else:
        # one full pass, then the time-shared schedule, with a set-up probe
        # after each of SETUP_PROBES equal slices of the run, so that
        # setup_s sees the host over the whole run, as the requests do
        start = deadline - args.seconds
        samples = [[result] for result in serve(pp.cli.main, requests)]
        setup_times = []
        for k in range(1, SETUP_PROBES + 1):
            serve_until(start + args.seconds * k / SETUP_PROBES, deadline,
                        pp.cli.main, requests, samples)
            setup_times.append(measure_setup(args))

    attempted, reasons, worst, self_test = check_outputs(requests, references, samples)
    problems = check_determinism(args, requests, samples)
    problems += check.self_test(self_test)
    for line in reasons + problems:
        print(f"FAIL {line}")
    correct = not reasons and not problems

    print(f"{args.workload} seed {args.seed}: {len(requests)} requests, {attempted} served")
    print(f"failed_frac {len(reasons) / attempted:.4g} ({len(reasons)}/{attempted} requests)")
    if tracer is None:
        # each request's median over its repeats; the ladder's wall time is
        # their sum, and the median across the ladder lands on one
        # request's typical time
        solve = [statistics.median(t for _, t, _, _ in runs) for runs in samples]
        for req, runs, t in zip(requests, samples, solve):
            print(f"  {req.label}: median {t:.4f} s of {len(runs)}")
        timings = [t for runs in samples for _, t, _, _ in runs]
        tail = tail_percentile(timings)
        values = {
            "wall_s": sum(solve),
            "solve_p50_s": statistics.median(solve),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"wall_s {values['wall_s']:.4f} s (sum of the {len(solve)} request medians)")
        print(f"solve_p50_s {values['solve_p50_s']:.4f} s ({len(timings)} samples; "
              + (f"p{tail[0]} {tail[1]:.4f} s)" if tail else
                 "no tail percentile has ten samples beyond it)"))
        print(f"setup_s {values['setup_s']:.4f} s (median of {len(setup_times)} fresh processes: "
              f"{', '.join(f'{t:.3f}' for t in setup_times)})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    else:
        n_traced = len(traced)
        values = tracer.layer_metrics(n_traced)
        values["cli.payload_bytes"] = sum(len(runs[0][2].encode()) for runs in samples)
        values["potts.err_over_bound_max"] = worst
        values["trace.spans"] = len(tracer.spans) / n_traced
        values["trace.overhead_s"] = (statistics.median(walls[n_traced:])
                                      - statistics.median(walls[:n_traced]))
        spans_dir = STATE / "spans"
        spans_dir.mkdir(exist_ok=True)
        out_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out_path, [r.label for r in requests] * n_traced)
        print(f"traced {n_traced} passes: {len(tracer.spans)} spans -> {out_path.relative_to(ROOT)}")
        for name in sorted(values):
            print(f"  {name} {values[name]:.6g}")
    emit(correct, attempted, len(reasons), values, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
