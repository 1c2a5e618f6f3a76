"""Command-line interface.

Subcommands: ``generate`` (test instances), ``partition`` (certified
expander partition), ``potts`` (approximate log Z), ``oracle`` (exact log Z
from the exact colouring histogram), ``verify`` (approximation vs. oracle).

Exit codes: 0 success, 1 usage failure (argparse) and otherwise the
``exit_code`` of the ``errors`` class raised: 1 precondition or parse
failure, 2 verification failure, 3 enumeration budget exceeded; a
``partition`` or ``verify`` run whose check fails also exits 2.  The
argument parser is built once, at import, and serves every ``main`` call;
budget flags apply to the one invocation that passes them.  All JSON
output carries a ``schemaVersion`` field and is byte-identical across
repeated runs with the same inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .budgets import Budgets
from .errors import ParseError, PottspartError, PreconditionError
from .generate import generate_graph
from .graphs import Graph, parse_graph, serialize_graph
from .oracle import exact_log_z
from .partition import PartitionParams, partition_into_expanders, verify_partition
from .potts import (
    PottsResult,
    approx_log_z_expander,
    approx_log_z_good_parts,
    approx_log_z_sse,
    approx_log_z_with_partition,
)

SCHEMA_VERSION = 1

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means verification failure here."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pottspart",
        description=(
            "Certified expander partitions and polymer-expansion "
            "approximation of ferromagnetic Potts partition functions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument(
        "input",
        help=(
            "edge-list file, one 'u v' pair per line ('-' reads stdin); a "
            "line whose first non-blank character is '#' is skipped, but a "
            "'#' after an edge is an error"
        ),
    )

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--q", type=int, required=True, help="number of colours (>= 2)")
    model.add_argument("--beta", type=float, required=True, help="inverse temperature")

    state_budget = argparse.ArgumentParser(add_help=False)
    state_budget.add_argument(
        "--budget-states",
        type=int,
        metavar="N",
        help="override the exact-enumeration state budget (loud warning)",
    )
    budgets = argparse.ArgumentParser(add_help=False, parents=[state_budget])
    budgets.add_argument(
        "--budget-ground-states",
        type=int,
        metavar="N",
        help="override the ground-state count budget (loud warning)",
    )
    budgets.add_argument(
        "--budget-polymers",
        type=int,
        metavar="N",
        help="override the polymer enumeration budget (loud warning)",
    )
    budgets.add_argument(
        "--budget-clusters",
        type=int,
        metavar="N",
        help="override the cluster-expansion budget (loud warning)",
    )

    approx = argparse.ArgumentParser(add_help=False)
    approx.add_argument(
        "--eps",
        type=float,
        required=True,
        help=(
            "accuracy xi, clamped to 0.25; epsBound is xi, except where parts "
            "are cut out (mode with-partition, or sse with a part below n/k "
            "vertices): then (s+1)*xi + beta*X/2 for s cut parts and X cut "
            "edges"
        ),
    )
    approx.add_argument(
        "--mode",
        choices=("sse", "expander", "good-parts", "with-partition"),
        default="sse",
        help="which pipeline to run (default: sse)",
    )
    approx.add_argument("--k", type=int, help="spectral order (mode sse)")
    approx.add_argument(
        "--alpha",
        type=float,
        help=(
            "edge expansion of the graph (mode expander); checked exactly "
            "for n <= 20, trusted above that"
        ),
    )
    approx.add_argument(
        "--parts",
        help=(
            "vertex partition as slash-separated comma lists, e.g. "
            "'0,1,2/3,4,5' (modes good-parts and with-partition)"
        ),
    )
    approx.add_argument(
        "--eta",
        type=float,
        help="smallest good part size as a fraction of n (mode with-partition)",
    )

    gen = sub.add_parser(
        "generate",
        help="write a test graph as an edge list",
        description=(
            "Generators: cycle(n), complete(n), clique-chain(t,s,bridges), "
            "random-regular(n,d)."
        ),
    )
    gen.add_argument("spec", help="generator spec, e.g. 'random-regular(10,3)'")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument(
        "-o", "--output", help="output file (default: stdout)", default=None
    )

    part = sub.add_parser(
        "partition",
        parents=[graph_in, fmt],
        help="compute and verify a certified expander partition",
    )
    part.add_argument("--k", type=int, required=True, help="spectral order (>= 2)")

    sub.add_parser(
        "potts",
        parents=[graph_in, fmt, model, approx, budgets],
        help="approximate log Z",
    )
    sub.add_parser(
        "oracle",
        parents=[graph_in, fmt, model, state_budget],
        help="exact log Z from the exact colouring histogram",
    )
    sub.add_parser(
        "verify",
        parents=[graph_in, fmt, model, approx, budgets],
        help="run the approximation and the oracle; fail if they disagree",
    )
    return parser


def _load_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)


def _parse_parts(text: str) -> list[list[int]]:
    parts: list[list[int]] = []
    for chunk in text.split("/"):
        try:
            parts.append([int(tok) for tok in chunk.split(",") if tok.strip()])
        except ValueError:
            raise PreconditionError(
                f"bad --parts value {text!r}: expected slash-separated "
                f"comma lists of vertex ids"
            ) from None
    if not any(parts):
        raise PreconditionError(f"bad --parts value {text!r}: no vertices")
    return parts


def _budgets(args: argparse.Namespace) -> Budgets:
    """The budgets this invocation runs under; warns for each override."""
    overrides = {
        f.name: getattr(args, f"budget_{f.name}")
        for f in fields(Budgets)
        if getattr(args, f"budget_{f.name}", None) is not None
    }
    budgets = Budgets(**overrides)
    for name, value in overrides.items():
        print(
            f"warning: --budget-{name.replace('_', '-')} overridden to {value} "
            f"(default {getattr(Budgets(), name)}); budgets guard runtime and memory",
            file=sys.stderr,
        )
    return budgets


def _run_pipeline(args: argparse.Namespace, g: Graph, budgets: Budgets) -> PottsResult:
    if args.mode == "sse":
        if args.k is None:
            raise PreconditionError("mode sse requires --k")
        return approx_log_z_sse(g, args.k, args.q, args.beta, args.eps, budgets=budgets)
    if args.mode == "expander":
        if args.alpha is None:
            raise PreconditionError("mode expander requires --alpha")
        return approx_log_z_expander(
            g, args.q, args.beta, args.eps, args.alpha, budgets=budgets
        )
    if args.parts is None:
        raise PreconditionError(f"mode {args.mode} requires --parts")
    parts = _parse_parts(args.parts)
    if args.mode == "good-parts":
        return approx_log_z_good_parts(
            g, parts, args.q, args.beta, args.eps, budgets=budgets
        )
    if args.eta is None:
        raise PreconditionError("mode with-partition requires --eta")
    return approx_log_z_with_partition(
        g, parts, args.q, args.beta, args.eps, args.eta, budgets=budgets
    )


def _emit(payload: dict, args: argparse.Namespace, text: str) -> None:
    if args.format == "json":
        # one compact line: indenting put every colour of every perPsi
        # entry on its own line, half of a good-parts payload's bytes
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate_graph(args.spec, args.seed)
    text = serialize_graph(g)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    params = PartitionParams.from_graph(g, args.k)
    partition = partition_into_expanders(g, params)
    report = verify_partition(g, partition.parts, params)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "ell": partition.ell,
        "verified": report.passed,
        **partition.to_dict(),
        "verification": report.to_dict(),
    }
    lines = [f"ell = {partition.ell}", f"verified = {report.passed}"]
    for i, (p, cert) in enumerate(zip(partition.parts, partition.certificates)):
        lines.append(
            f"part {i}: {len(p)} vertices, inner conductance >= "
            f"{cert.phi_inner_lb} (sweep {cert.sweep_conductance}), outer "
            f"{cert.phi_outer}, min degree ratio {cert.min_degree_ratio}"
        )
    _emit(payload, args, "".join(line + "\n" for line in lines))
    return 0 if report.passed else 2


def _render_result_text(d: dict) -> str:
    lines = [
        f"logZ = {d['logZ']!r}",
        f"epsBound = {d['epsBound']!r}",
        f"mode = {d['mode']}",
        f"groundStates = {d['groundStates']}",
        f"truncationDepth = {d['truncationDepth']}",
        f"clustersEvaluated = {d['clustersEvaluated']}",
        f"perPsi = {len(d['perPsi'])} ground states expanded",
    ]
    return "".join(line + "\n" for line in lines)


def _cmd_potts(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    g = _load_graph(args.input)
    result = _run_pipeline(args, g, budgets)
    payload = {"schemaVersion": SCHEMA_VERSION, **result.to_dict()}
    _emit(payload, args, _render_result_text(payload))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    g = _load_graph(args.input)
    value = exact_log_z(g, args.q, args.beta, budget=budgets.states)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "logZ": value,
        "epsBound": 0.0,
        "mode": "oracle",
    }
    _emit(payload, args, f"logZ = {value!r}\nepsBound = 0.0\nmode = oracle\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    g = _load_graph(args.input)
    result = _run_pipeline(args, g, budgets)
    exact = exact_log_z(g, args.q, args.beta, budget=budgets.states)
    difference = abs(result.log_z - exact)
    ok = difference <= result.eps_bound
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "pass": ok,
        "logZApprox": result.log_z,
        "logZExact": exact,
        "difference": difference,
        "epsBound": result.eps_bound,
        "mode": result.mode,
    }
    verdict = "PASS" if ok else "FAIL"
    text = (
        f"{verdict}: |logZapprox - logZexact| = {difference!r} "
        f"{'<=' if ok else '>'} epsBound = {result.eps_bound!r} "
        f"(mode {result.mode})\n"
    )
    _emit(payload, args, text)
    return 0 if ok else 2


_COMMANDS = {
    "generate": _cmd_generate,
    "partition": _cmd_partition,
    "potts": _cmd_potts,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PottspartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
