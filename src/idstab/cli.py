"""Command-line surface: ``idstab``.

Subcommands: ``gen``, ``gamma-i``, ``gamma``, ``alpha``, ``stability``,
``op``, ``table``, ``audit``.  Exit codes: 0 success, 1 audit completed with
violations, 2 usage or input error, 3 internal invariant failure (an oracle
refuted a solver result).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import auditor, ops
from .codec import decode_graph6, emit_edgelist, encode_graph6, parse_edgelist
from .core import Graph
from .errors import IdstabError, InternalAuditError, SpecInvalid
from .families import generate, parse_family_spec
from .solver import alpha, gamma, gamma_i
from .stability import Direction, stability

_DIRECTIONS = {"any": Direction.ANY, "down": Direction.DECREASE, "up": Direction.INCREASE}


def _emit_graph(g: Graph, fmt: str) -> None:
    if fmt == "graph6":
        print(encode_graph6(g))
    else:
        sys.stdout.write(emit_edgelist(g))


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise IdstabError(f"cannot read {source}: {exc}") from None


def _read_graphs(source: str, fmt: str | None) -> list[Graph]:
    """The graphs in *source*.  With no *fmt* the format is sniffed: an
    edge-list header starts with a digit, which is never a valid graph6 byte.
    """
    text = _read_text(source)
    lines = [line for line in text.splitlines() if line.strip()]
    if fmt is None:
        fmt = "edgelist" if lines and lines[0].strip()[0].isdigit() else "graph6"
    if fmt == "edgelist":
        return [parse_edgelist(text)]
    graphs = [decode_graph6(line) for line in lines]
    if not graphs:
        raise IdstabError(f"no graphs found in {source}")
    return graphs


def _load_operand(token: str) -> Graph:
    """An operand is a family spec if it parses as one, otherwise a file of
    exactly one graph in either format."""
    try:
        return generate(parse_family_spec(token))
    except SpecInvalid:
        pass
    graphs = _read_graphs(token, None)
    if len(graphs) != 1:
        raise IdstabError(f"{token} holds {len(graphs)} graphs; operands must hold exactly one")
    return graphs[0]


def _witness_column(members) -> str:
    return ",".join(str(v) for v in members) if members else "-"


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit_graph(generate(parse_family_spec(args.family)), args.format)
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    solve = {"gamma-i": gamma_i, "gamma": gamma, "alpha": alpha}[args.invariant]
    for g in _read_graphs(args.infile, args.format):
        cert = solve(g)
        if args.witness:
            print(f"{cert.value}\t{_witness_column(cert.witness.members())}")
        else:
            print(cert.value)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    direction = _DIRECTIONS[args.direction]
    for g in _read_graphs(args.infile, args.format):
        cert = stability(g, direction)
        if not cert.defined:
            line = "undefined"
            if args.witness:
                line += "\t-\t-"
        else:
            line = str(cert.value)
            if args.witness:
                line += f"\t{_witness_column(cert.witness.members())}"
                line += f"\t{cert.base_gamma_i}->{cert.new_gamma_i}"
        print(line)
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    g1 = _load_operand(args.g1)
    binary = {
        "join": ops.join,
        "lex": ops.lexicographic,
        "cartesian": ops.cartesian,
        "corona": ops.corona,
        "union": ops.disjoint_union,
    }
    if args.operation == "complement":
        if args.g2 is not None:
            raise IdstabError("complement takes a single operand")
        from .core import complement

        _emit_graph(complement(g1), args.format)
        return 0
    if args.g2 is None:
        raise IdstabError(f"{args.operation} needs two operands")
    g2 = _load_operand(args.g2)
    _emit_graph(binary[args.operation](g1, g2), args.format)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    kind = "path" if args.family == "paths" else "cycle"
    start = 2 if kind == "path" else 3
    if args.max_n < start:
        raise IdstabError(f"{args.family} start at n = {start}; --max-n {args.max_n} is below it")
    print("n\tst_id")
    for n in range(start, args.max_n + 1):
        spec = parse_family_spec(f"{kind}:{n}")
        print(f"{n}\t{stability(generate(spec)).value}")
    return 0


def _build_corpus(args: argparse.Namespace):
    if args.family_max is not None:
        if args.pairs:
            raise IdstabError("--pairs does not combine with --family-max")
        return auditor.FamilyCorpus.default_grid(args.family_max)
    if args.exhaustive_n is not None:
        base = auditor.ExhaustiveCorpus(args.exhaustive_n)
    else:
        base = auditor.Graph6Corpus.from_file(args.corpus)
    return auditor.PairCorpus(base) if args.pairs else base


def _cmd_audit(args: argparse.Namespace) -> int:
    corpus = _build_corpus(args)
    raw = [tok.strip() for tok in args.claims.split(",") if tok.strip()]
    if raw == ["all"]:
        kind = corpus.kind()
        ids = [cid for cid in auditor.CLAIM_IDS if auditor.get_claim(cid).instance_kind == kind]
    else:
        ids = raw
    report = auditor.run_audit(ids, corpus, mode=args.mode)

    for block in report.claims:
        counts = block["counts"]
        print(
            f"{block['claim']}: holds={counts['holds']} "
            f"violated={counts['violated']} inapplicable={counts['inapplicable']}"
        )
        shown = block["violations"][:10]
        for viol in shown:
            print(
                f"  violated @ {viol['instance']}: lhs={viol['lhs']} "
                f"rhs={viol['rhs']} oracle={viol['oracle']}"
            )
        extra = len(block["violations"]) - len(shown)
        if extra > 0:
            print(f"  ... {extra} more (see --report)")
    print(
        f"corpus: {report.corpus}; mode: {report.mode}; "
        f"violations: {report.violation_count}"
    )
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    return 1 if report.violation_count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idstab",
        description="Exact independent-domination stability toolkit (graphs of order <= 64).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a family graph (path:7, book:3, gfriend:4,2, ...)")
    gen.add_argument("family")
    gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    gen.set_defaults(func=_cmd_gen)

    for name, blurb in (
        ("gamma-i", "independent domination number"),
        ("gamma", "domination number"),
        ("alpha", "independence number"),
    ):
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--in", dest="infile", default="-", help="input file or - for stdin")
        q.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
        q.add_argument("--witness", action="store_true")
        q.set_defaults(func=_cmd_invariant, invariant=name)

    stab = sub.add_parser("stability", help="vertex-removal stability of gamma_i")
    stab.add_argument("--direction", choices=("any", "down", "up"), default="any")
    stab.add_argument("--in", dest="infile", default="-")
    stab.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    stab.add_argument("--witness", action="store_true")
    stab.set_defaults(func=_cmd_stability)

    op = sub.add_parser("op", help="apply a graph operation to family specs or files")
    op.add_argument("operation", choices=("join", "lex", "corona", "cartesian", "union", "complement"))
    op.add_argument("g1")
    op.add_argument("g2", nargs="?")
    op.add_argument("--format", choices=("graph6", "edgelist"), default="graph6",
                    help="output format (operand files are auto-detected)")
    op.set_defaults(func=_cmd_op)

    table = sub.add_parser("table", help="(n, st_id) table for paths or cycles")
    table.add_argument("family", choices=("paths", "cycles"))
    table.add_argument("--max-n", type=int, required=True)
    table.set_defaults(func=_cmd_table)

    audit = sub.add_parser("audit", help="evaluate claims C1..C26 over a corpus")
    audit.add_argument("--claims", required=True, help="comma-separated ids, or 'all'")
    source = audit.add_mutually_exclusive_group(required=True)
    source.add_argument("--exhaustive-n", type=int, help="all labeled graphs of order 1..K")
    source.add_argument("--corpus", help="graph6 file")
    source.add_argument("--family-max", type=int, help="family parameter grid up to N")
    audit.add_argument("--pairs", action="store_true", help="audit ordered pairs over the corpus")
    audit.add_argument("--mode", choices=("strict", "restricted"), default="strict")
    audit.add_argument("--report", help="write the JSON report here")
    audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalAuditError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except IdstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
