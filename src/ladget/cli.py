"""Command line interface.

Subcommands: verify one configuration, run a census over a stream or the
built-in generator, print a gadget's color mapping, embed a gadget into
k-coloring, re-check the bundled minimal-ladget table, and diff two graphs
edge by edge.

Exit codes: 0 when every requested check passes, 1 when a check fails
semantically (not a ladget, wrong function, table row fails), 2 for usage
errors (bad arguments, malformed graph6 arguments, out-of-range roles).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import appendix
from .embed import embed_to_k, package_color_profile, verify_embedding
from .errors import LadgetError
from .gadget import (
    GadgetConfig,
    TARGET_CODES,
    builtin,
    compute_mapping,
    verify_ladget,
)
from .graphcore import RoleLabeling, decode_graph6, encode_graph6, generate_connected
from .search import SearchOptions, search_stream


class UsageError(Exception):
    """Bad request; reported on stderr with exit code 2."""


def _parse_roles(args, one_based: bool = False) -> RoleLabeling:
    if args.anchor is None or args.out is None or args.inputs is None:
        raise UsageError("--anchor, --out and --in are all required")
    try:
        inputs = tuple(int(v) for v in args.inputs.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --in {args.inputs!r} as integers")
    try:
        return RoleLabeling.from_ids(
            args.anchor, inputs, args.out, base=int(one_based)
        )
    except LadgetError as exc:
        raise UsageError(str(exc))


def _config_from_args(args, k: int = 3) -> GadgetConfig:
    if getattr(args, "fixture", None):
        cfg = builtin(args.fixture)
        g, roles = cfg.graph, cfg.roles
    elif not args.graph6:
        raise UsageError("provide a graph6 record or --fixture NAME")
    else:
        g = decode_graph6(args.graph6)
        roles = _parse_roles(args, one_based=getattr(args, "one_based", False))
    try:
        return GadgetConfig(g, roles, k=k)
    except (LadgetError, ValueError) as exc:  # roles do not fit, or k < 3
        raise UsageError(str(exc))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_verify(args) -> int:
    cfg = _config_from_args(args, k=args.k)
    report = verify_ladget(cfg, target=args.target, minimal_mode=args.minimal)
    d = report.to_json_dict()
    lines = [
        f"graph {d['graph6']} n={d['n']} k={d['k']} roles "
        f"anchor={cfg.roles.anchor} inputs={list(cfg.roles.inputs)} "
        f"output={cfg.roles.output}",
        f"structural: {'pass' if report.structural.passed else 'FAIL'}"
        + (
            f" ({', '.join(report.structural.violations)})"
            if report.structural.violations
            else ""
        ),
        f"universality: {'pass' if report.universality.passed else 'FAIL'}"
        + (
            f" (no coloring for inputs {report.universality.failing_tuple})"
            if report.universality.failing_tuple is not None
            else ""
        ),
    ]
    if report.consistency is not None:
        lines.append(
            f"consistency: {'pass' if report.consistency.passed else 'FAIL'}"
        )
    if report.truth_table is not None:
        lines.append(
            f"function: {report.classification.name} "
            f"[{report.truth_table.bitstring()}]"
        )
    if args.target is not None:
        lines.append(
            f"target {args.target}: "
            f"{'match' if report.target_matched else 'NO MATCH'}"
        )
    lines.append(f"verdict: {'ladget' if report.ok else 'not accepted'}")
    _emit(args, d, "\n".join(lines))
    return 0 if report.ok else 1


def _search_options(args) -> SearchOptions:
    if args.target.strip().lower() == "all":
        targets: tuple[str, ...] = ()
    else:
        targets = tuple(t.strip() for t in args.target.split(",") if t.strip())
    try:
        return SearchOptions(
            targets=targets,
            arity=args.arity,
            ordered_inputs=args.ordered_inputs,
            use_filter=not args.no_filter,
            minimal_mode=args.minimal,
            sample_rate=args.sample,
            seed=args.seed,
            jobs=args.jobs,
            strict=args.strict,
            checkpoint=args.checkpoint,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_search(args) -> int:
    options = _search_options(args)
    if args.gen is not None:
        if args.source not in (None, "-"):
            raise UsageError("give either --gen N or a stream, not both")
        try:
            source = [encode_graph6(g) for g in generate_connected(args.gen)]
        except (LadgetError, ValueError) as exc:
            raise UsageError(str(exc))
    elif args.source in (None, "-"):
        source = sys.stdin
    else:
        if not os.path.exists(args.source):
            raise UsageError(f"no such file: {args.source}")
        source = args.source
    try:
        report = search_stream(source, options)
    except LadgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # checkpoint refused: source, options, prefix
        raise UsageError(str(exc))
    except OSError as exc:  # unreadable stream or unwritable checkpoint
        raise UsageError(str(exc))
    d = report.to_json_dict()
    lines = [
        f"graphs {report.graphs_seen}  configs {report.configs_enumerated}"
        f"  after filter {report.configs_after_filter}"
        + (
            f"  (pass ratio {d['filter_pass_ratio']})"
            if d["filter_pass_ratio"] is not None
            else ""
        )
        + f"  bad lines {report.bad_lines}  [{report.backend}]"
    ]
    for fn in sorted(report.hits):
        hs = report.hits[fn]
        lines.append(f"{fn}: {report.hits_raw.get(fn, 0)} raw, {len(hs)} distinct")
        lines += [
            f"  {h.graph6}  anchor={h.anchor} "
            f"inputs={list(h.inputs)} output={h.output}"
            for h in hs
        ]
    for row in d["rarity"]:
        lines.append(
            f"rarity {row['function']} n={row['n']}: "
            f"raw 1 in {_fmt(row['graphs_per_hit_raw'])} graphs / "
            f"{_fmt(row['configs_per_hit_raw'])} configs / "
            f"{_fmt(row['filtered_per_hit_raw'])} filtered; "
            f"deduped 1 in {_fmt(row['graphs_per_hit_deduped'])} graphs / "
            f"{_fmt(row['configs_per_hit_deduped'])} configs / "
            f"{_fmt(row['filtered_per_hit_deduped'])} filtered"
        )
    lines.append(f"elapsed {report.elapsed_s:.2f}s")
    _emit(args, d, "\n".join(lines))
    return 0


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.4g}"


def cmd_map(args) -> int:
    cfg = _config_from_args(args, k=args.k)
    mapping = compute_mapping(cfg)
    payload = {
        "graph6": encode_graph6(cfg.graph),
        "k": cfg.k,
        "arity": cfg.arity,
        "mapping": mapping.as_dict(),
    }
    lines = [
        f"({', '.join(map(str, t))}) -> {{{', '.join(map(str, sorted(outs)))}}}"
        for t, outs in mapping.items()
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_embed(args) -> int:
    cfg = _config_from_args(args, k=3)
    try:
        emb = embed_to_k(cfg, args.k)
    except (LadgetError, ValueError) as exc:
        raise UsageError(str(exc))
    base = verify_ladget(cfg)
    if base.truth_table is None:
        print("base configuration is not a ladget", file=sys.stderr)
        return 1
    report = verify_embedding(emb, base.truth_table)
    profile = package_color_profile(emb)
    payload = {
        "graph6": encode_graph6(emb.config.graph),
        "k": emb.config.k,
        "package": list(emb.package),
        "roles": emb.config.roles.to_json_dict(),
        "preserved": report.ok,
        "truth_table": (
            report.truth_table.bitstring() if report.truth_table else None
        ),
        "package_profile": profile,
    }
    human = (
        f"embedded {encode_graph6(emb.config.graph)} (k={emb.config.k}, "
        f"package {list(emb.package)})\n"
        f"function preserved: {'yes' if report.ok else 'NO'}"
    )
    _emit(args, payload, human)
    return 0 if report.ok else 1


def cmd_appendix_check(args) -> int:
    try:
        entries, meta = appendix.load_table(args.table)
    except (OSError, ValueError) as exc:  # unreadable or malformed table
        raise UsageError(f"cannot load table {args.table}: {exc}")
    base = 1 if args.one_based else meta["index_base"]
    results = appendix.check_table(
        entries, function=args.function, one_based=base == 1
    )
    if not results:
        raise UsageError(
            f"no rows selected (function filter {args.function!r})"
        )
    ok = sum(1 for r in results if r.ok)
    payload = {
        "index_base": base,
        "rows": [
            {
                "function": r.entry.function,
                "graph6": r.entry.graph6,
                "anchor": r.entry.anchor,
                "output": r.entry.output,
                "inputs": list(r.entry.inputs),
                "ok": r.ok,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": ok,
        "total": len(results),
    }
    lines = [
        f"{'ok  ' if r.ok else 'FAIL'} {r.entry.function:5s} "
        f"{r.entry.graph6:12s} a0={r.entry.anchor} out={r.entry.output} "
        f"in={r.entry.inputs}  {r.detail if not r.ok else ''}".rstrip()
        for r in results
    ]
    lines.append(f"{ok}/{len(results)} rows verified")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok == len(results) else 1


def cmd_diff(args) -> int:
    ga = decode_graph6(args.graph6_a)
    gb = decode_graph6(args.graph6_b)
    ea, eb = set(ga.edges()), set(gb.edges())
    payload = {
        "n_a": ga.n,
        "n_b": gb.n,
        "only_a": sorted(ea - eb),
        "only_b": sorted(eb - ea),
        "common": len(ea & eb),
    }
    lines = [f"A: n={ga.n}, {len(ea)} edges; B: n={gb.n}, {len(eb)} edges"]
    for e in sorted(ea - eb):
        lines.append(f"-{e}")
    for e in sorted(eb - ea):
        lines.append(f"+{e}")
    lines.append(f"{len(ea & eb)} shared edges")
    _emit(args, payload, "\n".join(lines))
    return 0


def _add_roles(p: argparse.ArgumentParser):
    p.add_argument("graph6", nargs="?", help="graph6 record (bare, no header)")
    p.add_argument("--anchor", type=int, help="anchor vertex id")
    p.add_argument("--out", type=int, help="output vertex id")
    p.add_argument(
        "--in", dest="inputs", help="input vertex ids, comma separated"
    )
    p.add_argument(
        "--one-based",
        action="store_true",
        help="treat role vertex ids as 1-based",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ladget",
        description="verify, search for and transform coloring logic gadgets",
    )
    ap.add_argument(
        "--version", action="version", version="%(prog)s 0.1.0"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one configuration")
    _add_roles(p)
    p.add_argument("--k", type=int, default=3, help="number of colors (>=3)")
    p.add_argument(
        "--target",
        choices=sorted(TARGET_CODES),
        help="named function the gadget must implement",
    )
    p.add_argument(
        "--minimal",
        action="store_true",
        help="apply the minimal-census structural rules to the verdict",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify, fixture=None)

    p = sub.add_parser("search", help="census over a graph6 stream")
    p.add_argument(
        "source",
        nargs="?",
        help="graph6 file, one record per line ('-' or absent: stdin)",
    )
    p.add_argument(
        "--gen",
        type=int,
        help="use the built-in generator for this order instead of a stream",
    )
    p.add_argument(
        "--target",
        default="NAND",
        help="comma separated function names, or 'all'",
    )
    p.add_argument("--arity", type=int, choices=(1, 2), default=2)
    p.add_argument(
        "--ordered-inputs",
        action="store_true",
        help="treat input tuples as ordered",
    )
    p.add_argument(
        "--no-filter",
        action="store_true",
        help="disable the structural filter (transparency runs)",
    )
    p.add_argument(
        "--minimal",
        action="store_true",
        help="also apply the minimal-only internal degree rule",
    )
    p.add_argument(
        "--sample",
        type=float,
        help="keep each configuration with this probability",
    )
    p.add_argument(
        "--seed",
        type=int,
        help="sampling seed (default 0)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first undecodable record",
    )
    p.add_argument("--checkpoint", help="JSON checkpoint path (file source)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("map", help="print a gadget's color mapping")
    _add_roles(p)
    p.add_argument("--fixture", help="built-in gadget name")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("embed", help="embed a 3-coloring gadget into k colors")
    _add_roles(p)
    p.add_argument("--fixture", help="built-in gadget name")
    p.add_argument("--k", type=int, required=True, help="target color count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser(
        "appendix-check", help="re-verify the bundled minimal-ladget table"
    )
    p.add_argument("--table", help="override table path (TSV)")
    p.add_argument("--function", help="only rows for this function")
    p.add_argument(
        "--one-based",
        action="store_true",
        help="read table vertex ids as 1-based (default: the header's "
        "index-base)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_appendix_check)

    p = sub.add_parser("diff", help="edge difference of two graphs")
    p.add_argument("graph6_a")
    p.add_argument("graph6_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_diff)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, LadgetError) as exc:
        # A LadgetError not caught closer to its source came from a request
        # argument (graph6 operand, role ids, table path).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
