"""Command-line entry point.

Every subcommand reads and writes the canonical document formats, prints a
run report, and exits with 0 on success, 1 when a validation or verification
produced findings, and 2 on usage or input errors.  Machine-format reports
are byte-identical for identical inputs and flags; wall time goes to stderr
so it never breaks that determinism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Any

from . import demo, formats
from .core import (
    GwalkError,
    Signature,
    StructureError,
    ValidationReport,
    validate_graph,
    validate_signature,
)
from .engine import agree_on, automaton_space_size, enumerate_automata, run, trace, validate_automaton
from .hom import apply, invert, validate_homomorphism, verify_inverse

DEFAULT_SEED = 20406

_inputs: dict[str, str] = {}


def _digest(path: str) -> bytes:
    data = Path(path).read_bytes()
    _inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return data


def _load(path: str) -> dict:
    try:
        return formats.loads(_digest(path).decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StructureError(f"{path}: cannot parse document: {exc}") from exc


def _load_kind(path: str, kind: str) -> dict:
    doc = _load(path)
    found = formats.detect_kind(doc)
    if found != kind:
        raise StructureError(f"{path}: expected a {kind} document, found {found!r}")
    return doc


def _sig(path: str) -> Signature:
    return formats.signature_from(_load_kind(path, "signature"))


def _write(path: str | None, text: str) -> str | None:
    if path is None:
        sys.stdout.write(text)
        return None
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StructureError(f"{path}: cannot write: {exc.strerror or exc}") from None
    return path


def _problems(report) -> list[str]:
    return [f"[{p.kind}] {p.code} at {p.subject}: {p.detail}" for p in report.problems]


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> tuple[int, dict]:
    sig = _sig(args.sig) if args.sig else None
    results: dict[str, Any] = {}
    bad = False
    for path in args.files:
        doc = _load(path)
        kind = formats.detect_kind(doc)
        if kind == "signature":
            rep = validate_signature(formats.signature_from(doc))
        elif kind == "graph":
            if sig is None:
                raise StructureError(f"{path}: graph validation needs --sig")
            rep = validate_graph(formats.graph_from(doc, sig), sig)
        elif kind == "automaton":
            if sig is None:
                raise StructureError(f"{path}: automaton validation needs --sig")
            rep = validate_automaton(formats.automaton_from(doc, sig))
        elif kind == "homomorphism":
            rep = validate_homomorphism(formats.homomorphism_from(doc))
        elif kind == "pluggable":
            if sig is None:
                raise StructureError(f"{path}: pluggable validation needs --sig")
            rep = validate_graph(formats.pluggable_from(doc, sig), sig, "<fragment>")
        elif kind == "tree_automaton":
            if sig is None:
                raise StructureError(f"{path}: tree automaton validation needs --sig")
            from . import trees

            rep = trees.validate_tree_automaton(formats.tree_automaton_from(doc, sig))
        else:
            raise StructureError(f"{path}: no validator for kind {kind!r}")
        results[path] = {"kind": kind, "problems": _problems(rep)}
        bad = bad or not rep.ok
    return (1 if bad else 0), {"files": results}


# ------------------------------------------------------------ run / trace


def _load_run_args(args):
    sig = _sig(args.sig)
    aut = formats.automaton_from(_load_kind(args.automaton, "automaton"), sig)
    g = formats.graph_from(_load_kind(args.graph, "graph"), sig)
    return sig, aut, g


def cmd_run(args) -> tuple[int, dict]:
    _, aut, g = _load_run_args(args)
    out = run(aut, g)
    return 0, {
        "outcome": out.kind,
        "state": out.config.state,
        "node": out.config.node,
        "steps": out.steps,
        "cycle_length": out.cycle_length,
    }


def cmd_trace(args) -> tuple[int, dict]:
    _, aut, g = _load_run_args(args)
    configs = trace(aut, g, args.max_len)
    return 0, {
        "length": len(configs),
        "configurations": [{"state": c.state, "node": c.node} for c in configs],
    }


def cmd_agree(args) -> tuple[int, dict]:
    sig = _sig(args.sig)
    a1 = formats.automaton_from(_load_kind(args.a1, "automaton"), sig)
    a2 = formats.automaton_from(_load_kind(args.a2, "automaton"), sig)
    graphs = [formats.graph_from(_load_kind(p, "graph"), sig) for p in args.graphs]
    rep = agree_on(a1, a2, graphs)
    return (0 if rep.acceptance_agreement else 1), {
        "graphs": len(graphs),
        "acceptance_agreement": rep.acceptance_agreement,
        "full_agreement": rep.full_agreement,
        "entries": [
            {"graph": args.graphs[e.index], "first": e.kind1, "second": e.kind2}
            for e in rep.entries
        ],
    }


def cmd_dot(args) -> tuple[int, dict]:
    sig = _sig(args.sig)
    g = formats.graph_from(_load_kind(args.graph, "graph"), sig)
    written = _write(args.output, formats.graph_to_dot(g))
    return 0, {"written": written, "nodes": g.node_count}


# ------------------------------------------------------------------- hom


def _require_valid(path: str, rep: ValidationReport) -> None:
    """Stop on an input document with problems: images, inverses and their
    checks are exact only for valid input."""
    if not rep.ok:
        raise StructureError(f"{path}: invalid: {rep.summary()}")


def cmd_hom(args) -> tuple[int, dict]:
    h = formats.homomorphism_from(_load_kind(args.hom, "homomorphism"))
    rep = validate_homomorphism(h)
    if args.hom_cmd == "validate":
        return (0 if rep.ok else 1), {"problems": _problems(rep)}
    _require_valid(args.hom, rep)
    if args.hom_cmd == "apply":
        g = formats.graph_from(_load_kind(args.graph, "graph"), h.source)
        _require_valid(args.graph, validate_graph(g, h.source))
        image = apply(h, g)
        written = _write(args.output, formats.dumps(formats.graph_doc(image)))
        return 0, {"written": written, "nodes": image.node_count}
    if args.hom_cmd == "invert":
        aut = formats.automaton_from(_load_kind(args.automaton, "automaton"), h.target)
        b = invert(aut, h)
        written = _write(args.output, formats.dumps(formats.automaton_doc(b)))
        return 0, {"written": written, "states": b.state_count}
    if args.hom_cmd == "verify":
        aut = formats.automaton_from(_load_kind(args.automaton, "automaton"), h.target)
        suite = [formats.graph_from(_load_kind(p, "graph"), h.source) for p in args.suite]
        for path, g in zip(args.suite, suite):
            _require_valid(path, validate_graph(g, h.source))
        rep = verify_inverse(aut, h, suite)
        return (0 if rep.ok else 1), {
            "graphs": len(suite),
            "disagreements": [
                {
                    "graph": args.suite[c.index],
                    "inverse_outcome": c.b_kind,
                    "original_outcome": c.a_kind,
                    "alignment_failures": c.alignment_failures,
                }
                for c in rep.disagreements
            ],
        }
    raise StructureError(f"unknown hom subcommand {args.hom_cmd!r}")


# --------------------------------------------------------------- witness


def cmd_witness(args) -> tuple[int, dict]:
    from . import witnesses

    sub = args.witness_cmd
    for name in ("i", "j"):  # cell indices: their range depends on --n
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < args.n:
            raise StructureError(f"--{name} must lie in [0, {args.n}), got {value}")
    if sub == "sig":
        sig = witnesses.witness_signature(args.k)
        written = _write(args.output, formats.dumps(formats.signature_doc(sig)))
        return 0, {"written": written, "directions": len(sig.directions), "labels": len(sig.labels)}
    if sub == "hom":
        h = witnesses.ring_homomorphism(args.k)
        written = _write(args.output, formats.dumps(formats.homomorphism_doc(h)))
        return 0, {"written": written, "patterns": len(h.patterns)}
    if sub == "automaton":
        if args.escape:
            aut = witnesses.escape_automaton(args.n, args.k)
        elif args.n < 4 or args.k < 9:
            raise StructureError("the counter automaton needs --n >= 4 and --k >= 9")
        else:
            aut = witnesses.counter_automaton(args.n, args.k)
        written = _write(args.output, formats.dumps(formats.automaton_doc(aut)))
        return 0, {"written": written, "states": aut.state_count}
    if sub == "H":
        blk = witnesses.start_block(args.n, args.k, args.variant)
        sig = witnesses.base_signature(args.k)
        written = _write(args.output, formats.dumps(formats.pluggable_doc(sig, blk)))
        return 0, {"written": written, "nodes": blk.node_count}
    if sub == "F":
        frag = witnesses.numbered_chain(args.n, args.k, args.d, args.i)
        sig = witnesses.chain_signature(args.k)
        written = _write(args.output, formats.dumps(formats.pluggable_doc(sig, frag)))
        return 0, {"written": written, "nodes": frag.node_count}
    if sub in ("G-counter", "G-probe"):
        if sub == "G-counter":
            g = witnesses.counting_graph(args.n, args.k, args.i, args.j, args.d)
        else:
            g = witnesses.probe_graph(args.n, args.k, args.i, args.d, args.dprime)
        written = _write(args.output, formats.dumps(formats.graph_doc(g)))
        return 0, {"written": written, "nodes": g.node_count}
    if sub == "sweep":
        rep = witnesses.sweep_tables(args.n, args.k)
        results = {
            "n": rep.n,
            "k": rep.k,
            "counting_accepts": sorted(
                f"i={i},j={j},d={d}" for (i, j, d), acc in rep.counting.items() if acc
            ),
            "probe_accepts": sorted(
                f"i={i},d={d},d'={dp}" for (i, d, dp), acc in rep.probes.items() if acc
            ),
            "counting_cases": len(rep.counting),
            "probe_cases": len(rep.probes),
            "mismatches": rep.mismatches,
        }
        return (0 if rep.ok else 1), results
    if sub == "probe":
        return cmd_witness_probe(args)
    raise StructureError(f"unknown witness subcommand {sub!r}")


def cmd_witness_probe(args) -> tuple[int, dict]:
    from . import suites, witnesses

    if args.pair == "H":
        sig = witnesses.base_signature(args.k)
        left = witnesses.start_block(args.n, args.k, "start")
        right = witnesses.start_block(args.n, args.k, "fake")
    else:
        sig = witnesses.chain_signature(args.k)
        left = witnesses.numbered_chain(args.n, args.k, args.d, args.i)
        right = witnesses.numbered_chain(args.n, args.k, args.d, None)
    budget = None if args.budget == 0 else args.budget
    space = sum(automaton_space_size(sig, s) for s in range(1, args.states + 1))
    stream = chain.from_iterable(
        chain(
            enumerate_automata(sig, s, budget),
            suites.random_automata(sig, s, args.sample, args.seed + s),
        )
        for s in range(1, args.states + 1)
    )
    rep = witnesses.distinguishability_probe((left, right), stream)
    results = {
        "pair": args.pair,
        "port_dir": rep.port_dir,
        "automata_checked": rep.automata_checked,
        "entries_checked": rep.entries_checked,
        "automaton_space": space,
        "distinguishers": rep.distinguisher_count,
        "first_findings": [
            {
                "automaton": f.automaton_index,
                "entry_state": f.entry_state,
                "left": f.left,
                "right": f.right,
            }
            for f in rep.findings[:10]
        ],
        "note": (
            "findings are observations: the desk-scale blocks omit the "
            "one-way gadget and carry no indistinguishability guarantee"
        ),
    }
    return 0, results


# ------------------------------------------------------------------ tree


def _characterization(rep) -> dict:
    """What ``tree verify`` and ``repro thm4`` report of a characterization check."""
    return {
        "trees_checked": rep.reg_trees_checked,
        "annotated_trees_checked": rep.comp_trees_checked,
        "counterexamples": rep.counterexamples,
    }


def cmd_tree(args) -> tuple[int, dict]:
    from . import trees

    sub = args.tree_cmd
    sig = _sig(args.sig)
    if sub == "validate":
        rep = trees.validate_tree_signature(sig)
        results: dict[str, Any] = {"signature_problems": _problems(rep)}
        ok = rep.ok
        if args.dta:
            a = formats.tree_automaton_from(_load_kind(args.dta, "tree_automaton"), sig)
            arep = trees.validate_tree_automaton(a)
            results["automaton_problems"] = _problems(arep)
            ok = ok and arep.ok
        if args.tree:
            g = formats.graph_from(_load_kind(args.tree, "graph"), sig)
            results["is_tree"] = trees.is_tree(g)
            ok = ok and results["is_tree"]
        return (0 if ok else 1), results
    if sub == "eval":
        a = formats.tree_automaton_from(_load_kind(args.dta, "tree_automaton"), sig)
        g = formats.graph_from(_load_kind(args.tree, "graph"), sig)
        state, accepted = trees.eval_dta(a, g)
        return 0, {"root_state": state, "accepted": accepted}
    if sub == "characterize":
        a = formats.tree_automaton_from(_load_kind(args.dta, "tree_automaton"), sig)
        bundle = trees.build_characterization(a)
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StructureError(f"{outdir}: cannot write: {exc.strerror or exc}") from None
        files = {
            "mid_signature.json": formats.dumps(formats.signature_doc(bundle.s_mid)),
            "annotated_signature.json": formats.dumps(formats.signature_doc(bundle.s_comp)),
            "padding_hom.json": formats.dumps(formats.homomorphism_doc(bundle.pad)),
            "encoding_hom.json": formats.dumps(formats.homomorphism_doc(bundle.encode)),
        }
        for name, text in files.items():
            _write(str(outdir / name), text)
        return 0, {
            "written": sorted(str(outdir / name) for name in files),
            "annotated_labels": len(bundle.s_comp.labels),
            "states": bundle.n,
        }
    if sub == "verify":
        a = formats.tree_automaton_from(_load_kind(args.dta, "tree_automaton"), sig)
        rep = trees.verify_characterization(a, args.max_nodes)
        return (0 if rep.ok else 1), _characterization(rep)
    raise StructureError(f"unknown tree subcommand {sub!r}")


# ----------------------------------------------------------------- repro


def _thm1_state_counts() -> tuple[bool, dict]:
    table = {}
    ok = True
    for k in (4, 9):
        for n in (2, 3, 4):
            sig2 = demo.count_signature(k, 2)
            b2 = invert(demo.count_automaton(sig2, n), demo.count_hom(sig2))
            sig1 = demo.count_signature(k, 1)
            b1 = invert(demo.count_automaton(sig1, n), demo.count_hom(sig1))
            entry = {
                "multi_initial_states": b2.state_count,
                "expected_multi": n * k + 1,
                "unique_initial_states": b1.state_count,
                "expected_unique": n * k,
            }
            ok = ok and b2.state_count == n * k + 1 and b1.state_count == n * k
            table[f"n={n},k={k}"] = entry
    return ok, table


def cmd_repro_thm1(args) -> tuple[int, dict]:
    from . import suites

    ok, counts = _thm1_state_counts()
    results: dict[str, Any] = {"state_counts": counts}
    if args.suite in ("small", "all"):
        sig = demo.ring_signature()
        graphs = suites.enumerate_graphs(sig, 6)
        rep = verify_inverse(demo.mod3_automaton(), demo.ring_doubling_hom(), graphs)
        results["small_suite"] = {
            "graphs": len(graphs),
            "disagreements": len(rep.disagreements),
            "alignment_failures": sum(len(c.alignment_failures) for c in rep.checks),
        }
        ok = ok and rep.ok
    if args.suite in ("random", "all"):
        sig = demo.leafy_signature()
        graphs = suites.random_graphs(sig, 200, seed=args.seed)
        rep = verify_inverse(demo.leafy_parity_automaton(), demo.leaf_expanding_hom(), graphs)
        results["random_suite"] = {
            "graphs": len(graphs),
            "seed": args.seed,
            "disagreements": len(rep.disagreements),
        }
        ok = ok and rep.ok
    return (0 if ok else 1), results


def cmd_repro_claim3(args) -> tuple[int, dict]:
    from . import witnesses

    rep = witnesses.sweep_tables(args.n, args.k)
    counting_ok = all(acc == (i == j) for (i, j, _), acc in rep.counting.items())
    probe_ok = all(acc == (d == dp) for (_, d, dp), acc in rep.probes.items())
    return (0 if rep.ok else 1), {
        "n": rep.n,
        "k": rep.k,
        "counting_cases": len(rep.counting),
        "counting_matches_iff_i_equals_j": counting_ok,
        "probe_cases": len(rep.probes),
        "probe_matches_iff_d_equals_dprime": probe_ok,
        "mismatches": rep.mismatches,
    }


def cmd_repro_thm4(args) -> tuple[int, dict]:
    from . import trees

    results = {}
    ok = True
    for name, a in (
        ("accept_all", demo.accept_all_automaton()),
        ("leaf_parity", demo.leaf_parity_automaton()),
    ):
        rep = trees.verify_characterization(a, args.max_nodes)
        results[name] = _characterization(rep)
        ok = ok and rep.ok
    return (0 if ok else 1), results


# ------------------------------------------------------------------ main


def _add_seed(parser: argparse.ArgumentParser, default: str) -> None:
    # A string default goes through ``type`` like a command-line value, so a
    # non-integer GWA_SEED is a usage error (exit 2) of the commands using it.
    parser.add_argument("--seed", type=int, default=default,
                        help=f"random seed (default: $GWA_SEED, else {DEFAULT_SEED})")


def _at_least(low: int):
    """Argument type: an integer no smaller than ``low``; anything else is a
    usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message
    return parse


@cache
def _build_parser(seed: str) -> argparse.ArgumentParser:
    """The argument parser, built once per ``--seed`` default: building it
    costs more than most commands do on small inputs."""
    p = argparse.ArgumentParser(
        prog="gwalk",
        description="Graph-walking automata, node-replacement homomorphisms, "
        "worst-case families, and tree-language characterization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="report format; machine output is byte-reproducible")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate document files", parents=[common])
    v.add_argument("files", nargs="+")
    v.add_argument("--sig", help="signature file for graph, automaton and pluggable documents")
    v.set_defaults(handler=cmd_validate)

    for name, handler in (("run", cmd_run), ("trace", cmd_trace)):
        c = sub.add_parser(name, help=f"{name} an automaton on a graph", parents=[common])
        c.add_argument("--sig", required=True)
        c.add_argument("--automaton", required=True)
        c.add_argument("--graph", required=True)
        if name == "trace":
            c.add_argument("--max-len", type=_at_least(0), default=None)
        c.set_defaults(handler=handler)

    ag = sub.add_parser("agree", help="compare two automata over graphs", parents=[common])
    ag.add_argument("--sig", required=True)
    ag.add_argument("--a1", required=True)
    ag.add_argument("--a2", required=True)
    ag.add_argument("--graphs", nargs="+", required=True)
    ag.set_defaults(handler=cmd_agree)

    d = sub.add_parser("dot", help="export a graph for external viewers", parents=[common])
    d.add_argument("--sig", required=True)
    d.add_argument("--graph", required=True)
    d.add_argument("-o", "--output")
    d.set_defaults(handler=cmd_dot)

    h = sub.add_parser("hom", help="homomorphism operations")
    hs = h.add_subparsers(dest="hom_cmd", required=True)
    for name in ("validate", "apply", "invert", "verify"):
        c = hs.add_parser(name, parents=[common])
        c.add_argument("--hom", required=True)
        if name == "apply":
            c.add_argument("--graph", required=True)
            c.add_argument("-o", "--output")
        if name == "invert":
            c.add_argument("--automaton", required=True)
            c.add_argument("-o", "--output")
        if name == "verify":
            c.add_argument("--automaton", required=True)
            c.add_argument("--suite", nargs="+", required=True)
        c.set_defaults(handler=cmd_hom)

    w = sub.add_parser("witness", help="generate worst-case family objects")
    ws = w.add_subparsers(dest="witness_cmd", required=True)
    for name in ("H", "F", "G-counter", "G-probe", "sig", "hom", "automaton", "sweep", "probe"):
        c = ws.add_parser(name, parents=[common])
        # The witness families need the pairs a/-a and b/-b and two cells.
        # The witness signature needs the 9 directions of its cyclic order,
        # and the sweep runs the counter automaton, which needs 4 cells.
        wide = name in ("sig", "hom", "G-counter", "G-probe", "sweep")
        c.add_argument("--k", type=_at_least(9 if wide else 4), required=True)
        if name not in ("sig", "hom"):
            c.add_argument("--n", type=_at_least(4 if name == "sweep" else 2), required=True)
        if name == "H":
            c.add_argument("--variant", choices=("start", "fake"), default="start")
        if name in ("F", "G-counter", "G-probe"):
            c.add_argument("--d", required=True)
        if name == "F":
            c.add_argument("--i", type=int, default=None)
        if name in ("G-counter", "G-probe"):
            c.add_argument("--i", type=int, required=True)
        if name == "G-counter":
            c.add_argument("--j", type=int, required=True)
        if name == "G-probe":
            c.add_argument("--dprime", required=True)
        if name == "automaton":
            c.add_argument("--escape", action="store_true",
                           help="emit the escape automaton instead of the counter")
        if name == "probe":
            c.add_argument("--pair", choices=("H", "F"), default="H")
            c.add_argument("--d", default="a")
            c.add_argument("--i", type=int, default=0)
            c.add_argument("--states", type=_at_least(1), default=2)
            c.add_argument("--budget", type=_at_least(0), default=10_000,
                           help="leading automata per state count; 0 = exhaustive")
            c.add_argument("--sample", type=_at_least(0), default=10_000,
                           help="seeded random automata per state count")
            _add_seed(c, seed)
        if name not in ("sweep", "probe"):
            c.add_argument("-o", "--output")
        c.set_defaults(handler=cmd_witness)

    t = sub.add_parser("tree", help="tree signatures and bottom-up automata")
    ts = t.add_subparsers(dest="tree_cmd", required=True)
    for name in ("validate", "eval", "characterize", "verify"):
        c = ts.add_parser(name, parents=[common])
        c.add_argument("--sig", required=True)
        if name == "validate":
            c.add_argument("--dta")
            c.add_argument("--tree")
        if name == "eval":
            c.add_argument("--dta", required=True)
            c.add_argument("--tree", required=True)
        if name == "characterize":
            c.add_argument("--dta", required=True)
            c.add_argument("-o", "--output", required=True)
        if name == "verify":
            c.add_argument("--dta", required=True)
            c.add_argument("--max-nodes", type=_at_least(1), default=7)
        c.set_defaults(handler=cmd_tree)

    r = sub.add_parser("repro", help="reproduce the library's headline checks")
    rs = r.add_subparsers(dest="repro_cmd", required=True)
    r1 = rs.add_parser("thm1", help="inverse-image state counts and oracle suites", parents=[common])
    r1.add_argument("--suite", choices=("small", "random", "all"), default="all")
    _add_seed(r1, seed)
    r1.set_defaults(handler=cmd_repro_thm1)
    r3 = rs.add_parser("claim3", help="counter acceptance tables", parents=[common])
    r3.add_argument("--n", type=_at_least(4), default=4)
    r3.add_argument("--k", type=_at_least(9), default=9)
    r3.set_defaults(handler=cmd_repro_claim3)
    r4 = rs.add_parser("thm4", help="tree-language characterization at desk scale", parents=[common])
    r4.add_argument("--max-nodes", type=_at_least(1), default=7)
    r4.set_defaults(handler=cmd_repro_thm4)

    return p


def _command_name(args) -> str:
    parts = [args.command]
    for attr in ("hom_cmd", "witness_cmd", "tree_cmd", "repro_cmd"):
        if getattr(args, attr, None):
            parts.append(getattr(args, attr))
    return " ".join(parts)


def _parameters(args) -> dict:
    skip = {"handler", "command", "hom_cmd", "witness_cmd", "tree_cmd", "repro_cmd", "format"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _emit(report: dict, fmt: str, wall: float) -> None:
    if fmt == "machine":
        sys.stdout.write(formats.dumps(report))
        sys.stderr.write(f"# wall_time_s={wall:.3f}\n")
        return
    print(f"command: {report['command']}")
    for path, digest in sorted(report["inputs"].items()):
        print(f"input: {path} {digest}")
    if report["parameters"]:
        print("parameters: " + json.dumps(report["parameters"], sort_keys=True))
    print("results:")
    print(json.dumps(report["results"], sort_keys=True, indent=2))
    print(f"wall_time_s: {wall:.3f}")


def _attach_directions(argv: list[str]) -> list[str]:
    """``--d -a`` as ``--d=-a`` (and so for ``--dprime``): argparse takes a
    separate value that starts with '-' for an option, yet half of every
    direction roster does.  A real option (``--k``, ``-o``, ``-h``) stays
    one, so that a missing value is still a usage error."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--d", "--dprime") and arg[:1] == "-"
                and not arg.startswith("--") and arg not in ("-o", "-h")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser(os.environ.get("GWA_SEED", str(DEFAULT_SEED)))
    args = parser.parse_args(_attach_directions(sys.argv[1:] if argv is None else argv))
    _inputs.clear()
    t0 = time.perf_counter()
    try:
        code, results = args.handler(args)
    except GwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": _command_name(args),
        "inputs": dict(sorted(_inputs.items())),
        "parameters": _parameters(args),
        "results": results,
    }
    _emit(report, args.format, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
