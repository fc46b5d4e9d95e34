"""Canonical text documents for signatures, graphs, automata, homomorphisms,
tree automata and pluggable fragments.

Every document is JSON with a ``kind`` field, sorted keys, and two-space
indentation.  Lists whose order carries meaning (directions, labels, states)
keep declaration order; all other lists are sorted, and each physical edge is
listed once, the symmetric half being implied.  Serialization is therefore a
deterministic function of the value, and parse followed by serialize
reproduces a canonical file byte for byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .core import Direction, Graph, GraphBuilder, NodeLabel, Signature, StructureError
from .engine import WalkingAutomaton
from .hom import Homomorphism

if TYPE_CHECKING:
    # Imported where used, so that reading other documents does not load them.
    from .trees import BottomUpTreeAutomaton

__all__ = [
    "dumps",
    "loads",
    "detect_kind",
    "signature_doc",
    "signature_from",
    "graph_doc",
    "graph_from",
    "automaton_doc",
    "automaton_from",
    "homomorphism_doc",
    "homomorphism_from",
    "tree_automaton_doc",
    "tree_automaton_from",
    "pluggable_doc",
    "pluggable_from",
    "graph_to_dot",
]


def dumps(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructureError("document must be a JSON object")
    return doc


def detect_kind(doc: Mapping[str, Any]) -> str:
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise StructureError("document lacks a 'kind' field")
    return kind


def _require(doc: Mapping[str, Any], key: str) -> Any:
    if not isinstance(doc, Mapping):
        raise StructureError(f"expected an object with the {key!r} field")
    if key not in doc:
        raise StructureError(f"document lacks the {key!r} field")
    return doc[key]


@contextmanager
def _shape(what: str) -> Iterator[None]:
    """Turn a lookup or conversion failing on a wrongly shaped document into
    a :class:`StructureError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StructureError(f"{what} lacks a field or has a wrong type: {exc!r}") from None


def _list(value: Any, what: str, size: int | None = None) -> list:
    """``value``, which must be a JSON list (of ``size`` items, if given): a
    string is refused, not read as the list of its characters."""
    if not isinstance(value, list) or (size is not None and len(value) != size):
        shape = "a list" if size is None else f"a list of {size} items"
        raise StructureError(f"{what} must be {shape}, got {value!r}")
    return value


def signature_doc(sig: Signature) -> dict:
    return {
        "kind": "signature",
        "directions": [{"name": d.name, "opposite": d.opposite} for d in sig.directions],
        "labels": [
            {"name": a.name, "initial": a.initial, "dirs": sorted(a.dirs)}
            for a in sig.labels
        ],
    }


def signature_from(doc: Mapping[str, Any]) -> Signature:
    with _shape("signature"):
        dirs = tuple(
            Direction(str(d["name"]), str(d["opposite"])) for d in _require(doc, "directions")
        )
        labels = tuple(
            NodeLabel(str(a["name"]), bool(a["initial"]),
                      frozenset(map(str, _list(a["dirs"], f"dirs of label {a['name']!r}"))))
            for a in _require(doc, "labels")
        )
    return Signature(dirs, labels)


def _edges_once(sig: Signature, edges: Mapping[tuple[str, str], str]) -> list[dict]:
    out = []
    for (v, d), u in edges.items():
        if (v, d) <= (u, sig.opposite(d)):
            out.append({"from": v, "dir": d, "to": u})
    return sorted(out, key=lambda e: (e["from"], e["dir"]))


def _nodes(sig: Signature, doc: Mapping[str, Any], what: str) -> GraphBuilder:
    b = GraphBuilder(sig)
    with _shape(what):
        for n in _require(doc, "nodes"):
            b.node(str(n["id"]), str(n["label"]))
    return b


def _edges(b: GraphBuilder, doc: Mapping[str, Any]) -> GraphBuilder:
    """Add the edges listed in ``doc``, each with its symmetric half."""
    listed = _require(doc, "edges")
    with _shape("edge entry"):
        for e in listed:
            b.edge(str(e["from"]), str(e["dir"]), str(e["to"]))
    return b


def graph_doc(g: Graph) -> dict:
    return {
        "kind": "graph",
        "nodes": sorted(
            ({"id": v, "label": a} for v, a in g.nodes), key=lambda n: n["id"]
        ),
        "initial": g.initial,
        "edges": _edges_once(g.sig, g.edges),
    }


def graph_from(doc: Mapping[str, Any], sig: Signature) -> Graph:
    b = _nodes(sig, doc, "graph node")
    initial = str(_require(doc, "initial"))
    return _edges(b, doc).build(initial)


def automaton_doc(a: WalkingAutomaton) -> dict:
    return {
        "kind": "automaton",
        "states": list(a.states),
        "initial": a.initial,
        "accept": sorted([q, lab] for q, lab in a.accept),
        "transitions": sorted(
            (
                {"state": q, "label": lab, "next": q2, "dir": d}
                for (q, lab), (q2, d) in a.delta.items()
            ),
            key=lambda t: (t["state"], t["label"]),
        ),
    }


def automaton_from(doc: Mapping[str, Any], sig: Signature) -> WalkingAutomaton:
    with _shape("automaton"):
        delta = {
            (str(t["state"]), str(t["label"])): (str(t["next"]), str(t["dir"]))
            for t in _require(doc, "transitions")
        }
        return WalkingAutomaton(
            sig,
            [str(q) for q in _list(_require(doc, "states"), "automaton states")],
            str(_require(doc, "initial")),
            [(str(q), str(lab))
             for q, lab in (_list(p, "accepting pair", 2) for p in _require(doc, "accept"))],
            delta,
        )


def _pattern_doc(sig: Signature, p: Graph) -> dict:
    return {
        "nodes": sorted(
            ({"id": v, "label": a} for v, a in p.nodes), key=lambda n: n["id"]
        ),
        "edges": _edges_once(sig, p.edges),
        "ports": dict(sorted(p.ports.items())),
    }


def _pattern_from(sig: Signature, doc: Mapping[str, Any]) -> Graph:
    b = _nodes(sig, doc, "pattern")
    with _shape("pattern"):
        ports = {str(d): str(w) for d, w in _require(doc, "ports").items()}
    return _edges(b, doc).build(ports=ports)


def homomorphism_doc(h: Homomorphism) -> dict:
    return {
        "kind": "homomorphism",
        "source_sig": signature_doc(h.source),
        "target_sig": signature_doc(h.target),
        "patterns": {
            lab: _pattern_doc(h.target, h.patterns[lab]) for lab in sorted(h.patterns)
        },
    }


def homomorphism_from(doc: Mapping[str, Any]) -> Homomorphism:
    source = signature_from(_require(doc, "source_sig"))
    target = signature_from(_require(doc, "target_sig"))
    with _shape("homomorphism"):
        listed = _require(doc, "patterns").items()
    patterns = {str(lab): _pattern_from(target, p) for lab, p in listed}
    return Homomorphism(source, target, patterns)


def tree_automaton_doc(a: BottomUpTreeAutomaton) -> dict:
    return {
        "kind": "tree_automaton",
        "states": list(a.states),
        "accept": a.accepting,
        "delta": sorted(
            (
                {"label": lab, "args": list(vec), "result": q}
                for (lab, vec), q in a.delta.items()
            ),
            key=lambda t: (t["label"], t["args"]),
        ),
    }


def tree_automaton_from(doc: Mapping[str, Any], sig: Signature) -> BottomUpTreeAutomaton:
    from .trees import BottomUpTreeAutomaton

    with _shape("tree automaton"):
        delta = {
            (str(t["label"]), tuple(map(str, _list(t["args"], "tree transition args")))):
            str(t["result"])
            for t in _require(doc, "delta")
        }
        return BottomUpTreeAutomaton(
            sig,
            [str(q) for q in _list(_require(doc, "states"), "tree automaton states")],
            str(_require(doc, "accept")),
            delta,
        )


def pluggable_doc(sig: Signature, p: Graph) -> dict:
    """A pattern with one port; ``port_dir`` names that port, and
    ``has_initial`` tells whether a label inside is initial in ``sig``."""
    (port_dir,) = p.ports
    return {**_pattern_doc(sig, p), "kind": "pluggable", "port_dir": port_dir,
            "has_initial": bool(p.initial_nodes(sig))}


def pluggable_from(doc: Mapping[str, Any], sig: Signature) -> Graph:
    """The pattern of a ``pluggable`` document, whose ``port_dir`` and
    ``has_initial`` must be those :func:`pluggable_doc` derives."""
    p = _pattern_from(sig, doc)
    port_dir = str(_require(doc, "port_dir"))
    if list(p.ports) != [port_dir]:
        raise StructureError(
            f"port_dir {port_dir!r} is not the fragment's only port (ports {sorted(p.ports)})")
    if bool(_require(doc, "has_initial")) != bool(p.initial_nodes(sig)):
        raise StructureError("has_initial disagrees with the labels of the fragment")
    return p


def graph_to_dot(g: Graph) -> str:
    """Graphviz rendering of a graph for external viewers; each physical edge
    appears once with its direction pair as the edge label."""
    lines = ["graph G {"]
    for v, a in sorted(g.nodes):
        shape = ' shape="doublecircle"' if v == g.initial else ""
        lines.append(f'  "{v}" [label="{v}:{a}"{shape}];')
    for e in _edges_once(g.sig, g.edges):
        back = g.sig.opposite(e["dir"])
        lines.append(f'  "{e["from"]}" -- "{e["to"]}" [label="{e["dir"]}/{back}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
