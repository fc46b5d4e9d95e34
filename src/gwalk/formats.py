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


_WRONG_SHAPE = (KeyError, TypeError, ValueError, AttributeError)


@contextmanager
def _shape(what: str) -> Iterator[None]:
    """Turn a lookup or conversion failing on a wrongly shaped document into
    a :class:`StructureError`."""
    try:
        yield
    except _WRONG_SHAPE as exc:
        raise StructureError(f"{what} lacks a field or has a wrong type: {exc!r}") from None


def _list(value: Any, what: str, size: int | None = None) -> list:
    """``value``, which must be a JSON list (of ``size`` items, if given): a
    string is refused, not read as the list of its characters."""
    if not isinstance(value, list) or (size is not None and len(value) != size):
        shape = "a list" if size is None else f"a list of {size} items"
        raise StructureError(f"{what} must be {shape}, got {value!r}")
    return value


def _name(value: Any, what: str) -> str:
    """``value``, which must be a JSON string: nothing is converted, so a
    list, number or null where a name belongs is refused."""
    if not isinstance(value, str):
        raise StructureError(f"{what} must be a string, got {value!r}")
    return value


def _flag(value: Any, what: str) -> bool:
    """``value``, which must be a JSON bool: ``"no"`` or ``0`` is refused."""
    if not isinstance(value, bool):
        raise StructureError(f"{what} must be true or false, got {value!r}")
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
            Direction(_name(d["name"], "direction name"),
                      _name(d["opposite"], "opposite direction"))
            for d in _require(doc, "directions")
        )
        labels = tuple(
            NodeLabel(_name(a["name"], "label name"),
                      _flag(a["initial"], f"initial flag of label {a['name']!r}"),
                      frozenset(_name(d, "label direction")
                                for d in _list(a["dirs"], f"dirs of label {a['name']!r}")))
            for a in _require(doc, "labels")
        )
    return Signature(dirs, labels)


def _edges_once(sig: Signature, edges: Mapping[tuple[str, str], str]) -> list[dict]:
    out = []
    for (v, d), u in edges.items():
        if (v, d) <= (u, sig.opposite(d)):
            out.append({"from": v, "dir": d, "to": u})
    return sorted(out, key=lambda e: (e["from"], e["dir"]))


def _body(sig: Signature, doc: Mapping[str, Any], what: str) -> GraphBuilder:
    """A builder fed the nodes and edges of a graph or pattern document, read
    by columns as parsing a large graph spends its time here: the ids,
    labels and edge ends checked to be strings by ``str.join``, then written
    in bulk, each listed edge with its symmetric half in document order (a
    later entry wins).  A half with an end not listed, or a direction whose
    opposite the signature lacks, is kept in ``loose``.  Where a column fails
    (a wrong shape or type, an unknown direction), :func:`_first_fault`
    reports the first faulty entry."""
    try:
        nodes = _require(doc, "nodes")
        ids, labels = [n["id"] for n in nodes], [n["label"] for n in nodes]
        edges = _require(doc, "edges")
        froms, tos = [e["from"] for e in edges], [e["to"] for e in edges]
        for column in (ids, labels, froms, tos):
            "".join(column)  # a TypeError names an item that is not a string
        b = GraphBuilder(sig)
        b.add_nodes(ids, labels)
        b.add_edges(froms, [e["dir"] for e in edges], tos)
    except (StructureError, *_WRONG_SHAPE):
        _first_fault(sig, doc, what)
        raise
    return b


def _first_fault(sig: Signature, doc: Mapping[str, Any], what: str) -> None:
    """Raise the error of the first faulty entry of a graph or pattern
    document: the nodes in order, then the ``edges`` field, then the edges
    in order, each entry's fields read before their types are checked."""
    with _shape(what):
        for n in _require(doc, "nodes"):
            v, a = n["id"], n["label"]
            if not (isinstance(v, str) and isinstance(a, str)):
                raise StructureError(f"{what} id and label must be strings, got {v!r}, {a!r}")
    listed = _require(doc, "edges")
    with _shape("edge entry"):
        for e in listed:
            v, d, u = e["from"], e["dir"], e["to"]
            if not (isinstance(v, str) and isinstance(u, str)):
                raise StructureError(f"edge ends must be strings, got {v!r}, {u!r}")
            sig.opposite(d)


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
    b = _body(sig, doc, "graph node")
    return b.build(_name(_require(doc, "initial"), "initial node"))


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
            (_name(t["state"], "transition state"), _name(t["label"], "transition label")):
            (_name(t["next"], "next state"), _name(t["dir"], "transition direction"))
            for t in _require(doc, "transitions")
        }
        return WalkingAutomaton(
            sig,
            [_name(q, "state") for q in _list(_require(doc, "states"), "automaton states")],
            _name(_require(doc, "initial"), "initial state"),
            [(_name(q, "accepting state"), _name(lab, "accepting label"))
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
    b = _body(sig, doc, "pattern node")
    with _shape("pattern"):
        ports = dict(_require(doc, "ports").items())
    for w in ports.values():
        if not isinstance(w, str):
            raise StructureError(f"port node must be a string, got {w!r}")
    return b.build(ports=ports)


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
    patterns = {_name(lab, "pattern label"): _pattern_from(target, p) for lab, p in listed}
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
            (_name(t["label"], "tree transition label"),
             tuple(_name(q, "tree transition arg")
                   for q in _list(t["args"], "tree transition args"))):
            _name(t["result"], "tree transition result")
            for t in _require(doc, "delta")
        }
        return BottomUpTreeAutomaton(
            sig,
            [_name(q, "state") for q in _list(_require(doc, "states"), "tree automaton states")],
            _name(_require(doc, "accept"), "accepting state"),
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
    port_dir = _name(_require(doc, "port_dir"), "port_dir")
    if list(p.ports) != [port_dir]:
        raise StructureError(
            f"port_dir {port_dir!r} is not the fragment's only port (ports {sorted(p.ports)})")
    if _flag(_require(doc, "has_initial"), "has_initial") != bool(p.initial_nodes(sig)):
        raise StructureError("has_initial disagrees with the labels of the fragment")
    return p


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    """Graphviz rendering of a graph for external viewers; each physical edge
    appears once with its direction pair as the edge label."""
    lines = ["graph G {"]
    for v, a in sorted(g.nodes):
        shape = ' shape="doublecircle"' if v == g.initial else ""
        lines.append(f"  {_quoted(v)} [label={_quoted(f'{v}:{a}')}{shape}];")
    for e in _edges_once(g.sig, g.edges):
        label = f"{e['dir']}/{g.sig.opposite(e['dir'])}"
        lines.append(f"  {_quoted(e['from'])} -- {_quoted(e['to'])} [label={_quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
