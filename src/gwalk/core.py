"""Signatures, labelled graphs, validation, and canonical encoding.

A signature lists the directions an edge end-point may carry (each with an
opposite direction leading back) together with the node labels.  Every label
fixes the exact set of directions available at nodes carrying it, and a
non-empty subset of labels is marked initial.  Graphs over a signature are
finite pointed graphs whose edges form a partial function ``(node, dir) ->
node`` that is symmetric under taking opposites; the unique node with an
initial label is the starting point for automata.

A direction may be declared as its own opposite.  This is required whenever
the total number of directions is odd, and the generated worst-case families
use such signatures.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "GwalkError",
    "StructureError",
    "SignatureMismatchError",
    "DisconnectedGraphError",
    "Direction",
    "NodeLabel",
    "Signature",
    "Problem",
    "ValidationReport",
    "validate_signature",
    "Graph",
    "GraphBuilder",
    "MISSING",
    "PORT",
    "Frame",
    "validate_graph",
    "breadth_first",
    "connected_components",
    "canonical_encode",
    "isomorphic",
]


class GwalkError(Exception):
    """Base class for errors raised by this package."""


class StructureError(GwalkError):
    """An object references labels, directions or nodes that do not exist."""


class SignatureMismatchError(GwalkError):
    """Two objects that must share a signature do not."""


class DisconnectedGraphError(GwalkError):
    """The operation requires a connected graph."""


@dataclass(frozen=True)
class Direction:
    """An edge end-point label; ``opposite`` names the direction leading back."""

    name: str
    opposite: str


@dataclass(frozen=True)
class NodeLabel:
    """A node label with its initial flag and available direction set."""

    name: str
    initial: bool
    dirs: frozenset[str]


@dataclass(frozen=True)
class Signature:
    """Directions with an opposite involution plus labelled direction sets.

    Declaration order of ``directions`` is significant: it is the fixed total
    order used by canonical traversal and by deterministic searches elsewhere
    in the package.

    Derived on construction: ``dir_names``, ``label_names`` and
    ``initial_labels`` in declaration order; the integer ids ``dir_index``
    and ``label_index`` (declaration positions) used by compiled walks; and
    ``opp_index``, the id of each direction's opposite (-1 if undeclared).
    """

    directions: tuple[Direction, ...]
    labels: tuple[NodeLabel, ...]

    def __post_init__(self) -> None:
        # Derived data, computed once.  Where a name is declared twice, the
        # last declaration wins, as in the name lookups.
        dir_names = tuple(d.name for d in self.directions)
        dir_index = {d: i for i, d in enumerate(dir_names)}
        derived = {
            "dir_names": dir_names,
            "label_names": tuple(a.name for a in self.labels),
            "initial_labels": tuple(a.name for a in self.labels if a.initial),
            "dir_index": dir_index,
            "label_index": {a.name: i for i, a in enumerate(self.labels)},
            "opp_index": tuple(dir_index.get(d.opposite, -1) for d in self.directions),
            "_opp": {d.name: d.opposite for d in self.directions},
            "_label": {a.name: a for a in self.labels},
            "_dirs_of": {a.name: tuple(d for d in dir_names if d in a.dirs)
                         for a in self.labels},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[str, str]],
        labels: Iterable[tuple[str, bool, Iterable[str]]],
        self_opposite: Iterable[str] = (),
    ) -> "Signature":
        """Build a signature from opposite pairs plus optional self-opposite names."""
        dirs: list[Direction] = []
        for d, e in pairs:
            dirs.append(Direction(d, e))
            dirs.append(Direction(e, d))
        for d in self_opposite:
            dirs.append(Direction(d, d))
        labs = tuple(NodeLabel(n, init, frozenset(ds)) for n, init, ds in labels)
        return cls(tuple(dirs), labs)

    def opposite(self, d: str) -> str:
        try:
            return self._opp[d]
        except KeyError:
            raise StructureError(f"unknown direction {d!r}") from None

    def has_direction(self, d: str) -> bool:
        return d in self._opp

    def label(self, name: str) -> NodeLabel:
        try:
            return self._label[name]
        except KeyError:
            raise StructureError(f"unknown label {name!r}") from None

    def has_label(self, name: str) -> bool:
        return name in self._label

    def dirs_of(self, label: str) -> tuple[str, ...]:
        """Direction set of ``label`` in signature declaration order."""
        try:
            return self._dirs_of[label]
        except KeyError:
            raise StructureError(f"unknown label {label!r}") from None


@dataclass(frozen=True)
class Problem:
    """One validation finding.

    ``kind`` is ``"structural"`` for dangling references (unknown labels,
    directions or nodes) and ``"invariant"`` for well-formed data violating a
    definitional requirement.
    """

    kind: str
    code: str
    subject: str
    detail: str


@dataclass
class ValidationReport:
    problems: list[Problem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def structural(self) -> list[Problem]:
        return [p for p in self.problems if p.kind == "structural"]

    @property
    def invariants(self) -> list[Problem]:
        return [p for p in self.problems if p.kind == "invariant"]

    def add(self, kind: str, code: str, subject: str, detail: str) -> None:
        self.problems.append(Problem(kind, code, subject, detail))

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"[{p.kind}] {p.code} at {p.subject}: {p.detail}" for p in self.problems)


def validate_signature(sig: Signature) -> ValidationReport:
    """Check a signature: involutive opposites, a non-empty initial label set,
    and per-label direction sets contained in the declared directions."""
    rep = ValidationReport()
    seen: set[str] = set()
    for d in sig.directions:
        if d.name in seen:
            rep.add("structural", "duplicate-direction", d.name, "direction declared twice")
        seen.add(d.name)
    for d in sig.directions:
        if d.opposite not in seen:
            rep.add("structural", "unknown-opposite", d.name,
                    f"opposite {d.opposite!r} is not a declared direction")
        elif sig.opposite(d.opposite) != d.name:
            rep.add("invariant", "opposite-not-involutive", d.name,
                    f"-(-{d.name}) = {sig.opposite(d.opposite)!r}, expected {d.name!r}")
    lab_seen: set[str] = set()
    for a in sig.labels:
        if a.name in lab_seen:
            rep.add("structural", "duplicate-label", a.name, "label declared twice")
        lab_seen.add(a.name)
        for d in sorted(a.dirs):
            if d not in seen:
                rep.add("structural", "unknown-direction", a.name,
                        f"label uses undeclared direction {d!r}")
    if not any(a.initial for a in sig.labels):
        rep.add("invariant", "no-initial-label", "<signature>",
                "at least one label must be initial")
    return rep


MISSING = -1
PORT = -2


class Frame:
    """A graph or pattern body in the integer form that walks read.

    Node ``w`` is the w-th declared node; it carries label id ``lab[w]``
    (``len(sig.labels)`` for a label outside the signature) and its slot in
    direction id ``d`` holds ``nxt[w * D + d]``: the node the edge leads to,
    ``PORT`` for an external edge of a pattern, or ``MISSING``.  ``port[d]``
    is the node exposing the external edge of direction ``d``, or
    ``MISSING``.  A port slot counts as a port even where an internal edge
    also claims it, as in the materialized image.  Edges with an unknown end
    or direction are left out, so that a walk stops at them.

    A frame is also a space for ``engine.walk``, whose node codes are its
    node indices.
    """

    __slots__ = ("sig", "names", "index", "lab", "nxt", "port", "node_count")

    def __init__(
        self,
        sig: Signature,
        nodes: Iterable[tuple[str, str]],
        edges: Mapping[tuple[str, str], str],
        ports: Mapping[str, str] | None = None,
    ) -> None:
        nodes = list(nodes)
        n, dirs = len(nodes), len(sig.directions)
        self.sig = sig
        self.node_count = n
        self.names = [v for v, _ in nodes]
        self.index = index = {v: i for i, v in enumerate(self.names)}
        labels, other = sig.label_index, len(sig.labels)
        self.lab = [labels.get(a, other) for _, a in nodes]
        self.nxt = nxt = [MISSING] * (n * dirs)
        did = sig.dir_index
        for (v, d), u in edges.items():
            try:
                nxt[index[v] * dirs + did[d]] = index[u]
            except KeyError:
                pass
        self.port = [MISSING] * dirs
        for d, w in (ports or {}).items():
            if d in did and w in index:
                self.port[did[d]] = index[w]
                nxt[index[w] * dirs + did[d]] = PORT

    def at(self, v: str) -> tuple[list[int], list[int], int, int]:
        """Walk position of node ``v``: (labels, moves, node base, index)."""
        try:
            return self.lab, self.nxt, 0, self.index[v]
        except KeyError:
            raise StructureError(f"unknown node {v!r}") from None

    def node(self, code: int) -> str:
        return self.names[code]

    def hop(self, base: int, w: int, d: int, mark: int):
        """Leave node ``w`` through a marked slot: a port ends the walk
        (None); any other mark is a missing edge."""
        if mark == PORT:
            return None
        raise StructureError(
            f"no edge in direction {self.sig.dir_names[d]!r} at node {self.names[w]!r}")


class Graph:
    """Finite pointed graph over a signature, or a pattern.

    ``edges`` is the full partial function: both half-edges of every physical
    edge are present, so ``edges[(v, d)] == u`` implies
    ``edges[(u, -d)] == v``.  A pattern (the replacement graph of a
    homomorphism) also maps each port direction to the node carrying that
    external edge in ``ports``, and has no ``initial`` node: its initial
    nodes are those with an initial label.  Instances are immutable by
    convention: a graph keeps the node sequence and edge dict it is handed,
    and nothing in the package mutates them afterwards.  Node ids are opaque
    strings, resolved only through the ``index`` of the compiled
    :class:`Frame` that derived graphs share (see :meth:`relabelled`), and
    equality of graphs is decided by :func:`canonical_encode`, never by ids.
    """

    __slots__ = ("sig", "nodes", "initial", "edges", "ports", "_frame", "__weakref__")

    def __init__(
        self,
        sig: Signature,
        nodes: Sequence[tuple[str, str]],
        initial: str | None,
        edges: dict[tuple[str, str], str],
        ports: dict[str, str] | None = None,
    ) -> None:
        self.sig = sig
        self.nodes = nodes
        self.initial = initial
        self.edges = edges
        self.ports = ports
        self._frame: Frame | None = None

    def space(self, sig: Signature | None = None) -> Frame:
        """The graph as a :class:`Frame` over ``sig`` (default: its own),
        compiled on first use and again only for an unequal signature."""
        sig = self.sig if sig is None else sig
        f = self._frame
        if f is None or (f.sig is not sig and f.sig != sig):
            f = self._frame = Frame(sig, self.nodes, self.edges, self.ports)
        return f

    def relabelled(self, labels: Mapping[str, str], initial: str | None) -> "Graph":
        """This graph with each node named in ``labels`` given that label,
        pointed at ``initial``.  The names resolve through the index of this
        graph's frame, and an unknown one raises :class:`StructureError`.
        Only the node list and the label list of the frame are copied and
        patched: the edges, the ports and the rest of the frame, its name
        index included, are shared."""
        nodes = list(self.nodes)
        frame = self.space()
        lab = frame.lab.copy()
        ids, other = self.sig.label_index, len(self.sig.labels)
        for v, label in labels.items():
            at = frame.at(v)[3]
            nodes[at] = (v, label)
            lab[at] = ids.get(label, other)
        g = Graph(self.sig, nodes, initial, self.edges, self.ports)
        g._frame = copy(frame)
        g._frame.lab = lab
        return g

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def label_of(self, v: str) -> str:
        """The label of node ``v``, through the index of the frame compiled
        over any signature (names do not depend on it), or else a new one."""
        return self.nodes[(self._frame or self.space()).at(v)[3]][1]

    def step(self, v: str, d: str) -> str | None:
        return self.edges.get((v, d))

    def initial_nodes(self, sig: Signature) -> tuple[str, ...]:
        """Nodes whose label is initial in ``sig``."""
        return tuple(v for v, a in self.nodes if sig.has_label(a) and sig.label(a).initial)

    # The graph itself: the benchmark's start-block check (bench/tests)
    # reads a fragment's body as ``.pattern``; nothing in the package does.
    pattern = property(lambda self: self)

    def __repr__(self) -> str:
        return f"Graph({self.node_count} nodes, initial={self.initial!r})"


class GraphBuilder:
    """Incremental construction of a graph or a pattern.

    ``edge`` installs both halves of an edge; later writes to a slot win.
    Nothing is checked here: :func:`validate_graph` is the check, for a
    graph and a pattern alike.  ``build`` hands the builder's node list and
    edge dict over to the graph, so nothing may be added afterwards.
    """

    def __init__(self, sig: Signature) -> None:
        self.sig = sig
        self.nodes: list[tuple[str, str]] = []
        self.edges: dict[tuple[str, str], str] = {}

    def node(self, v: str, label: str) -> str:
        self.nodes.append((v, label))
        return v

    def edge(self, v: str, d: str, u: str) -> None:
        self.edges[(v, d)] = u
        self.edges[(u, self.sig.opposite(d))] = v

    def include(self, fragment: Graph, prefix: str) -> None:
        """Copy the nodes and edges of ``fragment`` with ``prefix`` put before
        every node id; its ports stay open for the caller to close."""
        self.nodes.extend([(prefix + v, lab) for v, lab in fragment.nodes])
        # A loop, not dict.update: updating from a built mapping hashes every
        # key twice and measured slower.
        edges = self.edges
        for (v, d), u in fragment.edges.items():
            edges[(prefix + v, d)] = prefix + u

    def build(self, initial: str | None = None, ports: dict[str, str] | None = None) -> Graph:
        """The graph with this ``initial`` node, or the pattern with these
        ``ports``."""
        return Graph(self.sig, self.nodes, initial, self.edges, ports)


def validate_graph(g: Graph, sig: Signature | None = None, subject: str = "") -> ValidationReport:
    """Check a graph, or a pattern (a graph with ``ports``), against a
    signature (default: its own): known node ids, labels and directions,
    symmetric edges, the slot rule (an edge, or a port, in exactly the
    directions of each node's label) and connectivity.  A graph also needs
    its initial node, the only place for an initial label.  A pattern needs
    a node, and each port a direction of its node's label that no internal
    edge takes; its findings are named ``subject/...``, and its open slots
    and extra components are ``open-slot`` and ``disconnected-pattern``."""
    sig = sig if sig is not None else g.sig
    rep = ValidationReport()
    edges, graph = g.edges, g.ports is None
    at = "" if graph else f"{subject}/"
    labels: dict[str, str] = {}
    for v, a in g.nodes:
        if v in labels:
            rep.add("structural", "duplicate-node", at + v, "node id appears twice")
        labels[v] = a
        if not sig.has_label(a):
            rep.add("structural", "unknown-label", at + v, f"label {a!r} is not in the signature")
    if graph and g.initial not in labels:
        rep.add("structural", "unknown-initial", g.initial, "initial node id not present")
    if not (graph or g.nodes):
        rep.add("invariant", "empty-pattern", subject, "pattern must contain at least one node")
        return rep
    for (v, d), u in edges.items():
        if v not in labels or u not in labels:
            rep.add("structural", "unknown-node", f"{at}{v}+{d}", "edge endpoint not present")
            continue
        if not sig.has_direction(d):
            rep.add("structural", "unknown-direction", f"{at}{v}+{d}", f"direction {d!r} not declared")
            continue
        back = edges.get((u, sig.opposite(d)))
        if back != v:
            rep.add("invariant", "asymmetric-edge", f"{at}{v}+{d}",
                    f"{v}+{d}={u} but {u}+{sig.opposite(d)}={back!r}")
    ports = set()
    for d, w in sorted((g.ports or {}).items()):
        if not sig.has_direction(d):
            rep.add("structural", "unknown-direction", f"{at}port {d}", f"port direction {d!r} not declared")
        elif w not in labels:
            rep.add("structural", "unknown-node", f"{at}port {d}", f"port node {w!r} not present")
        else:
            if sig.has_label(labels[w]) and d not in sig.label(labels[w]).dirs:
                rep.add("invariant", "port-direction-unavailable", f"{at}port {d}",
                        f"node {w!r} has label without direction {d!r}")
            if (w, d) in edges:
                rep.add("invariant", "port-slot-occupied", f"{at}port {d}",
                        f"slot ({w!r}, {d!r}) already used by an internal edge")
            ports.add((w, d))
    if rep.structural:
        return rep
    missing = "missing-edge" if graph else "open-slot"
    for v, a in g.nodes:
        label = sig.label(a)
        dirs = label.dirs
        for d in sig.dir_names:
            if (v, d) in edges:
                if d not in dirs:
                    rep.add("invariant", "extra-edge", f"{at}{v}+{d}",
                            f"edge defined but {d!r} not in the direction set of {a!r}")
            elif d in dirs and (v, d) not in ports:
                rep.add("invariant", missing, f"{at}{v}+{d}",
                        f"label {a!r} requires an edge in direction {d!r}")
        if graph and label.initial != (v == g.initial):
            if label.initial:
                rep.add("invariant", "initial-label-off-initial-node", v,
                        f"initial label {a!r} on a non-initial node")
            else:
                rep.add("invariant", "non-initial-label-at-initial-node", v,
                        f"initial node carries non-initial label {a!r}")
    if g.nodes and len(comps := connected_components(g)) > 1:
        code, where = ("disconnected", "<graph>") if graph else ("disconnected-pattern", subject)
        rep.add("invariant", code, where, f"{len(comps)} connected components")
    return rep


def breadth_first(start: Any, neighbours: Callable[[Any], Iterable]) -> list:
    """Everything reachable from ``start``, in breadth-first order;
    ``neighbours(v)`` gives the neighbours of ``v`` in the order they are
    expanded."""
    order, seen = [start], {start}
    for v in order:
        for u in neighbours(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order


def connected_components(g: Graph) -> list[list[str]]:
    """Partition of the nodes under undirected reachability along edges,
    each component in breadth-first order over sorted neighbours."""
    adj: dict[str, set[str]] = {v: set() for v, _ in g.nodes}
    for (v, _), u in g.edges.items():
        if v in adj and u in adj:
            adj[v].add(u)
            adj[u].add(v)
    comps: list[list[str]] = []
    placed: set[str] = set()
    for start, _ in g.nodes:
        if start not in placed:
            comps.append(breadth_first(start, lambda v: sorted(adj[v])))
            placed.update(comps[-1])
    return comps


def canonical_encode(g: Graph) -> bytes:
    """Canonical byte code of a pointed graph, equal for two graphs exactly
    when a label- and direction-preserving isomorphism maps one initial node
    to the other.

    The code is produced by a breadth-first traversal from the initial node
    that expands edges in signature declaration order.  Because edges form a
    partial function, the traversal is fully determined by the structure, so
    the numbering it assigns is canonical.  Raises
    :class:`DisconnectedGraphError` when some node is unreachable.
    """
    dirs, edges, labels = g.sig.dir_names, g.edges, dict(g.nodes)
    order = breadth_first(
        g.initial, lambda v: [u for d in dirs if (u := edges.get((v, d))) is not None])
    if len(order) != g.node_count:
        missing = sorted(set(labels) - set(order))
        raise DisconnectedGraphError(f"unreachable nodes: {missing}")
    index = {v: i for i, v in enumerate(order)}
    parts: list[str] = []
    for v in order:
        arcs = ",".join(f"{d}>{index[edges[(v, d)]]}" for d in dirs if (v, d) in edges)
        try:
            parts.append(f"{labels[v]}:{arcs}")
        except KeyError:
            raise StructureError(f"unknown node {v!r}") from None
    return ("GW1;" + ";".join(parts)).encode("utf-8")


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Equality of pointed graphs up to node renaming (same signature)."""
    if g1.sig != g2.sig:
        raise SignatureMismatchError("graphs are over different signatures")
    return canonical_encode(g1) == canonical_encode(g2)
