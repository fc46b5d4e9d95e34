"""Signatures, labelled graphs, validation, and canonical encoding.

A signature lists the directions an edge end-point may carry (each with an
opposite direction leading back) together with the node labels.  Every label
fixes the exact set of directions available at nodes carrying it, and a
non-empty subset of labels is marked initial.  Graphs over a signature are
finite pointed graphs whose edges form a partial function ``(node, dir) ->
node`` that is symmetric under taking opposites; the unique node with an
initial label is the starting point for automata.  A graph is stored as
the integer tables that walks read, and :class:`GraphBuilder` writes them.

A direction may be declared as its own opposite.  This is required whenever
the total number of directions is odd, and the generated worst-case families
use such signatures.
"""

from __future__ import annotations

from copy import copy
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    "validate_graph",
    "breadth_first",
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


_set = object.__setattr__  # how a frozen record's ``__init__`` writes its slots


class Record:
    """Base of the package's records, plain slotted classes with their
    methods written out.  A record lists its fields in ``_fields``, in
    ``__init__`` order: they are what ``repr`` shows, as
    ``Class(field=value, ...)``, and by default what ``==`` compares, as the
    tuple ``_key`` reads.  A record whose comparison also covers tables it
    derives (``trees.CharacterizationBundle``) reads them with an
    ``attrgetter`` as its ``_key``.  Records are equal only to records of
    their own class; a mutable one is unhashable.  A record pickles as its
    class called on its fields, so ``__init__`` derives its tables again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __reduce__(self) -> tuple:
        return self.__class__, Record._key(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self.__class__._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """A record that refuses assignment: its ``__init__`` writes through
    ``_set``, and it hashes as its ``_key``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self.__class__._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Direction(Frozen):
    """An edge end-point label; ``opposite`` names the direction leading back."""

    __slots__ = _fields = ("name", "opposite")

    def __init__(self, name: str, opposite: str) -> None:
        _set(self, "name", name)
        _set(self, "opposite", opposite)


class NodeLabel(Frozen):
    """A node label with its initial flag and available direction set."""

    __slots__ = _fields = ("name", "initial", "dirs")

    def __init__(self, name: str, initial: bool, dirs: frozenset[str]) -> None:
        _set(self, "name", name)
        _set(self, "initial", initial)
        _set(self, "dirs", dirs)


class Signature(Frozen):
    """Directions with an opposite involution plus labelled direction sets.

    Declaration order of ``directions`` is significant: it is the fixed total
    order used by canonical traversal and by deterministic searches elsewhere
    in the package.

    Derived on construction: ``dir_names``, ``label_names`` and
    ``initial_labels`` in declaration order; the integer ids ``dir_index``
    and ``label_index`` (declaration positions) used by compiled walks; and
    ``opp_index``, the id of each direction's opposite (-1 if undeclared).
    """

    _fields = ("directions", "labels")
    __slots__ = _fields + ("dir_names", "label_names", "initial_labels", "dir_index",
                           "label_index", "opp_index", "_opp", "_label", "_dirs_of")

    def __init__(self, directions: tuple[Direction, ...], labels: tuple[NodeLabel, ...]) -> None:
        _set(self, "directions", directions)
        _set(self, "labels", labels)
        # Derived data, computed once.  Where a name is declared twice, the
        # last declaration wins, as in the name lookups.
        dir_names = tuple(d.name for d in directions)
        dir_index = {d: i for i, d in enumerate(dir_names)}
        derived = {
            "dir_names": dir_names,
            "label_names": tuple(a.name for a in labels),
            "initial_labels": tuple(a.name for a in labels if a.initial),
            "dir_index": dir_index,
            "label_index": {a.name: i for i, a in enumerate(labels)},
            "opp_index": tuple(dir_index.get(d.opposite, -1) for d in directions),
            "_opp": {d.name: d.opposite for d in directions},
            "_label": {a.name: a for a in labels},
            "_dirs_of": {a.name: tuple(d for d in dir_names if d in a.dirs) for a in labels},
        }
        for name, value in derived.items():
            _set(self, name, value)

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


class Problem(Frozen):
    """One validation finding.

    ``kind`` is ``"structural"`` for dangling references (unknown labels,
    directions or nodes) and ``"invariant"`` for well-formed data violating a
    definitional requirement.
    """

    __slots__ = _fields = ("kind", "code", "subject", "detail")

    def __init__(self, kind: str, code: str, subject: str, detail: str) -> None:
        _set(self, "kind", kind)
        _set(self, "code", code)
        _set(self, "subject", subject)
        _set(self, "detail", detail)


class ValidationReport(Record):
    __slots__ = _fields = ("problems",)

    def __init__(self, problems: list[Problem] | None = None) -> None:
        self.problems = [] if problems is None else problems

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def structural(self) -> list[Problem]:
        return [p for p in self.problems if p.kind == "structural"]

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


class Graph:
    """Finite pointed graph over a signature, or a pattern, stored as the
    integer tables that walks read.

    Node ``w`` is the w-th declared node: its id is ``names[w]``, its label
    ``labels[w]``, with id ``lab[w]`` in ``sig`` (``len(sig.labels)`` for a
    label outside it), and its slot in direction id ``d`` holds
    ``nxt[w * D + d]``: the node the edge leads to, ``PORT`` for an external
    edge of a pattern, or ``MISSING``.  ``index`` maps an id to its node (the
    last, for an id declared twice).  A pattern (the replacement graph of a
    homomorphism) has no ``initial`` node, and names the node of each port
    direction in ``ports``, with its index in ``port[d]``.  ``loose`` keeps
    beside the tables, as ``((v, d), u)``, the half-edges they cannot hold:
    an unknown end or direction, or an internal edge on a port slot.  A walk
    stops there, and :func:`validate_graph` reports them.

    ``edges`` reads the partial function ``(v, d) -> u``, both halves of
    every edge.  :class:`GraphBuilder` writes every graph; the name
    constructor ``Graph(sig, nodes, initial, edges, ports)`` puts every edge
    of an id declared twice on its last node.  Graphs are immutable by
    convention; derived ones share tables.  Equality of graphs is decided
    by :func:`canonical_encode`, never by ids.  A graph is also a walk space
    for ``engine.walk``, whose node codes are its node indices.
    """

    __slots__ = ("sig", "initial", "ports", "names", "index", "labels", "lab", "nxt", "port",
                 "loose", "__weakref__")

    def __init__(
        self,
        sig: Signature,
        nodes: Iterable[tuple[str, str]],
        initial: str | None,
        edges: Mapping[tuple[str, str], str],
        ports: dict[str, str] | None = None,
    ) -> None:
        b, nodes = GraphBuilder(sig), list(nodes)
        b.add_nodes([v for v, _ in nodes], [a for _, a in nodes])
        b.add_halves(edges.items())
        b._fill(self, initial, ports)

    def space(self, sig: Signature | None = None) -> "Graph":
        """This graph as a walk space over ``sig`` (default: its own): the
        graph itself for an equal signature, compared in depth only where
        the label names agree.  For one with the same directions and other
        labels, a graph made on each call with its label ids remapped by
        name, sharing its names, index and edge tables.  Other directions
        raise :class:`SignatureMismatchError`."""
        if sig is None or sig is self.sig or (
                sig.label_names == self.sig.label_names and sig == self.sig):
            return self
        if sig.dir_names != self.sig.dir_names:
            raise SignatureMismatchError("graph is over other directions")
        g = copy(self)
        ids, other = sig.label_index, len(sig.labels)
        g.sig, g.lab = sig, [ids.get(a, other) for a in self.labels]
        return g

    def relabelled(self, labels: Mapping[str, str], initial: str | None) -> "Graph":
        """This graph with each node named in ``labels`` given that label
        through :meth:`set_label`, pointed at ``initial``.  Only the two label
        lists are copied: the names, the index, the edge tables and the ports
        are shared.  An unknown name raises :class:`StructureError`."""
        g = copy(self)
        g.labels, g.lab, g.initial = self.labels.copy(), self.lab.copy(), initial
        ids, other = self.sig.label_index, len(self.sig.labels)
        for v, a in labels.items():
            g.set_label(self.at(v)[3], a, ids.get(a, other))
        return g

    def set_label(self, w: int, label: str, lab: int) -> None:
        """Write node ``w``'s label and its id ``lab`` in place: the one writer
        of a built graph's label slots.  Only for a graph whose label lists
        are its own, as a freshly built one or a copy from :meth:`relabelled`
        is, and which no one else reads until it is restored."""
        self.labels[w], self.lab[w] = label, lab

    @property
    def node_count(self) -> int:
        return len(self.names)

    floor = node_count  # a walk space's lower bound on its node count, exact here
    crossing = None  # a walk space's tables for crossing between copies: none here

    @property
    def nodes(self) -> list[tuple[str, str]]:
        """``(id, label)`` of every node, in declaration order."""
        return list(zip(self.names, self.labels))

    @property
    def edges(self) -> Mapping[tuple[str, str], str]:
        """The edge function by name, read back from the tables, and the
        half-edges kept beside them; built on each access."""
        names, dirs, width = self.names, self.sig.dir_names, len(self.sig.directions)
        pairs = [((names[s // width], dirs[s % width]), names[x])
                 for s, x in enumerate(self.nxt) if x >= 0]
        return MappingProxyType(dict(pairs + list(self.loose)))

    def initial_nodes(self, sig: Signature) -> tuple[str, ...]:
        """Nodes whose label is initial in ``sig``."""
        return tuple(v for v, a in zip(self.names, self.labels)
                     if sig.has_label(a) and sig.label(a).initial)

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

    # The graph itself: the benchmark's start-block check (bench/tests)
    # reads a fragment's body as ``.pattern``; nothing in the package does.
    pattern = property(lambda self: self)

    def __repr__(self) -> str:
        return f"Graph({self.node_count} nodes, initial={self.initial!r})"


class GraphBuilder:
    """Incremental construction of a graph or a pattern: the one writer of
    graph tables.  ``node`` and ``edge``, or ``add_nodes``, ``add_edges``
    and ``add_halves`` in bulk, take names: each end of an edge is declared
    before it, a later write to a slot wins, and an id declared again names
    its last node from then on (halves written before stay).  Nothing is
    checked here: :func:`validate_graph` is the check.  ``build`` hands the
    tables over to the graph, so nothing may be added afterwards.
    """

    __slots__ = ("sig", "names", "labels", "lab", "nxt", "index", "_loose")

    def __init__(self, sig: Signature) -> None:
        self.sig = sig
        self.names: list[str] = []
        self.labels: list[str] = []
        self.lab: list[int] = []
        self.nxt: list[int] = []
        self.index: dict[str, int] = {}
        self._loose: dict[tuple[str, str], str] = {}  # halves the tables cannot hold

    def node(self, v: str, label: str) -> str:
        self.add_nodes((v,), (label,))
        return v

    def edge(self, v: str, d: str, u: str) -> None:
        self.add_halves((((v, d), u), ((u, self.sig.opposite(d)), v)))

    def add_nodes(self, ids: Sequence[str], labels: Sequence[str]) -> None:
        """Declare the nodes ``ids[i]``, labelled ``labels[i]``, in order."""
        start, label_ids, other = len(self.names), self.sig.label_index, len(self.sig.labels)
        self.index.update(zip(ids, range(start, start + len(ids))))
        self.names += ids
        self.labels += labels
        self.lab += [label_ids.get(a, other) for a in labels]
        self.nxt += [MISSING] * (len(ids) * len(self.sig.directions))

    def add_edges(self, froms: Sequence[str], dirs: Sequence[str], tos: Sequence[str]) -> None:
        """Write each edge ``froms[i]`` -``dirs[i]``- ``tos[i]`` as ``edge``
        does, its two halves in order; a direction outside the signature
        raises KeyError (TypeError if it cannot be a key).  The halves are
        written by columns where every end is declared, every opposite too
        and no half is loose; otherwise, in the same order, by ``add_halves``."""
        sig, index, nxt, width = self.sig, self.index, self.nxt, len(self.sig.directions)
        es, opp = list(map(sig.dir_index.__getitem__, dirs)), sig.opp_index
        if not self._loose and MISSING not in opp:
            try:
                ws, xs = list(map(index.__getitem__, froms)), list(map(index.__getitem__, tos))
            except KeyError:  # an end not declared: its halves are loose
                pass
            else:
                for w, e, x in zip(ws, es, xs):
                    nxt[w * width + e] = x
                    nxt[x * width + opp[e]] = w
                return
        opposite = sig.opposite
        self.add_halves([half for v, d, u in zip(froms, dirs, tos)
                         for half in (((v, d), u), ((u, opposite(d)), v))])

    def add_halves(self, halves: Iterable[tuple[tuple[str, str], str]]) -> None:
        """Write the half-edges ``((v, d), u)``, in order: ``u`` into the
        slot of ``v`` in direction ``d``.  A half with an end or a direction
        not declared so far is kept beside the tables, in the graph's ``loose``."""
        index, did, nxt, loose = self.index, self.sig.dir_index, self.nxt, self._loose
        width = len(self.sig.directions)
        for (v, d), u in halves:
            try:
                nxt[index[v] * width + did[d]] = index[u]
            except KeyError:
                w, e = index.get(v), did.get(d)
                if w is not None and e is not None:
                    nxt[w * width + e] = MISSING
                loose[(v, d)] = u
            else:
                if loose:
                    loose.pop((v, d), None)

    def include(self, fragment: Graph, prefix: str) -> None:
        """Copy ``fragment`` (same directions) under ``prefix``, ports open."""
        if fragment.sig.dir_names != self.sig.dir_names:
            raise SignatureMismatchError("fragment is over other directions")
        start = len(self.names)
        self.add_nodes([prefix + v for v in fragment.names], fragment.labels)
        self.nxt[start * len(self.sig.directions):] = [
            x + start if x >= 0 else MISSING for x in fragment.nxt]
        if fragment.loose:
            self.add_halves([((prefix + v, d), prefix + u) for (v, d), u in fragment.loose])

    def copy(self) -> "GraphBuilder":
        """Another builder over copies of these tables, to extend apart."""
        b = GraphBuilder(self.sig)
        b.names, b.labels, b.lab, b.nxt = self.names[:], self.labels[:], self.lab[:], self.nxt[:]
        b.index, b._loose = self.index.copy(), self._loose.copy()
        return b

    def _fill(self, g: Graph, initial: str | None, ports: dict[str, str] | None) -> None:
        """Hand the tables over to ``g``, the port slots marked."""
        width, nxt, port = len(self.sig.directions), self.nxt, [MISSING] * len(self.sig.directions)
        for d, w in ports.items() if ports else ():
            e, x = self.sig.dir_index.get(d), self.index.get(w)
            if e is not None and x is not None:
                if nxt[x * width + e] >= 0:
                    self._loose[(w, d)] = self.names[nxt[x * width + e]]
                nxt[x * width + e], port[e] = PORT, x
        g.sig, g.initial, g.ports, g.port = self.sig, initial, ports, port
        g.names, g.index, g.labels, g.lab = self.names, self.index, self.labels, self.lab
        g.nxt, g.loose = nxt, tuple(self._loose.items())

    def build(self, initial: str | None = None, ports: dict[str, str] | None = None) -> Graph:
        """The graph with this ``initial`` node, or the pattern with these
        ``ports``."""
        g = Graph.__new__(Graph)
        self._fill(g, initial, ports)
        return g


def validate_graph(g: Graph, sig: Signature | None = None, subject: str = "") -> ValidationReport:
    """Check a graph, or a pattern (a graph with ``ports``), against a
    signature (default: its own): known node ids, labels and directions,
    symmetric edges, the slot rule (an edge, or a port, in exactly the
    directions of each node's label) and connectivity.  A graph also needs
    its initial node, the only place for an initial label.  A pattern needs
    a node, and each port a direction of its node's label that no internal
    edge takes; its findings are named ``subject/...``, and its open slots
    and extra components are ``open-slot`` and ``disconnected-pattern``."""
    g = g.space(sig)
    sig, rep = g.sig, ValidationReport()
    names, index, labels, nxt = g.names, g.index, g.labels, g.nxt
    graph = g.ports is None
    at = "" if graph else f"{subject}/"
    seen: set[str] = set()
    for v, a in zip(names, labels):
        if v in seen:
            rep.add("structural", "duplicate-node", at + v, "node id appears twice")
        seen.add(v)
        if not sig.has_label(a):
            rep.add("structural", "unknown-label", at + v, f"label {a!r} is not in the signature")
    if graph and g.initial not in index:
        rep.add("structural", "unknown-initial", g.initial, "initial node id not present")
    if not (graph or names):
        rep.add("invariant", "empty-pattern", subject, "pattern must contain at least one node")
        return rep
    width, dirs, opp = len(sig.directions), sig.dir_names, sig.opp_index
    # Halves as (index of v, id of d, index of u).  Two table entries hold
    # one id only if they are equal, so a back slot is compared by entry;
    # where it holds no node, the half is one of the loose ones or none.
    halves = [(s // width, s % width, x) for s, x in enumerate(nxt) if x >= 0]
    loose = dict(g.loose)
    for (v, d), u in g.loose:
        if v not in index or u not in index:
            rep.add("structural", "unknown-node", f"{at}{v}+{d}", "edge endpoint not present")
        elif not sig.has_direction(d):
            rep.add("structural", "unknown-direction", f"{at}{v}+{d}", f"direction {d!r} not declared")
        else:
            halves.append((index[v], sig.dir_index[d], index[u]))
    for w, e, x in halves:
        y = nxt[x * width + opp[e]] if opp[e] >= 0 else MISSING
        if y != w:
            v, d, u = names[w], dirs[e], names[x]
            back = names[y] if y >= 0 else loose.get((u, sig.opposite(d)))
            if back != v:
                rep.add("invariant", "asymmetric-edge", f"{at}{v}+{d}",
                        f"{v}+{d}={u} but {u}+{sig.opposite(d)}={back!r}")
    for d, w in sorted((g.ports or {}).items()):
        if not sig.has_direction(d):
            rep.add("structural", "unknown-direction", f"{at}port {d}", f"port direction {d!r} not declared")
        elif w not in index:
            rep.add("structural", "unknown-node", f"{at}port {d}", f"port node {w!r} not present")
        else:
            a = labels[index[w]]
            if sig.has_label(a) and d not in sig.label(a).dirs:
                rep.add("invariant", "port-direction-unavailable", f"{at}port {d}",
                        f"node {w!r} has label without direction {d!r}")
            if (w, d) in loose:
                rep.add("invariant", "port-slot-occupied", f"{at}port {d}",
                        f"slot ({w!r}, {d!r}) already used by an internal edge")
    if rep.structural:
        return rep
    missing = "missing-edge" if graph else "open-slot"
    columns = [(d, sig.dir_index[d]) for d in dirs]
    for w, v in enumerate(names):
        label = sig.labels[g.lab[w]]
        for d, e in columns:
            x = nxt[w * width + e]
            if x >= 0 or x == PORT and (v, d) in loose:
                if d not in label.dirs:
                    rep.add("invariant", "extra-edge", f"{at}{v}+{d}",
                            f"edge defined but {d!r} not in the direction set of {label.name!r}")
            elif x != PORT and d in label.dirs:
                rep.add("invariant", missing, f"{at}{v}+{d}",
                        f"label {label.name!r} requires an edge in direction {d!r}")
        if graph and label.initial != (v == g.initial):
            if label.initial:
                rep.add("invariant", "initial-label-off-initial-node", v,
                        f"initial label {label.name!r} on a non-initial node")
            else:
                rep.add("invariant", "non-initial-label-at-initial-node", v,
                        f"initial node carries non-initial label {label.name!r}")
    adj: list[list[int]] = [[] for _ in names]
    for w, _, x in halves:
        adj[w].append(x)
        adj[x].append(w)
    seen, count = bytearray(len(names)), 0
    for w in range(len(names)):
        if not seen[w]:
            breadth_first(adj, w, seen)
            count += 1
    if count > 1:
        code, where = ("disconnected", "<graph>") if graph else ("disconnected-pattern", subject)
        rep.add("invariant", code, where, f"{count} connected components")
    return rep


def breadth_first(rows: Sequence[Sequence[int]], start: int, seen: bytearray) -> list[int]:
    """The nodes reachable from ``start`` and not yet marked in ``seen``, in
    breadth-first order, each marked as it is reached.  ``rows[w]`` lists the
    nodes that ``w`` leads to, in the order they are expanded; a negative
    entry (``MISSING``, ``PORT``) leads nowhere.  Slot rows number the nodes
    by structure alone.  Rows that count components hold each half both
    ways, as a component is undirected, and the loose halves too: an
    internal edge on a port slot joins its two nodes."""
    order = [start]
    seen[start] = 1
    for w in order:
        for x in rows[w]:
            if x >= 0 and not seen[x]:
                seen[x] = 1
                order.append(x)
    return order


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
    names, nxt, dirs = g.names, g.nxt, g.sig.dir_names
    width = len(dirs)
    # Each node's slots, grouped by ``zip``; with no directions, empty rows.
    rows = list(zip(*[iter(nxt)] * width)) or [()] * len(names)
    order = breadth_first(rows, g.at(g.initial)[3], bytearray(len(names)))
    if len(order) != len(names):
        missing = sorted(set(names) - {names[w] for w in order})
        raise DisconnectedGraphError(f"unreachable nodes: {missing}")
    number = {w: i for i, w in enumerate(order)}
    parts: list[str] = []
    for w in order:
        arcs = ",".join(f"{dirs[e]}>{number[x]}" for e, x in enumerate(rows[w]) if x >= 0)
        parts.append(f"{g.labels[w]}:{arcs}")
    return ("GW1;" + ";".join(parts)).encode("utf-8")


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Equality of pointed graphs up to node renaming (same signature)."""
    if g1.sig != g2.sig:
        raise SignatureMismatchError("graphs are over different signatures")
    return canonical_encode(g1) == canonical_encode(g2)
