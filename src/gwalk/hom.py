"""Node-replacement homomorphisms and the inverse-image automaton.

A homomorphism maps every node label of a source signature to a connected
replacement pattern over a target signature.  A pattern exposes one external
port per direction of the source label; applying the homomorphism to a graph
replaces each node by a fresh copy of its pattern and joins matching ports.
:class:`ImageView` lets an automaton walk that image without building it.

Port convention, load-bearing throughout: an automaton entering a pattern
"in the direction d" arrives along the external edge whose far side had
direction d, and therefore lands on the port node assigned to direction -d.
The embedding test in the test suite pins this convention.

Given an automaton over the target signature, :func:`invert` builds an
automaton over the source signature that accepts a graph exactly when the
original accepts its image.  Its states are pairs (state, direction the
image of the current node was entered in), plus one extra non-reenterable
initial state when the source signature has several initial labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .core import (
    Graph,
    GwalkError,
    Signature,
    SignatureMismatchError,
    StructureError,
    ValidationReport,
)
from .engine import (
    ACCEPT,
    LOOP,
    REJECT,
    RunRecord,
    WalkingAutomaton,
    compute_run,
)

__all__ = [
    "Pattern",
    "Homomorphism",
    "identity_homomorphism",
    "validate_pattern_body",
    "validate_homomorphism",
    "apply",
    "apply_detailed",
    "ImageView",
    "Start",
    "Enter",
    "ACCEPT_INSIDE",
    "REJECT_INSIDE",
    "LOOP_INSIDE",
    "EXIT",
    "PatternResult",
    "simulate_in_pattern",
    "invert",
    "invert_detailed",
    "InverseCheck",
    "InverseReport",
    "verify_inverse",
]


class Pattern:
    """Replacement fragment: body nodes and internal edges over the target
    signature, plus a map from port directions to the body nodes carrying
    the corresponding external edges."""

    __slots__ = ("nodes", "edges", "ports", "_labels")

    def __init__(
        self,
        nodes: Iterable[tuple[str, str]],
        edges: Mapping[tuple[str, str], str],
        ports: Mapping[str, str],
    ) -> None:
        self.nodes: tuple[tuple[str, str], ...] = tuple((v, a) for v, a in nodes)
        self.edges: dict[tuple[str, str], str] = dict(edges)
        self.ports: dict[str, str] = dict(ports)
        self._labels = {v: a for v, a in self.nodes}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def label_of(self, v: str) -> str:
        try:
            return self._labels[v]
        except KeyError:
            raise StructureError(f"unknown pattern node {v!r}") from None

    def initial_nodes(self, sig: Signature) -> tuple[str, ...]:
        return tuple(v for v, a in self.nodes if sig.has_label(a) and sig.label(a).initial)

    def single_node(self) -> str:
        if len(self.nodes) != 1:
            raise GwalkError("pattern has more than one node")
        return self.nodes[0][0]

    def __repr__(self) -> str:
        return f"Pattern({self.node_count} nodes, ports={sorted(self.ports)})"


@dataclass(frozen=True)
class Homomorphism:
    """One pattern per source label; directions of the source signature must
    all exist in the target signature with the same opposites."""

    source: Signature
    target: Signature
    patterns: Mapping[str, Pattern] = field(hash=False)

    def pattern(self, label: str) -> Pattern:
        try:
            return self.patterns[label]
        except KeyError:
            raise StructureError(f"no pattern for label {label!r}") from None


def identity_homomorphism(sig: Signature) -> Homomorphism:
    """Maps every label to a single node with the same label and all
    direction slots exposed as ports."""
    patterns = {
        a.name: Pattern([("x", a.name)], {}, {d: "x" for d in sorted(a.dirs)})
        for a in sig.labels
    }
    return Homomorphism(sig, sig, patterns)


def validate_pattern_body(
    p: Pattern, target: Signature, rep: ValidationReport, subject: str
) -> None:
    """Body checks shared by homomorphism patterns and standalone pluggable
    fragments: known labels and directions, symmetric internal edges, port
    slots free of internal edges, every other slot closed, connectivity."""
    ids = set()
    for v, a in p.nodes:
        if v in ids:
            rep.add("structural", "duplicate-node", f"{subject}/{v}", "pattern node id appears twice")
        ids.add(v)
        if not target.has_label(a):
            rep.add("structural", "unknown-label", f"{subject}/{v}", f"label {a!r} not in target signature")
    if not p.nodes:
        rep.add("invariant", "empty-pattern", subject, "pattern must contain at least one node")
        return
    if rep.structural:
        return
    for (v, d), u in p.edges.items():
        if v not in ids or u not in ids:
            rep.add("structural", "unknown-node", f"{subject}/{v}+{d}", "edge endpoint not in pattern")
            continue
        if not target.has_direction(d):
            rep.add("structural", "unknown-direction", f"{subject}/{v}+{d}", f"direction {d!r} not declared")
            continue
        if p.edges.get((u, target.opposite(d))) != v:
            rep.add("invariant", "asymmetric-edge", f"{subject}/{v}+{d}", "internal edge lacks its symmetric half")
    port_slots = set()
    for d, w in sorted(p.ports.items()):
        if not target.has_direction(d):
            rep.add("structural", "unknown-direction", f"{subject}/port {d}", f"port direction {d!r} not declared")
            continue
        if w not in ids:
            rep.add("structural", "unknown-node", f"{subject}/port {d}", f"port node {w!r} not in pattern")
            continue
        if d not in target.label(p.label_of(w)).dirs:
            rep.add("invariant", "port-direction-unavailable", f"{subject}/port {d}",
                    f"node {w!r} has label without direction {d!r}")
        if (w, d) in p.edges:
            rep.add("invariant", "port-slot-occupied", f"{subject}/port {d}",
                    f"slot ({w!r}, {d!r}) already used by an internal edge")
        port_slots.add((w, d))
    if rep.structural:
        return
    for v, a in p.nodes:
        for d in target.dirs_of(a):
            if (v, d) not in p.edges and (v, d) not in port_slots:
                rep.add("invariant", "open-slot", f"{subject}/{v}+{d}",
                        "slot neither closed by an internal edge nor exposed as a port")
    # connectivity over internal edges only
    adj: dict[str, set[str]] = {v: set() for v, _ in p.nodes}
    for (v, _), u in p.edges.items():
        adj[v].add(u)
        adj[u].add(v)
    start = p.nodes[0][0]
    reached = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in sorted(adj[v]):
                if u not in reached:
                    reached.add(u)
                    nxt.append(u)
        frontier = nxt
    if len(reached) != len(p.nodes):
        rep.add("invariant", "disconnected-pattern", subject, "pattern body is not connected")


def validate_homomorphism(h: Homomorphism) -> ValidationReport:
    rep = ValidationReport()
    for d in h.source.directions:
        if not h.target.has_direction(d.name):
            rep.add("structural", "missing-direction", d.name,
                    "source direction not present in target signature")
        elif h.target.opposite(d.name) != d.opposite:
            rep.add("invariant", "opposite-mismatch", d.name,
                    "source and target disagree on the opposite direction")
    for a in h.source.labels:
        if a.name not in h.patterns:
            rep.add("structural", "missing-pattern", a.name, "no pattern for this label")
            continue
        p = h.patterns[a.name]
        validate_pattern_body(p, h.target, rep, a.name)
        if set(p.ports) != set(a.dirs):
            rep.add("invariant", "port-set-mismatch", a.name,
                    f"ports {sorted(p.ports)} but label directions {sorted(a.dirs)}")
        inits = p.initial_nodes(h.target)
        if a.initial and not inits:
            rep.add("invariant", "initial-node-missing", a.name,
                    "pattern for an initial label must contain an initial node")
        if not a.initial and inits:
            rep.add("invariant", "initial-node-forbidden", a.name,
                    "pattern for a non-initial label contains an initial node")
        if len(inits) > 1:
            rep.add("invariant", "multiple-initial-nodes", a.name,
                    "pattern contains more than one initial node")
    for extra in sorted(set(h.patterns) - set(h.source.label_names)):
        rep.add("structural", "unknown-pattern-label", extra, "pattern for an undeclared label")
    return rep


def _image_id(v: str, w: str) -> str:
    return f"{v}~{w}"


def apply_detailed(h: Homomorphism, g: Graph) -> tuple[Graph, dict[str, tuple[str, str]]]:
    """Image of ``g`` under ``h`` plus a map from image node ids back to
    (original node, pattern node) pairs."""
    nodes: list[tuple[str, str]] = []
    edges: dict[tuple[str, str], str] = {}
    origin: dict[str, tuple[str, str]] = {}
    initial: str | None = None
    for v, a in g.nodes:
        p = h.pattern(a)
        for w, wl in p.nodes:
            nid = _image_id(v, w)
            if nid in origin:
                raise StructureError(f"image node id collision at {nid!r}")
            origin[nid] = (v, w)
            nodes.append((nid, wl))
            if h.target.label(wl).initial:
                if v != g.initial:
                    raise GwalkError("initial label inside the pattern of a non-initial node")
                initial = nid
        for (w, d), u in p.edges.items():
            edges[(_image_id(v, w), d)] = _image_id(v, u)
    for (v, d), u in g.edges.items():
        pv = h.pattern(g.label_of(v)).ports[d]
        pu = h.pattern(g.label_of(u)).ports[h.source.opposite(d)]
        edges[(_image_id(v, pv), d)] = _image_id(u, pu)
    if initial is None:
        raise GwalkError("image has no initial node")
    return Graph(h.target, nodes, initial, edges), origin


def apply(h: Homomorphism, g: Graph) -> Graph:
    """Replace every node of ``g`` by a fresh copy of its label's pattern,
    joining port d of each copy to port -d of the neighbour reached by d."""
    return apply_detailed(h, g)[0]


class ImageView:
    """Read-only view of ``apply(h, g)`` that builds no image node.

    An image node is the pair (source node, pattern node), the one
    :func:`apply` names ``_image_id(v, w)``.  A step either follows an edge
    of the pattern, or leaves through the port slot of its direction d and
    crosses ``g``'s edge into the neighbour's port for -d.  The view offers
    what :func:`compute_run` reads from a graph, so a walk on it costs its
    steps, not the size of the image.
    """

    __slots__ = ("sig", "initial", "node_count", "_g", "_opp", "_pattern")

    def __init__(self, h: Homomorphism, g: Graph) -> None:
        self.sig = h.target
        self._g = g
        self._opp = h.source.opposite
        by_label = {a: h.pattern(a) for a in {a for _, a in g.nodes}}
        self._pattern = {v: by_label[a] for v, a in g.nodes}
        self.node_count = sum(len(p.nodes) for p in self._pattern.values())
        inits = h.pattern(g.label_of(g.initial)).initial_nodes(h.target)
        if not inits:
            raise GwalkError("image has no initial node")
        self.initial = (g.initial, inits[-1])

    def label_of(self, node: tuple[str, str]) -> str:
        return self._pattern[node[0]].label_of(node[1])

    def crosses(self, node: tuple[str, str], d: str) -> bool:
        """Whether the move in direction ``d`` leaves the pattern copy
        through a port slot, along an edge of the source graph."""
        v, w = node
        return self._pattern[v].ports.get(d) == w and (v, d) in self._g.edges

    def step(self, node: tuple[str, str], d: str) -> tuple[str, str] | None:
        v, w = node
        p = self._pattern[v]
        if p.ports.get(d) == w:
            u = self._g.edges.get((v, d))
            if u is not None:
                try:
                    return u, self._pattern[u].ports[self._opp(d)]
                except KeyError:
                    raise StructureError(f"no port {self._opp(d)!r} at source node {u!r}") from None
        w2 = p.edges.get((w, d))
        return None if w2 is None else (v, w2)


@dataclass(frozen=True)
class Start:
    """Begin at the pattern's initial node in the automaton's initial state."""


@dataclass(frozen=True)
class Enter:
    """Arrive along the external edge of ``direction``, landing on the port
    node assigned to the opposite direction."""

    state: str
    direction: str


ACCEPT_INSIDE = "accept_inside"
REJECT_INSIDE = "reject_inside"
LOOP_INSIDE = "loop_inside"
EXIT = "exit"


@dataclass
class PatternResult:
    """Outcome of running an automaton inside a pattern body.

    For ``exit``, ``state`` and ``direction`` describe the crossing of the
    external edge and ``exit_from`` is the configuration the exit step was
    taken from.  ``visited`` lists the (state, node) configurations seen
    inside, in order.
    """

    kind: str
    state: str | None = None
    direction: str | None = None
    exit_from: tuple[str, str] | None = None
    visited: list[tuple[str, str]] = field(default_factory=list)


def simulate_in_pattern(
    a: WalkingAutomaton, p: Pattern, entry: Start | Enter, sig: Signature | None = None
) -> PatternResult:
    """Execute ``a`` inside the body of ``p`` only.

    Stepping through a port slot yields ``exit``; accepting inside yields
    ``accept_inside``; an undefined transition yields ``reject_inside``; a
    repeated configuration yields ``loop_inside``.  Decided within
    ``|Q| * |p| + 1`` steps.
    """
    sig = sig if sig is not None else a.sig
    if isinstance(entry, Enter):
        back = sig.opposite(entry.direction)
        if back not in p.ports:
            raise StructureError(
                f"cannot enter in direction {entry.direction!r}: {back!r} is not a port"
            )
        q, v = entry.state, p.ports[back]
    else:
        inits = p.initial_nodes(sig)
        if len(inits) != 1:
            raise StructureError("start entry needs exactly one initial node in the pattern")
        q, v = a.initial, inits[0]
    bound = len(a.states) * p.node_count + 1
    seen: set[tuple[str, str]] = set()
    visited: list[tuple[str, str]] = []
    steps = 0
    while True:
        if (q, v) in seen:
            return PatternResult(LOOP_INSIDE, visited=visited)
        seen.add((q, v))
        visited.append((q, v))
        if steps > bound:
            raise AssertionError("pattern simulation exceeded its termination bound")
        lab = p.label_of(v)
        if (q, lab) in a.accept:
            return PatternResult(ACCEPT_INSIDE, visited=visited)
        move = a.delta.get((q, lab))
        if move is None:
            return PatternResult(REJECT_INSIDE, visited=visited)
        q2, d = move
        if (v, d) in p.edges:
            q, v = q2, p.edges[(v, d)]
            steps += 1
            continue
        if p.ports.get(d) == v:
            return PatternResult(EXIT, state=q2, direction=d, exit_from=(q, v), visited=visited)
        raise StructureError(f"open slot ({v!r}, {d!r}) reached during pattern simulation")


def _composite_name(q: str, d: str) -> str:
    return f"{q}@{d}"


def invert_detailed(
    a: WalkingAutomaton, h: Homomorphism
) -> tuple[WalkingAutomaton, dict[str, tuple[str, str]]]:
    """Inverse-image automaton plus the decoding of its composite state names
    back to (simulated state, entry direction) pairs."""
    if a.sig != h.target:
        raise SignatureMismatchError("automaton must operate over the target signature")
    src = h.source
    initials = src.initial_labels

    def start_result(label: str) -> PatternResult:
        return simulate_in_pattern(a, h.pattern(label), Start(), sig=h.target)

    if len(initials) == 1:
        res0 = start_result(initials[0])
        if res0.kind != EXIT:
            # The original automaton decides inside the image of the unique
            # initial label, so one state answering immediately suffices.
            accept0 = [("p0", initials[0])] if res0.kind == ACCEPT_INSIDE else []
            return WalkingAutomaton(src, ("p0",), "p0", accept0, {}), {}

    states: list[str] = []
    decode: dict[str, tuple[str, str]] = {}
    use_p0 = len(initials) > 1
    if use_p0:
        states.append("p0")
    for q in a.states:
        for d in src.dir_names:
            name = _composite_name(q, d)
            states.append(name)
            decode[name] = (q, d)

    accept: list[tuple[str, str]] = []
    delta: dict[tuple[str, str], tuple[str, str]] = {}
    for q in a.states:
        for d in src.dir_names:
            name = _composite_name(q, d)
            back = src.opposite(d)
            for lab in src.labels:
                if back not in lab.dirs:
                    continue
                res = simulate_in_pattern(a, h.pattern(lab.name), Enter(q, d), sig=h.target)
                if res.kind == ACCEPT_INSIDE:
                    accept.append((name, lab.name))
                elif res.kind == EXIT:
                    assert res.state is not None and res.direction is not None
                    delta[(name, lab.name)] = (_composite_name(res.state, res.direction), res.direction)

    if use_p0:
        for lab in initials:
            res = start_result(lab)
            if res.kind == ACCEPT_INSIDE:
                accept.append(("p0", lab))
            elif res.kind == EXIT:
                assert res.state is not None and res.direction is not None
                delta[("p0", lab)] = (_composite_name(res.state, res.direction), res.direction)
        initial_state = "p0"
    else:
        res0 = start_result(initials[0])
        assert res0.kind == EXIT and res0.exit_from is not None and res0.direction is not None
        # Re-entering the image of the initial label against the exit
        # direction, in the pre-exit state, reproduces the exit move; that
        # composite state therefore serves as the initial state.
        initial_state = _composite_name(res0.exit_from[0], src.opposite(res0.direction))

    return WalkingAutomaton(src, states, initial_state, accept, delta), decode


def invert(a: WalkingAutomaton, h: Homomorphism) -> WalkingAutomaton:
    """Automaton over the source signature accepting exactly the graphs whose
    images the given automaton accepts.  State count is ``n*k + 1`` with
    several initial labels, ``n*k`` with a unique one, and 1 in the
    degenerate case where the original decides inside the initial pattern.
    Unreachable composite states are kept on purpose."""
    return invert_detailed(a, h)[0]


@dataclass
class InverseCheck:
    index: int
    b_kind: str
    a_kind: str
    alignment_failures: list[str]

    @property
    def acceptance_agree(self) -> bool:
        return (self.b_kind == ACCEPT) == (self.a_kind == ACCEPT)

    @property
    def refinement_ok(self) -> bool:
        # B looping forces the original to loop; B rejecting allows the
        # original to reject or to loop inside a single pattern.
        if self.b_kind == ACCEPT:
            return self.a_kind == ACCEPT
        if self.b_kind == LOOP:
            return self.a_kind == LOOP
        return self.a_kind in (REJECT, LOOP)


@dataclass
class InverseReport:
    checks: list[InverseCheck]

    @property
    def disagreements(self) -> list[InverseCheck]:
        return [c for c in self.checks if not c.acceptance_agree or c.alignment_failures]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _entry_events(
    record: RunRecord, a: WalkingAutomaton, image: ImageView
) -> tuple[dict[tuple[str, str, str], list[int]], set[tuple[str, str, str]]]:
    """Moments at which the run crosses between pattern copies.

    A step is a crossing when it leaves its copy through a port slot rather
    than along an edge internal to a pattern; a self-loop in the source graph
    makes a copy enterable from itself, so crossings cannot be detected by a
    mere change of origin.  Returns finite event times keyed by (original
    node, direction, state), plus the events lying on the run's cycle, which
    recur forever.
    """
    finite: dict[tuple[str, str, str], list[int]] = {}
    recurrent: set[tuple[str, str, str]] = set()
    cycle_start = record.cycle_start
    for t in range(1, len(record.configs)):
        prev = record.configs[t - 1]
        cur = record.configs[t]
        d = a.delta[(prev.state, image.label_of(prev.node))][1]
        if not image.crosses(prev.node, d):
            continue
        key = (cur.node[0], d, cur.state)
        if cycle_start is not None and t > cycle_start:
            recurrent.add(key)
        else:
            finite.setdefault(key, []).append(t)
    return finite, recurrent


def verify_inverse(
    a: WalkingAutomaton, h: Homomorphism, suite: Iterable[Graph]
) -> InverseReport:
    """For each graph: acceptance of the inverse-image automaton must match
    acceptance of the original on the image, and every composite
    configuration ((q, d), v) reached after t >= 1 steps must correspond to
    the original entering the copy of v in direction d in state q at some
    moment >= t.  Disagreements are report entries, not errors."""
    b, decode = invert_detailed(a, h)
    checks: list[InverseCheck] = []
    for i, g in enumerate(suite):
        image = ImageView(h, g)
        rec_b = compute_run(b, g)
        rec_a = compute_run(a, image)
        failures: list[str] = []
        finite, recurrent = _entry_events(rec_a, a, image)
        for t in range(1, len(rec_b.configs)):
            cfg = rec_b.configs[t]
            if cfg.state not in decode:
                failures.append(f"step {t}: non-composite state {cfg.state!r}")
                continue
            q, d = decode[cfg.state]
            key = (cfg.node, d, q)
            in_b_cycle = rec_b.cycle_start is not None and t > rec_b.cycle_start
            if in_b_cycle:
                ok = key in recurrent
            else:
                ok = key in recurrent or any(th >= t for th in finite.get(key, ()))
            if not ok:
                failures.append(
                    f"step {t}: no entry of the image of {cfg.node!r} "
                    f"in direction {d!r} in state {q!r} at time >= {t}"
                )
        checks.append(InverseCheck(i, rec_b.outcome.kind, rec_a.outcome.kind, failures))
    return InverseReport(checks)
