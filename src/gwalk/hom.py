"""Node-replacement homomorphisms and the inverse-image automaton.

A homomorphism maps every node label of a source signature to a connected
replacement pattern over a target signature.  A pattern is a ``core.Graph``
with ports: it exposes one external port per direction of the source label,
and has no initial node of its own.  Applying the homomorphism to a graph
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

from bisect import bisect_left
from typing import Iterable, Mapping

from .core import (
    MISSING,
    PORT,
    Frozen,
    Graph,
    GraphBuilder,
    GwalkError,
    Record,
    Signature,
    SignatureMismatchError,
    StructureError,
    ValidationReport,
    _set,
    validate_graph,
    validate_signature,
)
from .engine import (
    ACCEPT,
    EXIT,
    LOOP,
    REJECT,
    RunRecord,
    WalkingAutomaton,
    compute_run,
    walk,
)

__all__ = [
    "Homomorphism",
    "identity_homomorphism",
    "validate_homomorphism",
    "apply",
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


class Homomorphism(Frozen):
    """One pattern (a graph with ports over the target signature) per source
    label; directions of the source signature must all exist in the target
    signature with the same opposites.  Hashed without its patterns."""

    _fields = ("source", "target", "patterns")
    __slots__ = _fields + ("_frames",)

    def __init__(self, source: Signature, target: Signature, patterns: Mapping[str, Graph]) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "patterns", patterns)
        _set(self, "_frames", None)

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def pattern(self, label: str) -> Graph:
        try:
            return self.patterns[label]
        except KeyError:
            raise StructureError(f"no pattern for label {label!r}") from None

    def frames(self) -> tuple[list[Graph | None], int, list[int], list[int | None],
                              list[int | None], int, list[tuple | None]]:
        """The tables an :class:`ImageView` reads, computed on first use: the
        pattern of every source label id, as a walk space over the target
        signature (the pattern itself when it is over that signature; None
        where the label has no pattern, and in a last slot for labels
        outside the source signature), the largest pattern size,
        the source id of every target direction (-1 where the source has no
        such direction), the pattern sizes (None where no pattern), the
        index of each pattern's last node with an initial target label (None
        where there is none), the least pattern size over the source
        labels (0 where a label has no pattern or an empty one), and the
        landing table.  Entry ``label * D + d`` of the landing table, D being
        the number of target directions, is where a walk entering a copy of
        that label's pattern in direction d lands: the pattern's ``lab`` and
        ``nxt`` and its port node for -d, or None where the label has no
        pattern or the pattern no such port."""
        tables = self._frames
        if tables is None:
            frames = [self.patterns[a].space(self.target) if a in self.patterns else None
                      for a in self.source.label_names] + [None]
            sizes = [None if f is None else f.node_count for f in frames]
            width = max(filter(None, sizes), default=1)
            src_dir = [self.source.dir_index.get(d, -1) for d in self.target.dir_names]
            initial = [a.initial for a in self.target.labels] + [False]
            starts = [None if f is None else
                      max((w for w, x in enumerate(f.lab) if initial[x]), default=None)
                      for f in frames]
            least = min([size or 0 for size in sizes[:-1]], default=0)
            back = self.target.opp_index
            landing = [None if f is None or back[d] < 0 or f.port[back[d]] < 0 else
                       (f.lab, f.nxt, f.port[back[d]])
                       for f in frames for d in range(len(back))]
            tables = frames, width, src_dir, sizes, starts, least, landing
            _set(self, "_frames", tables)
        return tables


def identity_homomorphism(sig: Signature) -> Homomorphism:
    """Maps every label to a single node with the same label and all
    direction slots exposed as ports."""
    patterns = {
        a.name: Graph(sig, [("x", a.name)], None, {}, {d: "x" for d in sorted(a.dirs)})
        for a in sig.labels
    }
    return Homomorphism(sig, sig, patterns)


def validate_homomorphism(h: Homomorphism) -> ValidationReport:
    """Check both signatures (findings ``source_sig/...`` and
    ``target_sig/...``), the source directions in the target with the same
    opposites, and every source label's pattern: its body passes
    ``validate_graph`` (findings ``label/...``), its ports are the label's
    directions, and it holds one initial node iff the label is initial."""
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
        rep.problems += validate_graph(p, h.target, a.name).problems
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
    for side, sig in (("source_sig", h.source), ("target_sig", h.target)):
        for f in validate_signature(sig).problems:
            rep.add(f.kind, f.code, f"{side}/{f.subject}", f.detail)
    return rep


def _image_id(v: str, w: str) -> str:
    return f"{v}~{w}"


def apply(h: Homomorphism, g: Graph) -> Graph:
    """Replace every node of ``g`` by a fresh copy of its label's pattern,
    joining port d of each copy to port -d of the neighbour reached by d.

    The image is written copy by copy from the tables of :class:`ImageView`:
    copy c, the pattern of the c-th source node v, is included under the
    prefix ``_image_id(v, "")``, so image node (v, w) is named
    ``_image_id(v, w)``, and each of its port slots holds the node where
    ``ImageView.hop`` lands.  It is exact for a valid ``h`` and ``g``; on
    other input a copy without a pattern, or a port without its edge, raises
    :class:`StructureError` as a walk reaching it would.
    """
    view = ImageView(h, g)
    src, frames, width = view._src, view._frames, view._width
    dirs, b, starts = len(h.target.directions), GraphBuilder(h.target), []
    for c, v in enumerate(src.names):
        starts.append(len(b.names))
        b.include(frames[src.lab[c]] or view._no_pattern(c), _image_id(v, ""))
    if len(b.index) < len(b.names):
        nid = next(v for w, v in enumerate(b.names) if b.index[v] != w)
        raise StructureError(f"image node id collision at {nid!r}")
    for c, x in enumerate(src.lab):
        for d, w in enumerate(frames[x].port):
            if w >= 0:
                _, _, base, y = view.hop(c * width, w, d, PORT)
                b.nxt[(starts[c] + w) * dirs + d] = starts[base // width] + y
    return b.build(_image_id(*view.initial))


class ImageView:
    """Read-only view of ``apply(h, g)`` that builds no image node.

    An image node is the pair (source node, pattern node), the one
    :func:`apply` names ``_image_id(v, w)``.  A step either follows an edge
    of the pattern, or leaves through the port slot of its direction d and
    crosses ``g``'s edge into the neighbour's port for -d.

    The view is a walk space (see ``engine.walk``) over the tables of
    ``g.space(h.source)``, which is ``g`` itself over its own signature: the
    copy of the pattern of source node c is copy c, and image node (copy c,
    pattern node index w) has the code ``c * width + w``, ``width`` being
    the largest pattern size.  A crossing reads the tables in ``crossing``:
    the source graph's ``lab`` and ``nxt``, the source id of every target
    direction, the source direction count, the landing table of
    ``h.frames()`` and ``width``.  So a walk changes nothing in the view
    and costs its steps, not the size of ``g`` or of the image: its
    ``floor`` is the source node count times the least pattern size.
    Setting a view up reads integer tables only: the initial copy is
    ``g.initial``'s index in the source graph, and its pattern and initial
    node come from the tables, as the position ``at(initial)`` returns.  A
    view reads ``g``'s tables as they are, so a body whose label slots are
    written in place per case (``witnesses.sweep_tables``) gets a view per
    case and is restored before anything else reads it.
    """

    __slots__ = ("sig", "initial", "floor", "crossing", "_src", "_frames", "_width", "_sizes",
                 "_start")

    def __init__(self, h: Homomorphism, g: Graph) -> None:
        self.sig = h.target
        self._src = src = g.space(h.source)
        self._frames, self._width, src_dir, self._sizes, starts, least, land = h.frames()
        c = src.at(g.initial)[3]
        f = self._frames[src.lab[c]] or self._no_pattern(c)
        w = starts[src.lab[c]]
        if w is None:
            raise GwalkError("image has no initial node")
        self.initial = (g.initial, f.names[w])
        self._start = f.lab, f.nxt, c * self._width, w
        self.floor = src.node_count * least
        self.crossing = src.lab, src.nxt, src_dir, len(src.sig.directions), land, self._width

    def _no_pattern(self, c: int):
        """Raise for source node ``c``, whose label has no pattern."""
        labels, label = self._src.sig.label_names, self._src.lab[c]
        if label < len(labels):
            raise StructureError(f"no pattern for label {labels[label]!r}")
        raise StructureError(f"no pattern for the label of source node {self._src.names[c]!r}, "
                             "which is outside the source signature")

    @property
    def node_count(self) -> int:
        sizes, lab = self._sizes, self._src.lab
        try:
            return sum(map(sizes.__getitem__, lab))
        except TypeError:
            self._no_pattern(next(c for c, x in enumerate(lab) if sizes[x] is None))

    def at(self, node: tuple[str, str]) -> tuple:
        if node is self.initial:
            return self._start
        c = self._src.at(node[0])[3]
        f = self._frames[self._src.lab[c]] or self._no_pattern(c)
        try:
            return f.lab, f.nxt, c * self._width, f.index[node[1]]
        except KeyError:
            raise StructureError(f"unknown pattern node {node[1]!r}") from None

    def node(self, code: int) -> tuple[str, str]:
        c, w = divmod(code, self._width)
        return self._src.names[c], self._frames[self._src.lab[c]].names[w]

    def hop(self, base: int, w: int, d: int, mark: int):
        """Cross from the port slot of pattern node ``w`` in direction ``d``
        into the neighbour's copy, reading ``crossing`` as ``engine.walk``
        does; any other mark is a missing edge.  :func:`apply` and the
        fishbone reader cross here; ``engine.walk`` crosses by its own read
        and calls this only where that read lands nowhere, for the error."""
        lab, nxt, src_dir, src_dirs, landing, width = self.crossing
        e, u = src_dir[d], MISSING
        if mark == PORT and e >= 0:
            u = nxt[base // width * src_dirs + e]
        if u < 0:
            raise StructureError(
                f"no edge in direction {self.sig.dir_names[d]!r} at node {self.node(base + w)!r}")
        land = landing[lab[u] * len(self.sig.directions) + d]
        if land is None:
            if self._frames[lab[u]] is None:
                self._no_pattern(u)
            name = self.sig.opposite(self.sig.dir_names[d])
            raise StructureError(f"no port {name!r} at source node {self._src.names[u]!r}")
        return land[0], land[1], u * width, land[2]


class Start(Frozen):
    """Begin at the pattern's initial node in the automaton's initial state."""

    __slots__ = ()


class Enter(Frozen):
    """Arrive along the external edge of ``direction``, landing on the port
    node assigned to the opposite direction."""

    __slots__ = _fields = ("state", "direction")

    def __init__(self, state: str, direction: str) -> None:
        _set(self, "state", state)
        _set(self, "direction", direction)


ACCEPT_INSIDE = "accept_inside"
REJECT_INSIDE = "reject_inside"
LOOP_INSIDE = "loop_inside"


class PatternResult(Record):
    """Outcome of running an automaton inside a pattern body.

    For ``exit``, ``state`` and ``direction`` describe the crossing of the
    external edge and ``exit_from`` is the configuration the exit step was
    taken from.  ``walk`` is the run inside the body, neither shown nor
    compared.
    """

    _fields = ("kind", "state", "direction", "exit_from")
    __slots__ = _fields + ("walk",)

    def __init__(self, kind: str, state: str | None = None, direction: str | None = None,
                 exit_from: tuple[str, str] | None = None, walk: RunRecord | None = None) -> None:
        self.kind = kind
        self.state = state
        self.direction = direction
        self.exit_from = exit_from
        self.walk = walk


def _pair(w: RunRecord, code: int) -> tuple[str, str]:
    c = w.config(code)
    return c.state, c.node


_INSIDE = {ACCEPT: ACCEPT_INSIDE, REJECT: REJECT_INSIDE, LOOP: LOOP_INSIDE}


def simulate_in_pattern(a: WalkingAutomaton, p: Graph, entry: Start | Enter) -> PatternResult:
    """Execute ``a`` inside the body of ``p`` only.

    Stepping through a port slot yields ``exit``; accepting inside yields
    ``accept_inside``; an undefined transition yields ``reject_inside``; a
    repeated configuration yields ``loop_inside``.  Decided within
    ``|Q| * |p| + 1`` steps.  The entry is resolved and the body read over
    the automaton's signature.
    """
    sig, table = a.sig, a.table()
    if isinstance(entry, Enter):
        back = sig.opposite(entry.direction)
        if back not in p.ports:
            raise StructureError(
                f"cannot enter in direction {entry.direction!r}: {back!r} is not a port"
            )
        v, q = p.ports[back], table.state_id(entry.state)
    else:
        inits = p.initial_nodes(sig)
        if len(inits) != 1:
            raise StructureError("start entry needs exactly one initial node in the pattern")
        v, q = inits[0], table.initial
    body = p.space(sig)
    w = walk(table, body, q, body.at(v))
    if w.kind != EXIT:
        return PatternResult(_INSIDE[w.kind], walk=w)
    q2, d = w.exit_move
    return PatternResult(EXIT, table.states[q2], sig.dir_names[d], _pair(w, w.end), w)


def _composite_name(q: str, d: str) -> str:
    return f"{q}@{d}"


def invert_detailed(
    a: WalkingAutomaton, h: Homomorphism
) -> tuple[WalkingAutomaton, dict[str, tuple[str, str]]]:
    """Inverse-image automaton plus the decoding of its composite state names
    back to (simulated state, entry direction) pairs, simulating each state
    name of ``a``'s action table once, declared or only used."""
    if a.sig != h.target:
        raise SignatureMismatchError("automaton must operate over the target signature")
    src = h.source
    initials = src.initial_labels
    if not initials:
        raise StructureError("the source signature has no initial label")
    use_p0 = len(initials) > 1
    if not use_p0:
        res0 = simulate_in_pattern(a, h.pattern(initials[0]), Start())
        if res0.kind != EXIT:
            # The original automaton decides inside the image of the unique
            # initial label, so one state answering immediately suffices.
            accept0 = [("p0", initials[0])] if res0.kind == ACCEPT_INSIDE else []
            return WalkingAutomaton(src, ("p0",), "p0", accept0, {}), {}

    simulated = dict.fromkeys(a.table().states)
    states: list[str] = ["p0"] if use_p0 else []
    decode: dict[str, tuple[str, str]] = {}
    for q in simulated:
        for d in src.dir_names:
            name = _composite_name(q, d)
            states.append(name)
            decode[name] = (q, d)

    accept: list[tuple[str, str]] = []
    delta: dict[tuple[str, str], tuple[str, str]] = {}

    def record(state: str, label: str, res: PatternResult) -> None:
        """The cell (state, label) of the inverse for this pattern result."""
        if res.kind == ACCEPT_INSIDE:
            accept.append((state, label))
        elif res.kind == EXIT:
            assert res.state is not None and res.direction is not None
            delta[(state, label)] = (_composite_name(res.state, res.direction), res.direction)

    for q in simulated:
        for d in src.dir_names:
            back = src.opposite(d)
            for lab in src.labels:
                if back in lab.dirs:
                    record(_composite_name(q, d), lab.name,
                           simulate_in_pattern(a, h.pattern(lab.name), Enter(q, d)))

    if use_p0:
        for lab in initials:
            record("p0", lab, simulate_in_pattern(a, h.pattern(lab), Start()))
        initial_state = "p0"
    else:
        assert res0.exit_from is not None and res0.direction is not None
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


class InverseCheck(Record):
    """One graph's check: the outcomes of the inverse B and of the original A,
    and at most one sentence on the first step where B's run leaves A's."""

    __slots__ = _fields = ("index", "b_kind", "a_kind", "alignment_failures")

    def __init__(self, index: int, b_kind: str, a_kind: str, alignment_failures: list[str]) -> None:
        self.index = index
        self.b_kind = b_kind
        self.a_kind = a_kind
        self.alignment_failures = alignment_failures

    @property
    def acceptance_agree(self) -> bool:
        return (self.b_kind == ACCEPT) == (self.a_kind == ACCEPT)


class InverseReport(Record):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: list[InverseCheck]) -> None:
        self.checks = checks

    @property
    def disagreements(self) -> list[InverseCheck]:
        return [c for c in self.checks if not c.acceptance_agree or c.alignment_failures]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def verify_inverse(
    a: WalkingAutomaton, h: Homomorphism, suite: Iterable[Graph]
) -> InverseReport:
    """For each graph: acceptance of the inverse-image automaton B must match
    acceptance of the original A on the image, and B's run must follow A's.
    Disagreements are report entries, not errors.

    By construction, B's configuration after t >= 1 steps is A's t-th
    crossing between pattern copies: the source node A entered, in the
    composite state of A's state and entry direction.  A's recorded
    crossings are mapped to B's codes and compared with B's run in one list
    comparison; a mismatch is reported at its first step only.

    Loop tail: both walks stop at their first repeated configuration, but
    not at matching steps.  A's configuration lacks the entry direction
    that B's holds (two entries may land on one port node, or meet inside a
    copy), so A can repeat after its j-th crossing while B repeats at step
    j + 1.  Past its record A goes round its cycle forever, so the check
    continues A's crossings over its cycle; a correct B records at most one
    step more than A's crossings.  Where A's walk ends, or its cycle makes
    no crossing, a further step of B is a mismatch.
    """
    b, decode = invert_detailed(a, h)
    table_a, table_b = a.table(), b.table()
    size_a, size_b = len(table_a.states), len(table_b.states)
    dirs = len(h.target.directions)
    # The state of B standing for A's entry in direction id d in state q,
    # at d * size_a + q; -1 where B has none.  A name B declares twice
    # walks as its first id.
    composite = [-1] * (dirs * size_a)
    for s in reversed(range(len(table_b.states))):
        if table_b.states[s] in decode:
            q, d = decode[table_b.states[s]]
            composite[h.target.dir_index[d] * size_a + table_a.state_id(q)] = s
    checks: list[InverseCheck] = []
    for i, g in enumerate(suite):
        rec_b = compute_run(b, g)
        image = ImageView(h, g)
        rec_a = compute_run(a, image)
        # Crossings between pattern copies, as the walk recorded them: the
        # moves through a port slot.  A self-loop of the source graph makes a
        # copy enterable from itself, so a change of copy would miss some.
        # The copy index is the source node's index in g, B's node code.
        # A crossing B has no state for maps below every code of B.
        lost = -size_b * len(g.names)
        to_b = [lost if s < 0 else s for s in composite]
        hops, codes_a, per_copy = rec_a.hops, rec_a.codes, size_a * image._width
        crossed = [(code := codes_a[hop // dirs + 1]) // per_copy * size_b
                   + to_b[hop % dirs * size_a + code % size_a] for hop in hops]
        codes_b = rec_b.codes[1:]
        made, cycle = len(crossed), 0
        if len(codes_b) > made and rec_a.kind == LOOP:
            first = bisect_left(hops, rec_a.cycle_start * dirs)
            cycle = made - first
            if cycle:
                crossed += [crossed[first + (j - first) % cycle]
                            for j in range(made, len(codes_b))]
        failures: list[str] = []
        if crossed[:len(codes_b)] != codes_b:
            t = next((t for t, (x, y) in enumerate(zip(crossed, codes_b), 1) if x != y),
                     len(crossed) + 1)
            v, s = divmod(codes_b[t - 1], size_b)
            name = table_b.states[s]
            if name not in decode:
                failures.append(f"step {t}: non-composite state {name!r}")
            else:
                q, d = decode[name]
                claim = (f"step {t}: B stands for an entry of {g.names[v]!r} "
                         f"in direction {d!r} in state {q!r}")
                if t > len(crossed):
                    failures.append(f"{claim}, but A made only {made} crossings")
                else:
                    j = t - 1 if t <= made else first + (t - 1 - first) % cycle
                    moved, e = divmod(hops[j], dirs)
                    node, qa = divmod(codes_a[moved + 1], size_a)
                    failures.append(
                        f"{claim}, but A entered {g.names[node // image._width]!r} in direction "
                        f"{h.target.dir_names[e]!r} in state {table_a.states[qa]!r}")
        checks.append(InverseCheck(i, rec_b.kind, rec_a.kind, failures))
    return InverseReport(checks)
