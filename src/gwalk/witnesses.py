"""Generator families on which the inverse-image construction needs many states.

The families are built in tiers over a shared direction roster containing the
pairs a/-a and b/-b:

* start blocks (``H``): two horizontal chains joined by two bridges that are
  locally indistinguishable from the loops carried by every other chain node;
  an automaton starting inside can count its way out through the single
  external edge, while finding the start node from outside is meant to be
  expensive.  This is a desk-scale variant: the published construction
  additionally routes every horizontal edge through a one-way gadget of
  factorial size, which this package deliberately omits, so the hardness
  guarantee is probed empirically rather than certified.
* numbered chains (``F``): a chain of n cells with one start block attached
  at position i and look-alike fake blocks everywhere else; the escape
  automaton leaves the chain in state q_i.
* counting graphs (``G-counter``) and probe graphs (``G-probe``): close a
  numbered chain with a decrement tail ending in a final test node, or with
  a hub node joined to one numbered chain plus k-1 anonymous chains.  The
  counter automaton accepts the image of a counting graph exactly when the
  encoded number matches the tail length, and the image of a probe graph
  exactly when the hub's query label matches the chain's exit direction.

All constructions are deterministic functions of their parameters.  The
signatures, the start blocks and the ring homomorphism are cached on their
arguments, so every caller shares one immutable object per argument tuple;
nothing may mutate them.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .core import (
    Frozen,
    Graph,
    GraphBuilder,
    GwalkError,
    NodeLabel,
    Record,
    Signature,
    StructureError,
    _set,
)
from .engine import ACCEPT, WalkingAutomaton, compute_run
from .hom import (Enter, EXIT, Homomorphism, ImageView, PatternResult, identity_homomorphism,
                  simulate_in_pattern)

__all__ = [
    "standard_directions",
    "base_signature",
    "chain_signature",
    "witness_signature",
    "CyclicOrder",
    "cyclic_direction_order",
    "start_block",
    "escape_automaton",
    "numbered_chain",
    "ring_homomorphism",
    "counting_graph",
    "probe_graph",
    "counter_automaton",
    "ProbeFinding",
    "ProbeReport",
    "distinguishability_probe",
    "SweepReport",
    "sweep_tables",
]

_START = "st"
_LEFT = "cl"
_MID = "cm"
_RIGHT = "cr"


def standard_directions(k: int) -> tuple[list[tuple[str, str]], list[str]]:
    """Opposite pairs plus self-opposite names for a k-direction roster.

    Always contains the pairs (a, -a) and (b, -b); odd k forces one
    self-opposite direction, named z.
    """
    if k < 4:
        raise ValueError("need at least 4 directions (the pairs a/-a and b/-b)")
    pairs = [("a", "-a"), ("b", "-b")]
    for i in range(1, (k - 4) // 2 + 1):
        pairs.append((f"c{i}", f"-c{i}"))
    return pairs, (["z"] if k % 2 else [])


@cache
def base_signature(k: int) -> Signature:
    """Signature of the start blocks: chain-start, left-end, middle and
    right-end labels over k directions."""
    pairs, selfopp = standard_directions(k)
    labels = [
        (_START, True, {"a", "b", "-b"}),
        (_LEFT, False, {"a", "b", "-b"}),
        (_MID, False, {"a", "-a", "b", "-b"}),
        (_RIGHT, False, {"-a", "b", "-b"}),
    ]
    return Signature.from_pairs(pairs, labels, selfopp)


def _extended(sig: Signature, labels: Iterable[tuple[str, set[str]]]) -> Signature:
    """``sig`` with the non-initial ``labels`` declared after its own."""
    return Signature(sig.directions,
                     sig.labels + tuple(NodeLabel(n, False, frozenset(ds)) for n, ds in labels))


@cache
def chain_signature(k: int) -> Signature:
    """Extends :func:`base_signature` with the numbered-chain labels."""
    base = base_signature(k)
    labels = [("c_st", {"-a", "b"}), ("c'", {"-a", "-b", "b"}),
              ("go'_a", {"-a", "-b", "a"}), ("go'_b", {"-a", "-b", "b"})]
    labels += [("go_-a", {"-b", "-a"}) if d == "-a" else (f"go_{d}", {"-a", d})
               for d in base.dir_names]
    return _extended(base, labels)


class CyclicOrder(Frozen):
    """Cyclic arrangement of all directions in which no direction is followed
    within two positions by its opposite."""

    __slots__ = _fields = ("order",)

    def __init__(self, order: tuple[str, ...]) -> None:
        _set(self, "order", order)

    def next(self, d: str) -> str:
        i = self.order.index(d)
        return self.order[(i + 1) % len(self.order)]

    def next2(self, d: str) -> str:
        return self.next(self.next(d))


def _search_cyclic(names: tuple[str, ...], opp: dict[str, str]) -> tuple[str, ...] | None:
    k = len(names)
    order: list[str] = []
    used: set[str] = set()

    def fits(pos: int, d: str) -> bool:
        if pos >= 1 and opp[order[pos - 1]] == d:
            return False
        if pos >= 2 and opp[order[pos - 2]] == d:
            return False
        if pos == k - 1:
            if opp[d] in (order[0], order[1]):
                return False
            if opp[order[k - 2]] == order[0]:
                return False
        return True

    def backtrack(pos: int) -> bool:
        for d in names:
            if d in used or not fits(pos, d):
                continue
            order.append(d)
            used.add(d)
            if pos == k - 1 or backtrack(pos + 1):
                return True
            order.pop()
            used.remove(d)
        return False

    return tuple(order) if backtrack(0) else None


def cyclic_direction_order(sig: Signature) -> CyclicOrder:
    """First cyclic order, in lexicographic backtracking over declaration
    order, such that next(d) and next(next(d)) differ from -d for every d.
    Refused below 9 directions, where the constraint may be unsatisfiable."""
    names = sig.dir_names
    if len(names) < 9:
        raise GwalkError(
            f"cyclic order requires at least 9 directions, got {len(names)}; "
            "with fewer directions the spacing constraint can be unsatisfiable"
        )
    found = _search_cyclic(names, {d: sig.opposite(d) for d in names})
    if found is None:
        raise GwalkError("no cyclic order satisfies the spacing constraint")
    return CyclicOrder(found)


@cache
def witness_signature(k: int) -> Signature:
    """Full signature of the counting and probe families: extends
    :func:`chain_signature` with two-direction forwarders, a decrement label,
    a final-test label, one query label per direction, and per-direction
    accept/reject labels whose direction sets follow the cyclic order of
    the chain signature's directions."""
    chain = chain_signature(k)
    cyc = cyclic_direction_order(chain)
    dirs, opp = chain.dir_names, chain.opposite
    labels = [(f"go_{e}_a", {e, "a"}) for e in dirs if e != "a"]
    labels += [("go_a_b", {"a", "b"}), ("c-", {"-a", "a"}), ("q0?", {"-a"})]
    labels += [(f"{d}?", set(dirs)) for d in dirs]
    for d in dirs:
        triple = {opp(d), opp(cyc.next(d)), cyc.next2(d)}
        labels += [(f"acc_{d}", triple), (f"rej_{d}", triple)]
    return _extended(chain, labels)


@cache
def start_block(n: int, k: int, variant: str = "start") -> Graph:
    """Two chains of length 2n in the a direction, bridged by b/-b edges at
    columns n-1 and 2n-1 and carrying b/-b self-loops everywhere else; the
    single external edge, the block's one port, leaves in direction a from
    the upper right end.  ``variant="fake"`` relabels the start node so that
    nothing inside is initial; the two variants differ in exactly that one
    label.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if variant not in ("start", "fake"):
        raise ValueError(f"unknown variant {variant!r}")
    frag = GraphBuilder(base_signature(k))
    width = 2 * n
    lo = [f"lo{c}" for c in range(width)]
    up = [f"up{c}" for c in range(width)]
    frag.node(lo[0], _START if variant == "start" else _LEFT)
    for c in range(1, width - 1):
        frag.node(lo[c], _MID)
    frag.node(lo[width - 1], _RIGHT)
    frag.node(up[0], _LEFT)
    for c in range(1, width):
        frag.node(up[c], _MID)
    for c in range(width - 1):
        frag.edge(lo[c], "a", lo[c + 1])
        frag.edge(up[c], "a", up[c + 1])
    bridges = {n - 1, width - 1}
    for c in range(width):
        # Both b and -b cross at a bridge, so it answers b-moves like a loop.
        pairs = [(lo[c], up[c])] if c in bridges else [(lo[c], lo[c]), (up[c], up[c])]
        for v, u in pairs:
            frag.edge(v, "b", u)
            frag.edge(v, "-b", u)
    return frag.build(ports={"a": up[width - 1]})


def escape_automaton(n: int, k: int = 4) -> WalkingAutomaton:
    """n-state automaton that leaves a start block from its start node and,
    on a numbered chain, walks right decrementing at every counting cell, so
    that it exits the chain with index i in state q_i.

    Inside the block it counts n-1 moves along the lower chain, crosses the
    left bridge, and cruises right along the upper chain in its final state.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    sig = chain_signature(k)
    q = [f"q{i}" for i in range(n)]
    delta: dict[tuple[str, str], tuple[str, str]] = {}
    delta[(q[0], _START)] = (q[0], "a")
    for j in range(n - 2):
        delta[(q[j], _MID)] = (q[j + 1], "a")
    delta[(q[n - 2], _MID)] = (q[n - 1], "b")
    delta[(q[n - 1], _MID)] = (q[n - 1], "a")
    for j in range(1, n):
        delta[(q[j], "c_st")] = (q[j - 1], "b")
        delta[(q[j], "c'")] = (q[j - 1], "b")
    for j in range(n):
        delta[(q[j], "go'_a")] = (q[j], "a")
        delta[(q[j], "go'_b")] = (q[j], "b")
        for d in sig.dir_names:
            delta[(q[j], f"go_{d}")] = (q[j], d)
    return WalkingAutomaton(sig, q, q[0], [], delta)


def numbered_chain(n: int, k: int, d: str, i: int | None = None) -> Graph:
    """Chain of n cells, each with a block attached against the a direction,
    ending in a forwarder cell whose external edge, the chain's one port,
    leaves in direction ``d``.

    With ``i`` given the block at position i is a start block and the rest
    are fakes (the fragment encodes the number i); without ``i`` every block
    is fake and no number is encoded.  The two differ only in the label of
    ``H{i}.lo0``, so the numbered chain is the anonymous one numbered in
    place by :func:`_number`, as every witness body is.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    sig = chain_signature(k)
    if not sig.has_direction(d):
        raise StructureError(f"unknown direction {d!r}")
    if i is not None and not 0 <= i < n:
        raise ValueError(f"i must lie in [0, {n}), got {i}")
    frag = GraphBuilder(sig)
    u = [f"u{j}" for j in range(n)]
    frag.node(u[0], "c_st")
    for j in range(1, n - 1):
        frag.node(u[j], "c'")
    frag.node(u[n - 1], "go'_b" if d == "-a" else "go'_a")
    ugo = frag.node("ugo", f"go_{d}")
    for j in range(n - 1):
        frag.edge(u[j], "b", u[j + 1])
    frag.edge(u[n - 1], "b" if d == "-a" else "a", ugo)
    fake = start_block(n, k, "fake")
    for j in range(n):
        frag.include(fake, f"H{j}.")
        frag.edge(f"H{j}." + fake.ports["a"], "a", u[j])
    chain = frag.build(ports={d: ugo})
    if i is not None:
        _number(chain, (_mark(chain, f"H{i}.lo0", _START),))
    return chain


def _mark(body: Graph | GraphBuilder, v: str, label: str) -> tuple:
    """The label slot write that gives node ``v`` of ``body`` the label
    ``label``: ``(v, index, label, label id, old label, old id)``.  A copy of
    ``body`` has the same indices and labels, so the mark holds for it too."""
    w = body.index[v]
    return v, w, label, body.sig.label_index[label], body.labels[w], body.lab[w]


def _number(body: Graph, marks: tuple) -> None:
    """Write each of ``marks`` into ``body``'s label slots, in place: a
    fake block's ``lo0`` becomes a start node and, in a probe body, the hub
    ``v`` takes its query.  A body without ports becomes a graph starting at
    the first mark's node; a pattern has no initial node."""
    for _, w, label, x, _, _ in marks:
        body.set_label(w, label, x)
    if not body.ports:
        body.initial = marks[0][0]


@cache
def ring_homomorphism(k: int) -> Homomorphism:
    """Maps every query label d? to a ring with one node per direction,
    carrying acc_d at the node for d and rej_e elsewhere; every other label
    maps to a single node with the same label.

    Ring node v_e is joined to v_next(e) by an edge in direction
    next(next(e)) and exposes its external edge in direction -e, so the ring
    has one port in every direction.
    """
    sig = witness_signature(k)
    cyc = cyclic_direction_order(sig)
    patterns = dict(identity_homomorphism(sig).patterns)
    for d in sig.dir_names:
        ring = GraphBuilder(sig)
        ports: dict[str, str] = {}
        for e in sig.dir_names:
            ports[sig.opposite(e)] = ring.node(f"v_{e}", f"acc_{d}" if e == d else f"rej_{e}")
        for e in sig.dir_names:
            ring.edge(f"v_{e}", cyc.next2(e), f"v_{cyc.next(e)}")
        patterns[f"{d}?"] = ring.build(ports=ports)
    return Homomorphism(sig, sig, patterns)


def _counting_prefix(k: int, chain: Graph) -> GraphBuilder:
    """The start of every counting body of ``chain``'s direction, unbuilt:
    the anonymous ``chain`` under the prefix ``F.`` and two forwarder cells."""
    sig = witness_signature(k)
    ((d, end),) = chain.ports.items()
    frag = GraphBuilder(sig)
    frag.include(chain, "F.")
    first, second, turn = (("go_a_b", "go_-b_a", "b") if d == "-a" else
                           (f"go_{sig.opposite(d)}_a", "go_-a_a", "a"))
    frag.edge("F." + end, d, frag.node("wgo1", first))
    frag.edge("wgo1", turn, frag.node("wgo2", second))
    return frag


def _counting_body(prefix: GraphBuilder, j: int) -> Graph:
    """The counting graph of j with no number encoded: the tables of
    ``prefix`` copied, then j decrement cells and a final-test node."""
    frag = prefix.copy()
    cells = ["wgo2", *(frag.node(f"w{t}", "c-") for t in range(1, j + 1)), frag.node("wend", "q0?")]
    frag.add_edges(cells[:-1], ["a"] * (j + 1), cells[1:])
    return frag.build()


def counting_graph(n: int, k: int, i: int, j: int, d: str) -> Graph:
    """Numbered chain encoding i, continued through two forwarder cells and
    j decrement cells into a final-test node."""
    if not 0 <= i < n or not 0 <= j < n:
        raise ValueError(f"i and j must lie in [0, {n})")
    body = _counting_body(_counting_prefix(k, numbered_chain(n, k, d)), j)
    _number(body, (_mark(body, f"F.H{i}.lo0", _START),))
    return body


def _probe_body(k: int, chains: dict[str, Graph]) -> Graph:
    """The probe graphs with no number encoded: a hub, whose label every
    probe graph replaces, joined to the anonymous chain ``chains[e]`` of
    every direction e, copied under the prefix ``F{e}.``.  Every query label
    has the same direction set, so all probe graphs of ``(n, k)`` differ
    only in the hub's label and in which ``lo0`` is the start node."""
    sig = witness_signature(k)
    frag = GraphBuilder(sig)
    hub = frag.node("v", f"{sig.dir_names[0]}?")
    for e in sig.dir_names:
        frag.include(chains[e], f"F{e}.")
        frag.edge(f"F{e}." + chains[e].ports[e], e, hub)
    return frag.build()


def probe_graph(n: int, k: int, i: int, d: str, dprime: str) -> Graph:
    """The probe graph of ``(i, d)`` whose hub queries ``dprime``: one
    numbered chain for direction d plus anonymous chains for every other
    direction, all joined to one hub node labelled with the query for d'."""
    if not 0 <= i < n:
        raise ValueError(f"i must lie in [0, {n})")
    sig = witness_signature(k)
    for x in (d, dprime):
        if not sig.has_direction(x):
            raise StructureError(f"unknown direction {x!r}")
    body = _probe_body(k, {e: numbered_chain(n, k, e) for e in sig.dir_names})
    _number(body, (_mark(body, f"F{d}.H{i}.lo0", _START), _mark(body, "v", f"{dprime}?")))
    return body


def counter_automaton(n: int, k: int) -> WalkingAutomaton:
    """Extends the escape automaton over the full witness signature: at a
    forwarder it moves on in the same state, at a decrement cell it lowers
    its state index (rejecting in q_0), at the final test it accepts exactly
    in q_0, and it accepts at every acc label and rejects at every rej
    label."""
    if n < 4:
        raise ValueError("n must be at least 4")
    if k < 9:
        raise ValueError("k must be at least 9")
    sig = witness_signature(k)
    esc = escape_automaton(n, k)
    q = list(esc.states)
    delta = dict(esc.delta)
    for j in range(n):
        for e in sig.dir_names:
            if e != "a":
                delta[(q[j], f"go_{e}_a")] = (q[j], "a")
        delta[(q[j], "go_a_b")] = (q[j], "b")
    for j in range(1, n):
        delta[(q[j], "c-")] = (q[j - 1], "a")
    accept: list[tuple[str, str]] = [(q[0], "q0?")]
    for j in range(n):
        for e in sig.dir_names:
            accept.append((q[j], f"acc_{e}"))
    return WalkingAutomaton(sig, q, q[0], accept, delta)


class ProbeFinding(Frozen):
    __slots__ = _fields = ("automaton_index", "entry_state", "left", "right")

    def __init__(self, automaton_index: int, entry_state: str, left: str, right: str) -> None:
        _set(self, "automaton_index", automaton_index)
        _set(self, "entry_state", entry_state)
        _set(self, "left", left)
        _set(self, "right", right)


class ProbeReport(Record):
    """Observation report: automata whose behaviour differs between the two
    fragments when entered through the external edge.

    ``entries_checked`` counts the (automaton, entry state) pairs decided,
    and ``entry_walks`` those of them decided by running the two walks; the
    others were read off the cell tree of :func:`distinguishability_probe`.

    Findings are observations, not failures: the desk-scale blocks carry no
    indistinguishability guarantee.
    """

    __slots__ = _fields = ("port_dir", "automata_checked", "entries_checked", "findings",
                           "entry_walks")

    def __init__(self, port_dir: str, automata_checked: int, entries_checked: int,
                 findings: list[ProbeFinding] | None = None, entry_walks: int = 0) -> None:
        self.port_dir = port_dir
        self.automata_checked = automata_checked
        self.entries_checked = entries_checked
        self.findings = [] if findings is None else findings
        self.entry_walks = entry_walks

    @property
    def distinguisher_count(self) -> int:
        return len(self.findings)


def _describe(res: PatternResult) -> str:
    if res.kind == EXIT:
        return f"exit:{res.state}"
    return res.kind


_ACCEPTS = "accept"  # a cell's value when it accepts; otherwise a move or None


class _CellRead:
    """Inner node of a probe cell tree: the walks read ``cell`` next, and
    ``after`` maps each value of that cell to the subtree that follows, or
    to the leaf pair of descriptions."""

    __slots__ = ("cell", "after")

    def __init__(self, cell: tuple[str, str], after: dict) -> None:
        self.cell = cell
        self.after = after


def _walk_entry(
    aut: WalkingAutomaton,
    fragments: tuple[Graph, Graph],
    entry: Enter,
    parent: dict,
    key,
    depth: int,
) -> tuple[str, str]:
    """Decide one entry by running both walks, and hang the cells they read
    beyond the first ``depth``, with their values in ``aut``, at
    ``parent[key]``."""
    results = [simulate_in_pattern(aut, f, entry) for f in fragments]
    labels = aut.sig.label_names
    cells: dict[tuple[str, str], None] = {}
    for res in results:
        w = res.walk
        states, lab = w.table.states, w.space.lab
        for code in w.seen:
            node, q = divmod(code, len(states))
            if lab[node] < len(labels):
                cells[(states[q], labels[lab[node]])] = None
    leaf = (_describe(results[0]), _describe(results[1]))
    tree = leaf
    for cell in reversed(list(cells)[depth:]):
        value = _ACCEPTS if cell in aut.accept else aut.delta.get(cell)
        tree = _CellRead(cell, {value: tree})
    parent[key] = tree
    return leaf


def distinguishability_probe(
    fragments: tuple[Graph, Graph],
    automata: Iterable[WalkingAutomaton],
) -> ProbeReport:
    """For every automaton and every entry state, run both fragments from the
    external edge and report any behavioural difference (different result
    kinds, or exits in different states).  Each fragment is a pattern with
    one port, and the two ports share their direction.

    The two walks from an entry state are a function of the values of the
    cells they read: a cell is a (state, label) pair, and its value is
    accept (which takes precedence over a move), undefined, or a move.  So
    the cell first read next is fixed by the values read so far, and each
    entry state name gets a tree: an inner node names that cell, the left
    walk's cells first, and branches on its value; a leaf holds the pair of
    descriptions.  An entry whose values lead to a leaf is decided there,
    with no table compiled and no walk run; the values of an automaton
    that ``engine`` or ``suites`` streamed are read from its option indices,
    so such an entry derives no ``accept`` or ``delta`` either.  Any other
    entry runs both walks through :func:`simulate_in_pattern`, with all of
    its checks, and adds its path; a walk that raises adds nothing.  The
    cells of labels outside the signature read as undefined in every
    automaton, so paths leave them out.  The trees hold for one signature:
    they start afresh when an automaton's signature differs from the last
    (identity, then equality), and they live for this call only.
    """
    left, right = (tuple(f.ports or ()) for f in fragments)
    if len(left) != 1 or left != right:
        raise GwalkError("the two fragments must have one port each, in the same direction")
    (port_dir,) = left
    report = ProbeReport(port_dir, 0, 0)
    sig = None
    for idx, aut in enumerate(automata):
        if aut.sig is not sig and aut.sig != sig:
            sig = aut.sig
            enter_dir = sig.opposite(port_dir)
            trees: dict = {}
            reads: dict = {}  # by cell count, as the signature fixes the cells
        report.automata_checked += 1
        options = aut._options
        if options is None:
            accept, delta = aut.accept, aut.delta
        else:
            values = reads.get(len(options))
            if values is None:
                values = reads[len(options)] = {
                    cell: (i, (_ACCEPTS, None, *moves))
                    for i, (cell, moves, _, _) in enumerate(aut._cells)}
        for q in aut.states:
            report.entries_checked += 1
            parent, key, depth = trees, q, 0
            node = trees.get(q)
            while type(node) is _CellRead:
                cell = node.cell
                if options is None:
                    key = _ACCEPTS if cell in accept else delta.get(cell)
                else:
                    i, read = values[cell]
                    key = read[options[i]]
                parent = node.after
                node = parent.get(key)
                depth += 1
            if node is None:
                report.entry_walks += 1
                node = _walk_entry(aut, fragments, Enter(q, enter_dir), parent, key, depth)
            dl, dr = node
            if dl != dr:
                report.findings.append(ProbeFinding(idx, q, dl, dr))
    return report


class SweepReport(Record):
    """Acceptance tables of the counter automaton over the images of the
    counting and probe families; mismatches against the expected patterns
    (accept exactly when i = j, respectively d = d') must be empty."""

    __slots__ = _fields = ("n", "k", "counting", "probes", "mismatches")

    def __init__(self, n: int, k: int, counting: dict[tuple[int, int, str], bool],
                 probes: dict[tuple[int, str, str], bool], mismatches: list[str]) -> None:
        self.n = n
        self.k = k
        self.counting = counting
        self.probes = probes
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def sweep_tables(n: int, k: int) -> SweepReport:
    """Run the counter automaton on the image of every counting and probe
    graph, walking each image through :class:`ImageView` without building it.

    The sweep builds each direction's anonymous chain once, then per direction
    one counting prefix and its n bodies copied from it, then one probe body.
    It resolves each mark once, by :func:`_mark` on a counting prefix or the
    probe body.  Each case numbers its body by :func:`_number`, as the
    builders do, walks the case's view, and restores the written slots and
    the initial node in a ``finally``, so a case costs its walk, not the
    size of its graph."""
    aut = counter_automaton(n, k)  # checks n and k before anything is built
    dirs, h = witness_signature(k).dir_names, ring_homomorphism(k)

    def accepts(body: Graph, marks: tuple) -> bool:
        initial = body.initial
        _number(body, marks)
        try:
            return compute_run(aut, ImageView(h, body)).kind == ACCEPT
        finally:
            body.initial = initial
            for _, w, _, _, old, was in marks:
                body.set_label(w, old, was)

    chains = {d: numbered_chain(n, k, d) for d in dirs}
    counting: dict[tuple[int, int, str], bool] = {}
    for d in dirs:
        prefix = _counting_prefix(k, chains[d])
        bodies = [_counting_body(prefix, j) for j in range(n)]
        for i in range(n):
            start = (_mark(prefix, f"F.H{i}.lo0", _START),)
            for j in range(n):
                counting[(i, j, d)] = accepts(bodies[j], start)
    del prefix, bodies  # freed before the probe body is built, to keep the peak low
    body = _probe_body(k, chains)
    starts = {(i, d): _mark(body, f"F{d}.H{i}.lo0", _START) for i in range(n) for d in dirs}
    queries = {dp: _mark(body, "v", f"{dp}?") for dp in dirs}
    probes = {
        (i, d, dp): accepts(body, (starts[i, d], queries[dp]))
        for i in range(n) for d in dirs for dp in dirs
    }
    mismatches = [
        f"counting i={i} j={j} d={d}: accepted={acc}"
        for (i, j, d), acc in counting.items()
        if acc != (i == j)
    ] + [
        f"probe i={i} d={d} d'={dp}: accepted={acc}"
        for (i, d, dp), acc in probes.items()
        if acc != (d == dp)
    ]
    return SweepReport(n, k, counting, probes, mismatches)
