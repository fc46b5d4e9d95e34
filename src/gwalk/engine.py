"""Deterministic execution of graph-walking automata.

A walking automaton moves over a graph, reading the label of the node it
stands on.  It accepts through a set of (state, label) pairs, gets stuck
(rejects) where its transition function is undefined, and loops when a
configuration repeats.  Loop detection uses an exact set of visited
configurations, never a step cap; the pigeonhole bound ``|Q| * |V| + 1``
steps is asserted on every run.

Every run goes through one loop, :func:`walk`, over integer tables: an
:class:`ActionTable` per automaton, compiled on first use and kept on it,
and the tables a ``core.Graph`` is stored as.  Runs and traces are pure
functions of the (automaton, graph) pair, so suites may be evaluated in
parallel over independent pairs.
"""

from __future__ import annotations

from itertools import islice, product
from math import prod
from typing import Iterable, Iterator, Mapping

from .core import (
    MISSING,
    PORT,
    Frozen,
    Graph,
    Record,
    Signature,
    SignatureMismatchError,
    StructureError,
    ValidationReport,
    _set,
)

__all__ = [
    "ACCEPT",
    "REJECT",
    "LOOP",
    "Configuration",
    "Outcome",
    "ActionTable",
    "WalkingAutomaton",
    "validate_automaton",
    "RunRecord",
    "compute_run",
    "run",
    "trace",
    "enumerate_automata",
    "automaton_space_size",
    "AgreementEntry",
    "AgreementReport",
    "agree_on",
]

ACCEPT = "accept"
REJECT = "reject"
LOOP = "loop"
EXIT = "exit"  # a walk inside a pattern body took an external edge


class Configuration(Frozen):
    __slots__ = _fields = ("state", "node")

    def __init__(self, state: str, node: str) -> None:
        _set(self, "state", state)
        _set(self, "node", node)


class Outcome(Frozen):
    """Result of a run.

    ``config`` is the accepting configuration, the stuck configuration, or
    the first configuration seen twice.  ``steps`` is the number of moves
    made before the decision; for loops it is the least step index at which
    a repeat occurs, and ``cycle_length`` is the period.
    """

    __slots__ = _fields = ("kind", "config", "steps", "cycle_length")

    def __init__(self, kind: str, config: Configuration, steps: int,
                 cycle_length: int | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "config", config)
        _set(self, "steps", steps)
        _set(self, "cycle_length", cycle_length)

    @property
    def accepted(self) -> bool:
        return self.kind == ACCEPT


class WalkingAutomaton:
    """Finite-state control walking a graph: states, initial state, accepting
    (state, label) pairs, and a partial transition map to (state, direction).
    The (state, label) and (state, direction) pairs are kept as given, so
    they must be tuples.  ``accept`` and ``delta`` are read-only attributes.

    An automaton that :func:`enumerate_automata` or ``suites`` makes keeps
    its stream's cells of :func:`_option_table` in ``_cells`` and its own
    option index per cell in ``_options``: 0 is accept, 1 undefined and
    ``i >= 2`` the move ``moves[i - 2]``.  Its ``accept`` and ``delta`` are
    derived from them on first read, each automaton getting its own
    frozenset and dict.  An automaton built here has ``_options`` None."""

    __slots__ = ("sig", "states", "initial", "_accept", "_delta", "_table", "_cells", "_options")

    def __init__(
        self,
        sig: Signature,
        states: Iterable[str],
        initial: str,
        accept: Iterable[tuple[str, str]],
        delta: Mapping[tuple[str, str], tuple[str, str]],
    ) -> None:
        self.sig = sig
        self.states: tuple[str, ...] = tuple(states)
        self.initial = initial
        self._accept: frozenset[tuple[str, str]] | None = frozenset(accept)
        self._delta: dict[tuple[str, str], tuple[str, str]] = dict(delta)
        self._table: ActionTable | None = None
        self._options: tuple[int, ...] | None = None

    @property
    def accept(self) -> frozenset[tuple[str, str]]:
        if self._accept is None:
            _derive(self)
        return self._accept

    @property
    def delta(self) -> dict[tuple[str, str], tuple[str, str]]:
        if self._accept is None:
            _derive(self)
        return self._delta

    def table(self) -> "ActionTable":
        """The automaton as an :class:`ActionTable`, compiled on first use;
        the automaton must not change afterwards."""
        if self._table is None:
            self._table = ActionTable(self)
        return self._table

    @property
    def state_count(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"WalkingAutomaton({len(self.states)} states, initial={self.initial!r})"


_new = object.__new__


def _coded(sig: Signature, states: tuple[str, ...], cells: list,
           options: tuple[int, ...]) -> WalkingAutomaton:
    """The automaton with option index ``options[i]`` in ``cells[i]``, the
    cells of ``_option_table(sig, len(states))``; initial state ``states[0]``."""
    a = _new(WalkingAutomaton)
    a.sig, a.states, a.initial = sig, states, states[0]
    a._table, a._accept, a._cells, a._options = None, None, cells, options
    return a


def _derive(a: WalkingAutomaton) -> None:
    """Set a coded automaton's ``accept`` and ``delta`` from its options."""
    accept: list[tuple[str, str]] = []
    delta: dict[tuple[str, str], tuple[str, str]] = {}
    for (cell, moves, _, _), i in zip(a._cells, a._options):
        if i >= 2:
            delta[cell] = moves[i - 2]
        elif i == 0:
            accept.append(cell)
    a._accept, a._delta = frozenset(accept), delta


def validate_automaton(a: WalkingAutomaton) -> ValidationReport:
    """Check an automaton: known states and labels, transition directions
    within the direction set of the label read, and no transition out of an
    accepting pair."""
    rep = ValidationReport()
    states = set()
    for q in a.states:
        if q in states:
            rep.add("structural", "duplicate-state", q, "state declared twice")
        states.add(q)
    if a.initial not in states:
        rep.add("structural", "unknown-initial-state", a.initial, "initial state not declared")
    for q, lab in sorted(a.accept):
        if q not in states:
            rep.add("structural", "unknown-state", q, "accepting pair uses undeclared state")
        if not a.sig.has_label(lab):
            rep.add("structural", "unknown-label", lab, "accepting pair uses undeclared label")
    for (q, lab), (q2, d) in sorted(a.delta.items()):
        subject = f"({q},{lab})"
        if q not in states or q2 not in states:
            rep.add("structural", "unknown-state", subject, "transition uses undeclared state")
            continue
        if not a.sig.has_label(lab):
            rep.add("structural", "unknown-label", subject, f"label {lab!r} not declared")
            continue
        if not a.sig.has_direction(d):
            rep.add("structural", "unknown-direction", subject, f"direction {d!r} not declared")
            continue
        if d not in a.sig.label(lab).dirs:
            rep.add("invariant", "direction-outside-label", subject,
                    f"direction {d!r} is not available at label {lab!r}")
        if (q, lab) in a.accept:
            rep.add("invariant", "transition-on-accepting-pair", subject,
                    "transition defined on an accepting pair")
    return rep


ACCEPT_CELL = -1
UNDEFINED_CELL = -2
UNKNOWN_DIR_CELL = -3


class ActionTable:
    """An automaton in the integer form that walks read.

    State ids are positions in ``states``: the declared states, then any
    name used only by the initial state, the accepting pairs or the
    transitions; a name declared twice has the id of its first position.
    Label and direction ids are those of the signature.  Cell
    ``q * width + label`` holds the move's next state in ``nq`` and its
    direction in ``nd``, or a negative code in ``nq``: accept (which takes
    precedence), undefined, or a move in a direction outside the signature
    (named in ``bad``).  The last column is for labels outside the
    signature, which read as undefined.
    """

    __slots__ = ("states", "initial", "width", "nq", "nd", "bad")

    def __init__(self, a: "WalkingAutomaton") -> None:
        self.states = a.states
        index = {q: i for i, q in enumerate(a.states)}
        if len(index) < len(a.states):
            index = {q: i for i, q in reversed(list(enumerate(a.states)))}
        self.width = len(a.sig.labels) + 1
        try:
            self._fill(a, index)
        except KeyError:
            used = {a.initial, *[q for q, _ in a.accept], *[q for q, _ in a.delta],
                    *[q for q, _ in a.delta.values()]}
            extra = sorted(used.difference(index))
            index.update((q, len(a.states) + i) for i, q in enumerate(extra))
            self.states = (*a.states, *extra)
            self._fill(a, index)

    def _fill(self, a: "WalkingAutomaton", index: dict[str, int]) -> None:
        """Fill the cells; a KeyError names a state missing from ``index``."""
        width = self.width
        self.initial = index[a.initial]
        self.nq = nq = [UNDEFINED_CELL] * (len(self.states) * width)
        self.nd = nd = [0] * len(nq)
        bad: dict[int, str] = {}
        labels, dirs = a.sig.label_index, a.sig.dir_index
        for (q, lab), (q2, d) in a.delta.items():
            label = labels.get(lab)
            if label is None:
                continue
            cell, j = index[q] * width + label, dirs.get(d)
            if j is None:
                nq[cell], bad[cell] = UNKNOWN_DIR_CELL, d
            else:
                nq[cell], nd[cell] = index[q2], j
        for q, lab in a.accept:
            if lab in labels:
                nq[index[q] * width + labels[lab]] = ACCEPT_CELL
        self.bad = bad or None

    def state_id(self, q: str) -> int:
        """Id of state ``q``; raises :class:`StructureError` if unknown."""
        try:
            return self.states.index(q)
        except ValueError:
            raise StructureError(f"unknown state {q!r}") from None


class RunRecord:
    """A run up to its decision point, as :func:`walk` records it.

    The configuration after t moves is coded ``node * S + state``, with S the
    number of state ids and ``node`` the space's node code; ``seen`` maps the
    codes of the distinct configurations to their time, in order, and ``end``
    is the code of the last configuration, reached after ``steps`` moves.
    ``kind`` is ACCEPT, REJECT, LOOP (``end`` repeats ``seen[end]``), EXIT
    (a pattern's external edge was taken from ``end``; ``exit_move`` is the
    move's (state id, direction id)) or None (cut at the limit).  ``hops``
    holds ``t * D + d`` for every move from t to t + 1 in direction d that
    left a body through a port slot into another position: in an image
    view, the crossings between pattern copies.

    ``configs[t]``, decoded on each read, is the configuration after ``t``
    moves.  For loops, the last entry is the first repeated configuration
    and ``cycle_start`` is the index of its earlier occurrence;
    configurations with index at least ``cycle_start`` recur forever.
    """

    __slots__ = ("table", "space", "seen", "end", "steps", "kind", "hops", "exit_move")

    def __init__(self, table, space, seen, end, steps, kind, hops, exit_move) -> None:
        self.table = table
        self.space = space
        self.seen = seen
        self.end = end
        self.steps = steps
        self.kind = kind
        self.hops = hops
        self.exit_move = exit_move

    @property
    def codes(self) -> list[int]:
        codes = list(self.seen)
        if self.kind == LOOP:
            codes.append(self.end)
        return codes

    @property
    def cycle_start(self) -> int | None:
        return self.seen[self.end] if self.kind == LOOP else None

    def config(self, code: int) -> Configuration:
        node, q = divmod(code, len(self.table.states))
        return Configuration(self.table.states[q], self.space.node(node))

    @property
    def configs(self) -> list[Configuration]:
        return [self.config(code) for code in self.codes]

    @property
    def outcome(self) -> Outcome:
        start = self.cycle_start
        return Outcome(self.kind, self.config(self.end), self.steps,
                       None if start is None else self.steps - start)


_DECIDED = {ACCEPT_CELL: ACCEPT, UNDEFINED_CELL: REJECT}


def walk(table: ActionTable, space, q: int, at: tuple, limit: int = 0) -> RunRecord:
    """The walk loop: run ``table`` through ``space`` from state id ``q`` at
    position ``at`` until it accepts, gets stuck, repeats a configuration,
    leaves through a port, or has recorded ``limit`` configurations (0 for
    no limit).

    A space is a ``core.Graph`` or a ``hom.ImageView``.  It offers ``sig``,
    ``node_count``, ``floor``, ``at(node)`` (the position of a node),
    ``node(code)``, ``hop`` and ``crossing``.  A position is (label ids,
    moves, node base, node index) within the tables of one graph, and a
    node's code is the base plus its index.  ``crossing`` is None, or for
    a view the tables for crossing between pattern copies, which a move
    onto a port slot reads in the loop.  A negative move that no such read
    lands is handed to ``space.hop(base, index, direction, mark)``, and the
    walk takes no position from it: ``hop`` returns at a graph's port,
    where the walk stops with EXIT, and raises :class:`StructureError`
    otherwise.  A walk changes nothing in its space, so a code names the
    same node in every walk through it; a graph's label slots written in
    place between walks change only while no walk or record of it is in use.

    Loop detection is exact; the pigeonhole bound of ``|Q| * |V| + 1`` moves
    is asserted on every run, Q being every state of the table, used ones
    included.  ``floor`` is a lower bound on ``node_count`` read in O(1):
    a graph's node count, or 0 where none is known.  A walk of at most
    ``|Q| * floor + 1`` moves is within the bound; a longer one, and every
    walk where the floor is 0, reads the exact ``node_count``.
    """
    nq, nd, width = table.nq, table.nd, table.width
    size, dirs = len(table.states), len(space.sig.directions)
    lab, nxt, base, w = at
    crossing = space.crossing
    if crossing is not None:
        src_lab, src_nxt, src_dir, src_dirs, landing, copy = crossing
    seen: dict[int, int] = {}
    hops: list[int] = []
    exit_move = None
    last = limit - 1
    t = 0
    key = (base + w) * size + q
    while True:
        if seen.setdefault(key, t) != t:
            kind = LOOP
            break
        if t == last:
            kind = None
            break
        cell = q * width + lab[w]
        q = nq[cell]
        if q < 0:
            kind = _DECIDED.get(q)
            if kind is None:
                raise StructureError(f"no edge in direction {table.bad[cell]!r} "
                                     f"at node {space.node(base + w)!r}")
            break
        d = nd[cell]
        x = nxt[w * dirs + d]
        if x < 0:
            land = None
            if x == PORT and crossing is not None:
                e = src_dir[d]
                u = src_nxt[base // copy * src_dirs + e] if e >= 0 else MISSING
                if u >= 0:
                    land = landing[src_lab[u] * dirs + d]
            if land is None:
                space.hop(base, w, d, x)  # returns at a port, raises otherwise
                kind, exit_move = EXIT, (q, d)
                break
            lab, nxt, x = land
            base = u * copy
            hops.append(t * dirs + d)
        w = x
        t += 1
        key = (base + w) * size + q
    floor = space.floor
    if (t > size * floor + 1 or not floor) and t > size * space.node_count + 1:
        raise AssertionError("termination bound exceeded")  # unreachable by pigeonhole
    return RunRecord(table, space, seen, key, t, kind, hops, exit_move)


def compute_run(a: WalkingAutomaton, g: Graph, limit: int = 0) -> RunRecord:
    """The run of ``a`` on ``g`` up to its decision point, or up to ``limit``
    configurations (0 for no limit).  ``g`` is a :class:`Graph` or a
    ``hom.ImageView``."""
    if a.sig is not g.sig and a.sig != g.sig:
        raise SignatureMismatchError("automaton and graph are over different signatures")
    table = a.table()
    return walk(table, g, table.initial, g.at(g.initial), limit)


def run(a: WalkingAutomaton, g: Graph) -> Outcome:
    """Run the automaton from (initial state, initial node) until it accepts,
    gets stuck, or repeats a configuration."""
    return compute_run(a, g).outcome


def trace(a: WalkingAutomaton, g: Graph, max_len: int | None = None) -> list[Configuration]:
    """Prefix of the unique computation, truncated at ``max_len``
    configurations or at the decision point, whichever comes first.  The
    walk stops once it has ``max_len`` configurations; a negative
    ``max_len`` is refused with ``ValueError``."""
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    configs = compute_run(a, g, 0 if max_len is None else max(max_len, 1)).configs
    return configs if max_len is None else configs[:max_len]


def _option_table(
    sig: Signature, num_states: int
) -> tuple[tuple[str, ...], list[tuple[tuple[str, str], tuple[tuple[str, str], ...], int, int]]]:
    """The states ``q0, q1, ...`` and, per (state, label) cell, the cell's
    moves, its option count ``len(moves) + 2`` and the count's bit length.
    The moves are every (next state, direction), states in declaration order
    and directions in signature order.  Cells are ordered by (state index,
    label declaration index).  Option index 0 of a cell is accept, 1 is
    undefined and ``i >= 2`` is the move ``moves[i - 2]``."""
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    states = tuple(f"q{i}" for i in range(num_states))
    moves = {lab.name: tuple((q2, d) for q2 in states for d in sig.dirs_of(lab.name))
             for lab in sig.labels}
    counts = {name: len(m) + 2 for name, m in moves.items()}
    return states, [((q, lab.name), moves[lab.name], counts[lab.name],
                     counts[lab.name].bit_length()) for q in states for lab in sig.labels]


def automaton_space_size(sig: Signature, num_states: int) -> int:
    """Number of automata :func:`enumerate_automata` would yield unbudgeted."""
    return prod(count for _, _, count, _ in _option_table(sig, num_states)[1])


def enumerate_automata(
    sig: Signature, num_states: int, budget: int | None
) -> Iterator[WalkingAutomaton]:
    """Deterministic stream of pairwise distinct automata with exactly
    ``num_states`` states over ``sig``, at most ``budget`` of them
    (``None`` for no cap).

    Automata are emitted in lexicographic order of their option indices
    (see ``_option_table``): the index of the last cell varies fastest.
    """
    states, cells = _option_table(sig, num_states)
    for options in islice(product(*[range(count) for _, _, count, _ in cells]), budget):
        yield _coded(sig, states, cells, options)


class AgreementEntry(Frozen):
    __slots__ = _fields = ("index", "kind1", "kind2")

    def __init__(self, index: int, kind1: str, kind2: str) -> None:
        _set(self, "index", index)
        _set(self, "kind1", kind1)
        _set(self, "kind2", kind2)

    @property
    def acceptance_agree(self) -> bool:
        return (self.kind1 == ACCEPT) == (self.kind2 == ACCEPT)

    @property
    def outcome_agree(self) -> bool:
        return self.kind1 == self.kind2


class AgreementReport(Record):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: list[AgreementEntry]) -> None:
        self.entries = entries

    @property
    def acceptance_agreement(self) -> bool:
        return all(e.acceptance_agree for e in self.entries)

    @property
    def full_agreement(self) -> bool:
        return all(e.outcome_agree for e in self.entries)


def agree_on(a1: WalkingAutomaton, a2: WalkingAutomaton, suite: Iterable[Graph]) -> AgreementReport:
    """Per-graph comparison of the two automata's outcomes.  Acceptance
    agreement (accept vs not-accept) is the headline; full outcome-variant
    agreement is reported separately."""
    entries = []
    for i, g in enumerate(suite):
        entries.append(AgreementEntry(i, run(a1, g).kind, run(a2, g).kind))
    return AgreementReport(entries)
