"""Graph suites for exhaustive and randomized checks.

Enumeration lists every valid connected graph over a signature up to a node
budget, once per isomorphism class; it works by assigning labels and then
matching open direction slots, always pairing the first open slot (by node,
then direction) so each pairing is produced exactly once.  Random generation
grows a graph from the initial node, closing slots against each other or
against fresh nodes, driven entirely by a seeded generator.
"""

from __future__ import annotations

from itertools import product
from random import Random
from typing import Iterator

from .core import (
    Graph,
    GwalkError,
    Signature,
    canonical_encode,
    validate_graph,
)
from .engine import WalkingAutomaton, _coded, _option_table

__all__ = [
    "enumerate_graphs",
    "random_graph",
    "random_graphs",
    "random_automaton",
    "random_automata",
]


def _matchings(
    sig: Signature, labels: list[str]
) -> Iterator[dict[tuple[int, str], tuple[int, str]]]:
    """All ways to pair the direction slots of the labelled nodes so that a
    slot (v, d) meets a slot (u, -d).  A slot may pair with itself when its
    direction is self-opposite (a one-slot self-loop)."""
    def extend(free: list[tuple[int, str]]) -> Iterator[dict]:
        if not free:
            yield {}
            return
        slot, opp = free[0], sig.opposite(free[0][1])
        for mate in [s for s in free if s[1] == opp]:
            for rest in extend([s for s in free[1:] if s != mate]):
                yield {slot: mate, mate: slot, **rest}

    yield from extend([(i, d) for i, lab in enumerate(labels) for d in sig.dirs_of(lab)])


def enumerate_graphs(sig: Signature, max_nodes: int) -> list[Graph]:
    """Every valid graph over ``sig`` with at most ``max_nodes`` nodes,
    exactly once up to isomorphism, in a deterministic order."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    non_initial = [a.name for a in sig.labels if not a.initial]
    out: list[Graph] = []
    seen: set[bytes] = set()
    for m in range(1, max_nodes + 1):
        for init_label in sig.initial_labels:
            for rest in product(non_initial, repeat=m - 1):
                labels = [init_label, *rest]
                for match in _matchings(sig, labels):
                    edges = {
                        (f"n{v}", d): f"n{u}" for (v, d), (u, _) in match.items()
                    }
                    g = Graph(
                        sig,
                        [(f"n{i}", lab) for i, lab in enumerate(labels)],
                        "n0",
                        edges,
                    )
                    if not validate_graph(g).ok:
                        continue
                    code = canonical_encode(g)
                    if code not in seen:
                        seen.add(code)
                        out.append(g)
    return out


def _grow(sig: Signature, rng: Random, target_nodes: int, max_steps: int) -> Graph | None:
    non_initial = [a for a in sig.labels if not a.initial]
    init_label = rng.choice(sorted(sig.initial_labels))
    labels: dict[str, str] = {"n0": init_label}
    edges: dict[tuple[str, str], str] = {}
    open_slots: list[tuple[str, str]] = [("n0", d) for d in sig.dirs_of(init_label)]
    counter = 1

    def close(v: str, d: str, u: str, e: str) -> None:
        edges[(v, d)] = u
        edges[(u, e)] = v
        for s in ((v, d), (u, e)):
            if s in open_slots:
                open_slots.remove(s)

    for _ in range(max_steps):
        if not open_slots:
            return Graph(sig, sorted(labels.items()), "n0", edges)
        growing = len(labels) < target_nodes
        # random slot while growing, oldest first while closing up
        v, d = open_slots[rng.randrange(len(open_slots))] if growing else open_slots[0]
        opp = sig.opposite(d)
        partners = [(u, e) for (u, e) in open_slots if e == opp and (u, e) != (v, d)]
        can_self = d == opp  # a self-opposite slot may close onto itself
        candidates = [a for a in non_initial if opp in a.dirs]
        if growing and candidates and rng.random() < 0.5:
            lab = candidates[rng.randrange(len(candidates))]
        elif partners:
            u, e = partners[rng.randrange(len(partners))]
            close(v, d, u, e)
            continue
        elif can_self:
            close(v, d, v, d)
            continue
        elif candidates:
            # no partner available: attach the label opening the fewest slots
            fewest = min(len(a.dirs) for a in candidates)
            lab = [a for a in candidates if len(a.dirs) == fewest][0]
        else:
            return None  # no label can close this slot; retry
        u = f"n{counter}"
        counter += 1
        labels[u] = lab.name
        open_slots.extend((u, e) for e in sig.dirs_of(lab.name))
        close(v, d, u, opp)
    return None  # slot closure drifted; retry


def random_graph(sig: Signature, rng: Random, target_nodes: int) -> Graph:
    """One valid connected graph grown from a single initial node.

    While the node budget lasts, an open slot is closed either against a
    compatible open slot or against a fresh node; past the budget only
    closures are taken, preferring labels that add no open slots when a
    fresh node is unavoidable.  Unlucky growth is retried with derived
    seeds, so the result is a deterministic function of ``rng``'s state.
    """
    for _ in range(100):
        g = _grow(sig, Random(rng.getrandbits(64)), target_nodes, 60 + 30 * target_nodes)
        if g is None:
            continue
        report = validate_graph(g)
        if not report.ok:
            raise GwalkError(f"random graph invalid: {report.summary()}")
        return g
    raise GwalkError("random graph generation did not converge; signature unsuitable")


def random_graphs(
    sig: Signature, count: int, seed: int, max_nodes: int = 12
) -> list[Graph]:
    """Deterministic suite of ``count`` random graphs for the given seed."""
    rng = Random(seed)
    return [random_graph(sig, rng, rng.randint(1, max_nodes)) for _ in range(count)]


def random_automaton(sig: Signature, rng: Random, num_states: int) -> WalkingAutomaton:
    """Uniform choice in every (state, label) cell among accept, undefined,
    and all (state, direction) moves; complements the lexicographic stream,
    whose prefixes vary only the last cells.  Takes the bits of one
    ``rng.randrange`` per cell, so ``rng`` ends where the draw leaves it."""
    return next(_draws(sig, rng, *_option_table(sig, num_states), 1))


def _draws(sig: Signature, rng: Random, states: tuple[str, ...], cells: list,
           count: int) -> Iterator[WalkingAutomaton]:
    """``count`` automata, each cell's option index drawn as ``rng.randrange``
    draws it: ``getrandbits`` of the count's bit length until below the
    count, both read from the cells of ``engine._option_table``."""
    getrandbits = rng.getrandbits
    bits = [(n, k) for _, _, n, k in cells]
    for _ in range(count):
        options: list[int] = []
        for n, k in bits:
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            options.append(i)
        yield _coded(sig, states, cells, tuple(options))


class _Sample:
    """The automata of :func:`random_automata`, drawn afresh from
    ``Random(seed)`` on each iteration and never held."""

    __slots__ = ("sig", "states", "cells", "count", "seed")

    def __init__(self, sig: Signature, states: tuple[str, ...], cells: list,
                 count: int, seed: int) -> None:
        self.sig, self.states, self.cells, self.count, self.seed = sig, states, cells, count, seed

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[WalkingAutomaton]:
        return _draws(self.sig, Random(self.seed), self.states, self.cells, self.count)


def random_automata(sig: Signature, num_states: int, count: int, seed: int) -> _Sample:
    """Deterministic sample of ``count`` random automata for the given seed:
    the same automata as ``count`` calls of :func:`random_automaton` on
    ``Random(seed)``.  The sample is sized and lazy: each iteration draws
    the automata one at a time from a fresh generator, so every iteration
    gives equal automata (distinct objects) and none is held between draws.
    It is an iterable, not a sequence; take ``list()`` of it to index."""
    return _Sample(sig, *_option_table(sig, num_states), max(count, 0), seed)
