"""Tests for graph enumeration and seeded random suites."""

from itertools import permutations, product
from random import Random

import pytest

import oracle
from gwalk.core import Graph, canonical_encode, validate_graph
from gwalk.demo import leafy_signature, ring_signature
from gwalk.engine import automaton_space_size, enumerate_automata
from gwalk.suites import enumerate_graphs, random_automata, random_automaton, random_graphs
from gwalk.witnesses import base_signature


def test_ring_family_enumerates_one_ring_per_length():
    """Over the ring signature the valid graphs are exactly one ring per
    length: slot counts force a single a-cycle through the initial node."""
    graphs = enumerate_graphs(ring_signature(), 6)
    assert sorted(g.node_count for g in graphs) == [1, 2, 3, 4, 5, 6]
    codes = {canonical_encode(g) for g in graphs}
    assert len(codes) == 6


def brute_force_candidates(sig, max_nodes):
    """Every candidate graph, checked by this oracle's own code: ``m <=
    max_nodes`` nodes numbered from 0, the initial label on node 0 alone,
    and every edge function that fills exactly the slots of the labels.
    Yields ``(labels, edges, valid)``: valid when every edge has its
    symmetric half and every node is reachable from node 0."""
    opposite = {d.name: d.opposite for d in sig.directions}
    dirs = {a.name: sorted(a.dirs) for a in sig.labels}
    non_initial = [a.name for a in sig.labels if not a.initial]
    for m in range(1, max_nodes + 1):
        for first in (a.name for a in sig.labels if a.initial):
            for rest in product(non_initial, repeat=m - 1):
                labels = (first, *rest)
                slots = [(v, d) for v, a in enumerate(labels) for d in dirs[a]]
                position = {slot: s for s, slot in enumerate(slots)}
                # The slot of the symmetric half of slot s when it leads to u.
                back = [(v, [position.get((u, opposite[d])) for u in range(m)])
                        for v, d in slots]
                for targets in product(range(m), repeat=len(slots)):
                    edges = dict(zip(slots, targets))
                    valid = all((b := row[u]) is not None and targets[b] == v
                                for (v, row), u in zip(back, targets))
                    yield labels, edges, valid and reaches_all(m, edges)


def reaches_all(m, edges):
    reached, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for (w, _), u in edges.items():
            if w == v and u not in reached:
                reached.add(u)
                frontier.append(u)
    return len(reached) == m


def oracle_form(labels, edges):
    """The least relabelling of a graph whose node 0 is initial, over the
    node permutations that fix node 0: equal exactly for isomorphic graphs."""
    forms = []
    for rest in permutations(range(1, len(labels))):
        new = (0, *rest)
        forms.append((tuple(labels[v] for v in sorted(range(len(labels)), key=new.__getitem__)),
                      tuple(sorted((new[v], d, new[u]) for (v, d), u in edges.items()))))
    return min(forms)


def form_of(g):
    """``oracle_form`` of a built graph, its initial node numbered 0."""
    number = {v: i for i, v in enumerate([g.initial] + [v for v in g.names if v != g.initial])}
    labels = [a for _, a in sorted(g.nodes, key=lambda node: number[node[0]])]
    return oracle_form(labels, {(number[v], d): number[u] for (v, d), u in g.edges.items()})


def as_graph(sig, labels, edges):
    return Graph(sig, [(f"n{v}", a) for v, a in enumerate(labels)], "n0",
                 {(f"n{v}", d): f"n{u}" for (v, d), u in edges.items()})


def survivors(sig, max_nodes):
    """The valid candidates, each built as a graph, by oracle form."""
    return {oracle_form(labels, edges): as_graph(sig, labels, edges)
            for labels, edges, valid in brute_force_candidates(sig, max_nodes) if valid}


def matches_brute_force(sig, distinct):
    """``enumerate_graphs`` gives each graph the oracle finds valid exactly
    once up to isomorphism, compared in the oracle's own canonical form."""
    expected = survivors(sig, 3)
    assert len(expected) == distinct
    assert all(validate_graph(g).ok for g in expected.values())
    got = [form_of(g) for g in enumerate_graphs(sig, 3)]
    assert len(got) == len(set(got)) and set(got) == set(expected)


def test_enumeration_matches_brute_force_oracle():
    matches_brute_force(ring_signature(), 3)


def test_enumeration_matches_brute_force_on_chain_family():
    matches_brute_force(leafy_signature(), 12)


def test_validator_agrees_with_the_oracle_on_every_ring_candidate():
    sig, verdicts = ring_signature(), []
    for labels, edges, valid in brute_force_candidates(sig, 3):
        verdicts.append((validate_graph(as_graph(sig, labels, edges)).ok, valid))
    assert len(verdicts) == 746 and sum(valid for _, valid in verdicts) == 4
    assert all(ok == valid for ok, valid in verdicts)


def test_enumeration_is_deterministic():
    first = [canonical_encode(g) for g in enumerate_graphs(ring_signature(), 5)]
    second = [canonical_encode(g) for g in enumerate_graphs(ring_signature(), 5)]
    assert first == second


def test_random_suite_valid_and_deterministic():
    sig = leafy_signature()
    suite = random_graphs(sig, 60, seed=77)
    assert all(validate_graph(g).ok for g in suite)
    again = random_graphs(sig, 60, seed=77)
    assert [canonical_encode(g) for g in suite] == [canonical_encode(g) for g in again]
    other = random_graphs(sig, 60, seed=78)
    assert [canonical_encode(g) for g in suite] != [canonical_encode(g) for g in other]


def test_random_suite_contains_chain_ends():
    sig = leafy_signature()
    suite = random_graphs(sig, 60, seed=77)
    assert any(lab == "t" for g in suite for _, lab in g.nodes)


def parts(automata):
    return [(a.states, a.accept, a.delta) for a in automata]


STREAM_SIGNATURES = {"base4": base_signature(4), "leafy": leafy_signature(),
                     "ring": ring_signature()}


@pytest.mark.parametrize("num_states", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(STREAM_SIGNATURES))
def test_automaton_stream_matches_oracle(name, num_states):
    """The integer option indices give the automata of the name-tagged
    option tables: the enumeration in ``itertools.product`` order, and the
    draws of one ``randrange`` per cell, ending in the same generator state."""
    sig = STREAM_SIGNATURES[name]
    size = automaton_space_size(sig, num_states)
    assert size == oracle.space_size(sig, num_states)
    budget = min(size, 3_000)
    assert parts(enumerate_automata(sig, num_states, budget)) == \
        oracle.enumerate_automata(sig, num_states, budget)
    for seed in (1, 7, 20406):
        assert parts(random_automata(sig, num_states, 300, seed)) == \
            oracle.random_automata(sig, num_states, 300, seed)
        rng, expected = Random(seed), Random(seed)
        for _ in range(50):
            assert parts([random_automaton(sig, rng, num_states)]) == \
                [oracle.random_automaton(sig, expected, num_states)]
        assert rng.getstate() == expected.getstate()


def test_automaton_streams_refuse_no_states():
    sig = leafy_signature()
    for make in (lambda: random_automaton(sig, Random(1), 0),
                 lambda: random_automata(sig, 0, 5, seed=1),
                 lambda: next(enumerate_automata(sig, 0, None)),
                 lambda: automaton_space_size(sig, -1)):
        with pytest.raises(ValueError, match="num_states must be at least 1"):
            make()
