"""Tests for graph enumeration and seeded random suites."""

from itertools import product
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


def brute_force_graphs(sig, max_nodes):
    """Independent oracle: try every edge function over every labelling and
    keep the valid ones, deduplicated by canonical code."""
    non_initial = [a.name for a in sig.labels if not a.initial]
    found = {}
    for m in range(1, max_nodes + 1):
        ids = [f"n{i}" for i in range(m)]
        for init_label in sig.initial_labels:
            for rest in product(non_initial, repeat=m - 1):
                labels = [init_label, *rest]
                slots = [
                    (v, d)
                    for v, lab in zip(ids, labels)
                    for d in sig.dirs_of(lab)
                ]
                for targets in product(ids, repeat=len(slots)):
                    edges = dict(zip(slots, targets))
                    g = Graph(sig, list(zip(ids, labels)), "n0", edges)
                    if validate_graph(g).ok:
                        found[canonical_encode(g)] = g
    return found


def test_enumeration_matches_brute_force_oracle():
    sig = ring_signature()
    expected = brute_force_graphs(sig, 3)
    got = {canonical_encode(g) for g in enumerate_graphs(sig, 3)}
    assert got == set(expected)


def test_enumeration_matches_brute_force_on_chain_family():
    sig = leafy_signature()
    expected = brute_force_graphs(sig, 3)
    got = {canonical_encode(g) for g in enumerate_graphs(sig, 3)}
    assert got == set(expected)


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
