"""Tests for graph enumeration and seeded random suites."""

import hashlib
from itertools import islice, permutations, product
from random import Random
import tracemalloc

import pytest

import oracle
from gwalk.core import Graph, canonical_encode, validate_graph
from gwalk.demo import leafy_signature, ring_signature
from gwalk.engine import WalkingAutomaton, automaton_space_size, enumerate_automata
from gwalk.suites import enumerate_graphs, random_automata, random_automaton, random_graphs
from gwalk.witnesses import base_signature, distinguishability_probe, start_block


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


@pytest.mark.parametrize("sig, max_nodes, count, digest", [
    (ring_signature(), 6, 6, "b49dc5964385983f0ebfa173faf4b16196555cc9addcec7be3d92cfcc1ab9613"),
    (leafy_signature(), 4, 70,
     "603060a61f505ccc0e522e464af91665c8d0836cd9cb9675d2a0809a88c99228"),
])
def test_graph_enumeration_order_is_pinned(sig, max_nodes, count, digest):
    """sha256 of the newline-joined canonical codes, in enumeration order."""
    codes = [canonical_encode(g) for g in enumerate_graphs(sig, max_nodes)]
    assert len(codes) == count
    assert hashlib.sha256(b"\n".join(codes)).hexdigest() == digest


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


def test_coded_automata_match_automata_built_from_their_pairs():
    """A streamed automaton keeps option indices and derives ``accept`` and
    ``delta`` from them; compiled before either is read, it gives the table
    of the automaton built from its derived pairs.  Every derived ``delta``
    is its own dict, and a draw takes the bits of one ``randrange`` per
    cell, so the caller's generator ends where the draws leave it."""
    sig = base_signature(4)
    rng, expected = Random(42), Random(42)
    streams = [list(enumerate_automata(sig, 1, None))]
    for n in (2, 3):
        streams.append(list(random_automata(sig, n, 300, seed=40 + n)))
        drawn = []
        for _ in range(100):
            drawn.append(random_automaton(sig, rng, n))
            assert drawn[-1]._options == tuple(expected.randrange(count)
                                               for _, _, count, _ in drawn[-1]._cells)
            assert rng.getstate() == expected.getstate()
        streams.append(drawn)
    for stream in streams:
        for a in stream:
            assert type(a) is WalkingAutomaton and not hasattr(a, "__dict__")
            table = a.table()
            plain = WalkingAutomaton(sig, a.states, a.initial, a.accept, a.delta)
            assert plain._options is None and not hasattr(plain, "__dict__")
            assert (a.states, a.initial, a.accept, a.delta) == \
                (plain.states, plain.initial, plain.accept, plain.delta)
            assert (table.nq, table.nd, table.states) == \
                (plain.table().nq, plain.table().nd, plain.table().states)
        deltas = [a.delta for a in stream]
        assert len({id(d) for d in deltas}) == len(deltas)
        first, second = stream[0], stream[1]
        before = dict(second.delta)
        first.delta[("q0", "cm")] = ("q0", "zz")
        assert second.delta == before


def test_automaton_streams_refuse_no_states():
    sig = leafy_signature()
    for make in (lambda: random_automaton(sig, Random(1), 0),
                 lambda: random_automata(sig, 0, 5, seed=1),
                 lambda: next(enumerate_automata(sig, 0, None)),
                 lambda: automaton_space_size(sig, -1)):
        with pytest.raises(ValueError, match="num_states must be at least 1"):
            make()


def test_random_automata_is_a_sized_repeatable_lazy_sample():
    """The sample has the count as its length (0 for a negative count) and
    draws afresh on every iteration: equal automata, distinct objects.  It
    draws nothing up front, so a huge count returns at once and its prefix
    is the smaller sample's.  (A missing state still raises at the call:
    see ``test_automaton_streams_refuse_no_states``.)"""
    sig = base_signature(4)
    sample = random_automata(sig, 2, 40, seed=7)
    assert len(sample) == 40 and len(random_automata(sig, 2, -3, seed=7)) == 0
    assert list(random_automata(sig, 2, -3, seed=7)) == []
    first, second = list(sample), list(sample)
    assert len(first) == 40
    assert [a._options for a in first] == [a._options for a in second]
    assert all(a is not b for a, b in zip(first, second))
    huge = random_automata(sig, 2, 10**12, seed=7)
    assert len(huge) == 10**12
    assert [a._options for a in islice(huge, 5)] == \
        [a._options for a in random_automata(sig, 2, 5, seed=7)]


def test_probe_over_a_sample_holds_no_automaton():
    """The probe over 20,000 sampled automata peaks at a fraction of what
    holding them costs (about 0.4 MB against 6 MB as a list)."""
    pair = (start_block(2, 4, "start"), start_block(2, 4, "fake"))
    sig = base_signature(4)
    tracemalloc.start()
    try:
        distinguishability_probe(pair, random_automata(sig, 2, 20_000, seed=33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
