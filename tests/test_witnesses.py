"""Tests for the worst-case families: blocks, chains, counting and probe
graphs, the escape and counter automata, and the distinguishability probe."""

import weakref
from itertools import chain

import pytest

from gwalk import formats, witnesses
from gwalk.core import (
    Graph,
    GwalkError,
    StructureError,
    canonical_encode,
    validate_graph,
    validate_signature,
)
from gwalk.engine import enumerate_automata, run, validate_automaton
from gwalk.hom import Start, apply, simulate_in_pattern, validate_homomorphism
from gwalk.suites import random_automata
from gwalk.witnesses import (
    base_signature,
    chain_signature,
    counter_automaton,
    counting_graph,
    cyclic_direction_order,
    distinguishability_probe,
    escape_automaton,
    numbered_chain,
    probe_graph,
    probe_graphs,
    ring_homomorphism,
    start_block,
    sweep_tables,
    witness_signature,
)


def test_cyclic_order_satisfies_spacing_constraint():
    for k in (9, 10):
        sig = witness_signature(k)
        cyc = cyclic_direction_order(sig)
        assert sorted(cyc.order) == sorted(sig.dir_names)
        for d in sig.dir_names:
            assert sig.opposite(d) not in (cyc.next(d), cyc.next2(d))


def test_cyclic_order_deterministic():
    sig = witness_signature(9)
    assert cyclic_direction_order(sig).order == cyclic_direction_order(sig).order


def test_cyclic_order_refused_below_nine():
    with pytest.raises(GwalkError):
        cyclic_direction_order(base_signature(8))


def test_tier_signatures_valid():
    for k in (4, 9, 10):
        assert validate_signature(base_signature(k)).ok
        assert validate_signature(chain_signature(k)).ok
    for k in (9, 10):
        assert validate_signature(witness_signature(k)).ok


def test_start_and_fake_blocks_differ_in_one_label():
    for n, k in ((2, 4), (3, 9)):
        blk = start_block(n, k, "start")
        fake = start_block(n, k, "fake")
        assert blk.pattern.node_count == fake.pattern.node_count == 4 * n
        diffs = [
            (v, a, b)
            for (v, a), (_, b) in zip(blk.pattern.nodes, fake.pattern.nodes)
            if a != b
        ]
        assert diffs == [("lo0", "st", "cl")]
        assert blk.has_initial and not fake.has_initial
        assert blk.pattern.edges == fake.pattern.edges


def test_escape_automaton_leaves_start_block():
    for n, k in ((2, 4), (4, 9), (8, 9)):
        blk = start_block(n, k, "start")
        esc = escape_automaton(n, k)
        assert esc.state_count == n
        res = simulate_in_pattern(esc, blk.pattern, Start())
        assert res.kind == "exit"
        assert res.direction == "a"
        assert res.state == f"q{n-1}"


def test_numbered_chain_exit_state_encodes_position():
    n, k = 4, 9
    esc = escape_automaton(n, k)
    sig = chain_signature(k)
    for d in sig.dir_names:
        for i in range(n):
            frag = numbered_chain(n, k, d, i)
            res = simulate_in_pattern(esc, frag.pattern, Start())
            assert res.kind == "exit"
            assert res.direction == d
            assert res.state == f"q{i}"


def test_numbered_chain_trace_ends_at_forwarder():
    frag = numbered_chain(3, 9, "b", 1)
    esc = escape_automaton(3, 9)
    res = simulate_in_pattern(esc, frag.pattern, Start())
    assert res.visited[-1][1] == "ugo"


def test_numbered_chain_spine_and_fake_twin():
    n, k = 3, 9
    frag = numbered_chain(n, k, "a", 1)
    anon = numbered_chain(n, k, "a", None)
    spine = [v for v, _ in frag.pattern.nodes if not v.startswith("H")]
    assert len(spine) == n + 1
    diffs = {
        v for (v, a), (_, b) in zip(frag.pattern.nodes, anon.pattern.nodes) if a != b
    }
    assert diffs == {"H1.lo0"}
    assert not anon.has_initial


def test_ring_homomorphism_valid_and_ring_shaped():
    for k in (9, 10):
        h = ring_homomorphism(k)
        assert validate_homomorphism(h).ok
        sig = h.source
        cyc = cyclic_direction_order(sig)
        for d in sig.dir_names:
            ring = h.pattern(f"{d}?")
            assert ring.node_count == k
            assert len(ring.ports) == k
            labels = {lab for _, lab in ring.nodes}
            assert f"acc_{d}" in labels
            assert sum(1 for _, lab in ring.nodes if lab.startswith("rej_")) == k - 1
            for e in sig.dir_names:
                triple = {sig.opposite(e), sig.opposite(cyc.next(e)), cyc.next2(e)}
                assert len(triple) == 3


def test_counting_graph_shape():
    g = counting_graph(4, 9, 1, 3, "b")
    assert validate_graph(g).ok
    tail = [v for v, _ in g.nodes if v.startswith("w")]
    assert len(tail) == 3 + 3  # two forwarders, j decrement cells, final test


def test_probe_graph_has_one_query_node():
    g = probe_graph(4, 9, 2, "a", "-b")
    assert validate_graph(g).ok
    queries = [lab for _, lab in g.nodes if lab.endswith("?") and lab != "q0?"]
    assert queries == ["-b?"]


def test_probe_graphs_share_one_body_and_dump_like_probe_graph():
    """Each (i, d) row relabels one body's hub; every graph of a row dumps
    byte for byte like the probe graph built on its own.  A graph document
    is a function of the signature, node list, initial node and edges, so
    equal fields give equal bytes; the bytes are compared on one row."""
    n, k = 4, 9
    dirs = witness_signature(k).dir_names
    for i in range(n):
        for d in dirs:
            graphs = list(probe_graphs(n, k, i, d, dirs))
            assert len({id(g.edges) for g in graphs}) == 1
            for dp, g in zip(dirs, graphs):
                assert g.nodes[0] == ("v", f"{dp}?")
                alone = probe_graph(n, k, i, d, dp)
                assert (g.sig, g.nodes, g.initial, g.edges, g.ports) == (
                    alone.sig, alone.nodes, alone.initial, alone.edges, alone.ports)
                if (i, d) == (n - 1, "z"):
                    assert formats.dumps(formats.graph_doc(g)) == formats.dumps(
                        formats.graph_doc(alone))


def test_probe_graph_argument_checks():
    with pytest.raises(ValueError):
        probe_graph(4, 9, 4, "a", "b")
    for d, dp in (("y", "b"), ("a", "y")):
        with pytest.raises(StructureError, match="unknown direction 'y'"):
            probe_graph(4, 9, 1, d, dp)
    # Checked on the call, before any graph is asked for.
    with pytest.raises(StructureError):
        probe_graphs(4, 9, 1, "a", ["b", "y"])


def test_sweep_builds_one_probe_body_per_row_and_keeps_none(monkeypatch):
    """144 counting graphs plus 36 probe bodies of 9 chains each, and no
    probe graph of an earlier row is alive when the next body is built."""
    ring_homomorphism(9)  # cached before Graph is swapped below
    chains = []
    live = weakref.WeakSet()
    real_chain, real_graphs = witnesses.numbered_chain, witnesses.probe_graphs

    def counted_chain(*args):
        chains.append(args)
        return real_chain(*args)

    class TrackedGraph(Graph):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    def checked_graphs(*args):
        assert not live, "a probe graph of an earlier row is still alive"
        return real_graphs(*args)

    monkeypatch.setattr(witnesses, "numbered_chain", counted_chain)
    monkeypatch.setattr(witnesses, "Graph", TrackedGraph)
    monkeypatch.setattr(witnesses, "probe_graphs", checked_graphs)
    assert sweep_tables(4, 9).ok
    assert len(chains) == 144 + 36 * 9 == 468


def test_counter_enters_ring_at_matching_port():
    """Simulated directly on the ring pattern: entering along the accepted
    direction lands on the accepting label, any other direction on a
    rejecting one."""
    from gwalk.hom import Enter, simulate_in_pattern

    n, k = 4, 9
    h = ring_homomorphism(k)
    aut = counter_automaton(n, k)
    sig = h.source
    ring = h.pattern("b?")
    for q in aut.states:
        res = simulate_in_pattern(aut, ring, Enter(q, "b"))
        assert res.kind == "accept_inside"
        for e in sig.dir_names:
            if e == "b":
                continue
            res = simulate_in_pattern(aut, ring, Enter(q, e))
            assert res.kind == "reject_inside", (q, e)
            assert len(res.visited) == 1  # it never moves along the circle


def test_counter_automaton_tables_subset():
    n, k = 4, 9
    aut = counter_automaton(n, k)
    assert aut.state_count == n
    assert validate_automaton(aut).ok
    h = ring_homomorphism(k)
    assert run(aut, apply(h, counting_graph(n, k, 3, 3, "a"))).accepted
    assert not run(aut, apply(h, counting_graph(n, k, 3, 2, "a"))).accepted
    assert not run(aut, apply(h, counting_graph(n, k, 2, 3, "a"))).accepted
    assert run(aut, apply(h, probe_graph(n, k, 1, "b", "b"))).accepted
    assert not run(aut, apply(h, probe_graph(n, k, 1, "b", "z"))).accepted


def test_counter_automaton_bounds():
    with pytest.raises(ValueError):
        counter_automaton(3, 9)
    with pytest.raises(ValueError):
        counter_automaton(4, 8)


def test_sweep_tables_match_expected_patterns():
    rep = sweep_tables(4, 9)
    assert rep.ok
    assert len(rep.counting) == 4 * 4 * 9
    assert len(rep.probes) == 4 * 9 * 9
    assert all(acc == (i == j) for (i, j, _), acc in rep.counting.items())
    assert all(acc == (d == dp) for (_, d, dp), acc in rep.probes.items())


def test_query_node_image_is_labelled_ring():
    """Applying the homomorphism turns the query node into a k-node ring
    with one accepting label and k-1 rejecting ones."""
    k = 9
    h = ring_homomorphism(k)
    g = probe_graph(4, k, 1, "b", "b")
    image = apply(h, g)
    ring_labels = sorted(
        lab for v, lab in image.nodes if v.startswith("v~")
    )
    assert ring_labels.count("acc_b") == 1
    assert sum(1 for lab in ring_labels if lab.startswith("rej_")) == k - 1
    assert len(ring_labels) == k


def test_inverse_construction_on_witness_family():
    """The inverse-image automaton agrees with the counter automaton over
    the generated family, alignment included."""
    from gwalk.hom import verify_inverse

    n, k = 4, 9
    h = ring_homomorphism(k)
    aut = counter_automaton(n, k)
    sig = witness_signature(k)
    suite = [
        counting_graph(n, k, i, j, d)
        for d in sig.dir_names
        for i in range(n)
        for j in range(n)
    ]
    suite += [probe_graph(n, k, i, d, dp) for i in (0, 3) for d in ("a", "z") for dp in ("a", "-b")]
    rep = verify_inverse(aut, h, suite)
    assert rep.ok
    assert all(not c.alignment_failures for c in rep.checks)


def test_counting_graphs_pairwise_nonisomorphic():
    """Canonical codes separate the family: different (i, j) parameters give
    different graphs."""
    for n in (2, 3, 4):
        for d in ("a", "z"):
            codes = {}
            for i in range(n):
                for j in range(n):
                    code = canonical_encode(counting_graph(n, 9, i, j, d))
                    assert code not in codes, (n, d, i, j, codes[code])
                    codes[code] = (i, j)


def test_generated_family_passes_validators():
    """Validity sweep over the generated families.  Chains and counting
    graphs are checked across the whole parameter box; the probe family
    repeats the same blocks k-fold, so it is sampled at the box corners."""
    for k in (9, 10):
        sig = witness_signature(k)
        assert validate_signature(sig).ok
        assert validate_homomorphism(ring_homomorphism(k)).ok
        for n in range(2, 9):
            for d in sig.dir_names:
                for i in range(n):
                    g = counting_graph(n, k, i, (i + 1) % n, d)
                    assert validate_graph(g).ok, (n, k, i, d)
        for n in (2, 4, 8):
            for d in sig.dir_names:
                g = probe_graph(n, k, n - 1, d, "a")
                assert validate_graph(g).ok, (n, k, d)


def test_probe_identical_fragments_never_distinguished():
    sig = base_signature(4)
    blk = start_block(2, 4, "start")
    rep = distinguishability_probe((blk, blk), enumerate_automata(sig, 1, None))
    assert rep.distinguisher_count == 0
    assert rep.automata_checked == 750


def test_probe_block_pair_deterministic_observations():
    """Desk-scale blocks omit the one-way gadget, so small automata may
    distinguish the pair; findings are observations and must reproduce."""
    sig = base_signature(4)
    pair = (start_block(2, 4, "start"), start_block(2, 4, "fake"))

    def stream():
        return chain(
            enumerate_automata(sig, 1, None),
            enumerate_automata(sig, 2, 3_000),
            random_automata(sig, 2, 3_000, seed=20406),
        )

    first = distinguishability_probe(pair, stream())
    second = distinguishability_probe(pair, stream())
    assert first.automata_checked == second.automata_checked == 750 + 6_000
    assert first.findings == second.findings
    assert first.distinguisher_count > 0  # the desk-scale pair is tellable apart


def test_probe_chain_pair_runs():
    sig = chain_signature(4)
    pair = (numbered_chain(2, 4, "b", 0), numbered_chain(2, 4, "b", None))
    rep = distinguishability_probe(
        pair, chain(enumerate_automata(sig, 1, 2_000), random_automata(sig, 2, 2_000, seed=7))
    )
    assert rep.automata_checked == 4_000
    assert rep.entries_checked == 2_000 + 2 * 2_000


def test_probe_requires_shared_port_direction():
    with pytest.raises(GwalkError):
        distinguishability_probe(
            (numbered_chain(2, 4, "a", 0), numbered_chain(2, 4, "b", None)), []
        )
