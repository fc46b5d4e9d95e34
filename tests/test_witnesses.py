"""Tests for the worst-case families: blocks, chains, counting and probe
graphs, the escape and counter automata, and the distinguishability probe."""

import random
import weakref
from itertools import chain, count

import pytest

import oracle
from gwalk import engine, formats, witnesses
from gwalk.core import (
    Graph,
    GwalkError,
    Signature,
    StructureError,
    canonical_encode,
    validate_graph,
    validate_signature,
)
from gwalk.engine import WalkingAutomaton, enumerate_automata, run, validate_automaton
from gwalk.hom import Enter, Start, apply, simulate_in_pattern, validate_homomorphism
from gwalk.suites import random_automata, random_automaton
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
        assert blk.node_count == fake.node_count == 4 * n
        diffs = [
            (v, a, b)
            for (v, a), (_, b) in zip(blk.nodes, fake.nodes)
            if a != b
        ]
        assert diffs == [("lo0", "st", "cl")]
        assert blk.initial_nodes(blk.sig) == ("lo0",) and not fake.initial_nodes(fake.sig)
        assert blk.ports == fake.ports == {"a": f"up{2 * n - 1}"}
        assert blk.edges == fake.edges


def test_escape_automaton_leaves_start_block():
    for n, k in ((2, 4), (4, 9), (8, 9)):
        blk = start_block(n, k, "start")
        esc = escape_automaton(n, k)
        assert esc.state_count == n
        res = simulate_in_pattern(esc, blk, Start())
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
            res = simulate_in_pattern(esc, frag, Start())
            assert res.kind == "exit"
            assert res.direction == d
            assert res.state == f"q{i}"


def test_numbered_chain_trace_ends_at_forwarder():
    frag = numbered_chain(3, 9, "b", 1)
    esc = escape_automaton(3, 9)
    res = simulate_in_pattern(esc, frag, Start())
    assert oracle.visited(res)[-1][1] == "ugo"


def test_numbered_chain_spine_and_fake_twin():
    n, k = 3, 9
    frag = numbered_chain(n, k, "a", 1)
    anon = numbered_chain(n, k, "a", None)
    spine = [v for v, _ in frag.nodes if not v.startswith("H")]
    assert len(spine) == n + 1
    diffs = {
        v for (v, a), (_, b) in zip(frag.nodes, anon.nodes) if a != b
    }
    assert diffs == {"H1.lo0"}
    assert frag.initial_nodes(frag.sig) == ("H1.lo0",) and not anon.initial_nodes(anon.sig)
    assert frag.ports == anon.ports == {"a": "ugo"}


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


def test_probe_graph_argument_checks():
    with pytest.raises(ValueError):
        probe_graph(4, 9, 4, "a", "b")
    for d, dp in (("y", "b"), ("a", "y")):
        with pytest.raises(StructureError, match="unknown direction 'y'"):
            probe_graph(4, 9, 1, d, dp)


def test_sweep_builds_one_probe_body_and_keeps_no_graph(monkeypatch):
    """One anonymous chain per direction, shared by the counting bodies and
    the single probe body, instead of 468 graphs.  Every graph walked is a
    body the sweep built, numbered in place, never a copy: when a walk
    starts, the only bodies alive are its direction's counting bodies, or
    the probe body alone, and none outlives the sweep."""
    chains, bodies = [], []
    live = weakref.WeakSet()
    real_chain, real_counting, real_probe, real_view = (
        witnesses.numbered_chain, witnesses._counting_body, witnesses._probe_body,
        witnesses.ImageView)

    def counted_chain(*args):
        chains.append(args)
        return real_chain(*args)

    def tracked(build):
        def built(*args):
            g = build(*args)
            bodies.append(g.initial)
            live.add(g)
            return g
        return built

    def refuse(self, *args):
        raise AssertionError("the sweep copied a graph")

    def checked_view(h, g):
        assert g in live, "this graph is not a body of the sweep"
        if "v" in g.index:
            assert set(live) == {g}, "a counting body is alive in the probe stage"
        else:
            assert len(live) <= 4, "bodies of another direction are alive"
        return real_view(h, g)

    monkeypatch.setattr(witnesses, "numbered_chain", counted_chain)
    monkeypatch.setattr(witnesses, "_counting_body", tracked(real_counting))
    monkeypatch.setattr(witnesses, "_probe_body", tracked(real_probe))
    monkeypatch.setattr(Graph, "relabelled", refuse)
    monkeypatch.setattr(witnesses, "ImageView", checked_view)
    assert sweep_tables(4, 9).ok
    assert chains == [(4, 9, d) for d in witness_signature(9).dir_names]
    assert bodies == [None] * (9 * 4 + 1)
    assert not live


def test_counting_graph_builds_one_body(monkeypatch):
    """A counting graph builds its chain and its own body only, and a probe
    graph one chain per direction and one body."""
    calls = []

    def counted(name):
        real = getattr(witnesses, name)
        monkeypatch.setattr(witnesses, name, lambda *args: calls.append(name) or real(*args))

    for name in ("numbered_chain", "_counting_body", "_probe_body"):
        counted(name)
    g = counting_graph(4, 9, 1, 2, "b")
    assert calls == ["numbered_chain", "_counting_body"]
    assert g.initial == "F.H1.lo0" and oracle.label_of(g, "F.H1.lo0") == "st"
    calls.clear()
    probe_graph(4, 9, 1, "b", "a")
    assert calls == ["numbered_chain"] * 9 + ["_probe_body"]


def test_sweep_resolves_no_label_by_name(monkeypatch):
    """Every graph the sweep walks is numbered by label slot writes
    resolved once per body, and every view is set up from integer tables:
    no graph's labels are listed by name."""

    def refuse(g):
        raise AssertionError(f"labels of {g!r} listed by name")

    monkeypatch.setattr(Graph, "nodes", property(refuse))
    assert sweep_tables(4, 9).ok


# ------------------------------------- the families against their oracle


def fields(g):
    """Everything a graph or pattern is stored as: equal fields give equal
    document bytes, and the node order is compared as well."""
    return (g.sig, g.initial, g.ports, g.names, g.index, g.labels, g.lab, g.nxt, g.port,
            g.loose)


def snapshot(g):
    """``fields(g)`` with the label lists copied as they are now, for a
    graph relabelled in place afterwards."""
    stored = fields(g)
    return (*stored[:5], list(g.labels), list(g.lab), *stored[7:])


def dumped(g):
    return formats.dumps(formats.graph_doc(g))


@pytest.mark.parametrize("n, k", [(4, 9), (5, 10)])
def test_sweep_and_builders_match_the_oracle(monkeypatch, n, k):
    """Every graph the sweep walks, in the order of its tables, and every
    graph ``numbered_chain``, ``counting_graph`` and ``probe_graph`` return
    over the whole parameter box, is the one the include-based oracle builds
    for that case.  Document bytes are compared on every 97th case, the
    fields they are made of on all; the sweep's are taken when its view is
    made, since it relabels each body in place."""
    sig = witness_signature(k)
    dirs = sig.dir_names
    walked = []
    real_view = witnesses.ImageView

    def recording_view(h, g):
        walked.append(snapshot(g))
        return real_view(h, g)

    monkeypatch.setattr(witnesses, "ImageView", recording_view)
    assert sweep_tables(n, k).ok
    cases = [("counting", i, j, d) for d in dirs for i in range(n) for j in range(n)]
    cases += [("probe", i, d, dp) for i in range(n) for d in dirs for dp in dirs]
    assert len(walked) == len(cases)
    for at, ((family, *args), seen) in enumerate(zip(cases, walked)):
        if family == "counting":
            want, built = oracle.counting_graph(n, k, *args), counting_graph(n, k, *args)
        else:
            want, built = oracle.probe_graph(n, k, *args), probe_graph(n, k, *args)
        assert seen == fields(want), (family, *args)
        assert fields(built) == fields(want), (family, *args)
        if at % 97 == 0:
            assert dumped(built) == dumped(want), (family, *args)
    chain_sig = chain_signature(k)
    for d in dirs:
        for i in (None, *range(n)):
            got, want = numbered_chain(n, k, d, i), oracle.numbered_chain(n, k, d, i)
            assert fields(got) == fields(want), (d, i)
            assert formats.dumps(formats.pluggable_doc(chain_sig, got)) == formats.dumps(
                formats.pluggable_doc(chain_sig, want))


@pytest.mark.parametrize("fail_at", [None, 100, 400])
def test_sweep_restores_every_working_copy(monkeypatch, fail_at):
    """The sweep's working copies are the bodies it builds.  When a walk
    starts, every body but the one it walks has the labels and initial node
    it was built with, and so has every body after the sweep, and after one
    cut short by a walk that raises (in the counting stage, or in the probe
    stage)."""
    bodies = []
    real_counting, real_probe, real_view, real_run = (
        witnesses._counting_body, witnesses._probe_body, witnesses.ImageView,
        witnesses.compute_run)
    runs = count(1)

    def kept(build):
        def built(*args):
            g = build(*args)
            bodies.append((g, snapshot(g)))
            return g
        return built

    def checked_view(h, g):
        assert any(g is b for b, _ in bodies)
        assert all(snapshot(b) == before for b, before in bodies if b is not g)
        return real_view(h, g)

    def failing_run(a, g):
        if next(runs) == fail_at:
            raise RuntimeError("walk failed")
        return real_run(a, g)

    monkeypatch.setattr(witnesses, "_counting_body", kept(real_counting))
    monkeypatch.setattr(witnesses, "_probe_body", kept(real_probe))
    monkeypatch.setattr(witnesses, "ImageView", checked_view)
    monkeypatch.setattr(witnesses, "compute_run", failing_run)
    if fail_at is None:
        assert sweep_tables(4, 9).ok
    else:
        with pytest.raises(RuntimeError, match="walk failed"):
            sweep_tables(4, 9)
    assert all(snapshot(b) == before for b, before in bodies)
    assert len(bodies) == {None: 9 * 4 + 1, 100: 7 * 4, 400: 9 * 4 + 1}[fail_at]


def test_counting_bodies_share_no_table():
    """The counting bodies of one direction are copied from one prefix.
    Numbering one body in place changes no other body, no body built
    afterwards from the prefix, and not the prefix; no two of them, and
    not the prefix, hold the same table object."""
    n, k = 4, 9
    tables = ("names", "labels", "lab", "nxt", "index")
    prefix = witnesses._counting_prefix(k, numbered_chain(n, k, "b"))
    kept = [getattr(prefix, t).copy() for t in tables]
    bodies = [witnesses._counting_body(prefix, j) for j in range(n)]
    first, second = snapshot(bodies[0]), snapshot(bodies[1])
    witnesses._number(bodies[0], (witnesses._mark(bodies[0], "F.H2.lo0", "st"),))
    assert bodies[0].initial == "F.H2.lo0" and snapshot(bodies[0]) != first
    later = witnesses._counting_body(prefix, 0)
    assert snapshot(bodies[1]) == second and snapshot(later) == first
    assert [getattr(prefix, t) for t in tables] == kept
    for t in tables:
        held = [id(getattr(x, t)) for x in (prefix, *bodies, later)]
        assert len(set(held)) == len(held), t


def fresh(g):
    """``g`` built again from its nodes and edges by the name constructor."""
    return Graph(g.sig, g.nodes, g.initial, dict(g.edges), g.ports)


def test_derived_graphs_share_their_body_tables_and_match_a_fresh_build(monkeypatch):
    """Every graph the sweep walks, and every graph the public builders
    return, has the tables the name constructor fills from its nodes and
    edges, field by field.  The sweep walks one body per counting tail and
    direction, and one probe body."""
    walked = []
    real_view = witnesses.ImageView

    def checked_view(h, g):
        assert fields(g) == fields(fresh(g))
        walked.append(g)
        return real_view(h, g)

    monkeypatch.setattr(witnesses, "ImageView", checked_view)
    assert sweep_tables(4, 9).ok
    assert len({id(g.nxt) for g in walked}) == 9 * 4 + 1
    monkeypatch.undo()
    n, k = 4, 9
    dirs = witness_signature(k).dir_names
    built = [start_block(2, 4, v) for v in ("start", "fake")]
    built += [numbered_chain(n, k, d, i) for d in ("a", "-a", "z") for i in (None, 0, 3)]
    built += [counting_graph(n, k, i, j, d) for d in ("b", "-a") for i in (0, 3) for j in (0, 2)]
    built += [probe_graph(n, k, i, d, "c1") for i in (0, 3) for d in ("a", "z")]
    built += [probe_graph(n, k, 1, "-b", dp) for dp in dirs]
    for g in built:
        assert fields(g) == fields(fresh(g))


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
            assert len(oracle.visited(res)) == 1  # it never moves along the circle


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


@pytest.mark.parametrize("n, k, message", [(3, 9, "n must be at least 4"),
                                            (4, 8, "k must be at least 9")])
def test_sweep_checks_n_and_k_before_building(monkeypatch, n, k, message):
    """A sweep outside the counter automaton's range raises its ValueError
    before any signature or graph is built."""

    def refuse(*args):
        raise AssertionError("built before n and k were checked")

    for name in ("witness_signature", "ring_homomorphism", "numbered_chain"):
        monkeypatch.setattr(witnesses, name, refuse)
    with pytest.raises(ValueError, match=message):
        sweep_tables(n, k)


def test_sweep_numbers_its_cases_by_slot_writes(monkeypatch):
    """The sweep numbers each case by writing label slots resolved once per
    body: it resolves 81 marks, one per start node of a counting prefix
    (4 * 9) and per start node and query of the probe body (4 * 9 + 9),
    numbers each of its 468 cases through ``_number`` and walks it once."""
    calls = {"_mark": 0, "_number": 0, "compute_run": 0}

    def counted(name):
        real = getattr(witnesses, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(witnesses, name, counted(name))
    assert sweep_tables(4, 9).ok
    cases = 4 * 4 * 9 + 4 * 9 * 9
    assert calls == {"_mark": 4 * 9 + 4 * 9 + 9, "_number": cases, "compute_run": cases}


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


def probe_stream(seed=20406):
    """The stream of ``gwalk witness probe --n 2 --k 4`` at its default seed:
    per state count, 10,000 enumerated automata (all 750 for one state) and
    then 10,000 drawn with seed ``seed + states``."""
    sig = base_signature(4)
    for s in (1, 2):
        yield from enumerate_automata(sig, s, 10_000)
        yield from random_automata(sig, s, 10_000, seed + s)


def test_probe_tree_semantics_on_the_default_stream():
    """Entries read off the trees are counted and reported as when walked;
    the counts pin which entries the trees decide."""
    rep = distinguishability_probe(h_pair(), probe_stream())
    assert (rep.automata_checked, rep.entries_checked, rep.entry_walks) == (30_750, 50_750, 1_433)
    assert rep.distinguisher_count == 312


def test_probe_derives_pairs_only_for_walked_automata(monkeypatch):
    """The trees read a streamed automaton's option indices, so only an
    automaton with a walked entry derives its ``accept`` and ``delta``, and
    it does so once."""
    derived, walked = [], set()
    real_derive, real_walk = engine._derive, witnesses._walk_entry

    def derive(a):
        derived.append(a)
        real_derive(a)

    def walk_entry(aut, *args):
        walked.add(id(aut))
        return real_walk(aut, *args)

    monkeypatch.setattr(engine, "_derive", derive)
    monkeypatch.setattr(witnesses, "_walk_entry", walk_entry)
    stream = list(probe_stream())
    rep = distinguishability_probe(h_pair(), stream)
    assert 0 < len(derived) <= rep.entry_walks
    assert len({id(a) for a in derived}) == len(derived)
    assert {id(a) for a in derived} <= walked


def test_probe_chain_pair_runs():
    sig = chain_signature(4)
    pair = (numbered_chain(2, 4, "b", 0), numbered_chain(2, 4, "b", None))
    rep = distinguishability_probe(
        pair, chain(enumerate_automata(sig, 1, 2_000), random_automata(sig, 2, 2_000, seed=7))
    )
    assert rep.automata_checked == 4_000
    assert rep.entries_checked == 2_000 + 2 * 2_000


def test_probe_requires_shared_port_direction():
    """Two fragments with one port each, in the same direction."""
    blk = start_block(2, 4)
    two_ports = Graph(blk.sig, blk.nodes, None, blk.edges, {**blk.ports, "-a": "lo0"})
    for pair in ((numbered_chain(2, 4, "a", 0), numbered_chain(2, 4, "b", None)),
                 (two_ports, two_ports)):
        with pytest.raises(GwalkError):
            distinguishability_probe(pair, [])


# ------------------------------------------- the probe against its oracle


def h_pair(k=4):
    return start_block(2, k, "start"), start_block(2, k, "fake")


def wall_pair(left=None):
    """``left`` (by default the start block) against a one-node fragment
    whose label lies outside every signature here: its walk always rejects,
    so every entry in which the left walk does anything else is a finding."""
    left = left or start_block(2, 4, "start")
    return left, Graph(left.sig, [("w", "wall")], None, {}, {d: "w" for d in left.ports})


def assert_probe_matches_oracle(pair, automata):
    automata = list(automata)
    got, want = distinguishability_probe(pair, automata), oracle.probe(pair, automata)
    assert (got.findings, got.automata_checked, got.entries_checked) == (
        want.findings, want.automata_checked, want.entries_checked)
    assert got.entry_walks <= got.entries_checked
    return got


def over(sig, a, accept=None):
    """``a`` over ``sig``, with the accepting pairs ``accept`` if given."""
    return WalkingAutomaton(sig, a.states, a.initial, a.accept if accept is None else accept,
                            a.delta)


@pytest.mark.parametrize("states", [1, 2])
def test_probe_matches_oracle_on_start_blocks(states):
    sig = base_signature(4)
    stream = [*enumerate_automata(sig, states, 3_000),
              *random_automata(sig, states, 3_000, seed=30 + states)]
    rep = assert_probe_matches_oracle(h_pair(), stream)
    assert rep.entry_walks < rep.entries_checked // 5  # most entries are read off the trees
    assert (rep.distinguisher_count > 0) == (states == 2)


@pytest.mark.parametrize("right", ["chain", "wall"])
def test_probe_matches_oracle_on_chain_pair(right):
    sig = chain_signature(4)
    left = numbered_chain(2, 4, "a", 0)
    pair = (left, numbered_chain(2, 4, "a", None)) if right == "chain" else wall_pair(left)
    stream = [*enumerate_automata(sig, 1, 1_500), *random_automata(sig, 1, 1_000, seed=5),
              *random_automata(sig, 2, 2_000, seed=7)]
    rep = assert_probe_matches_oracle(pair, stream)
    assert (rep.distinguisher_count > 0) == (right == "wall")


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_matches_oracle_on_three_state_sample(pair):
    assert_probe_matches_oracle(pair(), random_automata(base_signature(4), 3, 2_000, seed=33))


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_matches_oracle_on_interleaved_state_counts(pair):
    """Automata of 1, 2 and 3 states drawn one call at a time, interleaved:
    each state count has cells of its own, though they share the trees."""
    sig = base_signature(4)
    rng = random.Random(43)
    stream = [random_automaton(sig, rng, 1 + i % 3) for i in range(1_500)]
    assert_probe_matches_oracle(pair(), stream)


def test_probe_walks_each_entry_state_once_for_a_repeated_automaton():
    sig = base_signature(4)
    sample = list(random_automata(sig, 3, 2_000, seed=33))
    aut = sample[distinguishability_probe(h_pair(), sample).findings[0].automaton_index]
    rep = assert_probe_matches_oracle(h_pair(), [aut] * 25)
    assert (rep.entry_walks, rep.entries_checked) == (3, 75)
    assert rep.distinguisher_count == 25 * len({f.entry_state for f in rep.findings[:3]})


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_matches_oracle_with_undeclared_and_duplicate_states(pair):
    sig = base_signature(4)
    stream = []
    for a in random_automata(sig, 2, 1_000, seed=35):
        stream += [a,
                   WalkingAutomaton(sig, ("q1", "q0", "q1"), "q1", a.accept, a.delta),
                   WalkingAutomaton(sig, ("q0",), "q0", a.accept, a.delta)]
    assert_probe_matches_oracle(pair(), stream)


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_gives_accept_precedence_over_a_move(pair):
    """Each automaton comes again with some of its moving cells also
    accepting, after the first has put its moves into the trees."""
    sig = base_signature(4)
    rng = random.Random(36)
    stream = []
    for a in random_automata(sig, 2, 1_000, seed=36):
        both = {cell for cell in a.delta if rng.random() < 0.3}
        stream += [a, over(sig, a, a.accept | both)]
    assert_probe_matches_oracle(pair(), stream)


def fewer_labels(sig):
    """``sig`` without the start and right-end labels: in the blocks, those
    nodes then carry labels outside the signature."""
    return Signature(sig.directions, tuple(x for x in sig.labels if x.name not in ("st", "cr")))


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_restarts_its_trees_on_an_unequal_signature(pair):
    """A stream that mixes one signature, an equal copy of it and an
    unequal one; every automaton comes once over each, with the same
    cells."""
    sig = base_signature(4)
    same, fewer = Signature(sig.directions, sig.labels), fewer_labels(sig)
    assert same == sig and same is not sig and fewer != sig
    stream = [over(s, a) for a in random_automata(sig, 2, 1_000, seed=37)
              for s in (sig, same, fewer)]
    assert_probe_matches_oracle(pair(), stream)
    # An equal signature keeps the trees: the copy is decided from them.
    assert distinguishability_probe(pair(), stream[:2]).entry_walks == 2


@pytest.mark.parametrize("pair", [h_pair, wall_pair])
def test_probe_reads_labels_outside_the_signature_as_undefined(pair):
    """Over a signature without the start and right-end labels, the cells
    of those labels read as undefined whatever the automaton says of them."""
    sig = base_signature(4)
    fewer = fewer_labels(sig)
    stream = [over(fewer, a) for a in random_automata(sig, 2, 2_000, seed=38)]
    said = sum(1 for a in stream for q, lab in (*a.accept, *a.delta) if lab in ("st", "cr"))
    assert said > 0
    rep = assert_probe_matches_oracle(pair(), stream)
    silent = [WalkingAutomaton(fewer, a.states, a.initial,
                               {c for c in a.accept if fewer.has_label(c[1])},
                               {c: m for c, m in a.delta.items() if fewer.has_label(c[1])})
              for a in stream]
    assert distinguishability_probe(pair(), silent).findings == rep.findings


def bad_move(a, pair, at):
    """``a`` with the ``at``-th cell that the left walk from q0 reads first
    changed to a move in direction c1, which no block label has."""
    sig = a.sig
    visited = oracle.simulate(a, pair[0], Enter("q0", sig.opposite("a")))[4]
    cells = list(dict.fromkeys((q, oracle.label_of(pair[0], v)) for q, v in visited))
    cell = cells[at]
    return WalkingAutomaton(sig, a.states, a.initial, a.accept - {cell},
                            {**a.delta, cell: ("q0", "c1")})


def six_direction_automaton(pair):
    """A two-state automaton over ``base_signature(6)`` whose left walk from
    q0 reads at least three cells."""
    for a in random_automata(base_signature(6), 2, 500, seed=39):
        visited = oracle.simulate(a, pair[0], Enter("q0", "-a"))[4]
        if len({(q, oracle.label_of(pair[0], v)) for q, v in visited}) >= 3:
            return a
    raise AssertionError("no automaton reads three cells")


@pytest.mark.parametrize("at", [0, -1])
def test_probe_raises_at_the_same_stream_position_after_leaves(at):
    """Cell 0 is read at the port node: the bad move leaves it in a
    direction its label lacks.  The entry state's tree already holds the
    good automaton's leaf when the bad one comes."""
    pair = h_pair(6)
    good = six_direction_automaton(pair)
    bad = bad_move(good, pair, at)
    for probe in (distinguishability_probe, oracle.probe):
        pulled = []

        def stream():
            for i, a in enumerate([good, good, bad, good]):
                pulled.append(i)
                yield a

        with pytest.raises(StructureError):
            probe(pair, stream())
        assert pulled == [0, 1, 2]


def test_probe_trees_live_for_one_call():
    """A call after one that raised, and calls on different fragment pairs
    over one signature, each match the oracle."""
    pair = h_pair(6)
    good = six_direction_automaton(pair)
    with pytest.raises(StructureError):
        distinguishability_probe(pair, [good, bad_move(good, pair, 0)])
    assert assert_probe_matches_oracle(pair, [good]).entry_walks == 2
    stream = random_automata(base_signature(4), 2, 1_000, seed=40)
    walks = [assert_probe_matches_oracle(p, stream).entry_walks
             for p in (h_pair(), wall_pair(), h_pair())]
    assert walks[0] == walks[2]
