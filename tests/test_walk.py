"""Differential tests of the compiled walk loop against the dict-based
reference interpreters in ``oracle``."""

from random import Random

import pytest

import gwalk.engine
import gwalk.hom
import oracle
from gwalk.cli import DEFAULT_SEED
from gwalk.core import Graph, StructureError
from gwalk.demo import (
    count_hom,
    count_signature,
    leaf_expanding_hom,
    leafy_parity_automaton,
    leafy_signature,
    mod3_automaton,
    ring_doubling_hom,
    ring_signature,
)
from gwalk.engine import (
    WalkingAutomaton,
    compute_run,
    enumerate_automata,
    trace,
    validate_automaton,
)
from gwalk.hom import Enter, Start, invert_detailed, simulate_in_pattern, verify_inverse
from gwalk.suites import enumerate_graphs, random_automata, random_graphs
from gwalk.witnesses import base_signature, start_block


def automata(sig, seed):
    """Every one-state automaton, then the first two-state ones and a seeded
    sample of two-state ones."""
    yield from enumerate_automata(sig, 1, None)
    yield from enumerate_automata(sig, 2, 150)
    yield from random_automata(sig, 2, 150, seed)


def ring(m):
    """The ring r c ... c of length m over ``ring_signature``."""
    ids = [f"n{i}" for i in range(m)]
    edges = {}
    for i, v in enumerate(ids):
        edges[(v, "a")] = ids[(i + 1) % m]
        edges[(ids[(i + 1) % m], "-a")] = v
    return Graph(ring_signature(), [(v, "r" if i == 0 else "c") for i, v in enumerate(ids)],
                 ids[0], edges)


def assert_run_matches_oracle(a, g):
    rec = compute_run(a, g)
    configs, kind, steps, cycle_length, cycle_start = oracle.run_record(a, g)
    out = rec.outcome
    assert (out.kind, out.steps, out.cycle_length, out.config) == (
        kind, steps, cycle_length, configs[-1])
    assert rec.cycle_start == cycle_start
    assert rec.configs == configs


@pytest.mark.parametrize("sig", [leafy_signature(), ring_signature()], ids=["leafy", "ring"])
def test_run_matches_oracle_on_enumerated_automata(sig):
    graphs = random_graphs(sig, 20, seed=DEFAULT_SEED, max_nodes=9)
    # The random graphs are small, so add every leafy graph up to 4 nodes
    # (with chords and loops) or the rings up to length 12.
    if sig == leafy_signature():
        graphs += enumerate_graphs(sig, 4)
    else:
        graphs += [ring(m) for m in range(1, 13)]
    for a in automata(sig, seed=DEFAULT_SEED + 1):
        for g in graphs:
            assert_run_matches_oracle(a, g)


def test_run_matches_oracle_on_images():
    h = ring_doubling_hom()
    rings = enumerate_graphs(h.source, 6)
    for a in automata(h.target, seed=5):
        for g in rings:
            lazy = compute_run(a, gwalk.hom.ImageView(h, g))
            configs, kind, steps, cycle_length, _ = oracle.run_record(a, gwalk.hom.apply(h, g))
            assert (lazy.outcome.kind, lazy.outcome.steps, lazy.outcome.cycle_length) == (
                kind, steps, cycle_length)
            assert [(c.state, gwalk.hom._image_id(*c.node)) for c in lazy.configs] == [
                (c.state, c.node) for c in configs]


@pytest.mark.parametrize("variant", ["start", "fake"])
def test_pattern_simulation_matches_oracle_on_start_blocks(variant):
    sig = base_signature(4)
    block = start_block(2, 4, variant)
    enter = sig.opposite("a")
    stream = [*enumerate_automata(sig, 1, None), *random_automata(sig, 2, 400, seed=11)]
    assert len(stream) == 750 + 400
    for a in stream:
        entries = [Enter(q, enter) for q in a.states]
        if block.initial_nodes(sig):
            entries.append(Start())
        for entry in entries:
            res = simulate_in_pattern(a, block, entry)
            assert (res.kind, res.state, res.direction, res.exit_from, oracle.visited(res)) == (
                oracle.simulate(a, block, entry))


def corrupted(b, decode):
    """``b`` with every move's next state replaced by another composite
    state of the same direction, so that it loses its alignment."""
    names = sorted(decode)
    delta = {}
    for cell, (s, d) in b.delta.items():
        same_dir = [x for x in names if decode[x][1] == d]
        delta[cell] = (same_dir[(same_dir.index(s) + 1) % len(same_dir)], d)
    return WalkingAutomaton(b.sig, b.states, b.initial, b.accept, delta)


def first_step(failures):
    """The step a failure sentence names."""
    return int(failures[0].split(":")[0].removeprefix("step "))


def assert_verify_matches_oracle(a, h, suite, monkeypatch, corrupt=False):
    """``verify_inverse`` reports what ``oracle.aligned_checks`` finds on the
    materialized image, one sentence at most per graph.  Against the
    older check ``oracle.verify_checks`` it agrees on the outcomes and flags
    every graph that check flags, at the same step or earlier; on a
    correct inverse neither reports a failure."""
    b, decode = invert_detailed(a, h)
    if corrupt:
        b = corrupted(b, decode)
        monkeypatch.setattr(gwalk.hom, "invert_detailed", lambda *args: (b, decode))
    got = [(c.b_kind, c.a_kind, c.alignment_failures) for c in verify_inverse(a, h, suite).checks]
    assert got == oracle.aligned_checks(a, b, decode, h, suite)
    older = oracle.verify_checks(a, b, decode, h, suite)
    if not corrupt:
        assert got == older
    for (kind_b, kind_a, failures), (old_b, old_a, old_failures) in zip(got, older):
        assert (kind_b, kind_a) == (old_b, old_a)
        assert len(failures) <= 1
        if old_failures:
            assert failures and first_step(failures) <= first_step(old_failures)
    return got


def test_alignment_failure_names_the_first_step(monkeypatch):
    """Each form of the one sentence an alignment failure holds, on inverses
    changed in one cell: B standing for another entry than A's crossing,
    within A's record and on the first step past it, where A's cycle goes
    on; B stepping past A's last crossing; B in a state that stands for no
    entry."""
    sig, h = ring_signature(), ring_doubling_hom()
    once = WalkingAutomaton(sig, ["q0", "q1"], "q0", [], {("q0", "r"): ("q0", "a")})
    circling = WalkingAutomaton(sig, ["q0", "q1"], "q0", [],
                                {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")})
    cases = [
        (once, ("q0@-a", "r"), ("q1@a", "a"), ring(3),
         "step 1: B stands for an entry of 'n1' in direction 'a' in state 'q1', "
         "but A entered 'n1' in direction 'a' in state 'q0'"),
        (circling, ("q0@a", "r"), ("q1@a", "a"), ring(2),
         "step 3: B stands for an entry of 'n1' in direction 'a' in state 'q1', "
         "but A entered 'n1' in direction 'a' in state 'q0'"),
        (once, ("q0@a", "c"), ("q0@a", "a"), ring(3),
         "step 2: B stands for an entry of 'n2' in direction 'a' in state 'q0', "
         "but A made only 1 crossings"),
        (once, ("q0@-a", "r"), ("p9", "a"), ring(3), "step 1: non-composite state 'p9'"),
    ]
    for a, cell, move, g, sentence in cases:
        b, decode = invert_detailed(a, h)
        b = WalkingAutomaton(sig, b.states, b.initial, b.accept, {**b.delta, cell: move})
        monkeypatch.setattr(gwalk.hom, "invert_detailed", lambda *args: (b, decode))
        got = [(c.b_kind, c.a_kind, c.alignment_failures) for c in verify_inverse(a, h, [g]).checks]
        assert got[0][2] == [sentence]
        assert got == oracle.aligned_checks(a, b, decode, h, [g])
    # The second case's A loops after 2 crossings, and B steps past them.
    assert len(compute_run(circling, gwalk.hom.ImageView(h, ring(2))).hops) == 2


def test_verify_inverse_matches_apply_oracle_on_leafy_suite(monkeypatch):
    h = leaf_expanding_hom()
    suite = random_graphs(leafy_signature(), 200, seed=DEFAULT_SEED)
    for a in (leafy_parity_automaton(), oracle.leafy_probe_automaton()):
        assert_verify_matches_oracle(a, h, suite, monkeypatch)
        got = assert_verify_matches_oracle(a, h, suite, monkeypatch, corrupt=True)
        assert any(failures for _, _, failures in got)
        monkeypatch.undo()


def test_verify_inverse_matches_apply_oracle_on_rings(monkeypatch):
    h = ring_doubling_hom()
    sig = h.source
    circling = WalkingAutomaton(
        sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")})
    rings = enumerate_graphs(sig, 6)
    for a in (mod3_automaton(), circling):
        assert_verify_matches_oracle(a, h, rings, monkeypatch)
    got = assert_verify_matches_oracle(mod3_automaton(), h, rings, monkeypatch, corrupt=True)
    assert any(failures for _, _, failures in got)


def test_aligned_check_matches_oracles_on_random_automata():
    """On correct inverses of the ring, leafy and counting homomorphisms,
    for random automata of 1-3 states, ``verify_inverse`` reports nothing,
    like both oracles.  The suite holds looping runs where the inverse
    records one step more than the original's crossings, which the check
    covers by continuing the original's cycle, and never more than one."""
    count_sig = count_signature(4)
    cases = [
        (ring_doubling_hom(), enumerate_graphs(ring_signature(), 6)),
        (leaf_expanding_hom(), random_graphs(leafy_signature(), 16, seed=41, max_nodes=6)),
        (count_hom(count_sig), random_graphs(count_sig, 16, seed=42, max_nodes=6)),
    ]
    longer = 0
    for seed, (h, graphs) in enumerate(cases):
        for n in (1, 2, 3):
            for a in random_automata(h.target, n, 30, seed=100 * seed + n):
                b, decode = invert_detailed(a, h)
                report = verify_inverse(a, h, graphs)
                got = [(c.b_kind, c.a_kind, c.alignment_failures) for c in report.checks]
                assert report.ok
                assert got == oracle.verify_checks(a, b, decode, h, graphs)
                assert got == oracle.aligned_checks(a, b, decode, h, graphs)
                for g in graphs:
                    rec_b = compute_run(b, g)
                    made = len(compute_run(a, gwalk.hom.ImageView(h, g)).hops)
                    assert made <= rec_b.steps <= made + 1
                    longer += rec_b.kind == "loop" and rec_b.steps == made + 1
    assert longer > 0


def test_trace_stops_at_max_len(monkeypatch):
    sig = ring_signature()
    m = 1000
    g = ring(m)
    circling = WalkingAutomaton(
        sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")})
    full = compute_run(circling, g).configs
    assert len(full) == m + 1
    records = []

    def recording(*args):
        records.append(compute_run(*args))
        return records[-1]

    monkeypatch.setattr(gwalk.engine, "compute_run", recording)
    for max_len in (0, 1, 5, m + 1, m + 7):
        assert trace(circling, g, max_len) == full[:max_len]
        # The walk recorded no more configurations than it was asked for;
        # the m distinct ones of the ring at most.
        assert len(records[-1].seen) == min(max(max_len, 1), m)
    # A negative length is refused, not read as a cut from the end.
    with pytest.raises(ValueError, match="max_len must be at least 0, got -3"):
        trace(circling, g, -3)


def test_walk_errors_name_the_missing_slot():
    sig = ring_signature()
    g = Graph(sig, [("v", "r")], "v", {})
    a = WalkingAutomaton(sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a")})
    with pytest.raises(StructureError, match="no edge in direction 'a' at node 'v'"):
        compute_run(a, g)
    stray = WalkingAutomaton(sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "up")})
    with pytest.raises(StructureError, match="no edge in direction 'up'"):
        compute_run(stray, g)


def test_random_automata_draw_like_random_automaton():
    from gwalk.suites import random_automaton

    sig = base_signature(4)
    rng = Random(20406 + 2)
    one_by_one = [random_automaton(sig, rng, 2) for _ in range(50)]
    batch = random_automata(sig, 2, 50, 20406 + 2)
    assert [(a.accept, a.delta) for a in batch] == [(a.accept, a.delta) for a in one_by_one]


def undeclared_and_repeated_states_automaton():
    """A leafy automaton declaring q0 twice, whose q7 and q9 are named only
    by transitions and an accepting pair."""
    return WalkingAutomaton(
        leafy_signature(), ["q0", "q1", "q0"], "q0", [("q9", "t")],
        {("q0", "r"): ("q1", "a"), ("q1", "s"): ("q7", "a"), ("q7", "s"): ("q1", "a"),
         ("q7", "t"): ("q9", "-a"), ("q9", "s"): ("q0", "b")},
    )


def test_undeclared_and_repeated_states_walk_like_the_oracle():
    """States named only by transitions or accepting pairs, and a state
    declared twice, keep their names through the integer codes."""
    a = undeclared_and_repeated_states_automaton()
    for g in random_graphs(leafy_signature(), 30, seed=17):
        assert_run_matches_oracle(a, g)


def test_undeclared_and_repeated_states_invert_and_verify():
    """The inverse simulates every state the automaton's table walks, each
    once: it validates, and every graph verifies."""
    a, h = undeclared_and_repeated_states_automaton(), leaf_expanding_hom()
    b = gwalk.hom.invert(a, h)
    assert validate_automaton(b).ok
    assert len(b.states) == 4 * len(h.source.directions)
    rep = verify_inverse(a, h, random_graphs(leafy_signature(), 30, seed=17))
    assert rep.ok and len(rep.checks) == 30
