"""Tests for automaton execution, enumeration and agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gwalk.core import Graph, GraphBuilder, Signature, SignatureMismatchError
from gwalk.engine import (
    WalkingAutomaton,
    agree_on,
    automaton_space_size,
    compute_run,
    enumerate_automata,
    run,
    trace,
    validate_automaton,
)
from gwalk.demo import leafy_signature, ring_signature
from gwalk.suites import random_automata, random_graphs


def one_label_sig(dirs=()):
    return Signature.from_pairs([("d", "-d")], [("x", True, set(dirs))])


def test_accept_at_step_zero():
    sig = one_label_sig()
    a = WalkingAutomaton(sig, ["q0"], "q0", [("q0", "x")], {})
    out = run(a, Graph(sig, [("v", "x")], "v", {}))
    assert out.kind == "accept" and out.steps == 0


def test_reject_at_step_zero():
    sig = one_label_sig()
    a = WalkingAutomaton(sig, ["q0"], "q0", [], {})
    out = run(a, Graph(sig, [("v", "x")], "v", {}))
    assert out.kind == "reject" and out.steps == 0


def two_node_bouncer():
    """Hand simulation: (q0,v) -> (q0,u) -> (q0,v) repeats at step 2."""
    sig = Signature.from_pairs(
        [("d", "-d")], [("x", True, {"d"}), ("y", False, {"-d"})]
    )
    g = Graph(sig, [("v", "x"), ("u", "y")], "v", {("v", "d"): "u", ("u", "-d"): "v"})
    a = WalkingAutomaton(
        sig, ["q0"], "q0", [], {("q0", "x"): ("q0", "d"), ("q0", "y"): ("q0", "-d")}
    )
    return a, g


def test_loop_detected_with_cycle_length_two():
    a, g = two_node_bouncer()
    out = run(a, g)
    assert out.kind == "loop"
    assert out.steps == 2
    assert out.cycle_length == 2
    assert out.config.node == "v"


def test_trace_of_immediate_accept_has_length_one():
    sig = one_label_sig()
    a = WalkingAutomaton(sig, ["q0"], "q0", [("q0", "x")], {})
    assert len(trace(a, Graph(sig, [("v", "x")], "v", {}))) == 1


def test_trace_truncates_at_max_len():
    a, g = two_node_bouncer()
    assert len(trace(a, g, max_len=2)) == 2


def test_trace_never_exceeds_pigeonhole_bound():
    a, g = two_node_bouncer()
    assert len(trace(a, g)) <= len(a.states) * g.node_count + 1


def test_signature_mismatch_raises():
    a, _ = two_node_bouncer()
    other = Graph(one_label_sig(), [("v", "x")], "v", {})
    with pytest.raises(SignatureMismatchError):
        run(a, other)


def test_enumerate_single_state_no_directions():
    # one (state, label) cell with options accept/undefined only
    autos = list(enumerate_automata(one_label_sig(), 1, None))
    assert len(autos) == 2


def test_enumerate_single_state_two_directions():
    # 2 + |Q| * |D_x| = 2 + 1 * 2
    autos = list(enumerate_automata(one_label_sig({"d", "-d"}), 1, None))
    assert len(autos) == 4


def test_enumerate_budget_zero_is_empty():
    assert list(enumerate_automata(one_label_sig(), 1, 0)) == []


def test_enumerate_matches_counting_formula():
    """Independent oracle: the option table gives 2 + n*|D_a| choices per
    (state, label) cell, multiplied over cells."""
    sig = Signature.from_pairs(
        [("d", "-d")], [("x", True, {"d", "-d"}), ("y", False, {"-d"})]
    )
    for n in (1, 2):
        expected = 1
        for lab in sig.labels:
            per_cell = 2 + n * len(lab.dirs)
            expected *= per_cell**n
        autos = list(enumerate_automata(sig, n, None))
        assert len(autos) == expected == automaton_space_size(sig, n)
        tables = {
            (tuple(sorted(a.accept)), tuple(sorted(a.delta.items()))) for a in autos
        }
        assert len(tables) == len(autos)  # pairwise non-identical


def test_enumerate_is_deterministic():
    sig = one_label_sig({"d"})
    first = [a.delta for a in enumerate_automata(sig, 2, 50)]
    second = [a.delta for a in enumerate_automata(sig, 2, 50)]
    assert first == second


def test_enumerated_automata_are_valid():
    sig = leafy_signature()
    for a in enumerate_automata(sig, 2, 500):
        assert validate_automaton(a).ok


def test_validate_automaton_reports_invariant_findings():
    """A move in a direction the label read lacks, and a move out of an
    accepting pair, are invariant findings named by their cell."""
    sig = one_label_sig({"d"})
    a = WalkingAutomaton(sig, ["q0", "q1"], "q0", [("q1", "x")],
                         {("q0", "x"): ("q1", "-d"), ("q1", "x"): ("q0", "d")})
    rep = validate_automaton(a)
    assert [(p.kind, p.code, p.subject) for p in rep.problems] == [
        ("invariant", "direction-outside-label", "(q0,x)"),
        ("invariant", "transition-on-accepting-pair", "(q1,x)"),
    ]


def test_validate_automaton_reports_a_state_declared_twice():
    a = WalkingAutomaton(one_label_sig(), ["q0", "q0"], "q0", [("q0", "x")], {})
    assert [(p.kind, p.code, p.subject) for p in validate_automaton(a).problems] == [
        ("structural", "duplicate-state", "q0")]


def test_agree_with_self_and_renamed_copy():
    sig = leafy_signature()
    suite = random_graphs(sig, 30, seed=5)
    for a in random_automata(sig, 2, 3, seed=9):
        renamed = oracle.renamed(a, {"q0": "s0", "q1": "s1"})
        rep = agree_on(a, renamed, suite)
        assert rep.acceptance_agreement and rep.full_agreement


def replay(a, g, configs, outcome):
    """Step the trace through delta by hand and confirm the outcome."""
    edges = g.edges
    for prev, cur in zip(configs, configs[1:]):
        q2, d = a.delta[(prev.state, oracle.label_of(g, prev.node))]
        assert (q2, edges.get((prev.node, d))) == (cur.state, cur.node)
    last = configs[-1]
    if outcome.kind == "accept":
        assert (last.state, oracle.label_of(g, last.node)) in a.accept
    elif outcome.kind == "reject":
        assert (last.state, oracle.label_of(g, last.node)) not in a.delta
    else:
        assert configs.count(last) == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_outcome_soundness_by_replay(seed):
    sig = leafy_signature()
    g = random_graphs(sig, 1, seed=seed, max_nodes=8)[0]
    for a in random_automata(sig, 2, 3, seed=seed + 1):
        record = compute_run(a, g)
        assert record.outcome.steps <= len(a.states) * g.node_count + 1
        replay(a, g, record.configs, record.outcome)


def three_ring():
    b = GraphBuilder(ring_signature())
    names = [b.node(f"m{i}", "r" if i == 0 else "c") for i in range(3)]
    for i in range(3):
        b.edge(names[i], "a", names[(i + 1) % 3])
    return b.build(names[0])


def undeclared_state_automaton():
    """Declares only q0 but alternates q0/q1 around the ring."""
    delta = {(q, lab): ("q1" if q == "q0" else "q0", "a")
             for q in ("q0", "q1") for lab in ("r", "c")}
    return WalkingAutomaton(ring_signature(), ["q0"], "q0", [], delta)


def test_undeclared_states_count_towards_the_termination_bound():
    """Six moves on three nodes: past the bound of the one declared state,
    within that of the two states the table holds."""
    out = run(undeclared_state_automaton(), three_ring())
    assert out.kind == "loop"
    assert (out.steps, out.cycle_length) == (6, 6)
    assert out.config.state == "q0" and out.config.node == "m0"
