"""Tests for patterns, image construction, pattern simulation and the
inverse-image automaton."""

import pytest

import gwalk.hom
import oracle
from gwalk import formats
from gwalk.cli import DEFAULT_SEED
from gwalk.core import (
    Graph,
    GwalkError,
    Signature,
    StructureError,
    canonical_encode,
    validate_graph,
)
from gwalk.engine import WalkingAutomaton, compute_run, run
from gwalk.hom import (
    Enter,
    Homomorphism,
    ImageView,
    _image_id,
    apply,
    identity_homomorphism,
    invert,
    invert_detailed,
    simulate_in_pattern,
    validate_homomorphism,
    verify_inverse,
)
from gwalk.demo import (
    count_automaton,
    count_hom,
    count_signature,
    leaf_expanding_hom,
    leafy_parity_automaton,
    leafy_signature,
    mod3_automaton,
    ring_doubling_hom,
    ring_signature,
)
from gwalk.suites import enumerate_graphs, random_automata, random_graphs
from gwalk.witnesses import (
    counter_automaton,
    counting_graph,
    probe_graph,
    ring_homomorphism,
    sweep_tables,
    witness_signature,
)
from test_core import stored
from test_walk import ring


def test_identity_homomorphism_valid():
    assert validate_homomorphism(identity_homomorphism(leafy_signature())).ok


def test_initial_label_pattern_needs_initial_node():
    sig = ring_signature()
    h = identity_homomorphism(sig)
    broken = dict(h.patterns)
    broken["r"] = Graph(sig, [("x", "c")], None, {}, {"a": "x", "-a": "x"})
    rep = validate_homomorphism(Homomorphism(sig, sig, broken))
    assert any(p.code == "initial-node-missing" for p in rep.problems)


def test_open_slot_reported():
    sig = leafy_signature()
    h = identity_homomorphism(sig)
    broken = dict(h.patterns)
    broken["t"] = Graph(sig, [("x", "t")], None, {}, {"-a": "x", "b": "x"})  # -b missing
    rep = validate_homomorphism(Homomorphism(sig, sig, broken))
    assert any(p.code in ("open-slot", "port-set-mismatch") for p in rep.problems)


def extra_edge_hom():
    """Leaf expansion whose ``t`` pattern holds two ``t`` nodes joined by an
    internal edge in direction ``a``, which label ``t`` lacks; every slot
    of ``t`` is filled by an edge or a port."""
    sig = leafy_signature()
    edges = {("x", "a"): "y", ("y", "-a"): "x", ("y", "b"): "y", ("y", "-b"): "y"}
    t_pat = Graph(sig, [("x", "t"), ("y", "t")], None, edges, {"-a": "x", "-b": "x", "b": "x"})
    return Homomorphism(sig, sig, {**leaf_expanding_hom().patterns, "t": t_pat})


def test_pattern_edge_outside_its_label_reported():
    """The slot rule of pattern bodies is the one of graphs: an internal edge
    in a direction the node's label lacks is an ``extra-edge``, as it would
    be in every image of a graph with a ``t`` node."""
    rep = validate_homomorphism(extra_edge_hom())
    assert [(p.code, p.subject) for p in rep.problems] == [("extra-edge", "t/x+a")]
    assert "extra-edge at t/x+a" in rep.summary()
    g = next(g for g in random_graphs(leafy_signature(), 10, seed=5) if validate_graph(g).ok)
    assert "extra-edge" in {p.code for p in validate_graph(apply(extra_edge_hom(), g)).problems}


def test_apply_identity_preserves_canonical_code():
    sig = leafy_signature()
    h = identity_homomorphism(sig)
    for g in random_graphs(sig, 10, seed=4):
        assert canonical_encode(apply(h, g)) == canonical_encode(g)


def test_apply_node_count_is_pattern_size_sum():
    h = leaf_expanding_hom()
    for g in random_graphs(h.source, 10, seed=6):
        image = apply(h, g)
        expected = sum(h.pattern(lab).node_count for _, lab in g.nodes)
        assert image.node_count == expected
        assert validate_graph(image).ok


def test_apply_keeps_edge_bijection():
    """Every source edge becomes exactly one edge between pattern copies."""
    h = leaf_expanding_hom()
    g = random_graphs(h.source, 1, seed=8, max_nodes=9)[0]
    image, origin = oracle.apply_detailed(h, g)
    inter = [
        ((origin[v][0]), d)
        for (v, d), u in image.edges.items()
        if (origin[v][1], d) not in h.pattern(oracle.label_of(g, origin[v][0])).edges
    ]
    assert sorted(inter) == sorted(g.edges)


def one_node_pattern_sig():
    return Signature.from_pairs(
        [("d", "-d")], [("x", True, {"d", "-d"}), ("y", False, {"d", "-d"})]
    )


def test_simulate_accept_inside_single_node():
    sig = one_node_pattern_sig()
    p = Graph(sig, [("w", "y")], None, {}, {"d": "w", "-d": "w"})
    a = WalkingAutomaton(sig, ["q0"], "q0", [("q0", "y")], {})
    res = simulate_in_pattern(a, p, Enter("q0", "d"))
    assert res.kind == "accept_inside"


def test_simulate_single_step_exit():
    sig = one_node_pattern_sig()
    p = Graph(sig, [("w", "y")], None, {}, {"d": "w", "-d": "w"})
    a = WalkingAutomaton(sig, ["q0", "q1"], "q0", [], {("q0", "y"): ("q1", "d")})
    res = simulate_in_pattern(a, p, Enter("q0", "d"))
    assert res.kind == "exit" and res.state == "q1" and res.direction == "d"
    assert res.exit_from == ("q0", "w")


def test_enter_requires_matching_port():
    sig = one_node_pattern_sig()
    p = Graph(sig, [("w", "y")], None, {}, {"d": "w"})
    a = WalkingAutomaton(sig, ["q0"], "q0", [], {})
    with pytest.raises(GwalkError):
        simulate_in_pattern(a, p, Enter("q0", "d"))  # needs port -d


def test_pattern_simulation_agrees_with_embedded_run():
    """Port convention pinned: entering a pattern in direction d lands on the
    port node for -d.  Embed the chain-end pattern into a host graph and
    compare a full run against the pattern simulation."""
    h = leaf_expanding_hom()
    sig = h.source
    pattern = h.pattern("t")
    # host: r --a--> t, with b/-b self-loops on r; image embeds the pattern
    g = Graph(
        sig,
        [("v", "r"), ("w", "t")],
        "v",
        {
            ("v", "a"): "w",
            ("w", "-a"): "v",
            ("v", "b"): "v",
            ("v", "-b"): "v",
            ("w", "b"): "w",
            ("w", "-b"): "w",
        },
    )
    image, origin = oracle.apply_detailed(h, g)
    for q in ("q0", "q1"):
        a = WalkingAutomaton(
            sig,
            ["q0", "q1"],
            q,
            [("q1", "t")],
            {("q0", "r"): ("q0", "a"), ("q0", "s"): ("q1", "a"), ("q1", "s"): ("q0", "a")},
        )
        sim = simulate_in_pattern(a, pattern, Enter(q, "a"))
        # in the image, the automaton enters the copy of w moving along a;
        # its first configuration inside must be the simulated entry point
        rec = run(a, image)
        if sim.kind == "accept_inside":
            assert rec.kind == "accept"
        elif sim.kind == "reject_inside":
            assert rec.kind == "reject"
        first_inside = oracle.visited(sim)[0]
        assert first_inside[1] == pattern.ports["-a"]


def test_invert_state_count_multi_initial():
    sig = count_signature(4, 2)
    b = invert(count_automaton(sig, 3), count_hom(sig))
    assert b.state_count == 13  # 3 states * 4 directions + fresh initial


def test_invert_state_count_unique_initial():
    sig = count_signature(4, 1)
    b = invert(count_automaton(sig, 3), count_hom(sig))
    assert b.state_count == 12


def test_invert_keeps_unreachable_states():
    sig = count_signature(4, 1)
    b = invert(count_automaton(sig, 2), count_hom(sig))
    assert len(set(b.states)) == b.state_count == 8


def test_invert_degenerate_single_state():
    """When the original decides inside the initial pattern, one state
    answering immediately is enough."""
    sig = count_signature(4, 1)
    h = count_hom(sig)
    accepting = WalkingAutomaton(sig, ["q0"], "q0", [("q0", "r1")], {})
    b = invert(accepting, h)
    assert b.state_count == 1
    suite = random_graphs(sig, 20, seed=12, max_nodes=6)
    for g in suite:
        assert run(b, g).accepted == run(accepting, apply(h, g)).accepted

    rejecting = WalkingAutomaton(sig, ["q0"], "q0", [], {})
    b2 = invert(rejecting, h)
    assert b2.state_count == 1
    assert not run(b2, suite[0]).accepted


def test_invert_identity_hom_matches_direct_run():
    sig = leafy_signature()
    h = identity_homomorphism(sig)
    suite = random_graphs(sig, 200, seed=31)
    for a in (leafy_parity_automaton(), oracle.leafy_probe_automaton()):
        b = invert(a, h)
        for g in suite:
            assert run(b, g).accepted == run(a, g).accepted


def test_verify_inverse_empty_suite():
    h = ring_doubling_hom()
    assert verify_inverse(mod3_automaton(), h, []).ok


def test_verify_inverse_exhaustive_small_family():
    h = ring_doubling_hom()
    graphs = enumerate_graphs(h.source, 6)
    rep = verify_inverse(mod3_automaton(), h, graphs)
    assert rep.ok
    assert all(not c.alignment_failures for c in rep.checks)
    assert all(oracle.refinement_ok(c) for c in rep.checks)


def test_inverse_pair_acceptance_agreement():
    """The constructed automaton on each graph agrees in acceptance with the
    original on the corresponding image, across the whole suite."""
    h = leaf_expanding_hom()
    a = leafy_parity_automaton()
    b = invert(a, h)
    suite = random_graphs(h.source, 60, seed=23)
    ours = [run(b, g).accepted for g in suite]
    oracle = [run(a, apply(h, g)).accepted for g in suite]
    assert ours == oracle


def test_verify_inverse_loop_refinement():
    """An automaton circling a ring forever: the inverse automaton must loop
    exactly where the original loops."""
    sig = ring_signature()
    a = WalkingAutomaton(
        sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")}
    )
    rep = verify_inverse(a, ring_doubling_hom(), enumerate_graphs(sig, 6))
    assert rep.ok
    for c in rep.checks:
        assert c.b_kind == "loop" and c.a_kind == "loop"
        assert oracle.refinement_ok(c)


def test_verify_inverse_reject_refinement_on_inside_loop():
    """The original looping inside one pattern must make the inverse
    automaton reject, not loop."""
    sig = ring_signature()
    h = ring_doubling_hom()
    # bounces between the two nodes of the doubled-c pattern forever
    a = WalkingAutomaton(
        sig,
        ["q0", "q1"],
        "q0",
        [],
        {
            ("q0", "r"): ("q0", "a"),
            ("q0", "c"): ("q1", "a"),
            ("q1", "c"): ("q0", "-a"),
        },
    )
    rep = verify_inverse(a, h, enumerate_graphs(sig, 4))
    assert rep.ok
    kinds = {(c.b_kind, c.a_kind) for c in rep.checks}
    assert ("reject", "loop") in kinds


def test_invert_decode_names_round_trip():
    sig = count_signature(4, 1)
    b, decode = invert_detailed(count_automaton(sig, 2), count_hom(sig))
    assert set(decode) <= set(b.states)
    assert all(q in ("q0", "q1") and sig.has_direction(d) for q, d in decode.values())


def assert_view_matches_image(a, h, graphs):
    """The walk on the lazy image view must equal the walk on the image the
    oracle materializes: outcome, step count, period and the deciding
    configuration, whose view node maps to the image node id."""
    for g in graphs:
        lazy = run(a, ImageView(h, g))
        built = run(a, oracle.apply_detailed(h, g)[0])
        assert (lazy.kind, lazy.steps, lazy.cycle_length, lazy.config.state) == (
            built.kind, built.steps, built.cycle_length, built.config.state)
        assert _image_id(*lazy.config.node) == built.config.node


def test_image_view_matches_materialized_image_on_witness_families():
    n, k = 4, 9
    dirs = witness_signature(k).dir_names
    graphs = [counting_graph(n, k, i, j, d) for d in dirs for i in range(n) for j in range(n)]
    graphs += [probe_graph(n, k, i, d, dp) for i in range(n) for d in dirs for dp in dirs]
    assert len(graphs) == 468
    assert_view_matches_image(counter_automaton(n, k), ring_homomorphism(k), graphs)


def test_image_view_matches_materialized_image_on_demo_suites():
    sig = ring_signature()
    circling = WalkingAutomaton(
        sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")}
    )
    rings = enumerate_graphs(sig, 6)
    for a in (mod3_automaton(), circling):
        assert_view_matches_image(a, ring_doubling_hom(), rings)
    leafy = random_graphs(leafy_signature(), 200, seed=DEFAULT_SEED)
    for a in (leafy_parity_automaton(), oracle.leafy_probe_automaton()):
        assert_view_matches_image(a, leaf_expanding_hom(), leafy)


def test_apply_writes_the_materialized_image():
    """The copy-by-copy image and the oracle's node-by-node one are stored as
    the same tables and write the same graph document, on the demo suites of
    the view tests, on the witness images and on a source graph in two
    components, of which every copy is kept."""
    split = Graph(ring_signature(), [("n0", "r"), ("m0", "c"), ("m1", "c")], "n0", {
        ("n0", "a"): "n0", ("n0", "-a"): "n0", ("m0", "a"): "m1", ("m1", "-a"): "m0",
        ("m1", "a"): "m0", ("m0", "-a"): "m1"})
    suites = [
        (ring_doubling_hom(), enumerate_graphs(ring_signature(), 6) + [split]),
        (leaf_expanding_hom(), random_graphs(leafy_signature(), 200, seed=DEFAULT_SEED)),
        (ring_homomorphism(9), [counting_graph(4, 9, 1, 2, "b"), probe_graph(4, 9, 3, "z", "a")]),
    ]
    for h, graphs in suites:
        for g in graphs:
            image, want = apply(h, g), oracle.apply_detailed(h, g)[0]
            assert stored(image) == stored(want)
            assert dumped(image) == dumped(want)
    assert apply(ring_doubling_hom(), split).node_count == 5


def test_apply_raises_at_a_copy_no_walk_reaches():
    """A source node that the initial node does not reach, whose label has
    no pattern or whose edge leads nowhere, makes ``apply`` raise what a walk
    on the view raises where the same node is reached."""
    sig, doubling = ring_signature(), ring_doubling_hom()
    walker = WalkingAutomaton(sig, ["q0", "q1"], "q0", [], {
        ("q0", "r"): ("q1", "a"), ("q1", "c"): ("q1", "a")})
    unpatterned = Homomorphism(sig, sig, {"r": doubling.patterns["r"]})
    loop = {("n0", "a"): "n0", ("n0", "-a"): "n0"}
    cases = [  # (h, the edges of m0)
        (unpatterned, {("m0", "a"): "m0", ("m0", "-a"): "m0"}),
        (doubling, {("m0", "a"): "m9", ("m0", "-a"): "m0"}),
    ]
    for h, edges in cases:
        nodes = [("n0", "r"), ("m0", "c")]
        reached = Graph(sig, nodes, "n0", {**edges, ("n0", "a"): "m0", ("n0", "-a"): "n0"})
        with pytest.raises(StructureError) as walked:
            run(walker, ImageView(h, reached))
        with pytest.raises(StructureError) as applied:
            apply(h, Graph(sig, nodes, "n0", {**edges, **loop}))
        assert str(applied.value) == str(walked.value)


def test_apply_refuses_colliding_image_ids():
    """Source node x with pattern node y~z and source node x~y with pattern
    node z both name their image node x~y~z."""
    sig = Signature.from_pairs([("a", "-a")], [("r", True, {"a"}), ("c", False, {"-a"})])
    h = Homomorphism(sig, sig, {
        "r": Graph(sig, [("y~z", "r")], None, {}, {"a": "y~z"}),
        "c": Graph(sig, [("z", "c")], None, {}, {"-a": "z"}),
    })
    g = Graph(sig, [("x", "r"), ("x~y", "c")], "x", {("x", "a"): "x~y", ("x~y", "-a"): "x"})
    assert validate_homomorphism(h).ok and validate_graph(g).ok
    for build in (apply, oracle.apply_detailed):
        with pytest.raises(StructureError, match="collision at 'x~y~z'"):
            build(h, g)


def view_step(view, node, d):
    """The image node a walk on the view reaches from ``node`` in direction
    ``d`` (None where it stops), and whether it crossed between copies."""
    _, nxt, base, w = view.at(node)
    j = view.sig.dir_index[d]
    x = nxt[w * len(view.sig.directions) + j]
    if x >= 0:
        return view.node(base + x), False
    try:
        _, _, base, x = view.hop(base, w, j, x)
    except StructureError:
        return None, False
    return view.node(base + x), True


def test_image_view_steps_match_materialized_edges():
    """Every slot of every image node, walked or not: the view steps to the
    image edge's end, and crosses exactly on the edges joining copies."""
    suites = [
        (ring_doubling_hom(), enumerate_graphs(ring_signature(), 5)),
        (leaf_expanding_hom(), random_graphs(leafy_signature(), 40, seed=8)),
    ]
    for h, graphs in suites:
        for g in graphs:
            view = ImageView(h, g)
            image, origin = oracle.apply_detailed(h, g)
            assert view.node_count == image.node_count
            assert _image_id(*view.initial) == image.initial
            edges = dict(image.edges)
            for x, (v, w) in origin.items():
                lab, _, _, i = view.at((v, w))
                assert h.target.labels[lab[i]].name == oracle.label_of(image, x)
                for d in h.target.dir_names:
                    u, crossed = view_step(view, (v, w), d)
                    assert (None if u is None else _image_id(*u)) == edges.get((x, d))
                    internal = (w, d) in h.pattern(oracle.label_of(g, v)).edges
                    assert crossed == (u is not None and not internal)


def dumped(g):
    return formats.dumps(formats.graph_doc(g))


def reordered_hom():
    """The leafy end expansion over a target that declares the source's
    directions in another order, after an extra pair e/-e, so that no
    direction has the same id in both: the pattern of s is two nodes joined
    by an e edge, the other labels map to themselves."""
    src = leafy_signature()
    tgt = Signature.from_pairs(
        [("b", "-b"), ("e", "-e"), ("a", "-a")],
        [("r", True, {"a", "b", "-b"}), ("t", False, {"-a", "b", "-b"}),
         ("m", False, {"-a", "e", "b"}), ("n", False, {"-e", "a", "-b"})],
    )
    s_pat = Graph(tgt, [("u", "m"), ("w", "n")], None, {("u", "e"): "w", ("w", "-e"): "u"},
                  {"-a": "u", "b": "u", "a": "w", "-b": "w"})
    patterns = {lab: Graph(tgt, [("x", lab)], None, {}, {d: "x" for d in sorted(src.label(lab).dirs)})
                for lab in ("r", "t")}
    return Homomorphism(src, tgt, {**patterns, "s": s_pat})


def test_views_map_target_directions_to_source_ones():
    """A crossing reads the source graph in the source's direction ids: the
    view's every slot, its walks, ``apply`` and ``verify_inverse`` agree
    with the oracle's image and interpreter under a target whose direction
    ids all differ from the source's."""
    h = reordered_hom()
    assert validate_homomorphism(h).ok
    assert all(h.source.dir_index[d] != h.target.dir_index[d] for d in h.source.dir_names)
    graphs = random_graphs(h.source, 40, seed=14) + enumerate_graphs(h.source, 3)
    walker = WalkingAutomaton(h.target, ["q0"], "q0", [("q0", "t")], {
        ("q0", "r"): ("q0", "a"), ("q0", "m"): ("q0", "e"), ("q0", "n"): ("q0", "a")})
    automata = [walker, *random_automata(h.target, 2, 30, seed=15)]
    for g in graphs:
        image, origin = oracle.apply_detailed(h, g)
        assert dumped(apply(h, g)) == dumped(image)
        view = ImageView(h, g)
        assert view.node_count == image.node_count
        edges = dict(image.edges)
        for x, (v, w) in origin.items():
            for d in h.target.dir_names:
                u, _ = view_step(view, (v, w), d)
                assert (None if u is None else _image_id(*u)) == edges.get((x, d))
        for a in automata:
            configs, kind, steps, cycle_length, _ = oracle.run_record(a, image)
            lazy = compute_run(a, view)
            assert (lazy.kind, lazy.steps, lazy.outcome.cycle_length) == (kind, steps, cycle_length)
            assert [(c.state, _image_id(*c.node)) for c in lazy.configs] == [
                (c.state, c.node) for c in configs]
    for a in automata:
        b, decode = invert_detailed(a, h)
        report = verify_inverse(a, h, graphs)
        assert report.ok
        assert [(c.b_kind, c.a_kind, c.alignment_failures) for c in report.checks] == (
            oracle.verify_checks(a, b, decode, h, graphs))


def test_copies_follow_declaration_order():
    """Copy c is source node c of the graph's frame, whichever walk reaches
    it first: reversing the node list changes neither the report of
    ``verify_inverse`` nor the document ``apply`` writes, on suites with
    source self-loops, and both match the oracle."""
    cases = [
        (ring_doubling_hom(), mod3_automaton(), enumerate_graphs(ring_signature(), 6)),
        (leaf_expanding_hom(), oracle.leafy_probe_automaton(),
         random_graphs(leafy_signature(), 40, seed=3)),
    ]
    for h, a, graphs in cases:
        assert any(v == u for g in graphs for (v, _), u in g.edges.items())
        flipped = [Graph(g.sig, g.nodes[::-1], g.initial, g.edges) for g in graphs]
        b, decode = invert_detailed(a, h)
        want = oracle.verify_checks(a, b, decode, h, graphs)
        for suite in (graphs, flipped):
            checks = verify_inverse(a, h, suite).checks
            assert [(c.b_kind, c.a_kind, c.alignment_failures) for c in checks] == want
        for g, f in zip(graphs, flipped):
            assert dumped(apply(h, f)) == dumped(apply(h, g)) == dumped(oracle.apply_detailed(h, g)[0])


def test_image_view_raises_like_materialized_image():
    """A pattern slot that is neither an internal edge nor a port, or a
    source edge to a missing node: both walks stop with a structure error."""
    src = ring_signature()
    tgt = Signature.from_pairs(
        [("a", "-a"), ("b", "-b")],
        [("r", True, {"a", "-a"}), ("c", False, {"a", "-a"}), ("e", False, {"a", "-a", "b"})],
    )
    patterns = {
        "r": Graph(tgt, [("x", "r")], None, {}, {"a": "x", "-a": "x"}),
        "c": Graph(tgt, [("x", "e")], None, {}, {"a": "x", "-a": "x"}),
    }
    h = Homomorphism(src, tgt, patterns)
    a = WalkingAutomaton(
        tgt, ["q0"], "q0", [], {("q0", "r"): ("q0", "a"), ("q0", "e"): ("q0", "b")}
    )
    g = enumerate_graphs(src, 3)[-1]
    with pytest.raises(StructureError):
        run(a, apply(h, g))
    with pytest.raises(StructureError):
        run(a, ImageView(h, g))
    dangling = Graph(src, [("n0", "r")], "n0", {("n0", "a"): "n9", ("n0", "-a"): "n0"})
    with pytest.raises(StructureError):
        run(mod3_automaton(), apply(ring_doubling_hom(), dangling))
    with pytest.raises(StructureError):
        run(mod3_automaton(), ImageView(ring_doubling_hom(), dangling))


def test_view_crossings_fail_with_their_messages():
    """Each way a crossing between copies can fail stops a walk on the view
    with its own message: a missing source edge, a direction outside the
    source, a label without a pattern, in the source signature or outside
    it, and a pattern without the port for the opposite direction."""
    sig = ring_signature()
    ident = identity_homomorphism(sig).patterns
    step_a = WalkingAutomaton(sig, ["q0"], "q0", [], {("q0", "r"): ("q0", "a")})
    wide = Signature.from_pairs(
        [("a", "-a"), ("b", "-b")], [("r", True, {"a", "-a", "b"}), ("c", False, {"a", "-a"})])
    step_b = WalkingAutomaton(wide, ["q0"], "q0", [], {("q0", "r"): ("q0", "b")})
    extra = Signature.from_pairs(
        [("a", "-a")], [("r", True, {"a", "-a"}), ("c", False, {"a", "-a"}),
                        ("z", False, {"a", "-a"})])
    two = {("n0", "a"): "n1", ("n1", "-a"): "n0", ("n1", "a"): "n0", ("n0", "-a"): "n1"}
    cases = [
        (step_a, identity_homomorphism(sig), Graph(sig, [("n0", "r")], "n0", {}),
         "no edge in direction 'a' at node ('n0', 'x')"),
        (step_b, Homomorphism(sig, wide, {
            "r": Graph(wide, [("x", "r")], None, {}, {"a": "x", "-a": "x", "b": "x"}),
            "c": Graph(wide, [("x", "c")], None, {}, {"a": "x", "-a": "x"})}),
         ring(2), "no edge in direction 'b' at node ('n0', 'x')"),
        (step_a, Homomorphism(sig, sig, {"r": ident["r"]}), ring(2),
         "no pattern for label 'c'"),
        (step_a, identity_homomorphism(sig), Graph(extra, [("n0", "r"), ("n1", "z")], "n0", two),
         "no pattern for the label of source node 'n1', which is outside the source signature"),
        (step_a, Homomorphism(sig, sig, {
            "r": ident["r"], "c": Graph(sig, [("x", "c")], None, {}, {"a": "x"})}),
         ring(2), "no port '-a' at source node 'n1'"),
    ]
    for a, h, g, message in cases:
        with pytest.raises(StructureError) as error:
            compute_run(a, ImageView(h, g))
        assert str(error.value) == message


def test_image_view_set_up_reads_integer_tables(monkeypatch):
    """A view finds its initial copy and that copy's initial node in the
    source frame and ``h.frames()``: it resolves no label by name, looks
    up no pattern and lists no initial nodes.  Of several initial nodes in
    a pattern it takes the last, as the oracle's image does."""
    sig = ring_signature()
    two_starts = Homomorphism(sig, sig, {
        "r": Graph(sig, [("x", "r"), ("y", "r")], None,
                   {("x", "a"): "y", ("y", "-a"): "x"}, {"-a": "x", "a": "y"}),
        "c": Graph(sig, [("x", "c")], None, {}, {"a": "x", "-a": "x"}),
    })
    rings = enumerate_graphs(sig, 5)
    cases = [(h, rings) for h in (ring_doubling_hom(), two_starts)]
    cases.append((leaf_expanding_hom(), random_graphs(leafy_signature(), 30, seed=DEFAULT_SEED)))
    cases.append((ring_homomorphism(9), [counting_graph(4, 9, 1, 2, "z"),
                                         probe_graph(4, 9, 3, "-a", "c1")]))
    want = [[_image_id(*ImageView(h, g).initial) for g in graphs] for h, graphs in cases]
    assert want == [[oracle.apply_detailed(h, g)[0].initial for g in graphs]
                    for h, graphs in cases]

    def refuse(*args):
        raise AssertionError("looked up by name")

    monkeypatch.setattr(Graph, "nodes", property(refuse))  # the labels listed by name
    for owner, name in ((Graph, "initial_nodes"), (Homomorphism, "pattern")):
        monkeypatch.setattr(owner, name, refuse)
    for (h, graphs), initials in zip(cases, want):
        assert [_image_id(*ImageView(h, g).initial) for g in graphs] == initials
    assert want[1][0].endswith("~y")


def test_sweep_and_verify_build_no_image(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("homomorphic image materialized")

    monkeypatch.setattr(gwalk.hom, "apply", refuse)
    assert sweep_tables(4, 9).ok
    rings = enumerate_graphs(ring_signature(), 6)
    rep = verify_inverse(mod3_automaton(), ring_doubling_hom(), rings)
    assert rep.ok and len(rep.checks) == len(rings)


def spied_node_count(monkeypatch):
    """Count the reads of ``ImageView.node_count``, which still answers."""
    reads = []
    real = ImageView.node_count

    def spy(view):
        reads.append(view)
        return real.fget(view)

    monkeypatch.setattr(ImageView, "node_count", property(spy))
    return reads


def test_a_short_walk_on_a_view_never_counts_the_image(monkeypatch):
    """The bound check reads the view's floor, the source node count times
    the least pattern size: a walk within it sums no pattern sizes, however
    large the source graph.  So does the start, read from the view."""
    reads = spied_node_count(monkeypatch)
    h, g = ring_doubling_hom(), ring(5000)
    view = ImageView(h, g)
    assert h.frames()[5] == 1 and view.floor == 5000
    step_off = WalkingAutomaton(ring_signature(), ["q0"], "q0", [], {("q0", "r"): ("q0", "a")})
    out = run(step_off, view)
    assert (out.kind, out.steps) == ("reject", 1)
    assert run(mod3_automaton(), ImageView(h, ring(7))).kind == "reject"
    assert reads == []


def test_a_long_walk_on_a_view_checks_the_exact_count(monkeypatch):
    """One state going round the doubled ring of m nodes loops after
    2m - 1 moves, past the floor's m + 1: the walk reads the exact count,
    and the bound holds."""
    reads = spied_node_count(monkeypatch)
    round_ = WalkingAutomaton(ring_signature(), ["q0"], "q0", [],
                              {("q0", "r"): ("q0", "a"), ("q0", "c"): ("q0", "a")})
    view = ImageView(ring_doubling_hom(), ring(50))
    out = run(round_, view)
    assert (out.kind, out.steps, out.cycle_length) == ("loop", 99, 99)
    assert reads == [view] and view.node_count == 99


def test_a_label_without_a_pattern_keeps_the_exact_count():
    """With a source label mapped to no pattern the floor is 0, so every
    walk sums the pattern sizes and stops where a node has none."""
    sig = ring_signature()
    h = Homomorphism(sig, sig, {"r": identity_homomorphism(sig).patterns["r"]})
    assert h.frames()[5] == 0
    step_off = WalkingAutomaton(sig, ["q0"], "q0", [], {})
    with pytest.raises(StructureError, match="no pattern for label 'c'"):
        run(step_off, ImageView(h, ring(3)))


def test_a_view_keeps_its_start_position():
    """``at(initial)`` returns the position the view set up, the one its
    names resolve to, with no lookup."""
    for h, g in ((ring_doubling_hom(), ring(4)),
                 (ring_homomorphism(9), probe_graph(4, 9, 3, "-a", "c1"))):
        view = ImageView(h, g)
        assert view.at(view.initial) == view.at(tuple(list(view.initial)))
        assert view.at(view.initial) is view.at(view.initial)
