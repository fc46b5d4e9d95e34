"""Tests for signatures, graphs, validation and canonical encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gwalk.core import (
    MISSING,
    Direction,
    DisconnectedGraphError,
    Graph,
    GraphBuilder,
    NodeLabel,
    Signature,
    SignatureMismatchError,
    StructureError,
    canonical_encode,
    isomorphic,
    validate_graph,
    validate_signature,
)
from gwalk.demo import leafy_signature, ring_signature
from gwalk.suites import random_graph


def minimal_sig():
    return Signature.from_pairs([("a", "-a")], [("x", True, set())])


def test_minimal_signature_valid():
    assert validate_signature(minimal_sig()).ok


def test_opposite_must_be_involutive():
    sig = Signature(
        (Direction("a", "-a"), Direction("-a", "b"), Direction("b", "-a")),
        (NodeLabel("x", True, frozenset()),),
    )
    rep = validate_signature(sig)
    assert any(p.code == "opposite-not-involutive" for p in rep.problems)


def test_initial_label_required():
    sig = Signature.from_pairs([("a", "-a")], [("x", False, set())])
    rep = validate_signature(sig)
    assert [p.code for p in rep.problems] == ["no-initial-label"]


def test_self_opposite_direction_allowed():
    # odd direction counts force a self-paired direction; must validate
    sig = Signature.from_pairs([("a", "-a")], [("x", True, {"z"})], self_opposite=["z"])
    assert validate_signature(sig).ok


def test_label_with_unknown_direction_is_structural():
    sig = Signature.from_pairs([("a", "-a")], [("x", True, {"q"})])
    rep = validate_signature(sig)
    assert rep.structural and not oracle.invariants(rep)


DIR_A, DIR_NOT_A = Direction("a", "-a"), Direction("-a", "a")
LABEL_X = NodeLabel("x", True, frozenset())


@pytest.mark.parametrize("directions, labels, code", [
    ((DIR_A, DIR_NOT_A, DIR_A), (LABEL_X,), "duplicate-direction"),
    ((DIR_A, DIR_NOT_A), (LABEL_X, NodeLabel("x", False, frozenset())), "duplicate-label"),
])
def test_a_name_declared_twice_is_structural(directions, labels, code):
    rep = validate_signature(Signature(directions, labels))
    assert [(p.kind, p.code) for p in rep.problems] == [("structural", code)]


def single_node_graph():
    return Graph(minimal_sig(), [("v", "x")], "v", {})


def test_single_node_graph_valid():
    assert validate_graph(single_node_graph()).ok


def test_missing_edge_reported():
    sig = Signature.from_pairs([("a", "-a")], [("x", True, {"a"})])
    g = Graph(sig, [("v", "x")], "v", {})
    rep = validate_graph(g)
    assert any(p.code == "missing-edge" for p in rep.problems)


def test_second_initial_label_reported():
    sig = ring_signature()
    g = Graph(sig, [("v", "r"), ("w", "r")], "v",
              {("v", "a"): "w", ("w", "-a"): "v", ("w", "a"): "v", ("v", "-a"): "w"})
    rep = validate_graph(g)
    assert any(p.code == "initial-label-off-initial-node" for p in rep.problems)


def test_asymmetric_edge_reported():
    sig = ring_signature()
    g = Graph(sig, [("v", "r"), ("w", "c")], "v",
              {("v", "a"): "w", ("w", "-a"): "v", ("v", "-a"): "w", ("w", "a"): "w"})
    rep = validate_graph(g)
    assert any(p.code == "asymmetric-edge" for p in rep.problems)


def test_unknown_label_is_structural_not_invariant():
    g = Graph(minimal_sig(), [("v", "nope")], "v", {})
    rep = validate_graph(g)
    assert rep.structural and not oracle.invariants(rep)


def ring(sig, length):
    b = GraphBuilder(sig)
    names = [b.node(f"m{i}", "r" if i == 0 else "c") for i in range(length)]
    for i in range(length):
        b.edge(names[i], "a", names[(i + 1) % length])
    return b.build(names[0])


def test_a_graph_is_its_own_walk_space():
    """A graph is stored as the tables walks read: ``space`` over its own
    signature, or an equal one, is the graph itself, and ``at``
    resolves names through its index.  An unequal signature gets a graph
    made on each call, sharing the names, the index and the edge tables,
    with the label ids remapped by name; one made after label slots of the
    graph are written reads the new labels."""
    sig = ring_signature()
    g = ring(sig, 3)
    assert g.space() is g and g.space(Signature(sig.directions, sig.labels)) is g
    assert [oracle.label_of(g, v) for v in g.names] == ["r", "c", "c"]
    with pytest.raises(StructureError, match="unknown node 'm9'"):
        oracle.label_of(g, "m9")
    other = Signature(sig.directions, sig.labels[::-1])
    derived = g.space(other)
    assert derived is not g and derived.sig is other
    assert derived.names is g.names and derived.index is g.index and derived.nxt is g.nxt
    assert derived.lab == [1, 0, 0] and g.lab == [0, 1, 1]
    assert [oracle.label_of(derived, v) for v in g.names] == ["r", "c", "c"]
    g.set_label(0, "c", 1)
    g.set_label(2, "r", 0)
    fresh = g.space(other)
    assert fresh is not derived and fresh.lab == [0, 0, 1] and g.lab == [1, 1, 0]
    assert [oracle.label_of(fresh, v) for v in g.names] == ["c", "c", "r"]


def test_a_graph_has_no_walk_space_over_other_directions():
    """A signature with other directions is refused, whatever its labels,
    and spaces over other labels are still made after a refusal."""
    sig = ring_signature()
    g = ring(sig, 3)
    other = Signature(sig.directions, sig.labels[::-1])
    derived = g.space(other)
    wider = Signature(sig.directions + (Direction("b", "-b"), Direction("-b", "b")), sig.labels)
    with pytest.raises(SignatureMismatchError, match="other directions"):
        g.space(wider)
    assert g.space(other).lab == derived.lab == [1, 0, 0]


def test_relabelled_takes_node_names():
    """The derived graph relabels the named nodes and shares the edges and
    the name index; an unknown name is refused."""
    sig = ring_signature()
    g = ring(sig, 3)
    derived = g.relabelled({"m0": "c", "m2": "r"}, "m2")
    assert derived.nodes == [("m0", "c"), ("m1", "c"), ("m2", "r")]
    assert g.nodes == [("m0", "r"), ("m1", "c"), ("m2", "c")]
    assert derived.initial == "m2" and derived.edges == g.edges
    assert derived.lab == [1, 1, 0] and g.lab == [0, 1, 1]
    for shared in ("names", "index", "nxt", "port", "loose"):
        assert getattr(derived, shared) is getattr(g, shared)
    assert [oracle.label_of(derived, v) for v in ("m0", "m1", "m2")] == ["c", "c", "r"]
    assert canonical_encode(derived) == canonical_encode(g)
    with pytest.raises(StructureError, match="unknown node 'm9'"):
        g.relabelled({"m9": "r"}, "m0")


def test_relabelled_writes_every_slot_through_set_label(monkeypatch):
    """``set_label`` writes one node's label and label id in place.
    ``relabelled`` writes each named slot of its copy through it, a label
    outside the signature taking the id past the last; an unknown name
    raises, and nothing is written to the original."""
    g = ring(ring_signature(), 3)
    g.set_label(1, "r", 0)
    assert g.labels == ["r", "r", "c"] and g.lab == [0, 0, 1]
    g.set_label(1, "c", 1)
    assert g.labels == ["r", "c", "c"] and g.lab == [0, 1, 1]
    writes = []
    real = Graph.set_label
    monkeypatch.setattr(Graph, "set_label", lambda h, *a: writes.append((h, *a)) or real(h, *a))
    with pytest.raises(StructureError, match="unknown node 'm9'"):
        g.relabelled({"m0": "c", "m9": "r"}, "m1")
    assert all(h is not g for h, *_ in writes)
    assert g.labels == ["r", "c", "c"] and g.lab == [0, 1, 1] and g.initial == "m0"
    writes.clear()
    derived = g.relabelled({"m0": "c", "m2": "x"}, "m2")
    assert writes == [(derived, 0, "c", 1), (derived, 2, "x", 2)]
    assert derived.labels == ["c", "c", "x"] and derived.lab == [1, 1, 2]
    assert derived.initial == "m2" and g.initial == "m0"
    assert g.labels == ["r", "c", "c"] and g.lab == [0, 1, 1]


def stored(g):
    """What a graph is stored as, with the kept-beside half-edges as a
    mapping: their order follows the order they were written in."""
    return (g.sig, g.initial, g.ports, g.names, g.index, g.labels, g.lab, g.nxt, g.port,
            dict(g.loose))


def findings(rep):
    return sorted((p.kind, p.code, p.subject, p.detail) for p in rep.problems)


def test_builder_writes_as_an_edge_dict_would():
    """Random interleavings of node declarations (each id once), edges
    between declared nodes or to a node never declared, fragments included
    under fresh prefixes and ports give the nodes and edges that a node list and a
    name-keyed edge dict fed the same calls hold, later writes winning; the
    name constructor fed those containers gives the same tables,
    kept-beside halves and findings."""
    for seed in range(300):
        edge_dict_case(seed)


def fragment_with_a_port(sig):
    return Graph(sig, [("a", "s"), ("x", "t")], None,
                 {("a", "a"): "x", ("x", "-a"): "a", ("x", "b"): "x"}, {"b": "x"})


def edge_dict_case(seed):
    from random import Random

    rng = Random(seed)
    sig = leafy_signature()
    ids, dirs = ["a", "b", "c", "d", "zz"], sig.dir_names
    fragment = fragment_with_a_port(sig)
    b, nodes, edges, undeclared = GraphBuilder(sig), [], {}, ids[:4]
    included: list[str] = []

    def declare(v):
        a = rng.choice(sig.label_names)
        nodes.append((b.node(v, a), a))
        undeclared.remove(v)

    for v in ids[:4] if seed % 2 else ():  # every node before any edge
        declare(v)
    for step in range(rng.randrange(1, 30)):
        roll = rng.random()
        if roll < 0.2 and undeclared:
            declare(rng.choice(undeclared))
        elif roll < 0.3:
            prefix = f"p{step}."
            b.include(fragment, prefix)
            nodes += [(prefix + v, a) for v, a in fragment.nodes]
            edges.update({(prefix + v, d): prefix + u for (v, d), u in fragment.edges.items()})
            included += [prefix + v for v in fragment.names]
        else:
            known = [v for v in ids[:4] if v not in undeclared] + included
            v = rng.choice(known or ids[4:])
            d, u = rng.choice(dirs), rng.choice(known * 9 + ids[4:])
            b.edge(v, d, u)
            edges[(v, d)] = u
            edges[(u, sig.opposite(d))] = v
    ports = {rng.choice(dirs): rng.choice(ids) for _ in range(rng.randrange(3))} or None
    g = b.build(None if ports else "a", ports)
    assert (list(g.nodes), dict(g.edges)) == (nodes, edges), seed
    named = Graph(sig, nodes, g.initial, edges, ports)
    assert stored(named) == stored(g), seed
    assert findings(validate_graph(named)) == findings(validate_graph(g)), seed


def test_a_redeclared_id_names_its_last_node():
    """Halves written before an id is declared again stay on its earlier
    node, and the validator reports the duplicate."""
    b = GraphBuilder(ring_signature())
    b.node("v", "r")
    b.node("w", "c")
    b.edge("v", "a", "w")
    b.node("v", "c")
    b.edge("w", "a", "v")
    g = b.build("v")
    assert g.index == {"v": 2, "w": 1}
    assert g.nxt == [1, -1, 2, 0, -1, 1]
    assert "duplicate-node" in [p.code for p in validate_graph(g).problems]


def test_include_refuses_other_directions():
    b = GraphBuilder(ring_signature())
    with pytest.raises(SignatureMismatchError):
        b.include(fragment_with_a_port(leafy_signature()), "p.")


def test_an_edge_before_its_end_stays_loose():
    """An edge into a node that a later ``include`` declares is kept beside
    the tables, not written into them when the graph is built; the
    fragment's own edge in that slot stays, and the validator reports the
    slot the loose edge leaves empty."""
    sig = leafy_signature()
    b = GraphBuilder(sig)
    b.node("h", "r")
    b.edge("h", "a", "p.x")
    b.include(fragment_with_a_port(sig), "p.")
    g = b.build("h")
    width = len(sig.directions)
    h, a, x = g.index["h"], g.index["p.a"], g.index["p.x"]
    assert g.nxt[h * width + sig.dir_index["a"]] == MISSING
    assert g.nxt[x * width + sig.dir_index["-a"]] == a
    assert g.nxt[a * width + sig.dir_index["a"]] == x
    assert g.loose == ((("h", "a"), "p.x"), (("p.x", "-a"), "h"))
    assert g.edges[("h", "a")] == "p.x" and g.edges[("p.x", "b")] == "p.x"
    assert "missing-edge" in [p.code for p in validate_graph(g).problems]


def test_canonical_code_is_permutation_invariant():
    sig = ring_signature()
    g1 = ring(sig, 4)
    b = GraphBuilder(sig)
    # same ring built with shuffled ids and edge insertion order
    b.node("z9", "c")
    b.node("z2", "r")
    b.node("z7", "c")
    b.node("z0", "c")
    b.edge("z7", "a", "z0")
    b.edge("z2", "a", "z9")
    b.edge("z0", "a", "z2")
    b.edge("z9", "a", "z7")
    g2 = b.build("z2")
    assert canonical_encode(g1) == canonical_encode(g2)
    assert isomorphic(g1, g2)


def test_canonical_code_differs_for_labels():
    sig = Signature.from_pairs([("a", "-a")], [("x", True, set()), ("y", True, set())])
    g1 = Graph(sig, [("v", "x")], "v", {})
    g2 = Graph(sig, [("v", "y")], "v", {})
    assert canonical_encode(g1) != canonical_encode(g2)


def test_canonical_code_golden_bytes():
    # pinned so the encoding stays stable across runs and platforms
    assert canonical_encode(ring(ring_signature(), 2)) == b"GW1;r:a>1,-a>1;c:a>0,-a>0"
    no_directions = Signature.from_pairs([], [("x", True, set())])
    assert canonical_encode(Graph(no_directions, [("v", "x")], "v", {})) == b"GW1;x:"


def test_canonical_encode_rejects_disconnected():
    sig = ring_signature()
    g = Graph(
        sig,
        [("v", "r"), ("w", "c")],
        "v",
        {("v", "a"): "v", ("v", "-a"): "v", ("w", "a"): "w", ("w", "-a"): "w"},
    )
    with pytest.raises(DisconnectedGraphError, match=r"^unreachable nodes: \['w'\]$"):
        canonical_encode(g)


def test_unreachable_nodes_are_named_once_by_id():
    """The error lists the ids no reached node carries: an id declared twice
    is not listed while one of its nodes is reached, and is listed once."""
    edges = {("v", "a"): "w", ("v", "-a"): "w", ("w", "a"): "v", ("w", "-a"): "v"}
    nodes = [("v", "r"), ("w", "c"), ("z", "c"), ("z", "c"), ("w", "c")]
    with pytest.raises(DisconnectedGraphError, match=r"^unreachable nodes: \['z'\]$"):
        canonical_encode(Graph(ring_signature(), nodes, "v", edges))


def test_components_single_node():
    assert validate_graph(single_node_graph()).ok


def test_components_joined_pair():
    sig = Signature.from_pairs([("d", "-d")], [("x", True, {"d"}), ("y", False, {"-d"})])
    g = Graph(sig, [("v", "x"), ("u", "y")], "v", {("v", "d"): "u", ("u", "-d"): "v"})
    assert validate_graph(g).ok


def two_islands():
    return Graph(
        ring_signature(),
        [("v", "r"), ("w", "c")],
        "v",
        {("v", "a"): "v", ("v", "-a"): "v", ("w", "a"): "w", ("w", "-a"): "w"},
    )


def test_components_two_islands():
    assert findings(validate_graph(two_islands())) == [
        ("invariant", "disconnected", "<graph>", "2 connected components")]


def test_oracle_components_keep_their_name_order():
    """The reference lists components by their first declared node, each in
    breadth-first order over neighbours sorted by id."""
    assert oracle.connected_components(single_node_graph()) == [["v"]]
    assert oracle.connected_components(two_islands()) == [["v"], ["w"]]
    assert oracle.connected_components(ring(ring_signature(), 5)) == [
        ["m0", "m1", "m4", "m2", "m3"]]


def test_a_half_joins_its_ends_both_ways():
    """Components are counted undirected: ``u``, declared first, has only
    self-loops, and the one half between the two leads from ``v`` to it."""
    g = Graph(ring_signature(), [("u", "c"), ("v", "r")], "v",
              {("u", "a"): "u", ("u", "-a"): "u", ("v", "a"): "v", ("v", "-a"): "u"})
    assert [(p.code, p.subject) for p in validate_graph(g).problems] == [
        ("asymmetric-edge", "v+a"), ("asymmetric-edge", "v+-a")]


def test_an_edge_on_a_port_slot_joins_its_ends():
    """The internal edge kept beside the tables on a port slot is the only
    link between the pattern's two nodes, and it joins them."""
    p = Graph(ring_signature(), [("x", "c"), ("y", "c")], None, {("x", "a"): "y"}, {"a": "x"})
    codes = [p.code for p in validate_graph(p, subject="P").problems]
    assert "port-slot-occupied" in codes and "disconnected-pattern" not in codes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 10))
def test_valid_graphs_have_evenly_matched_slots(seed, size):
    """Each physical edge accounts for its symmetric half, so defined slots
    come in matched pairs (a self-paired slot matching itself)."""
    from random import Random

    sig = leafy_signature()
    g = random_graph(sig, Random(seed), size)
    assert validate_graph(g).ok
    for (v, d), u in g.edges.items():
        assert g.edges[(u, sig.opposite(d))] == v


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_canonical_encode_stable_across_rebuild(seed):
    from random import Random

    sig = leafy_signature()
    g = random_graph(sig, Random(seed), 7)
    renamed = Graph(
        sig,
        [(f"x{v}", lab) for v, lab in g.nodes],
        f"x{g.initial}",
        {(f"x{v}", d): f"x{u}" for (v, d), u in g.edges.items()},
    )
    assert canonical_encode(g) == canonical_encode(renamed)


def test_signature_derived_data_matches_declarations():
    from gwalk.witnesses import witness_signature

    for sig in (leafy_signature(), ring_signature(), witness_signature(9)):
        names = [d.name for d in sig.directions]
        assert sig.dir_names == tuple(names)
        assert sig.label_names == tuple(a.name for a in sig.labels)
        assert sig.initial_labels == tuple(a.name for a in sig.labels if a.initial)
        assert [sig.dir_index[d] for d in names] == list(range(len(names)))
        assert [sig.label_index[a] for a in sig.label_names] == list(range(len(sig.labels)))
        for i, d in enumerate(sig.directions):
            assert names[sig.opp_index[i]] == d.opposite
        for a in sig.labels:
            assert sig.dirs_of(a.name) == tuple(d for d in names if d in a.dirs)
    with pytest.raises(StructureError):
        leafy_signature().dirs_of("nope")
    lone = Signature.from_pairs([], [("x", True, {"d"})], self_opposite=["d"])
    assert lone.opp_index == (0,)
    broken = Signature((Direction("d", "e"),), (NodeLabel("x", True, frozenset()),))
    assert broken.opp_index == (-1,)


def test_every_builder_declares_each_id_once():
    """Each graph and pattern the package builds declares every id once and
    keeps no half beside its tables: an id declared twice would split its
    edges over two nodes with no error from the builder."""
    from gwalk import witnesses as w
    from gwalk.demo import (accept_all_automaton, binary_tree_signature, count_hom,
                            count_signature, leaf_expanding_hom, leaf_parity_automaton,
                            ring_doubling_hom)
    from gwalk.hom import apply
    from gwalk.suites import enumerate_graphs, random_graphs
    from gwalk.trees import annotate, build_characterization, enumerate_trees, eval_dta

    n, k = 4, 9
    dirs = w.witness_signature(k).dir_names
    graphs = [w.start_block(n, k, "start"), w.start_block(n, k, "fake")]
    for d in dirs:
        graphs += [w.numbered_chain(n, k, d, i) for i in (None, *range(n))]
        graphs += [w.counting_graph(n, k, n - 1, j, d) for j in range(n)]
        graphs += [w.probe_graph(n, k, n - 1, d, dp) for dp in dirs]
    homs = [w.ring_homomorphism(k), ring_doubling_hom(), leaf_expanding_hom(),
            count_hom(count_signature(4))]
    trees = list(enumerate_trees(binary_tree_signature(), 7))
    for automaton in (leaf_parity_automaton(), accept_all_automaton()):
        bundle = build_characterization(automaton)
        homs += [bundle.pad, bundle.encode]
        annotated = [annotate(bundle, t) for t in trees[:40] if eval_dta(automaton, t)[1]]
        graphs += annotated + [apply(bundle.encode, t) for t in annotated]
        graphs += [apply(bundle.pad, t) for t in trees[:40]]
    graphs += trees
    for h in homs:
        graphs += h.patterns.values()
    for sig, h in ((ring_signature(), ring_doubling_hom()), (leafy_signature(), leaf_expanding_hom())):
        suite = enumerate_graphs(sig, 3) + random_graphs(sig, 8, seed=5, max_nodes=20)
        graphs += suite + [apply(h, g) for g in suite]
    for g in graphs:
        assert len(g.index) == g.node_count and g.loose == (), g
