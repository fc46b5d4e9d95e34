"""Tests for signatures, graphs, validation and canonical encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwalk.core import (
    Direction,
    DisconnectedGraphError,
    Graph,
    GraphBuilder,
    NodeLabel,
    Signature,
    StructureError,
    canonical_encode,
    connected_components,
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
    assert rep.structural and not rep.invariants


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
    assert rep.structural and not rep.invariants


def ring(sig, length):
    b = GraphBuilder(sig)
    names = [b.node(f"m{i}", "r" if i == 0 else "c") for i in range(length)]
    for i in range(length):
        b.edge(names[i], "a", names[(i + 1) % length])
    return b.build(names[0])


def test_label_of_reads_the_frame_already_compiled():
    """Names and positions do not depend on the signature, so ``label_of``
    reads whichever frame the graph has compiled and compiles none over its
    own signature; a graph with no frame compiles one."""
    sig = ring_signature()
    g = ring(sig, 3)
    other = Signature(sig.directions, sig.labels[::-1])
    frame = g.space(other)
    assert [g.label_of(v) for v, _ in g.nodes] == ["r", "c", "c"]
    with pytest.raises(StructureError, match="unknown node 'm9'"):
        g.label_of("m9")
    assert g._frame is frame
    fresh = ring(sig, 2)
    assert fresh.label_of("m1") == "c" and fresh._frame.sig is sig


def test_relabelled_takes_node_names():
    """The derived graph relabels the named nodes and shares the edges and
    the name index; an unknown name is refused."""
    sig = ring_signature()
    g = ring(sig, 3)
    derived = g.relabelled({"m0": "c", "m2": "r"}, "m2")
    assert derived.nodes == [("m0", "c"), ("m1", "c"), ("m2", "r")]
    assert g.nodes == [("m0", "r"), ("m1", "c"), ("m2", "c")]
    assert derived.initial == "m2" and derived.edges is g.edges
    assert derived.space().index is g.space().index
    assert [derived.label_of(v) for v in ("m0", "m1", "m2")] == ["c", "c", "r"]
    assert canonical_encode(derived) == canonical_encode(g)
    with pytest.raises(StructureError, match="unknown node 'm9'"):
        g.relabelled({"m9": "r"}, "m0")


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


def test_canonical_encode_rejects_disconnected():
    sig = ring_signature()
    g = Graph(
        sig,
        [("v", "r"), ("w", "c")],
        "v",
        {("v", "a"): "v", ("v", "-a"): "v", ("w", "a"): "w", ("w", "-a"): "w"},
    )
    with pytest.raises(DisconnectedGraphError):
        canonical_encode(g)


def test_components_single_node():
    assert connected_components(single_node_graph()) == [["v"]]


def test_components_joined_pair():
    sig = Signature.from_pairs([("d", "-d")], [("x", True, {"d"}), ("y", False, {"-d"})])
    g = Graph(sig, [("v", "x"), ("u", "y")], "v", {("v", "d"): "u", ("u", "-d"): "v"})
    assert connected_components(g) == [["v", "u"]]


def test_components_two_islands():
    g = Graph(
        ring_signature(),
        [("v", "r"), ("w", "c")],
        "v",
        {("v", "a"): "v", ("v", "-a"): "v", ("w", "a"): "w", ("w", "-a"): "w"},
    )
    assert len(connected_components(g)) == 2


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
