"""Round trips and canonical serialization for every document kind."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gwalk import formats
from gwalk.core import StructureError, canonical_encode, validate_graph
from gwalk.demo import (
    binary_tree_signature,
    leaf_parity_automaton,
    leafy_parity_automaton,
    leafy_signature,
    leaf_expanding_hom,
)
from gwalk.suites import random_graphs
from gwalk.witnesses import base_signature, start_block, witness_signature


def test_signature_round_trip_and_canonical_bytes():
    sig = witness_signature(9)
    doc = formats.signature_doc(sig)
    text = formats.dumps(doc)
    back = formats.signature_from(formats.loads(text))
    assert back == sig
    assert formats.dumps(formats.signature_doc(back)) == text


def test_graph_round_trip_preserves_structure():
    sig = leafy_signature()
    for g in random_graphs(sig, 10, seed=3):
        text = formats.dumps(formats.graph_doc(g))
        back = formats.graph_from(formats.loads(text), sig)
        assert validate_graph(back).ok
        assert canonical_encode(back) == canonical_encode(g)
        assert formats.dumps(formats.graph_doc(back)) == text


def test_edges_listed_once():
    sig = leafy_signature()
    g = random_graphs(sig, 1, seed=11, max_nodes=8)[0]
    doc = formats.graph_doc(g)
    listed = {(e["from"], e["dir"]) for e in doc["edges"]}
    assert len(listed) == len(doc["edges"])
    # both halves present after parsing even though one is listed
    assert len(formats.graph_from(doc, sig).edges) == len(g.edges)


def test_automaton_round_trip():
    a = leafy_parity_automaton()
    text = formats.dumps(formats.automaton_doc(a))
    back = formats.automaton_from(formats.loads(text), a.sig)
    assert back.states == a.states
    assert back.accept == a.accept
    assert back.delta == a.delta
    assert formats.dumps(formats.automaton_doc(back)) == text


def test_homomorphism_round_trip():
    h = leaf_expanding_hom()
    text = formats.dumps(formats.homomorphism_doc(h))
    back = formats.homomorphism_from(formats.loads(text))
    assert back.source == h.source and back.target == h.target
    assert set(back.patterns) == set(h.patterns)
    for lab in h.patterns:
        assert back.patterns[lab].edges == h.patterns[lab].edges
        assert back.patterns[lab].ports == h.patterns[lab].ports
    assert formats.dumps(formats.homomorphism_doc(back)) == text


def test_tree_automaton_round_trip():
    a = leaf_parity_automaton()
    text = formats.dumps(formats.tree_automaton_doc(a))
    back = formats.tree_automaton_from(formats.loads(text), binary_tree_signature())
    assert back.delta == a.delta and back.accepting == a.accepting
    assert formats.dumps(formats.tree_automaton_doc(back)) == text


def test_pluggable_round_trip():
    sig = base_signature(4)
    blk = start_block(3, 4, "fake")
    text = formats.dumps(formats.pluggable_doc(sig, blk))
    back = formats.pluggable_from(formats.loads(text), sig)
    assert back.port_dir == blk.port_dir
    assert back.has_initial is False
    assert back.pattern.edges == blk.pattern.edges
    assert formats.dumps(formats.pluggable_doc(sig, back)) == text


def test_dot_export_mentions_every_node():
    sig = leafy_signature()
    g = random_graphs(sig, 1, seed=2, max_nodes=6)[0]
    dot = formats.graph_to_dot(g)
    assert dot.startswith("graph G {")
    for v, _ in g.nodes:
        assert f'"{v}"' in dot


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def entries(*keys):
    """Lists of objects carrying the given keys, with any JSON values."""
    return st.lists(st.fixed_dictionaries({}, optional={k: JSON for k in keys}), max_size=3)


def shaped(**fields):
    """Objects with the given fields, each present or not."""
    return st.fixed_dictionaries({}, optional=fields)


PATTERN = shaped(nodes=entries("id", "label") | JSON, edges=entries("from", "dir", "to") | JSON,
                 ports=st.dictionaries(st.text(max_size=3), JSON, max_size=3) | JSON)
SIGNATURE = shaped(directions=entries("name", "opposite") | JSON,
                   labels=entries("name", "initial", "dirs") | JSON)
LOADERS = {
    "signature": (lambda doc: formats.signature_from(doc), SIGNATURE),
    "graph": (lambda doc: formats.graph_from(doc, leafy_signature()),
              shaped(nodes=entries("id", "label") | JSON, initial=JSON,
                     edges=entries("from", "dir", "to") | JSON)),
    "automaton": (lambda doc: formats.automaton_from(doc, leafy_signature()),
                  shaped(states=JSON, initial=JSON, accept=JSON,
                         transitions=entries("state", "label", "next", "dir") | JSON)),
    "homomorphism": (lambda doc: formats.homomorphism_from(doc),
                     shaped(source_sig=SIGNATURE | JSON, target_sig=SIGNATURE | JSON,
                            patterns=st.dictionaries(st.text(max_size=3), PATTERN, max_size=2)
                            | JSON)),
    "tree_automaton": (lambda doc: formats.tree_automaton_from(doc, binary_tree_signature()),
                       shaped(states=JSON, accept=JSON,
                              delta=entries("label", "args", "result") | JSON)),
    "pluggable": (lambda doc: formats.pluggable_from(doc, leafy_signature()),
                  shaped(nodes=entries("id", "label") | JSON,
                         edges=entries("from", "dir", "to") | JSON,
                         ports=st.dictionaries(st.text(max_size=3), JSON, max_size=3) | JSON,
                         port_dir=JSON, has_initial=JSON)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_reject_wrong_shapes_with_structure_error(data):
    """Any JSON value through any loader: a result or a StructureError."""
    name = data.draw(st.sampled_from(sorted(LOADERS)))
    load, strategy = LOADERS[name]
    doc = data.draw(JSON | strategy)
    try:
        load(doc)
    except StructureError:
        pass
