"""Round trips and canonical serialization for every document kind."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwalk
from gwalk import formats
from gwalk.core import Graph, GraphBuilder, StructureError, canonical_encode, validate_graph
from gwalk.demo import (
    binary_tree_signature,
    leaf_parity_automaton,
    leafy_parity_automaton,
    leafy_signature,
    leaf_expanding_hom,
    ring_signature,
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
    for variant, has_initial in (("start", True), ("fake", False)):
        blk = start_block(3, 4, variant)
        doc = formats.pluggable_doc(sig, blk)
        assert (doc["port_dir"], doc["has_initial"]) == ("a", has_initial)
        text = formats.dumps(doc)
        back = formats.pluggable_from(formats.loads(text), sig)
        assert back.ports == blk.ports and back.edges == blk.edges
        assert formats.dumps(formats.pluggable_doc(sig, back)) == text


def test_pluggable_from_checks_the_derived_fields():
    """``port_dir`` must be the fragment's only port and ``has_initial``
    must agree with its labels."""
    sig = base_signature(4)
    doc = formats.pluggable_doc(sig, start_block(2, 4, "start"))
    two_ports = {**doc, "ports": {**doc["ports"], "b": doc["ports"]["a"]}}
    for bad in ({**doc, "port_dir": "b"}, two_ports, {**doc, "has_initial": False}):
        with pytest.raises(StructureError):
            formats.pluggable_from(bad, sig)


def test_dot_export_mentions_every_node():
    sig = leafy_signature()
    g = random_graphs(sig, 1, seed=2, max_nodes=6)[0]
    dot = formats.graph_to_dot(g)
    assert dot.startswith("graph G {")
    for v, _ in g.nodes:
        assert f'"{v}"' in dot


_QUOTED = r'"((?:[^"\\]|\\.)*)"'  # DOT's quoted string: \" and \\ escaped


def dot_statements(text):
    """(node id, label) of every node statement and (from, to, label) of
    every edge statement of ``graph_to_dot`` output, each quoted string
    matched by DOT's quoted-string grammar and unescaped."""
    node = re.compile(rf"  {_QUOTED} \[label={_QUOTED}(?: shape=\"doublecircle\")?\];")
    edge = re.compile(rf"  {_QUOTED} -- {_QUOTED} \[label={_QUOTED}\];")
    lines = text.splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        match = node.fullmatch(line) or edge.fullmatch(line)
        assert match, line
        parts = tuple(re.sub(r"\\(.)", r"\1", x) for x in match.groups())
        (nodes if match.re is node else edges).append(parts)
    return nodes, edges


def quoting_graph():
    """A valid ring whose node ids hold a quote and a backslash."""
    ids = ['a"b', "c\\"]
    edges = {(ids[0], "a"): ids[1], (ids[1], "-a"): ids[0],
             (ids[1], "a"): ids[0], (ids[0], "-a"): ids[1]}
    return Graph(ring_signature(), [(ids[0], "r"), (ids[1], "c")], ids[0], edges)


QUOTED_STATEMENTS = ([('a"b', 'a"b:r'), ("c\\", "c\\:c")],
                     [('a"b', "c\\", "-a/a"), ('a"b', "c\\", "a/-a")])


def test_dot_escapes_quotes_and_backslashes():
    """Node ids, node labels and edge labels are quoted strings of DOT that
    read back as the ids, labels and direction pairs they render."""
    g = quoting_graph()
    assert validate_graph(g).ok
    assert dot_statements(formats.graph_to_dot(g)) == QUOTED_STATEMENTS


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


def ring_text(m):
    """The canonical document of the ring r c ... c of length m."""
    ids = [f"n{i}" for i in range(m)]
    return formats.dumps({
        "kind": "graph", "initial": "n0",
        "nodes": sorted(({"id": v, "label": "c" if i else "r"} for i, v in enumerate(ids)),
                        key=lambda n: n["id"]),
        "edges": sorted((min({"from": v, "dir": "a", "to": u}, {"from": u, "dir": "-a", "to": v},
                             key=lambda e: (e["from"], e["dir"]))
                         for v, u in zip(ids, ids[1:] + ids[:1])),
                        key=lambda e: (e["from"], e["dir"])),
    })


def counted_halves(monkeypatch):
    """The half-edges handed to ``GraphBuilder.add_halves`` from now on."""
    seen, real = [], GraphBuilder.add_halves

    def add_halves(self, halves):
        halves = list(halves)
        seen.extend(halves)
        real(self, halves)

    monkeypatch.setattr(GraphBuilder, "add_halves", add_halves)
    return seen


def test_a_valid_document_is_read_without_half_edges(monkeypatch):
    """A valid 3,000-node ring is written by columns: no half-edge goes
    through ``add_halves``."""
    doc = formats.loads(ring_text(3000))
    halves = counted_halves(monkeypatch)
    g = formats.graph_from(doc, ring_signature())
    assert halves == []
    assert validate_graph(g).ok and len(g.names) == 3000 and g.loose == ()


def test_an_unknown_edge_end_sends_the_edges_through_halves(monkeypatch):
    """One edge to an unlisted node: every listed edge goes through
    ``add_halves`` as its two halves, in document order, and both halves of
    that edge wait in ``loose``."""
    sig = ring_signature()
    doc = formats.loads(ring_text(30))
    doc["edges"][4]["to"] = "ghost"
    halves = counted_halves(monkeypatch)
    g = formats.graph_from(doc, sig)
    listed = [half for e in doc["edges"] for half in (
        ((e["from"], e["dir"]), e["to"]), ((e["to"], sig.opposite(e["dir"])), e["from"]))]
    assert halves[:len(listed)] == listed
    assert g.loose == tuple(listed[8:10]) and "ghost" in dict(g.loose).values()
    assert not validate_graph(g).ok


# sha256 of ``formats.dumps`` of each generated document.  The builders of
# these families may be rewritten, but the files they write may not change
# by a single byte.
CANONICAL_DIGESTS = {
    "start_block(2,4,start)": "f6cee48ac6ae4eb50c43cc018fd36847c23c10467ffc3279e786eee2c60a301f",
    "start_block(2,4,fake)": "bfd00d9f8767bd95cb4174732c426c9261202304dc37a4d37bf20b316d5bf2a1",
    "numbered_chain(4,9,b,2)": "4c72ed8c3360253dc4e5dcad0a626d3bdc7e8d3d22b0f64f352135ad51e16a3f",
    "counting_graph(4,9,2,2,a)": "66f8f06a37ad63cf1ddf0ca29721a4a05e45fd67fd00cace816e84c7c2f0e535",
    "probe_graph(4,9,1,a,b)": "956336bf8f3ccd73e88913e8efed7a1c646428eca97691544a23ab53d3369d2d",
    "ring_homomorphism(9)": "f9280d1c853f75ff568151b6461ed2ecb306c1d5086a55fba49ef2269903f8fb",
    "leaf_expanding_hom()": "1b036be33cc0d1392ed952d71badf9a1274421ccf46138c33f509072c4fae79e",
    "apply(leaf_expanding_hom(),leafy)": "0d6b64f6e0a5836e1c32488c3b87b23ce2cedd218afdb8c661f34878682e299e",
    "apply(ring_homomorphism(9),counting_graph(4,9,2,2,a))":
        "be22f8ba398bcc4a6630f3eb7e51d360159fb8a36d43475b1b3e2a5db20abe84",
}


def test_generated_documents_keep_their_canonical_bytes():
    import hashlib

    from gwalk.hom import apply
    from gwalk.witnesses import (
        chain_signature,
        counting_graph,
        numbered_chain,
        probe_graph,
        ring_homomorphism,
    )

    leafy = random_graphs(leafy_signature(), 1, seed=9, max_nodes=9)[0]
    assert leafy.node_count == 8
    docs = {
        "start_block(2,4,start)": formats.pluggable_doc(base_signature(4), start_block(2, 4)),
        "start_block(2,4,fake)": formats.pluggable_doc(
            base_signature(4), start_block(2, 4, "fake")),
        "numbered_chain(4,9,b,2)": formats.pluggable_doc(
            chain_signature(9), numbered_chain(4, 9, "b", 2)),
        "counting_graph(4,9,2,2,a)": formats.graph_doc(counting_graph(4, 9, 2, 2, "a")),
        "probe_graph(4,9,1,a,b)": formats.graph_doc(probe_graph(4, 9, 1, "a", "b")),
        "ring_homomorphism(9)": formats.homomorphism_doc(ring_homomorphism(9)),
        "leaf_expanding_hom()": formats.homomorphism_doc(leaf_expanding_hom()),
        "apply(leaf_expanding_hom(),leafy)": formats.graph_doc(apply(leaf_expanding_hom(), leafy)),
        "apply(ring_homomorphism(9),counting_graph(4,9,2,2,a))": formats.graph_doc(
            apply(ring_homomorphism(9), counting_graph(4, 9, 2, 2, "a"))),
    }
    digests = {name: hashlib.sha256(formats.dumps(doc).encode()).hexdigest()
               for name, doc in docs.items()}
    assert digests == CANONICAL_DIGESTS


def test_reading_documents_loads_no_tree_or_witness_code():
    """The tree and witness modules are imported by the functions that use
    them, so a fresh process reading rings and homomorphisms skips them."""
    src = os.path.dirname(os.path.dirname(gwalk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, gwalk.demo, gwalk.formats, gwalk.hom; "
            "print(sorted(m for m in ('gwalk.trees', 'gwalk.witnesses') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
