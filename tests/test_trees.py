"""Tests for tree signatures, bottom-up automata, and the fishbone
characterization with both decoders."""

import hashlib
import signal
from itertools import product
from random import Random

import pytest

import gwalk.trees
import oracle
from gwalk.core import (
    Graph,
    GraphBuilder,
    GwalkError,
    Signature,
    StructureError,
    canonical_encode,
    isomorphic,
    validate_graph,
)
from gwalk.hom import Homomorphism, ImageView, apply
from gwalk.demo import accept_all_automaton, binary_tree_signature, leaf_parity_automaton
from gwalk.trees import (
    BottomUpTreeAutomaton,
    CharacterizationBundle,
    annotate,
    build_characterization,
    decode_encoding,
    decode_padding,
    enumerate_trees,
    eval_dta,
    eval_states,
    is_tree,
    label_rank,
    language_nonempty,
    parse_fishbones,
    validate_tree_automaton,
    validate_tree_signature,
    verify_characterization,
)


def unary_sig():
    return Signature.from_pairs(
        [("+1", "-1")],
        [("root", True, {"+1"}), ("u", False, {"-1", "+1"}), ("e", False, {"-1"})],
    )


def unary_parity():
    return BottomUpTreeAutomaton(
        unary_sig(),
        ["q0", "q1"],
        "q0",
        {
            ("e", ()): "q1",
            ("u", ("q0",)): "q1",
            ("u", ("q1",)): "q0",
            ("root", ("q0",)): "q0",
            ("root", ("q1",)): "q1",
        },
    )


def test_tree_signature_shapes():
    assert validate_tree_signature(unary_sig()).ok
    assert validate_tree_signature(binary_tree_signature()).ok
    two_parents = Signature.from_pairs(
        [("+1", "-1"), ("+2", "-2")],
        [("root", True, {"+1"}), ("bad", False, {"-1", "-2"})],
    )
    rep = validate_tree_signature(two_parents)
    assert any(p.code == "parent-count" for p in rep.problems)


@pytest.mark.parametrize("pairs, labels, code", [
    ([("+1", "-1"), ("+3", "-3")], [("root", True, {"+1"})], "direction-range"),
    ([("+1", "-2"), ("+2", "-1")], [("root", True, {"+1", "+2"})], "opposite-shape"),
    ([("+1", "-1"), ("+2", "-2")], [("root", True, {"+2"})], "child-range"),
    ([("+1", "-1")], [("root", True, {"-1", "+1"})], "root-with-parent"),
    ([("+1", "-1")], [("root", True, {"+1", "initial"})], "unknown-direction"),
])
def test_tree_signature_shape_findings(pairs, labels, code):
    rep = validate_tree_signature(Signature.from_pairs(pairs, labels))
    assert rep.problems and {p.code for p in rep.problems} == {code}


def test_single_rank0_root_is_a_tree():
    sig = Signature.from_pairs([("+1", "-1")], [("root", True, set())])
    g = Graph(sig, [("n0", "root")], "n0", {})
    assert is_tree(g)


def test_non_tree_signature_graph_rejected():
    from gwalk.demo import ring_signature
    from gwalk.suites import enumerate_graphs

    g = enumerate_graphs(ring_signature(), 3)[2]
    assert not is_tree(g)


def test_enumerate_unary_trees():
    # chains root u^m e: sizes 2 and 3 fit in three nodes
    assert len(list(enumerate_trees(unary_sig(), 3))) == 2
    assert len(list(enumerate_trees(unary_sig(), 6))) == 5


def test_enumerate_single_tree_for_rank0_root():
    sig = Signature.from_pairs([("+1", "-1")], [("root", True, set())])
    assert len(list(enumerate_trees(sig, 4))) == 1


def test_annotate_single_node_tree_gets_empty_vector():
    sig = Signature.from_pairs([("+1", "-1")], [("root", True, set())])
    a = BottomUpTreeAutomaton(sig, ["q0"], "q0", {("root", ()): "q0"})
    bundle = build_characterization(a)
    t = list(enumerate_trees(sig, 1))[0]
    ann = annotate(bundle, t)
    assert [lab for _, lab in ann.nodes] == ["root[]"]
    assert bundle.annotated["root[]"] == ("root", ())


def naive_tree_count(sig, max_nodes):
    """Independent counting oracle: plain recursion over label choices and
    child-size splits, no memoization, no sharing with the enumerator."""
    from gwalk.trees import label_rank, parent_direction

    def count(pd, size):
        total = 0
        for lab in sig.labels:
            if lab.initial or parent_direction(sig, lab.name) != pd:
                continue
            r = label_rank(sig, lab.name)
            if r == 0:
                total += 1 if size == 1 else 0
                continue
            total += splits(pd_list=list(range(1, r + 1)), budget=size - 1)

        return total

    def splits(pd_list, budget):
        if not pd_list:
            return 1 if budget == 0 else 0
        head, *rest = pd_list
        total = 0
        for s in range(1, budget + 1):
            total += count(head, s) * splits(rest, budget - s)
        return total

    total = 0
    for lab in sig.labels:
        if not lab.initial:
            continue
        from gwalk.trees import label_rank

        r = label_rank(sig, lab.name)
        for size in range(1, max_nodes + 1):
            if r == 0:
                total += 1 if size == 1 else 0
            else:
                total += splits(list(range(1, r + 1)), size - 1)
    return total


def test_enumeration_count_matches_naive_oracle():
    for sig, bound in ((unary_sig(), 7), (binary_tree_signature(), 9)):
        assert len(list(enumerate_trees(sig, bound))) == naive_tree_count(sig, bound)


def test_enumerated_trees_distinct_and_tree_shaped():
    trees = list(enumerate_trees(binary_tree_signature(), 7))
    assert len(trees) == 8  # hand count: 1 of size 3, 2 of size 5, 5 of size 7
    assert len({canonical_encode(t) for t in trees}) == len(trees)
    assert all(is_tree(t) for t in trees)


@pytest.mark.parametrize("doubled, before", [
    (lambda total, parts: True, 0),
    (lambda total, parts: (total, parts) == (2, 2), 1),
], ids=["every-split", "root-split"])
def test_enumeration_refuses_a_subtree_or_a_tree_made_twice(monkeypatch, doubled, before):
    """Splits of a size into the children's sizes yielded twice: a leaf is
    then made twice, refused where it is made, before any tree; a root's
    split met twice (only size 3's) is refused after that split's one tree."""
    real = gwalk.trees._compositions

    def twice(total, parts):
        for c in real(total, parts):
            yield c
            if doubled(total, parts):
                yield c

    monkeypatch.setattr(gwalk.trees, "_compositions", twice)
    made = []
    with pytest.raises(AssertionError, match="duplicate tree"):
        for t in enumerate_trees(binary_tree_signature(), 5):
            made.append(t)
    assert len(made) == before


@pytest.mark.parametrize("sig", [binary_tree_signature, unary_sig, lambda: ternary_mod3().sig],
                         ids=["binary", "unary", "ternary"])
def test_enumeration_matches_the_nested_tuple_oracle(sig):
    """The trees of the shape space are those of the oracle's nested-tuple
    recursion, in order, with the same canonical codes and node ids."""
    def key(t):
        return canonical_encode(t), list(t.nodes), dict(t.edges)

    want = list(map(key, oracle.enumerate_trees(sig(), 9)))
    assert list(map(key, enumerate_trees(sig(), 9))) == want and want


def test_eval_constants_and_accept_all():
    sig = binary_tree_signature()
    allacc = accept_all_automaton()
    for t in enumerate_trees(sig, 7):
        assert eval_dta(allacc, t) == ("q0", True)


def test_eval_parity_chain_hand_checked():
    # chain root u u u e: e gives q1, three flips end at q0, root keeps it
    chain = [t for t in enumerate_trees(unary_sig(), 5) if t.node_count == 5][0]
    assert eval_dta(unary_parity(), chain) == ("q0", True)
    chain4 = [t for t in enumerate_trees(unary_sig(), 4) if t.node_count == 4][0]
    assert eval_dta(unary_parity(), chain4) == ("q1", False)


def test_leaf_parity_counts_leaves():
    sig = binary_tree_signature()
    par = leaf_parity_automaton()
    for t in enumerate_trees(sig, 7):
        leaves = sum(1 for _, lab in t.nodes if lab.startswith("l"))
        assert eval_dta(par, t)[1] == (leaves % 2 == 0)


def cyclic_tree_graph():
    """A root whose first child has both child edges looping back to itself."""
    b = GraphBuilder(binary_tree_signature())
    for v, lab in (("r", "root"), ("u", "n1"), ("x", "l2")):
        b.node(v, lab)
    for v, d, u in (("r", "+1", "u"), ("r", "+2", "x"), ("u", "+1", "u"), ("u", "+2", "u")):
        b.edge(v, d, u)
    return b.build("r")


def test_eval_refuses_a_node_reached_twice():
    with pytest.raises(StructureError, match="'u' is reached twice"):
        eval_states(leaf_parity_automaton(), cyclic_tree_graph())


def test_validate_tree_automaton_requires_total_delta():
    sig = unary_sig()
    partial = BottomUpTreeAutomaton(
        sig, ["q0"], "q0", {("e", ()): "q0", ("u", ("q0",)): "q0"}
    )
    rep = validate_tree_automaton(partial)
    assert any(p.code == "missing-transition" for p in rep.problems)


@pytest.mark.parametrize("states, accepting, extra, code", [
    (["q0", "q1", "q0"], "q0", {}, "duplicate-state"),
    (["q0", "q1"], "q9", {}, "unknown-accepting-state"),
    (["q0", "q1"], "q0", {("e", ("q0",)): "q0"}, "unknown-transition"),
    (["q0", "q1"], "q0", {("e", ()): "q9"}, "unknown-state"),
])
def test_validate_tree_automaton_structural_findings(states, accepting, extra, code):
    a = unary_parity()
    bad = BottomUpTreeAutomaton(a.sig, states, accepting, {**a.delta, **extra})
    assert [(p.kind, p.code) for p in validate_tree_automaton(bad).problems] == [
        ("structural", code)]


def test_empty_language_refused():
    sig = unary_sig()
    never = BottomUpTreeAutomaton(
        sig,
        ["q0", "q1"],
        "q1",
        {
            ("e", ()): "q0",
            ("u", ("q0",)): "q0",
            ("u", ("q1",)): "q0",
            ("root", ("q0",)): "q0",
            ("root", ("q1",)): "q0",
        },
    )
    assert not language_nonempty(never)
    with pytest.raises(GwalkError):
        build_characterization(never)


def test_bundle_signatures_and_fishbone_sizes():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    k, n = 2, 2
    # fishbone of length l in direction i contributes l*k nodes
    pat = bundle.pad.pattern("n1")
    assert pat.node_count == 1 + n * k
    # annotated labels: 4 per inner label, 2 accepting root vectors, 1 per leaf
    assert len(bundle.s_comp.labels) == 4 + 4 + 2 + 1 + 1
    for t in enumerate_trees(bundle.s_reg, 7):
        image = apply(bundle.pad, t)
        assert image.node_count == t.node_count + (t.node_count - 1) * n * k
        assert is_tree(image)


def test_annotate_round_trips_through_strip():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    for t in enumerate_trees(bundle.s_reg, 7):
        if not eval_dta(a, t)[1]:
            with pytest.raises(GwalkError):
                annotate(bundle, t)
            continue
        ann = annotate(bundle, t)
        assert isomorphic(oracle.strip_annotations(bundle, ann), t)


def test_encoded_annotation_equals_padded_tree():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    for t in enumerate_trees(bundle.s_reg, 7):
        if eval_dta(a, t)[1]:
            ann = annotate(bundle, t)
            assert isomorphic(apply(bundle.encode, ann), apply(bundle.pad, t))


def test_both_homomorphism_images_are_trees():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    for t in enumerate_trees(bundle.s_reg, 5):
        assert is_tree(apply(bundle.pad, t))
    for tc in enumerate_trees(bundle.s_comp, 5):
        assert is_tree(apply(bundle.encode, tc))


def test_decode_encoding_round_trip():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    for tc in enumerate_trees(bundle.s_comp, 5):
        image = apply(bundle.encode, tc)
        back = decode_encoding(bundle, image)
        assert back is not None
        assert isomorphic(back, tc)


def test_decode_padding_round_trip_and_wrong_lengths():
    a = unary_parity()
    bundle = build_characterization(a)
    for t in enumerate_trees(bundle.s_reg, 6):
        image = apply(bundle.pad, t)
        back = decode_padding(bundle, image)
        assert back is not None and isomorphic(back, t)
    # a fishbone one node short has no preimage under padding
    t = list(enumerate_trees(bundle.s_reg, 3))[1]
    image = apply(bundle.pad, t)
    skel = parse_fishbones(bundle, image)
    assert skel is not None and all(l == bundle.n for l, _ in skel.links.values())
    shortened = _shorten_one_fishbone(bundle, image)
    assert decode_padding(bundle, shortened) is None


def _shorten_one_fishbone(bundle, image):
    """Drop one spine node (with its leaves) from some fishbone."""
    sig = bundle.s_mid
    spine = next(v for v, lab in image.nodes if lab.startswith("e_"))
    up_dir = next(d for d in sig.dirs_of(oracle.label_of(image, spine)) if d.startswith("-"))
    down_dir = up_dir.replace("-", "+")
    above = image.edges[(spine, up_dir)]
    below = image.edges[(spine, down_dir)]
    drop = {spine}
    for d in sig.dirs_of(oracle.label_of(image, spine)):
        if d not in (up_dir, down_dir):
            drop.add(image.edges[(spine, d)])
    nodes = [(v, lab) for v, lab in image.nodes if v not in drop]
    edges = {
        (v, d): u
        for (v, d), u in image.edges.items()
        if v not in drop and u not in drop
    }
    edges[(above, down_dir)] = below
    edges[(below, up_dir)] = above
    return Graph(sig, nodes, image.initial, edges)


def test_a_fishbone_ending_in_a_leaf_is_not_read():
    """A valid middle tree whose spine's +1 child is an end_1 leaf, not a
    real node, has no skeleton."""
    bundle = build_characterization(unary_parity())
    b = GraphBuilder(bundle.s_mid)
    b.edge(b.node("r", "root"), "+1", b.node("s", "e_1"))
    b.edge("s", "+1", b.node("x", "end_1"))
    t_mid = b.build("r")
    assert validate_graph(t_mid).ok and parse_fishbones(bundle, t_mid) is None


def test_decode_of_padded_rejected_tree_is_absent():
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    rejected = [t for t in enumerate_trees(bundle.s_reg, 7) if not eval_dta(a, t)[1]]
    assert rejected
    for t in rejected:
        assert decode_encoding(bundle, apply(bundle.pad, t)) is None


def test_decode_padding_of_encoded_tree_iff_valid_annotation():
    a = unary_parity()
    bundle = build_characterization(a)
    seen_valid = seen_invalid = False
    for tc in enumerate_trees(bundle.s_comp, 6):
        image = apply(bundle.encode, tc)
        dec = decode_padding(bundle, image)
        t = oracle.strip_annotations(bundle, tc)
        consistent = eval_dta(a, t)[1] and isomorphic(annotate(bundle, t), tc)
        assert (dec is not None) == consistent
        seen_valid = seen_valid or consistent
        seen_invalid = seen_invalid or not consistent
    assert seen_valid and seen_invalid


def test_fishbone_lengths_follow_state_arithmetic():
    """Measured spine lengths in encoded images equal
    n - index(child vector entry) + index(delta at the child)."""
    for a in (leaf_parity_automaton(), accept_all_automaton()):
        bundle = build_characterization(a)
        for tc in enumerate_trees(bundle.s_comp, 7):
            image = apply(bundle.encode, tc)
            skel = parse_fishbones(bundle, image)
            assert skel is not None
            # map skeleton nodes back to annotated labels via decode
            back = decode_encoding(bundle, image)
            if back is None:
                continue
            labels = dict(back.nodes)
            for (v, i), (length, child) in skel.links.items():
                _, vec = bundle.annotated[labels[v]]
                cbase, cvec = bundle.annotated[labels[child]]
                out = bundle.state_index[a.delta[(cbase, cvec)]]
                qi = bundle.state_index[vec[i - 1]]
                assert length == bundle.n - qi + out


def test_verify_characterization_accept_all():
    rep = verify_characterization(accept_all_automaton(), 5)
    assert rep.ok
    assert rep.reg_trees_checked > 0 and rep.comp_trees_checked > 0


def test_verify_characterization_parity():
    rep = verify_characterization(leaf_parity_automaton(), 7)
    assert rep.ok
    assert rep.reg_trees_checked == 8


def test_an_annotation_unlike_the_original_is_reported(monkeypatch):
    """A fault planted in ``annotate``, which gives the root the other
    accepted root annotation, is worded for every consistent annotated
    tree, the only ones that decode, and nowhere else."""
    real = gwalk.trees.annotate

    def misannotate(bundle, t):
        ann = real(bundle, t)
        label = ann.labels[ann.at(ann.initial)[3]]
        other = next(lab for lab in bundle.s_comp.initial_labels if lab != label)
        return ann.relabelled({ann.initial: other}, ann.initial)

    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    consistent = [i for i, tc in enumerate(enumerate_trees(bundle.s_comp, 7))
                  if oracle._annotation_consistent(bundle, tc)]
    monkeypatch.setattr(gwalk.trees, "annotate", misannotate)
    rep = verify_characterization(a, 7)
    assert len(consistent) == 6 and rep.counterexamples == [
        f"annotated tree {i}: annotate(decode) differs from the original" for i in consistent]


def test_annotate_compares_no_signature_in_depth(monkeypatch):
    """``annotate`` views a tree over the annotated signature, whose label
    names differ from the tree's, so it makes no deep comparison of the two."""
    a = leaf_parity_automaton()
    bundle = build_characterization(a)
    accepted = [t for t in enumerate_trees(bundle.s_reg, 7) if eval_dta(a, t)[1]]
    real, calls = Signature.__eq__, []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Signature, "__eq__", counted)
    assert all(annotate(bundle, t).sig is bundle.s_comp for t in accepted)
    assert accepted and calls == []
    assert bundle.s_reg == binary_tree_signature() and calls  # the count sees a comparison


@pytest.mark.parametrize("automaton, side, count, digest", [
    (accept_all_automaton, "s_reg", 22,
     "fcb9ff8900e6fc35baebb9582bec385dcda436fecee1fc82acdc28ce597f8c3c"),
    (accept_all_automaton, "s_comp", 22,
     "31746259eb2b4d281125240bf3e0637136ac6848cc5c7f6701b6a60f5dc36b8f"),
    (leaf_parity_automaton, "s_reg", 22,
     "fcb9ff8900e6fc35baebb9582bec385dcda436fecee1fc82acdc28ce597f8c3c"),
    (leaf_parity_automaton, "s_comp", 1970,
     "366751fb49ec546457d34782195f9fbba3790b26db065c973488ca5a01a8f671"),
])
def test_enumeration_order_is_pinned(automaton, side, count, digest):
    sig = getattr(build_characterization(automaton()), side)
    codes = [canonical_encode(t) for t in enumerate_trees(sig, 9)]
    assert len(codes) == count
    assert hashlib.sha256(b"\n".join(codes)).hexdigest() == digest


@pytest.mark.parametrize("automaton", [accept_all_automaton, leaf_parity_automaton])
def test_images_are_valid_and_lazy_decode_matches_materialized(automaton):
    """The fact the verification loop relies on: images of valid trees under
    the bundle's validated homomorphisms are valid, and decoding them lazily
    gives what decoding the materialized image gives.  The lazy read is the
    verification loop's: through an ImageView, no image built or validated."""
    bundle = build_characterization(automaton())
    for h, sig in ((bundle.pad, bundle.s_reg), (bundle.encode, bundle.s_comp)):
        decoded = 0
        for t in enumerate_trees(sig, 9):
            image = apply(h, t)
            assert validate_graph(image).ok
            view = ImageView(h, t)
            lazy = gwalk.trees._read_fishbones(bundle, view, view.at(view.initial))
            eager = parse_fishbones(bundle, image)
            assert lazy is not None and eager is not None
            assert list(lazy.labels.values()) == list(eager.labels.values())
            assert [n for n, _ in lazy.links.values()] == [n for n, _ in eager.links.values()]
            back = gwalk.trees._padding_preimage(bundle, lazy)
            ref = decode_padding(bundle, image)
            assert (back is None) == (ref is None)
            if ref is not None:
                assert canonical_encode(back) == canonical_encode(ref)
                decoded += 1
        assert decoded > 0


def _lengthen_child_fishbone(bundle, h, label):
    """The pattern of ``label`` rebuilt with its first child fishbone one
    spine node longer."""
    if h is bundle.encode:
        base, vec = bundle.annotated[label]
        out = bundle.state_index[bundle.automaton.delta[(base, vec)]]
        lengths = [bundle.n - bundle.state_index[q] for q in vec]
    else:
        base, out, lengths = label, bundle.n, [0] * len(bundle.automaton.child_dirs[label])
    lengths[0] += 1
    pdir = gwalk.trees.parent_direction(bundle.s_reg, base)
    k = gwalk.trees.tree_arity(bundle.s_mid)
    return gwalk.trees._center_pattern(bundle.s_mid, base, pdir, k, out, lengths)


def _relabel_end_leaf(bundle, h, label):
    """The pattern of ``label`` with one end_2 leaf labelled end_1."""
    p = h.patterns[label]
    leaf = next(v for v, lab in p.nodes if lab == "end_2")
    nodes = [(v, "end_1" if v == leaf else lab) for v, lab in p.nodes]
    return Graph(p.sig, nodes, None, p.edges, p.ports)


def _relabel_center(bundle, h, label):
    """The pattern of ``label`` with its central node labelled n2."""
    p = h.patterns[label]
    nodes = [(v, "n2" if v == "c" else lab) for v, lab in p.nodes]
    return Graph(p.sig, nodes, None, p.edges, p.ports)


BROKEN_ENCODINGS = [
    ("root[q0,q0]", _lengthen_child_fishbone),
    ("n1[q0,q1]", _relabel_end_leaf),
    ("n1[q0,q1]", _relabel_center),
]


def _swapped(bundle, **change):
    """A new bundle with the fields in ``change`` swapped in: its decoder
    tables are derived again from the new fields."""
    fields = {name: getattr(bundle, name) for name in CharacterizationBundle._fields}
    return CharacterizationBundle(**{**fields, **change})


@pytest.mark.parametrize("side, label, mutate", [
    *(("encode", label, mutate) for label, mutate in BROKEN_ENCODINGS),
    ("pad", "root", _lengthen_child_fishbone),
    ("pad", "n1", _relabel_end_leaf),
])
def test_broken_pattern_yields_counterexamples(monkeypatch, side, label, mutate):
    """One broken pad or encode pattern, past the bundle's own validation:
    the verification must still report counterexamples, for a broken
    encoding in the annotated loop, which decodes its images lazily."""
    build = gwalk.trees.build_characterization

    def broken(a):
        bundle = build(a)
        h = getattr(bundle, side)
        patterns = {**h.patterns, label: mutate(bundle, h, label)}
        return _swapped(bundle, **{side: Homomorphism(h.source, h.target, patterns)})

    monkeypatch.setattr(gwalk.trees, "build_characterization", broken)
    rep = verify_characterization(leaf_parity_automaton(), 7)
    prefix = "annotated tree " if side == "encode" else "tree "
    assert any(c.startswith(prefix) for c in rep.counterexamples)


def test_loops_build_and_validate_no_image(monkeypatch):
    """In both loops, every image is read through a view: no graph over the
    middle signature is built (so no hom.apply) or validated.  The decoded
    trees are still validated on both sides."""
    calls = {"setup": [], "reg": [], "comp": []}
    phase = ["setup"]
    bundle = build_characterization(leaf_parity_automaton())
    space_real = gwalk.trees._shape_space
    init_real, validate_real = Graph.__init__, gwalk.trees.validate_graph

    def space_spy(sig, max_nodes, fold):
        phase[0] = "comp" if sig == bundle.s_comp else "reg"
        return space_real(sig, max_nodes, fold)

    def init_spy(g, sig, *args, **kwargs):
        calls[phase[0]].append(("build", sig))
        init_real(g, sig, *args, **kwargs)

    def validate_spy(g, sig=None):
        calls[phase[0]].append(("validate", g.sig))
        return validate_real(g, sig)

    monkeypatch.setattr(gwalk.trees, "_shape_space", space_spy)
    monkeypatch.setattr(Graph, "__init__", init_spy)
    monkeypatch.setattr(gwalk.trees, "validate_graph", validate_spy)
    rep = verify_characterization(leaf_parity_automaton(), 7)
    assert rep.ok and rep.reg_trees_checked == 8 and rep.comp_trees_checked == 178
    for side, decoded in (("reg", bundle.s_comp), ("comp", bundle.s_reg)):
        assert ("build", bundle.s_mid) not in calls[side]
        assert ("validate", bundle.s_mid) not in calls[side]
        assert ("validate", decoded) in calls[side]


def test_decode_encoding_matches_the_materializing_oracle():
    """decode_encoding, which reads the re-encoded image lazily, and the
    oracle, which builds it, return isomorphic trees or both None.  Inputs:
    the encode and pad images of both demo automata, rejected trees
    included; those images with a fishbone shortened; and, for each broken
    encode pattern, its images, decoded against the true bundle, and every
    image, decoded against the broken one."""
    pairs = []
    for automaton in (accept_all_automaton, leaf_parity_automaton):
        bundle = build_characterization(automaton())
        annotated = list(enumerate_trees(bundle.s_comp, 7))
        images = [apply(bundle.encode, tc) for tc in annotated]
        images += [apply(bundle.pad, t) for t in enumerate_trees(bundle.s_reg, 9)]
        images += [_shorten_one_fishbone(bundle, image) for image in images]
        pairs += [(bundle, image) for image in images]
        if automaton is leaf_parity_automaton:
            for label, mutate in BROKEN_ENCODINGS:
                h = bundle.encode
                broken = Homomorphism(h.source, h.target,
                                      {**h.patterns, label: mutate(bundle, h, label)})
                bad = _swapped(bundle, encode=broken)
                broken_images = [apply(broken, tc) for tc in annotated]
                pairs += [(bundle, image) for image in broken_images]
                pairs += [(bad, image) for image in images + broken_images]
    decoded = 0
    for bundle, image in pairs:
        lazy, eager = decode_encoding(bundle, image), oracle.decode_encoding(bundle, image)
        assert (lazy is None) == (eager is None)
        if lazy is not None:
            assert isomorphic(lazy, eager)
            decoded += 1
    assert 0 < decoded < len(pairs)


def ternary_mod3():
    """Three states over a ternary signature with a rank-0 initial label:
    ``top`` sums its children's states mod 3 and ``dot`` has none; ``pair1``
    and ``pair3`` are binary inner labels at child positions 1 and 3."""
    labels = [("top", True, {"+1", "+2", "+3"}), ("dot", True, set())]
    labels += [(f"leaf{i}", False, {f"-{i}"}) for i in (1, 2, 3)]
    labels += [(f"pair{i}", False, {f"-{i}", "+1", "+2"}) for i in (1, 3)]
    sig = Signature.from_pairs([(f"+{i}", f"-{i}") for i in (1, 2, 3)], labels)
    q = ["q0", "q1", "q2"]
    delta = {("dot", ()): "q0", **{(f"leaf{i}", ()): q[i - 1] for i in (1, 2, 3)}}
    for x, y in product(range(3), repeat=2):
        for i in (1, 3):
            delta[(f"pair{i}", (q[x], q[y]))] = q[(x * y + i) % 3]
    for vec in product(range(3), repeat=3):
        delta[("top", tuple(q[x] for x in vec))] = q[sum(vec) % 3]
    return BottomUpTreeAutomaton(sig, q, "q0", delta)


def _loop_spine(bundle, h, label):
    """The pattern of ``label`` with the +1 slot of the first spine node of
    its first child fishbone pointing at that node itself."""
    p = h.patterns[label]
    return Graph(p.sig, p.nodes, None, {**p.edges, ("c1s0", "+1"): "c1s0"}, p.ports)


def _break(monkeypatch, side, label, mutate):
    """Make build_characterization return bundles with one broken pattern."""
    build = gwalk.trees.build_characterization

    def broken(a):
        bundle = build(a)
        h = getattr(bundle, side)
        patterns = {**h.patterns, label: mutate(bundle, h, label)}
        return _swapped(bundle, **{side: Homomorphism(h.source, h.target, patterns)})

    monkeypatch.setattr(gwalk.trees, "build_characterization", broken)


def _timeout(signum, frame):
    raise TimeoutError("verify_characterization did not end")


def test_cyclic_spine_ends_with_the_per_tree_verdict(monkeypatch):
    """A spine that cycles inside the root's copy never reaches a real node:
    the read gives up on its budget, and both loops report what reading each
    tree's whole image reports."""
    _break(monkeypatch, "encode", "root[q0,q0]", _loop_spine)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(20)
    try:
        rep = verify_characterization(leaf_parity_automaton(), 7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rep.counterexamples == ["tree 5: accepted=True but membership=False",
                                   "annotated tree 65: decoded=False but valid=True"]


def _same_report(a, max_nodes):
    rep, ref = verify_characterization(a, max_nodes), oracle.verify_characterization(a, max_nodes)
    assert (rep.reg_trees_checked, rep.comp_trees_checked, rep.counterexamples) == (
        ref.reg_trees_checked, ref.comp_trees_checked, ref.counterexamples)
    return rep


@pytest.mark.parametrize("automaton, budgets", [
    (accept_all_automaton, range(1, 10)),
    (leaf_parity_automaton, [*range(1, 8), 11]),
    (ternary_mod3, [*range(1, 8), 9]),
])
def test_shape_loop_matches_the_per_tree_oracle(automaton, budgets):
    """Reading each distinct subtree once gives the reports of building
    every tree and reading its whole image."""
    for max_nodes in budgets:
        _same_report(automaton(), max_nodes)


# Every planted broken pattern of the leaf-parity bundle, as (side, label, mutate).
PLANTED = [
    *(("encode", label, mutate) for label, mutate in BROKEN_ENCODINGS),
    ("encode", "root[q0,q0]", _loop_spine),
    ("pad", "root", _lengthen_child_fishbone),
    ("pad", "n1", _relabel_end_leaf),
]


@pytest.mark.parametrize("side, label, mutate", PLANTED)
def test_shape_loop_matches_the_per_tree_oracle_on_broken_patterns(
        monkeypatch, side, label, mutate):
    _break(monkeypatch, side, label, mutate)
    _same_report(leaf_parity_automaton(), 7)


def test_fishbone_reads_match_the_by_name_oracle():
    """On every image of a tree of up to 7 nodes, materialized by the
    oracle: ``parse_fishbones`` reads what the oracle's by-name reader reads
    of a valid image, and None of an invalid one; the lazy read of the same
    tree's image through a view reads what the oracle reads.  Images: both
    sides of both demo automata and of ``ternary_mod3``, and leaf parity
    with each planted broken pattern in place of its own."""
    cases = []
    for automaton in (accept_all_automaton, ternary_mod3, leaf_parity_automaton):
        bundle = build_characterization(automaton())
        cases += [(bundle, bundle.pad), (bundle, bundle.encode)]
    for side, label, mutate in PLANTED:
        h = getattr(bundle, side)  # leaf parity's
        cases.append((bundle, Homomorphism(h.source, h.target,
                                           {**h.patterns, label: mutate(bundle, h, label)})))
    def reading(skel):
        return skel and skel.reading()

    outcomes = {True: 0, False: 0}
    for bundle, h in cases:
        for t in enumerate_trees(h.source, 7):
            image = oracle.apply_detailed(h, t)[0]
            ref = reading(oracle.read_fishbones(bundle, image))
            valid = validate_graph(image).ok
            assert reading(parse_fishbones(bundle, image)) == (ref if valid else None)
            assert reading(gwalk.trees._read_image(bundle, h, t)) == ref
            outcomes[ref is not None] += 1
    assert min(outcomes.values()) > 0


def _proper_subtrees(t):
    """Shapes of the subtrees rooted below the root of the tree graph ``t``."""
    did, width = t.sig.dir_index, len(t.sig.directions)

    def shape(w):
        kids = [t.nxt[w * width + did[f"+{i}"]]
                for i in range(1, label_rank(t.sig, t.labels[w]) + 1)]
        return t.labels[w], tuple(map(shape, kids))

    root = t.at(t.initial)[3]
    return {shape(w) for w in range(t.node_count) if w != root}


@pytest.mark.parametrize("automaton, distinct", [
    (accept_all_automaton, 18),
    (leaf_parity_automaton, 714),
])
def test_annotated_subtrees_read_counts_distinct_proper_subtrees(automaton, distinct):
    bundle = build_characterization(automaton())
    seen = set().union(*map(_proper_subtrees, enumerate_trees(bundle.s_comp, 9)))
    assert len(seen) == distinct
    assert verify_characterization(automaton(), 9).annotated_subtrees_read == distinct


def random_tree_automaton(sig, num_states, rng):
    """A bottom-up automaton over ``sig`` whose transitions and accepting
    state are drawn with ``rng``."""
    states = [f"q{i}" for i in range(num_states)]
    delta = {(lab.name, vec): rng.choice(states) for lab in sig.labels
             for vec in product(states, repeat=label_rank(sig, lab.name))}
    return BottomUpTreeAutomaton(sig, states, rng.choice(states), delta)


def _rootless(a):
    """``a`` with every transition of an initial label sent to a state other
    than the accepting one, so that it accepts no tree."""
    other = next(q for q in a.states if q != a.accepting)
    delta = {key: other if a.sig.label(key[0]).initial else q for key, q in a.delta.items()}
    return BottomUpTreeAutomaton(a.sig, a.states, a.accepting, delta)


@pytest.mark.parametrize("sig", [binary_tree_signature, lambda: ternary_mod3().sig],
                         ids=["binary", "ternary"])
def test_shape_loop_matches_the_per_tree_oracle_on_random_automata(sig):
    """Seeded random automata of 1-3 states, and their rootless copies: the
    shape loop gives the per-tree oracle's reports at 5 and 7 nodes, and
    both refuse an empty language."""
    rng, compared, refused = Random(2306), 0, 0
    for num_states in (1, 2, 3):
        for _ in range(4):
            a = random_tree_automaton(sig(), num_states, rng)
            for b in [a, _rootless(a)] if num_states > 1 else [a]:
                if language_nonempty(b):
                    compared += 1
                    for max_nodes in (5, 7):
                        assert _same_report(b, max_nodes).ok
                    continue
                refused += 1
                for check in (verify_characterization, oracle.verify_characterization):
                    with pytest.raises(GwalkError, match="accepts no tree"):
                        check(b, 5)
    assert compared >= 8 and refused >= 8


@pytest.mark.parametrize("automaton", [accept_all_automaton, leaf_parity_automaton, ternary_mod3])
def test_skeletons_from_the_memo_read_as_whole_images(monkeypatch, automaton):
    """A tree whose verdict says it decodes gets its skeleton from the memo's
    entries.  That skeleton reads (labels and spine lengths in order) as the
    whole image of the tree built as a graph does, which is what the encoding
    decoder compares.  At 9 nodes the trees that get one are exactly the
    accepted trees and the consistent annotated trees."""
    space_real, skeleton_real = gwalk.trees._shape_space, gwalk.trees._skeleton
    current, made = [], {}

    def space_spy(sig, max_nodes, fold):
        space, values = space_real(sig, max_nodes, fold)
        current[:] = [sig == bundle.s_reg, space]
        return space, values

    def skeleton_spy(rec, name=None):  # made while node 0 points at the tree
        skel = skeleton_real(rec, name)
        if name is None:
            t = gwalk.trees._tree_graph(current[1])
            made[(current[0], canonical_encode(t))] = t, skel
        return skel

    a = automaton()
    bundle = build_characterization(a)
    monkeypatch.setattr(gwalk.trees, "_shape_space", space_spy)
    monkeypatch.setattr(gwalk.trees, "_skeleton", skeleton_spy)
    assert verify_characterization(a, 9).ok
    for (regular, _), (t, skel) in made.items():
        h = bundle.pad if regular else bundle.encode
        assert skel.reading() == gwalk.trees._read_image(bundle, h, t).reading()
    for regular, sig in ((True, bundle.s_reg), (False, bundle.s_comp)):
        for t in enumerate_trees(sig, 9):
            decodes = eval_dta(a, t)[1] if regular else oracle._annotation_consistent(bundle, t)
            assert decodes == ((regular, canonical_encode(t)) in made)
    assert made
