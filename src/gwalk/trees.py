"""Ranked trees as graphs, bottom-up tree automata, and the two-homomorphism
characterization of their languages.

A tree signature has directions +1/-1 .. +k/-k; the initial label marks the
root, +i leads to the i-th child, and every non-initial label carries exactly
one parent direction.  A bottom-up automaton assigns states leaves-to-root
and accepts when the root receives the accepting state.

For an automaton with n states over a tree signature S_reg, the bundle built
here provides a middle signature S_mid (S_reg plus fishbone labels), an
annotated signature S_comp (labels paired with child-state vectors), and two
injective homomorphisms into S_mid:

* the padding homomorphism replaces every parent edge with a fishbone of
  length exactly n and keeps labels;
* the encoding homomorphism erases annotations and turns them into fishbone
  lengths: the fishbone between a parent and its i-th child has length
  n - index(q_i) + index(delta(child)), which equals n exactly when the
  annotation is consistent at that edge.

A tree is accepted exactly when its padded image is the encoding of some
annotated tree, which the decoders test constructively: each inverts its
homomorphism uniquely, bottom-up, reading images of trees as views.

A documented consequence, not testable at any finite scale: annotated trees
form the full tree set of their signature, which a single-state walking
automaton recognizes trivially, so the characterization presents every
regular tree language as an inverse homomorphic image of an injective
homomorphic image of a trivially recognizable set.  Since walking automata
are closed under inverse homomorphisms but some regular tree language
escapes them, their tree languages cannot be closed under injective
homomorphisms.  This package demonstrates the characterization itself; the
non-closure is recorded here as the logical consequence it is.
"""

from __future__ import annotations

from functools import cache
from itertools import count, product
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .core import (
    MISSING,
    Graph,
    GraphBuilder,
    GwalkError,
    NodeLabel,
    Record,
    Signature,
    StructureError,
    ValidationReport,
    breadth_first,
    isomorphic,
    validate_graph,
    validate_signature,
)
from .hom import Homomorphism, ImageView, validate_homomorphism

__all__ = [
    "validate_tree_signature",
    "tree_arity",
    "label_rank",
    "parent_direction",
    "is_tree",
    "enumerate_trees",
    "BottomUpTreeAutomaton",
    "validate_tree_automaton",
    "eval_states",
    "eval_dta",
    "language_nonempty",
    "CharacterizationBundle",
    "build_characterization",
    "annotate",
    "FishboneSkeleton",
    "parse_fishbones",
    "decode_padding",
    "decode_encoding",
    "CharacterizationReport",
    "verify_characterization",
]


def _dir_num(name: str) -> int | None:
    try:
        return int(name)
    except ValueError:
        return None


def tree_arity(sig: Signature) -> int:
    """Largest child index k of a tree signature with directions +-1..+-k."""
    nums = [_dir_num(d) for d in sig.dir_names]
    if any(x is None for x in nums):
        raise StructureError("tree signatures use directions named +i and -i")
    return max(abs(x) for x in nums if x is not None)


def label_rank(sig: Signature, label: str) -> int:
    return sum(1 for d in sig.label(label).dirs if (_dir_num(d) or 0) > 0)


def parent_direction(sig: Signature, label: str) -> int | None:
    """Index i such that -i leads to the parent; None for initial labels."""
    parents = [-(_dir_num(d) or 0) for d in sig.label(label).dirs if (_dir_num(d) or 0) < 0]
    if not parents:
        return None
    if len(parents) > 1:
        raise StructureError(f"label {label!r} has several parent directions")
    return parents[0]


def validate_tree_signature(sig: Signature) -> ValidationReport:
    """The structural findings of :func:`validate_signature`, then shape
    checks: directions exactly +-1..+-k with +i opposite -i, initial labels
    with directions +1..+rank, every other label with one parent direction
    and a contiguous child range."""
    rep = ValidationReport(validate_signature(sig).structural)
    nums: dict[str, int] = {}
    for d in sig.dir_names:
        v = _dir_num(d)
        if v is None or v == 0:
            rep.add("invariant", "bad-direction-name", d, "directions must be named +i or -i")
            continue
        nums[d] = v
    if rep.problems:
        return rep
    k = max(abs(v) for v in nums.values()) if nums else 0
    expected = {i for i in range(1, k + 1)} | {-i for i in range(1, k + 1)}
    if set(nums.values()) != expected or len(nums) != 2 * k or k < 1:
        rep.add("invariant", "direction-range", "<signature>",
                f"directions must be exactly +-1..+-{k or 1}")
        return rep
    for d, v in sorted(nums.items()):
        if _dir_num(sig.opposite(d)) != -v:
            rep.add("invariant", "opposite-shape", d, "opposite of +i must be -i")
    for lab in sig.labels:
        ups = sorted(-nums[d] for d in lab.dirs if nums[d] < 0)
        downs = sorted(nums[d] for d in lab.dirs if nums[d] > 0)
        if downs != list(range(1, len(downs) + 1)):
            rep.add("invariant", "child-range", lab.name,
                    f"child directions {downs} are not +1..+rank")
        if lab.initial and ups:
            rep.add("invariant", "root-with-parent", lab.name,
                    "initial labels must not have a parent direction")
        if not lab.initial and len(ups) != 1:
            rep.add("invariant", "parent-count", lab.name,
                    f"non-initial labels need exactly one parent direction, got {ups}")
    return rep


def is_tree(g: Graph) -> bool:
    """A valid graph over a tree signature; one parent per non-root node then
    makes the graph a tree automatically.  The child-edge sweep from the root
    is still checked directly."""
    if not validate_tree_signature(g.sig).ok or not validate_graph(g).ok:
        return False
    did, width = g.sig.dir_index, len(g.sig.directions)
    kids = [[did[f"+{i}"] for i in range(1, label_rank(g.sig, a) + 1)] for a in g.sig.label_names]
    reached = breadth_first(g.at(g.initial)[3],
                            lambda w: [g.nxt[w * width + e] for e in kids[g.lab[w]]])
    return len(reached) == g.node_count


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_trees(sig: Signature, max_nodes: int) -> Iterator[Graph]:
    """All trees over a tree signature with at most ``max_nodes`` nodes, once
    per isomorphism class, in a fixed order, each built from its row of the
    shape space (see :func:`_shape_space`) when consumed.

    Ordered trees with position-determined labels have no nontrivial
    automorphisms, so structural recursion yields one tree per class, and
    a tree is equal to another exactly when its label and children are: a
    subtree or a tree made twice is refused, as a cross-check.
    """
    space, trees = _shape_space(sig, max_nodes, lambda label, below: None)
    return (_tree_graph(space) for _ in trees)


class BottomUpTreeAutomaton:
    """Deterministic bottom-up evaluator: one total function per label from
    child-state vectors to states; rank-0 labels map the empty vector.

    ``child_dirs`` gives the child directions +1..+rank of every label of
    the signature, derived once on construction."""

    __slots__ = ("sig", "states", "accepting", "delta", "child_dirs")

    def __init__(
        self,
        sig: Signature,
        states: Iterable[str],
        accepting: str,
        delta: Mapping[tuple[str, tuple[str, ...]], str],
    ) -> None:
        self.sig = sig
        self.states: tuple[str, ...] = tuple(states)
        self.accepting = accepting
        self.delta: dict[tuple[str, tuple[str, ...]], str] = {
            (lab, tuple(vec)): q for (lab, vec), q in delta.items()
        }
        self.child_dirs: dict[str, tuple[str, ...]] = {
            lab.name: tuple(f"+{i}" for i in range(1, label_rank(sig, lab.name) + 1))
            for lab in sig.labels
        }

    @property
    def state_count(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"BottomUpTreeAutomaton({len(self.states)} states)"


def validate_tree_automaton(a: BottomUpTreeAutomaton) -> ValidationReport:
    rep = validate_tree_signature(a.sig)
    if not rep.ok:
        return rep
    states = set(a.states)
    if len(states) != len(a.states):
        rep.add("structural", "duplicate-state", "<automaton>", "state declared twice")
    if a.accepting not in states:
        rep.add("structural", "unknown-accepting-state", a.accepting, "not a declared state")
    expected = {(lab.name, vec) for lab in a.sig.labels
                for vec in product(a.states, repeat=len(a.child_dirs[lab.name]))}
    for key in sorted(expected - set(a.delta)):
        rep.add("invariant", "missing-transition", f"{key[0]}{list(key[1])}",
                "delta must be total on state vectors")
    for key in sorted(set(a.delta) - expected):
        rep.add("structural", "unknown-transition", f"{key[0]}{list(key[1])}",
                "transition for an undeclared label or vector")
    for key, q in sorted(a.delta.items()):
        if q not in states:
            rep.add("structural", "unknown-state", f"{key[0]}{list(key[1])}",
                    f"result state {q!r} not declared")
    return rep


def eval_states(a: BottomUpTreeAutomaton, t: Graph) -> dict[str, str]:
    """State computed in every node, leaves first; StructureError on a node reached twice."""
    names, nxt, did, width = t.names, t.nxt, t.sig.dir_index, len(t.sig.directions)
    order: dict[int, tuple] = {}
    stack = [t.at(t.initial)[3]]
    while stack:
        w = stack.pop()
        if w in order:
            raise StructureError(f"node {names[w]!r} is reached twice along child edges")
        lab = t.labels[w]
        kids = tuple(nxt[w * width + did[d]] if d in did else MISSING
                     for d in a.child_dirs.get(lab, ()))
        if min(kids, default=0) < 0:
            lost = [x < 0 for x in kids].index(True) + 1
            raise StructureError(f"node {names[w]!r} lacks child {lost}")
        order[w] = (lab, kids)
        stack.extend(kids)
    states: dict[int, str] = {}
    for w, (lab, kids) in reversed(order.items()):
        vec = tuple(map(states.__getitem__, kids))
        try:
            states[w] = a.delta[(lab, vec)]
        except KeyError:
            raise StructureError(f"no transition for {lab!r} on {vec}") from None
    return {names[w]: q for w, q in states.items()}


def eval_dta(a: BottomUpTreeAutomaton, t: Graph) -> tuple[str, bool]:
    """Root state and acceptance of a tree under the automaton."""
    root_state = eval_states(a, t)[t.initial]
    return root_state, root_state == a.accepting


def language_nonempty(a: BottomUpTreeAutomaton) -> bool:
    """Least-fixpoint reachability over non-initial labels, then the root
    test with an initial label on top."""

    def results(initial: bool, reachable: set[str]) -> set[str]:
        return {a.delta[(lab.name, vec)] for lab in a.sig.labels if lab.initial == initial
                for vec in product(reachable, repeat=len(a.child_dirs[lab.name]))}

    reachable: set[str] = set()
    while not (new := results(False, reachable)) <= reachable:
        reachable |= new
    return a.accepting in results(True, reachable)


class CharacterizationBundle(Record):
    """Signatures, homomorphisms and naming maps tying a tree automaton to
    its fishbone encoding.

    Derived once for the decoder, over middle label and direction ids, and
    compared but not shown: ``_rank`` maps a label id to its rank in
    ``s_reg`` (-1 for other labels, and at the extra id of unknown ones);
    ``_fish[i]`` holds the ids of +i and e_i and the (+m, end_m) pairs of
    the child slots m != i of e_i; ``_fish[0]``, for a read that starts on a
    real node, matches no spine."""

    _fields = ("automaton", "s_reg", "s_mid", "s_comp", "pad", "encode", "n", "state_index",
               "annotated", "comp_name")
    __slots__ = _fields + ("_rank", "_fish")
    _key = attrgetter(*__slots__)

    def __init__(
        self,
        automaton: BottomUpTreeAutomaton,
        s_reg: Signature,
        s_mid: Signature,
        s_comp: Signature,
        pad: Homomorphism,
        encode: Homomorphism,
        n: int,
        state_index: dict[str, int],
        annotated: dict[str, tuple[str, tuple[str, ...]]],
        comp_name: dict[tuple[str, tuple[str, ...]], str],
    ) -> None:
        self.automaton, self.s_reg, self.s_mid, self.s_comp = automaton, s_reg, s_mid, s_comp
        self.pad, self.encode, self.n, self.state_index = pad, encode, n, state_index
        self.annotated, self.comp_name = annotated, comp_name
        k = tree_arity(s_mid)
        did, lid = s_mid.dir_index, s_mid.label_index
        dirs = automaton.child_dirs
        self._rank = [len(dirs[lab]) if lab in dirs else -1 for lab in s_mid.label_names] + [-1]
        self._fish = [(-1, -1, ())] + [
            (did[f"+{i}"], lid[f"e_{i}"],
             tuple((did[f"+{m}"], lid[f"end_{m}"]) for m in range(1, k + 1) if m != i))
            for i in range(1, k + 1)
        ]


def _fishbone_into(
    b: GraphBuilder, k: int, direction: int, length: int, prefix: str
) -> tuple[str | None, str | None]:
    """Spine of ``length`` nodes labelled e_direction with end leaves on all
    other child slots; returns (top node, bottom node), None for length 0."""
    spine = [f"{prefix}s{j}" for j in range(length)]
    for j, sid in enumerate(spine):
        b.node(sid, f"e_{direction}")
        if j:
            b.edge(spine[j - 1], f"+{direction}", sid)
        for m in range(1, k + 1):
            if m != direction:
                b.edge(sid, f"+{m}", b.node(f"{sid}x{m}", f"end_{m}"))
    if not spine:
        return None, None
    return spine[0], spine[-1]


def _center_pattern(
    sig_mid: Signature,
    base: str,
    pdir: int | None,
    k: int,
    parent_len: int,
    child_len: list[int],
) -> Graph:
    """Pattern with a central node, a parent-side fishbone of ``parent_len``
    (none at the root, where ``pdir`` is None) and a child-side fishbone of
    ``child_len[i - 1]`` for each child i; zero-length fishbones collapse to
    ports on the centre."""
    b = GraphBuilder(sig_mid)
    b.node("c", base)
    ports: dict[str, str] = {}
    if pdir is not None:
        top, bottom = _fishbone_into(b, k, pdir, parent_len, "p")
        if top is None:
            ports[f"-{pdir}"] = "c"
        else:
            ports[f"-{pdir}"] = top
            b.edge(bottom, f"+{pdir}", "c")
    for i, length in enumerate(child_len, start=1):
        top, bottom = _fishbone_into(b, k, i, length, f"c{i}")
        if top is None:
            ports[f"+{i}"] = "c"
        else:
            b.edge("c", f"+{i}", top)
            ports[f"+{i}"] = bottom
    return b.build(ports=ports)


def build_characterization(a: BottomUpTreeAutomaton) -> CharacterizationBundle:
    """Middle and annotated signatures plus the padding and encoding
    homomorphisms for the automaton, over its signature ``s_reg``; refused
    when its language is empty, since the annotated signature would have no
    initial label."""
    s_reg = a.sig
    rep = validate_tree_automaton(a)
    if not rep.ok:
        raise GwalkError(f"invalid tree automaton: {rep.summary()}")
    if not language_nonempty(a):
        raise GwalkError(
            "the automaton accepts no tree; the characterization needs a "
            "non-empty language (no annotated root label would exist)"
        )
    k = tree_arity(s_reg)
    n = a.state_count
    state_index = {q: i for i, q in enumerate(a.states)}

    mid_labels = [(lab.name, lab.initial, set(lab.dirs)) for lab in s_reg.labels]
    for i in range(1, k + 1):
        if s_reg.has_label(f"e_{i}") or s_reg.has_label(f"end_{i}"):
            raise StructureError(f"label name e_{i}/end_{i} already used by the signature")
        mid_labels.append((f"e_{i}", False, {f"-{i}"} | {f"+{m}" for m in range(1, k + 1)}))
        mid_labels.append((f"end_{i}", False, {f"-{i}"}))
    pairs = [(f"+{i}", f"-{i}") for i in range(1, k + 1)]
    s_mid = Signature.from_pairs(pairs, mid_labels)

    comp_labels: list[tuple[str, bool, set[str]]] = []
    annotated: dict[str, tuple[str, tuple[str, ...]]] = {}
    comp_name: dict[tuple[str, tuple[str, ...]], str] = {}
    for lab in s_reg.labels:
        r = label_rank(s_reg, lab.name)
        for vec in product(a.states, repeat=r):
            if lab.initial and a.delta[(lab.name, vec)] != a.accepting:
                continue
            name = f"{lab.name}[{','.join(vec)}]"
            if name in annotated:
                raise StructureError(f"annotated label name collision at {name!r}")
            annotated[name] = (lab.name, vec)
            comp_name[(lab.name, vec)] = name
            comp_labels.append((name, lab.initial, set(lab.dirs)))
    s_comp = Signature.from_pairs(pairs, comp_labels)

    pad = Homomorphism(s_reg, s_mid, {
        lab.name: _center_pattern(s_mid, lab.name, parent_direction(s_reg, lab.name), k, n,
                                  [0] * label_rank(s_reg, lab.name))
        for lab in s_reg.labels
    })
    encode = Homomorphism(s_comp, s_mid, {
        name: _center_pattern(s_mid, base, parent_direction(s_reg, base), k,
                              state_index[a.delta[(base, vec)]], [n - state_index[q] for q in vec])
        for name, (base, vec) in annotated.items()
    })

    for name, h in (("padding", pad), ("encoding", encode)):
        hr = validate_homomorphism(h)
        if not hr.ok:
            raise AssertionError(f"{name} homomorphism invalid: {hr.summary()}")
    return CharacterizationBundle(
        a, s_reg, s_mid, s_comp, pad, encode, n, state_index, annotated, comp_name
    )


def annotate(bundle: CharacterizationBundle, t: Graph) -> Graph:
    """Relabel every node with (label, vector of children's computed states);
    refused for rejected trees, whose root annotation has no label."""
    a = bundle.automaton
    states = eval_states(a, t)
    if states[t.initial] != a.accepting:
        raise GwalkError("cannot annotate a rejected tree")
    names, did, width = t.names, t.sig.dir_index, len(t.sig.directions)
    labels = {}
    for w, (v, lab) in enumerate(zip(names, t.labels)):
        vec = tuple(states[names[t.nxt[w * width + did[d]]]] for d in a.child_dirs[lab])
        labels[v] = bundle.comp_name[(lab, vec)]
    return t.space(bundle.s_comp).relabelled(labels, t.initial)


class FishboneSkeleton(Record):
    """Fishbone-free view of a tree over the middle signature: the nodes
    carrying original labels, each after its parent, and per (parent, child
    index) the measured spine length and the child node.  Nodes are named as
    the space read names them (graph ids, ``ImageView`` pairs), or by count."""

    __slots__ = _fields = ("root", "labels", "links")

    def __init__(self, root: Hashable, labels: dict[Hashable, str],
                 links: dict[tuple[Hashable, int], tuple[int, Hashable]] | None = None) -> None:
        self.root = root
        self.labels = labels
        self.links = {} if links is None else links

    def reading(self) -> tuple[list[str], list[int]]:
        """Labels and spine lengths in reading order, which fix a fishbone tree."""
        return list(self.labels.values()), [n for n, _ in self.links.values()]


def _read_fishbones(bundle: CharacterizationBundle, space, start: tuple, budget: int | None = None,
                    memo: list | None = None, rule: Callable | None = None, top: int = 0):
    """The fishbone decoder: reads a tree over the middle signature from a
    walk space (a graph or an ``ImageView``) by integer label and slot
    codes, from the root's position ``start``, into records ``[code, label,
    verdict, length, child record, ...]``.  None when it reads a label or
    misses a slot that a fishbone-shaped tree does not have, or walks more
    nodes than ``budget`` (default: the nodes the space holds).

    A position is read unpacked, as its copy's tables, base code and node
    index: a slot holding a node is read from those tables, a port mark
    crosses through ``space.hop``, and a rib's end leaf is read in its
    spine node's copy, where the bundle's patterns hold it.

    Without ``memo`` the read is whole and gives the skeleton.  With a memo
    by copy, of a view whose other copies stay as they are, it keeps to
    ``start``'s copy: a spine crossing into copy u ends on ``memo[u]``, read
    while None from where it lands (``top``: the spine's direction).  It
    gives the start's entry: its record, coded by the length of the spine
    above it, with verdicts folded bottom-up by ``rule(record)``.  None where
    a read fails or a verdict is None (``()`` in ``memo``)."""
    rank, fish, names = bundle._rank, bundle._fish, bundle.s_mid.label_names
    dirs, own, whole = len(bundle.s_mid.directions), start[2], memo is None
    left = space.node_count if budget is None else budget
    # Spines to read: a first node's position and direction, the record slot it fills.
    above, read = [0, None], []
    todo = [(*start, top, above, 0)]
    while todo:
        lab, nxt, base, w, i, parent, at = todo.pop()
        down, spine, ribs = fish[i]
        length = 0
        while lab[w] == spine and (whole or base == own):
            left -= 1
            if left < 0:
                return None
            row = w * dirs
            for d, end in ribs:
                x = nxt[row + d]
                if x < 0 or lab[x] != end:
                    return None
            length, x = length + 1, nxt[row + down]
            if x >= 0:
                w = x
            elif x == MISSING or not (pos := space.hop(base, w, down, x)):
                return None
            else:
                lab, nxt, base, w = pos
        if not whole and base != own:  # crossed into another copy: its entry
            u = base // space.crossing[5]
            if memo[u] is None:
                memo[u] = _read_fishbones(
                    bundle, space, (lab, nxt, base, w), budget, memo, rule, i) or ()
            if not memo[u]:
                return None
            parent[at], parent[at + 1] = length + memo[u][0], memo[u]
            continue
        r, left = rank[lab[w]], left - 1
        if r < 0 or left < 0:
            return None
        rec = [base + w, names[lab[w]], None] + [0, None] * r
        parent[at], parent[at + 1] = length, rec
        read.append(rec)
        row = w * dirs
        for j in range(1, r + 1):  # each child's first slot, read here
            x = nxt[row + (d := fish[j][0])]
            if x >= 0:
                todo.append((lab, nxt, base, x, j, rec, 2 * j + 1))
            elif x == MISSING or not (pos := space.hop(base, w, d, x)):
                return None
            else:
                todo.append((*pos, j, rec, 2 * j + 1))
    if whole:
        return _skeleton(above[1], space.node)
    for rec in reversed(read):  # children were read after their parents
        rec[2] = rule(rec)
        if rec[2] is None:
            return None
    return (above[0], *above[1][1:])


def _skeleton(rec: list | tuple, name: Callable | None = None) -> FishboneSkeleton:
    """The skeleton of a read's record, in the order a whole read meets its
    nodes, named ``name(code)`` or 0, 1, ... as met."""
    key = name or (lambda _, fresh=count(): next(fresh))
    skel = FishboneSkeleton(key(rec[0]), {})
    todo = [(rec, skel.root)]
    while todo:
        (_, label, _, *links), v = todo.pop()
        skel.labels[v] = label
        for j in range(1, len(links), 2):
            skel.links[(v, j // 2 + 1)] = links[j - 1], (child := key(links[j][0]))
            todo.append((links[j], child))
    return skel


def parse_fishbones(bundle: CharacterizationBundle, t_mid: Graph) -> FishboneSkeleton | None:
    """Contract every maximal e_i chain below a real node into a measured
    link; None when ``t_mid`` is not a valid graph over the middle signature
    or not fishbone-shaped (a spine carrying anything but end leaves
    off-direction, or a fishbone ending in a leaf)."""
    if t_mid.sig != bundle.s_mid or not validate_graph(t_mid).ok:
        return None
    return _read_fishbones(bundle, t_mid, t_mid.at(t_mid.initial))


def _read_image(bundle: CharacterizationBundle, h: Homomorphism, t: Graph) -> FishboneSkeleton | None:
    """Read the image of the valid tree ``t`` under the validated ``h`` as a view."""
    image = ImageView(h, t)
    return _read_fishbones(bundle, image, image.at(image.initial))


def _rebuild(sig: Signature, skel: FishboneSkeleton, labels: Mapping[str, str]) -> Graph:
    b = GraphBuilder(sig)
    for v in sorted(skel.labels):
        b.node(v, labels[v])
    for (v, i), (_, c) in skel.links.items():
        b.edge(v, f"+{i}", c)
    return b.build(skel.root)


def decode_padding(bundle: CharacterizationBundle, t_mid: Graph) -> Graph | None:
    """The unique tree whose padded image is ``t_mid``, or None; present
    exactly when every link measures the full length n."""
    return _padding_preimage(bundle, parse_fishbones(bundle, t_mid))


def _padding_preimage(bundle: CharacterizationBundle, skel: FishboneSkeleton | None) -> Graph | None:
    if skel is None or any(length != bundle.n for length, _ in skel.links.values()):
        return None
    t = _rebuild(bundle.s_reg, skel, skel.labels)
    return t if validate_graph(t).ok else None


def decode_encoding(bundle: CharacterizationBundle, t_mid: Graph) -> Graph | None:
    """The unique annotated tree whose encoded image is ``t_mid``, or None.

    Bottom-up, index(q_i) = n + index(delta(child)) - length must land in
    range, and the root's vector must name an (accepting) initial label; the
    encoded image of the tree so recovered, read lazily, must read as t_mid.
    """
    return _encoding_preimage(bundle, parse_fishbones(bundle, t_mid))


def _annotation(bundle: CharacterizationBundle, label: str,
                links: Iterable[tuple[int, int]]) -> tuple | None:
    """The encoding decoder's rule at a real node: its annotation, from its
    links as (spine length, the child's state index), or None."""
    qs = [bundle.n + out - length for length, out in links]
    if not all(0 <= q < bundle.n for q in qs):
        return None
    key = (label, tuple(bundle.automaton.states[q] for q in qs))
    return key if key in bundle.comp_name else None


def _encoding_preimage(bundle: CharacterizationBundle, skel: FishboneSkeleton | None) -> Graph | None:
    if skel is None:
        return None
    a, out, comp_label = bundle.automaton, {}, {}
    for v in reversed(skel.labels):
        base = skel.labels[v]
        links = [skel.links[(v, i)] for i in range(1, len(a.child_dirs[base]) + 1)]
        key = _annotation(bundle, base, [(length, out[c]) for length, c in links])
        if key is None:
            return None
        comp_label[v], out[v] = bundle.comp_name[key], bundle.state_index[a.delta[key]]
    t_comp = _rebuild(bundle.s_comp, skel, comp_label)
    again = validate_graph(t_comp).ok and _read_image(bundle, bundle.encode, t_comp)
    return t_comp if again and again.reading() == skel.reading() else None


class CharacterizationReport(Record):
    """``annotated_subtrees_read`` counts distinct proper subtrees, each read once."""

    __slots__ = _fields = ("reg_trees_checked", "comp_trees_checked", "counterexamples",
                           "annotated_subtrees_read")

    def __init__(self, reg_trees_checked: int, comp_trees_checked: int, counterexamples: list[str],
                 annotated_subtrees_read: int = 0) -> None:
        self.reg_trees_checked = reg_trees_checked
        self.comp_trees_checked = comp_trees_checked
        self.counterexamples = counterexamples
        self.annotated_subtrees_read = annotated_subtrees_read

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _shape_space(sig: Signature, max_nodes: int, fold: Callable[[str, list], object]):
    """The trees of :func:`enumerate_trees` as one walk space over ``sig``
    (arguments checked at once), and the generator pointing its node 0 at
    each tree in turn, yielding ``fold(label, child values)`` there.  Each
    proper subtree is one more node, made and folded once when first needed,
    keyed by its label id and child nodes: what a view walks, free of names.
    A key made twice, or a root label's split of a size met twice, is refused."""
    shape_rep = validate_tree_signature(sig)
    if not shape_rep.ok:
        raise GwalkError(f"not a tree signature: {shape_rep.summary()}")
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    space, width, ids = Graph(sig, [(0, "")], 0, {}), len(sig.directions), sig.label_index
    down = [sig.dir_index[f"+{i}"] for i in range(1, tree_arity(sig) + 1)]
    by_parent: dict[int, list[NodeLabel]] = {}  # the roots under 0
    for lab in sig.labels:
        by_parent.setdefault(parent_direction(sig, lab.name) or 0, []).append(lab)
    made: set[tuple[int, tuple[int, ...]]] = set()
    values: list = [None]

    def groups(lab: NodeLabel, size: int) -> Iterator[tuple[tuple[int, ...], Iterator]]:
        # One group per composition of the children's sizes: its trees are
        # the label with each combination of the children's nodes.  A
        # rank-0 label has one composition of size - 1 into no parts, and
        # one empty combination, exactly when size == 1.
        r = label_rank(sig, lab.name)
        for parts in _compositions(size - 1, r):
            yield parts, product(*(subtrees(i + 1, parts[i]) for i in range(r)))

    def row(kids: tuple[int, ...]) -> list[int]:
        slots = [MISSING] * width
        for d, u in zip(down, kids):
            slots[d] = u
        return slots

    @cache
    def subtrees(pd: int, size: int) -> list[int]:
        nodes = []
        for lab in by_parent.get(pd, ()):
            for _, combos in groups(lab, size):
                for kids in combos:
                    key = ids[lab.name], kids
                    if key in made:
                        raise AssertionError("duplicate tree produced by structural recursion")
                    made.add(key)
                    nodes.append(len(values))
                    space.lab.append(key[0])
                    space.nxt += row(kids)
                    values.append(fold(lab.name, [values[u] for u in kids]))
        return nodes

    def trees() -> Iterator[object]:
        for size in range(1, max_nodes + 1):
            met: set[tuple[str, tuple[int, ...]]] = set()
            for lab in by_parent.get(0, ()):
                for parts, combos in groups(lab, size):
                    if (lab.name, parts) in met:
                        raise AssertionError("duplicate tree produced by structural recursion")
                    met.add((lab.name, parts))
                    for kids in combos:
                        space.lab[0], space.nxt[:width] = ids[lab.name], row(kids)
                        yield fold(lab.name, [values[u] for u in kids])

    return space, trees()


def _tree_graph(space: Graph) -> Graph:
    """The tree that node 0 of a shape space points at, its nodes named
    n0, n1, ... in preorder."""
    sig, lab, nxt, width = space.sig, space.lab, space.nxt, len(space.sig.directions)
    down = [sig.dir_index[f"+{i}"] for i in range(1, tree_arity(sig) + 1)]
    b = GraphBuilder(sig)

    def walk(w: int) -> str:
        vid = b.node(f"n{len(b.names)}", sig.label_names[lab[w]])
        for i, d in enumerate(down, 1):
            if nxt[w * width + d] >= 0:
                b.edge(vid, f"+{i}", walk(nxt[w * width + d]))
        return vid

    return b.build(walk(0))


def verify_characterization(a: BottomUpTreeAutomaton, max_nodes: int) -> CharacterizationReport:
    """Exhaustive check on shapes up to the node budget: a tree is accepted
    exactly when its padded image decodes as an annotated tree, and an
    annotated one's encoded image decodes under padding exactly when
    consistent (then via annotate).

    Each side reads one view of its shape space, and each distinct proper
    subtree's image once, into a memo entry with its decoding verdict.  A
    tree reads its root's copy on its children's entries; only one whose
    verdict says it decodes gets a skeleton and the decoder."""
    bundle = build_characterization(a)
    delta, annotated, n, index = a.delta, bundle.annotated, bundle.n, bundle.state_index

    def images(sig: Signature, h: Homomorphism, fold: Callable, rule: Callable,
               decode: Callable, memo: list) -> Iterator[tuple]:
        space, trees = _shape_space(sig, max_nodes, fold)
        frames, width, _, _, starts, _, _ = h.frames()
        view, budget = None, width * max_nodes  # no tree here has a larger image
        for value in trees:
            f, w = frames[space.lab[0]], starts[space.lab[0]]
            if view is None or f is None or w is None:
                view = ImageView(h, space)  # raises as the tree's own view would
            memo += [None] * (len(space.lab) - len(memo))
            root = _read_fishbones(bundle, view, (f.lab, f.nxt, 0, w), budget, memo, rule)
            yield space, value, decode(bundle, _skeleton(root) if root else None)

    def out_index(rec: list) -> int | None:  # the encoding decoder's, at a real node
        key = _annotation(bundle, rec[1], zip(rec[3::2], [c[2] for c in rec[4::2]]))
        return None if key is None else index[delta[key]]

    cx: list[str] = []
    reg_checked = comp_checked = 0
    reg = images(bundle.s_reg, bundle.pad, lambda label, below: delta[(label, tuple(below))],
                 out_index, _encoding_preimage, [])
    for _, root_state, t_comp in reg:
        accepted, member = root_state == a.accepting, t_comp is not None
        if accepted != member:
            cx.append(f"tree {reg_checked}: accepted={accepted} but membership={member}")
        reg_checked += 1
    # An annotated subtree folds to its state when consistent, else to None,
    # and its image's verdict is that every spine has length n.
    memo: list = []
    comp = images(bundle.s_comp, bundle.encode, lambda label, below: (
        delta[annotated[label]] if tuple(below) == annotated[label][1] else None),
        lambda rec: rec[3::2].count(n) == len(rec[4::2]) or None, _padding_preimage, memo)
    for space, root_state, decoded in comp:
        valid = root_state is not None
        if (decoded is not None) != valid:
            cx.append(f"annotated tree {comp_checked}: decoded={decoded is not None} "
                      f"but valid={valid}")
        elif decoded is not None and not isomorphic(
                annotate(bundle, decoded), _tree_graph(space)):
            cx.append(f"annotated tree {comp_checked}: annotate(decode) differs from the original")
        comp_checked += 1
    return CharacterizationReport(reg_checked, comp_checked, cx, len(memo) - memo.count(None))
