"""Ready-made signatures, homomorphisms and automata for the demonstration
commands and the verification suites.  Each signature function returns one
shared instance per argument list, so that the objects built over it meet
it by identity, not by comparing it in depth."""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from .core import Graph, Signature
from .engine import WalkingAutomaton
from .hom import Homomorphism, identity_homomorphism

if TYPE_CHECKING:
    # Imported where used, so that the ring and leafy demos do not load it.
    from .trees import BottomUpTreeAutomaton

__all__ = [
    "ring_signature",
    "ring_doubling_hom",
    "mod3_automaton",
    "leafy_signature",
    "leaf_expanding_hom",
    "leafy_parity_automaton",
    "count_signature",
    "count_hom",
    "count_automaton",
    "binary_tree_signature",
    "leaf_parity_automaton",
    "accept_all_automaton",
]


@cache
def ring_signature() -> Signature:
    """Two directions, two labels; the valid graphs are exactly the rings
    r c c ... c oriented along a (a single r with an a/-a self-loop being the
    one-node ring)."""
    return Signature.from_pairs(
        [("a", "-a")],
        [("r", True, {"a", "-a"}), ("c", False, {"a", "-a"})],
    )


def ring_doubling_hom() -> Homomorphism:
    """Each c becomes a two-node chain, so a ring of length m maps to a ring
    of length 2m - 1."""
    sig = ring_signature()
    c2 = Graph(
        sig,
        [("c1", "c"), ("c2", "c")],
        None,
        {("c1", "a"): "c2", ("c2", "-a"): "c1"},
        {"-a": "c1", "a": "c2"},
    )
    return Homomorphism(sig, sig, {"r": identity_homomorphism(sig).patterns["r"], "c": c2})


def mod3_automaton() -> WalkingAutomaton:
    """Walks once around a ring and accepts exactly when the length is
    divisible by three."""
    sig = ring_signature()
    delta = {
        ("qs", "r"): ("q0", "a"),
        ("q0", "c"): ("q1", "a"),
        ("q1", "c"): ("q2", "a"),
        ("q2", "c"): ("q0", "a"),
    }
    return WalkingAutomaton(sig, ["qs", "q0", "q1", "q2"], "qs", [("q2", "r")], delta)


@cache
def leafy_signature() -> Signature:
    """Four directions, three labels.  Slot counts force exactly one chain
    from the start label r through s nodes to the end label t along a, while
    b/-b edges pair off freely into loops and chords, so the family mixes
    straight chains with heavily shortcut ones."""
    return Signature.from_pairs(
        [("a", "-a"), ("b", "-b")],
        [
            ("r", True, {"a", "b", "-b"}),
            ("s", False, {"-a", "a", "b", "-b"}),
            ("t", False, {"-a", "b", "-b"}),
        ],
    )


def leaf_expanding_hom() -> Homomorphism:
    """The chain end t grows by one s node carrying a fresh end, lengthening
    every chain by one; r and s map to themselves."""
    sig = leafy_signature()
    ident = identity_homomorphism(sig).patterns
    t_pat = Graph(
        sig,
        [("x", "s"), ("y", "t")],
        None,
        {
            ("x", "a"): "y",
            ("y", "-a"): "x",
            ("y", "b"): "y",
            ("y", "-b"): "y",
        },
        {"-a": "x", "b": "x", "-b": "x"},
    )
    return Homomorphism(sig, sig, {"r": ident["r"], "s": ident["s"], "t": t_pat})


def leafy_parity_automaton() -> WalkingAutomaton:
    """Heads along the chain flipping state at every s node; accepts the end
    after an even number of them, rejects it after an odd number.  The end
    expansion adds one s to every chain, flipping the answer."""
    sig = leafy_signature()
    delta = {
        ("q0", "r"): ("q0", "a"),
        ("q0", "s"): ("q1", "a"),
        ("q1", "s"): ("q0", "a"),
    }
    return WalkingAutomaton(sig, ["q0", "q1"], "q0", [("q0", "t")], delta)


@cache
def count_signature(k: int, initial_labels: int = 2) -> Signature:
    """Chain-shaped signature over a k-direction roster with one or two
    initial labels; used by the state-count demonstrations."""
    if initial_labels not in (1, 2):
        raise ValueError("initial_labels must be 1 or 2")
    from .witnesses import standard_directions

    pairs, selfopp = standard_directions(k)
    labels = [("r1", True, {"a"})]
    if initial_labels == 2:
        labels.append(("r2", True, {"a"}))
    labels += [("c", False, {"-a", "a"}), ("e", False, {"-a"})]
    return Signature.from_pairs(pairs, labels, selfopp)


def count_hom(sig: Signature) -> Homomorphism:
    """Identity on everything except the chain end, which doubles."""
    patterns = dict(identity_homomorphism(sig).patterns)
    patterns["e"] = Graph(
        sig,
        [("x", "c"), ("y", "e")],
        None,
        {("x", "a"): "y", ("y", "-a"): "x"},
        {"-a": "x"},
    )
    return Homomorphism(sig, sig, patterns)


def count_automaton(sig: Signature, n: int) -> WalkingAutomaton:
    """n states cycling along the chain; accepts at the end in state q0.
    Leaves the image of the initial label immediately, so the inverse
    construction is never degenerate."""
    states = [f"q{i}" for i in range(n)]
    delta = {}
    for i, q in enumerate(states):
        nxt = states[(i + 1) % n]
        for lab in sig.label_names:
            if lab in ("r1", "r2", "c"):
                delta[(q, lab)] = (nxt, "a")
    del delta[(states[0], "c")]  # makes one composite pair stuck, not just cyclic
    return WalkingAutomaton(sig, states, states[0], [("q0", "e")], delta)


@cache
def binary_tree_signature() -> Signature:
    """Arity-2 tree signature: a rank-2 root, rank-2 inner labels and leaf
    labels for each child position."""
    return Signature.from_pairs(
        [("+1", "-1"), ("+2", "-2")],
        [
            ("root", True, {"+1", "+2"}),
            ("n1", False, {"-1", "+1", "+2"}),
            ("n2", False, {"-2", "+1", "+2"}),
            ("l1", False, {"-1"}),
            ("l2", False, {"-2"}),
        ],
    )


def leaf_parity_automaton() -> BottomUpTreeAutomaton:
    """Two states tracking leaf-count parity; accepts trees with an even
    number of leaves."""
    from .trees import BottomUpTreeAutomaton

    sig = binary_tree_signature()
    delta: dict[tuple[str, tuple[str, ...]], str] = {("l1", ()): "q1", ("l2", ()): "q1"}
    for lab in ("root", "n1", "n2"):
        for x in ("q0", "q1"):
            for y in ("q0", "q1"):
                delta[(lab, (x, y))] = "q0" if x == y else "q1"
    return BottomUpTreeAutomaton(sig, ["q0", "q1"], "q0", delta)


def accept_all_automaton() -> BottomUpTreeAutomaton:
    """One state, everything accepted."""
    from .trees import BottomUpTreeAutomaton

    sig = binary_tree_signature()
    delta: dict[tuple[str, tuple[str, ...]], str] = {("l1", ()): "q0", ("l2", ()): "q0"}
    for lab in ("root", "n1", "n2"):
        delta[(lab, ("q0", "q0"))] = "q0"
    return BottomUpTreeAutomaton(sig, ["q0"], "q0", delta)
