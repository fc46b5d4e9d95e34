"""Graph-walking automata, node-replacement homomorphisms, and worst-case
families, with enumeration- and oracle-based verification at desk scale."""

from .core import (
    Direction,
    DisconnectedGraphError,
    Graph,
    GraphBuilder,
    GwalkError,
    NodeLabel,
    Signature,
    SignatureMismatchError,
    StructureError,
    ValidationReport,
    canonical_encode,
    isomorphic,
    validate_graph,
    validate_signature,
)
from .engine import (
    Configuration,
    Outcome,
    WalkingAutomaton,
    agree_on,
    enumerate_automata,
    run,
    trace,
    validate_automaton,
)
from .hom import (
    Enter,
    Homomorphism,
    Start,
    apply,
    identity_homomorphism,
    invert,
    simulate_in_pattern,
    validate_homomorphism,
    verify_inverse,
)

__version__ = "0.1.0"
