"""The benchmark's four verification workloads.

Each workload makes its inputs from the seed with the benchmark's own code,
builds its fixed objects in ``setup`` (the part timed as set-up), runs one
pass over all of its cases in ``run_pass``, and checks every verdict against
an answer that does not come from the code under test.

The workloads call ``gwalk`` only through module attributes (``self.hom.apply``
and never a name imported from a module), so that the tracer, which rebinds
those attributes, sees every call.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Iterator

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class PassResult:
    """Outcome of one pass: cases attempted, cases whose verdict was wrong or
    raised, and the latency of every case in seconds when a case is one
    call the benchmark can time."""

    attempted: int
    failed: int
    case_s: list[float] = field(default_factory=list)


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class Claim3Sweep:
    """Counter acceptance tables of ``gwalk repro claim3``: 468 cases at
    n=4, k=9, each a counting or probe graph pushed through the ring
    homomorphism and decided by the counter automaton.  Known answer: accept
    exactly when i = j (counting) or d = d' (probe)."""

    name = "claim3-sweep"
    # witness_signature(9): the pairs a, b, c1, c2 and one self-opposite z.
    DIRS = ("a", "-a", "b", "-b", "c1", "-c1", "c2", "-c2", "z")

    def __init__(self, seed: int, small: bool = False) -> None:
        # The sweep has no free input: n=4, k=9 is already its smallest size.
        self.n, self.k = 4, 9
        self.expected = {("counting", i, j, d): i == j
                         for d in self.DIRS for i in range(self.n) for j in range(self.n)}
        self.expected.update({("probe", i, d, dp): d == dp
                              for i in range(self.n) for d in self.DIRS for dp in self.DIRS})

    def setup(self) -> None:
        import gwalk.witnesses

        self.witnesses = gwalk.witnesses

    def run_pass(self, tracer=None) -> PassResult:
        total = len(self.expected)
        try:
            rep = self.witnesses.sweep_tables(self.n, self.k)
        except Exception:
            return PassResult(total, total)
        got = {("counting", *key): acc for key, acc in rep.counting.items()}
        got.update({("probe", *key): acc for key, acc in rep.probes.items()})
        failed = sum(got.get(key) is not want for key, want in self.expected.items())
        return PassResult(total, failed)


def ring_document(m: int) -> str:
    """Canonical graph document of the ring r c ... c of length m over
    ``ring_signature``: sorted keys, two-space indent, nodes sorted by id and
    each physical edge listed once, by its lesser (from, dir) half."""
    ids = [f"n{i}" for i in range(m)]
    nodes = sorted(({"id": v, "label": "r" if i == 0 else "c"} for i, v in enumerate(ids)),
                   key=lambda n: n["id"])
    edges = []
    for i, v in enumerate(ids):
        u = ids[(i + 1) % m]
        half = min((v, "a", u), (u, "-a", v))
        edges.append({"from": half[0], "dir": half[1], "to": half[2]})
    edges.sort(key=lambda e: (e["from"], e["dir"]))
    doc = {"kind": "graph", "nodes": nodes, "initial": ids[0], "edges": edges}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class InverseWalk:
    """``gwalk hom verify`` on single rings: parse the ring's canonical
    document, then ``verify_inverse(mod3_automaton, ring_doubling_hom,
    [ring])``.  Known answer: the report is ok, and the original accepts the
    image (a ring of length 2m - 1) exactly when (2m - 1) % 3 == 0."""

    name = "inverse-walk"

    def __init__(self, seed: int, small: bool = False) -> None:
        count, lo, width = (6, 20, 10) if small else (100, 500, 25)
        rng = Random(seed)
        # Stratified lengths: one per bin of the range, so that the total
        # work of a pass hardly depends on the seed while every length does.
        lengths = [lo + b * width + rng.randrange(width) for b in range(count)]
        rng.shuffle(lengths)
        self.lengths = lengths
        self.documents = [ring_document(m) for m in lengths]
        self.expected = [(2 * m - 1) % 3 == 0 for m in lengths]

    def setup(self) -> None:
        import gwalk.demo
        import gwalk.formats
        import gwalk.hom

        self.formats, self.hom = gwalk.formats, gwalk.hom
        self.sig = gwalk.demo.ring_signature()
        self.automaton = gwalk.demo.mod3_automaton()
        self.homomorphism = gwalk.demo.ring_doubling_hom()

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(0, 0)
        clock = time.perf_counter
        for case, (text, want) in enumerate(zip(self.documents, self.expected)):
            if tracer is not None:
                tracer.case = case
            res.attempted += 1
            t0 = clock()
            try:
                g = self.formats.graph_from(self.formats.loads(text), self.sig)
                rep = self.hom.verify_inverse(self.automaton, self.homomorphism, [g])
            except Exception:
                res.failed += 1
                continue
            res.case_s.append(clock() - t0)
            check = rep.checks[0] if len(rep.checks) == 1 else None
            if (not rep.ok or check is None
                    or (check.a_kind == "accept") is not want
                    or (check.b_kind == "accept") is not want):
                res.failed += 1
        return res


class Thm4Trees:
    """``gwalk repro thm4``: ``verify_characterization`` for the accept-all
    and the leaf-parity tree automata up to ``max_nodes`` nodes.  Known
    answer: both reports are ok and the tree counts are those of full binary
    trees with m internal nodes, C(m) of each shape count:

    * regular trees: sum of C(m);
    * annotated trees: sum of C(m) * R * I^(m-1), where R counts the accepted
      root vectors and I the child-state vectors of an inner label (leaves
      have one annotation each): R = I = 1 for accept-all, R = 2 (equal
      parities) and I = 4 for leaf parity.
    """

    name = "thm4-trees"

    def __init__(self, seed: int, small: bool = False) -> None:
        # The enumeration has no free input; the seed only names the run.
        self.max_nodes = 5 if small else 9
        ms = range(1, (self.max_nodes - 1) // 2 + 1)
        reg = sum(_catalan(m) for m in ms)
        self.expected = {
            "accept_all": (reg, sum(_catalan(m) for m in ms)),
            "leaf_parity": (reg, sum(_catalan(m) * 2 * 4 ** (m - 1) for m in ms)),
        }

    def setup(self) -> None:
        import gwalk.demo
        import gwalk.trees

        self.trees = gwalk.trees
        self.automata = {
            "accept_all": gwalk.demo.accept_all_automaton(),
            "leaf_parity": gwalk.demo.leaf_parity_automaton(),
        }

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(0, 0)
        for name, (reg, comp) in self.expected.items():
            total = reg + comp
            res.attempted += total
            try:
                rep = self.trees.verify_characterization(self.automata[name], self.max_nodes)
            except Exception:
                res.failed += total
                continue
            wrong = (len(rep.counterexamples) + abs(rep.reg_trees_checked - reg)
                     + abs(rep.comp_trees_checked - comp))
            res.failed += min(total, wrong)
        return res


# ------------------------------------------------------------ probe oracle

def block_fragment(n: int, variant: str) -> tuple[dict, dict, str]:
    """The benchmark's own copy of the desk-scale start block: labels, the
    edge map and the port node, whose external edge leaves in direction a.

    Two chains of 2n nodes along a; columns n-1 and 2n-1 are bridged by both
    b and -b, every other node carries b/-b self-loops; the lower chain
    starts with the start label (the fake variant has a left end there)."""
    w = 2 * n
    lo = [f"lo{c}" for c in range(w)]
    up = [f"up{c}" for c in range(w)]
    labels = {lo[0]: "st" if variant == "start" else "cl", lo[w - 1]: "cr", up[0]: "cl"}
    for c in range(1, w - 1):
        labels[lo[c]] = "cm"
    for c in range(1, w):
        labels[up[c]] = "cm"
    edges: dict[tuple[str, str], str] = {}
    for row in (lo, up):
        for c in range(w - 1):
            edges[(row[c], "a")] = row[c + 1]
            edges[(row[c + 1], "-a")] = row[c]
    for c in range(w):
        bridged = c in (n - 1, w - 1)
        for d in ("b", "-b"):
            edges[(lo[c], d)] = up[c] if bridged else lo[c]
            edges[(up[c], d)] = lo[c] if bridged else up[c]
    return labels, edges, up[w - 1]


def describe_entry(doc: dict, fragment: tuple[dict, dict, str], q: str) -> str:
    """Run an automaton document inside a block entered through its external
    edge in state q; the same words as the probe uses for its findings."""
    labels, edges, port = fragment
    accept = {(s, lab) for s, lab in doc["accept"]}
    delta = {(t["state"], t["label"]): (t["next"], t["dir"]) for t in doc["transitions"]}
    v, seen = port, set()
    while (q, v) not in seen:
        seen.add((q, v))
        if (q, labels[v]) in accept:
            return "accept_inside"
        move = delta.get((q, labels[v]))
        if move is None:
            return "reject_inside"
        q2, d = move
        if (v, d) in edges:
            q, v = q2, edges[(v, d)]
        elif v == port and d == "a":
            return f"exit:{q2}"
        else:
            raise ValueError(f"open slot ({v}, {d})")
    return "loop_inside"


class Probe:
    """``gwalk witness probe --n 2 --k 4``: the start/fake pair of
    ``start_block(2, 4)`` against every one-state automaton (750), then a
    seeded sample of 10,000 one-state automata, the first 10,000 two-state
    automata and a seeded sample of 10,000 two-state ones.  A case is one
    automaton.  Known answer: the findings of the benchmark's own block
    interpreter for every automaton; no one-state distinguisher; and the
    distinguishing sets recorded in ``golden/probe.json`` for the enumerated
    parts and, at the default seed of ``gwalk witness probe``, for the
    sampled parts."""

    name = "probe"
    N, K = 2, 4

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.budget, self.sample = (200, 200) if small else (10_000, 10_000)
        self.expected: dict[int, frozenset] | None = None
        self.problems: list[str] = []
        self.fragments = (block_fragment(self.N, "start"), block_fragment(self.N, "fake"))

    def setup(self) -> None:
        import gwalk.engine
        import gwalk.suites
        import gwalk.witnesses

        self.engine, self.suites, self.witnesses = gwalk.engine, gwalk.suites, gwalk.witnesses
        self.sig = gwalk.witnesses.base_signature(self.K)
        self.pair = (gwalk.witnesses.start_block(self.N, self.K, "start"),
                     gwalk.witnesses.start_block(self.N, self.K, "fake"))

    def stream(self) -> Iterator:
        for s in (1, 2):
            yield from self.engine.enumerate_automata(self.sig, s, self.budget)
            yield from self.suites.random_automata(self.sig, s, self.sample, self.seed + s)

    def _timed(self, automata: Iterator, case_s: list[float], tracer) -> Iterator:
        # A case lasts from the request for one automaton to the request for
        # the next: making it plus the probe's work on it.
        clock = time.perf_counter
        t = clock()
        for case, aut in enumerate(automata):
            if tracer is not None:
                tracer.case = case
            yield aut
            now = clock()
            case_s.append(now - t)
            t = now

    def parts(self) -> list[tuple[str, int, int]]:
        """(name, first case, end) of the four parts of the stream."""
        sizes = [("one_state_enumerated", min(self.budget, 750)),
                 ("one_state_sampled", self.sample),
                 ("two_state_enumerated", self.budget),
                 ("two_state_sampled", self.sample)]
        out, lo = [], 0
        for part, size in sizes:
            out.append((part, lo, lo + size))
            lo += size
        return out

    def oracle(self) -> None:
        """One untimed pass through the stream: the expected findings of every
        automaton from the benchmark's interpreter, checked against the
        one-state claim and the golden distinguishing sets; a contradiction
        is kept in ``problems`` and fails every case."""
        from gwalk import formats

        expected: dict[int, frozenset] = {}
        for case, aut in enumerate(self.stream()):
            doc = formats.automaton_doc(aut)
            found = set()
            for q in doc["states"]:
                left = describe_entry(doc, self.fragments[0], q)
                right = describe_entry(doc, self.fragments[1], q)
                if left != right:
                    found.add((q, left, right))
            if found:
                expected[case] = frozenset(found)
        parts = self.parts()
        problems = []
        if any(case < parts[1][2] for case in expected):
            problems.append("a one-state automaton distinguishes the pair")
        golden = json.loads((GOLDEN_DIR / "probe.json").read_text())
        recorded = dict(golden["enumerated"])
        if self.sample == golden["sample"]:
            recorded.update(golden["sampled"].get(str(self.seed), {}))
        for part, lo, hi in parts:
            if part not in recorded:
                continue
            # Enumeration is lexicographic, so a smaller budget sees a prefix.
            want = {int(c): sorted(map(tuple, f)) for c, f in recorded[part].items()
                    if int(c) < hi - lo}
            got = {c - lo: sorted(f) for c, f in expected.items() if lo <= c < hi}
            if want != got:
                problems.append(f"{part}: distinguishers differ from the golden set")
        self.problems = problems
        self.expected = expected

    def run_pass(self, tracer=None) -> PassResult:
        if self.expected is None:
            self.oracle()
        total = self.parts()[-1][2]
        res = PassResult(total, 0)
        if self.problems:
            # The stream contradicts a recorded answer: no verdict can be trusted.
            res.failed = total
            return res
        try:
            rep = self.witnesses.distinguishability_probe(
                self.pair, self._timed(self.stream(), res.case_s, tracer))
        except Exception:
            res.failed = total
            return res
        got: dict[int, set] = {}
        for f in rep.findings:
            got.setdefault(f.automaton_index, set()).add((f.entry_state, f.left, f.right))
        wrong = {c for c in got.keys() | self.expected.keys()
                 if frozenset(got.get(c, ())) != self.expected.get(c, frozenset())}
        res.failed = min(total, len(wrong) + abs(rep.automata_checked - total))
        return res


WORKLOADS = {w.name: w for w in (Claim3Sweep, InverseWalk, Thm4Trees, Probe)}
