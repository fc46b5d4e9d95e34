"""Reference interpreters for the differential tests.

These are the dict-based walk loops the package used before its walks were
compiled to integer tables: a run reads the labels from a dict of the
graph's node list (:func:`label_reader`, not :func:`label_of`, which
resolves names through the graph's index) and the next node from a dict of
its edges, and looks every move up in the automaton's ``accept`` and
``delta`` by name.  They are slow
and independent of ``engine.walk``, which the tests tie to them.
:func:`apply_detailed` likewise builds a homomorphic image node by node
from the patterns, independently of ``hom.ImageView``, whose copy
``hom.apply`` is.  :func:`numbered_chain`, :func:`counting_graph` and
:func:`probe_graph` build the witness families by including one block per
position and one chain per direction, as the package did before it derived
them from anonymous bodies by relabelling.  :func:`enumerate_automata` and
:func:`random_automaton` make the automaton stream from option tables tagged
by name, with ``itertools.product`` and one ``Random.randrange`` per cell,
as the package did before its options became integer indices.
:func:`read_fishbones` reads a fishbone tree by name on the edges of a
materialized image, independently of ``trees._read_fishbones``, which reads
walk spaces by slot codes.  :func:`decode_encoding` reads its input with it,
and checks a decoded annotated tree by building its encoded image with
:func:`apply_detailed` and comparing it with the input through
``isomorphic``, as the package did before it read images lazily.
:func:`connected_components` partitions a graph's nodes by name, as the
package did before it counted components on index rows.
:func:`read_body` reads the nodes and edges of a graph or pattern document
entry by entry, writing each edge as its two halves through
``GraphBuilder.add_halves``, as ``formats`` did before it read documents by
columns.
:func:`tree_shapes` enumerates trees as nested label-and-children tuples by
structural recursion, and :func:`enumerate_trees` builds each with the name
constructor, as the package did before it enumerated trees as the rows of
one shape space.
:func:`verify_characterization` builds every tree of that enumeration as a
graph, evaluates it there and reads its whole image through its own
``ImageView``, as the package did before it checked the characterization on
shapes; it calls the package's per-tree reader and decoders on purpose.
:func:`strip_annotations` and :func:`leafy_probe_automaton` were package
functions that only the tests called.
:func:`verify_checks` is the alignment check ``verify_inverse`` made before
it compared the two runs step by step: every step of the inverse matched
against some crossing of the original at a later time, or on its cycle.
:func:`aligned_checks` is the step-by-step check, on the materialized
image and by name.
The record twins at the end declare each of the package's records with
``dataclasses``, as the package declared them before it wrote their
methods out; ``test_records`` compares the two.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, product
from random import Random
from typing import Any

from gwalk.core import Graph, GraphBuilder, GwalkError, StructureError, isomorphic, validate_graph
from gwalk.demo import leafy_signature
import gwalk.engine as engine
from gwalk.engine import ACCEPT, LOOP, REJECT, WalkingAutomaton
from gwalk.formats import _require, _shape
import gwalk.hom as hom
from gwalk.hom import _image_id, _pair
import gwalk.trees as trees
import gwalk.witnesses as witnesses
from gwalk.witnesses import chain_signature, start_block, witness_signature


_EDGES = weakref.WeakKeyDictionary()


def renamed(a, mapping):
    """``a`` with its states renamed by ``mapping``; the control structure is unchanged."""
    return WalkingAutomaton(
        a.sig,
        tuple(mapping[q] for q in a.states),
        mapping[a.initial],
        {(mapping[q], x) for q, x in a.accept},
        {(mapping[q], x): (mapping[q2], d) for (q, x), (q2, d) in a.delta.items()},
    )


def invariants(rep):
    """The ``invariant`` findings of a validation report."""
    return [p for p in rep.problems if p.kind == "invariant"]


def visited(res):
    """The (state, node) configurations a ``PatternResult`` saw inside its
    body, in order, decoded from its walk."""
    return [] if res.walk is None else [_pair(res.walk, code) for code in res.walk.seen]


def edges_of(g):
    """A dict of the edges of ``g`` by name, made once per graph."""
    if g not in _EDGES:
        _EDGES[g] = dict(g.edges)
    return _EDGES[g]


def connected_components(g):
    """Partition of the nodes of ``g`` under undirected reachability along
    its edges and the half-edges kept beside its tables that join two
    declared ids, each component in breadth-first order over neighbours
    sorted by id: the name-keyed count ``validate_graph`` made before it
    searched the index tables."""
    names, width = g.names, len(g.sig.directions)
    adj = {v: set() for v in names}
    halves = [(names[s // width], names[x]) for s, x in enumerate(g.nxt) if x >= 0]
    halves += [(v, u) for (v, _), u in g.loose if v in adj and u in adj]
    for v, u in halves:
        adj[v].add(u)
        adj[u].add(v)
    comps, placed = [], set()
    for start in names:
        if start not in placed:
            order = [start]
            placed.add(start)
            for v in order:
                for u in sorted(adj[v] - placed):
                    placed.add(u)
                    order.append(u)
            comps.append(order)
    return comps


def read_body(sig, doc, what):
    """A builder fed the nodes, then the edges of a graph or pattern document
    in document order, each entry checked as it is read: a stand-in for
    ``formats._body``."""
    b = GraphBuilder(sig)
    with _shape(what):
        for n in _require(doc, "nodes"):
            v, a = n["id"], n["label"]
            if not (isinstance(v, str) and isinstance(a, str)):
                raise StructureError(f"{what} id and label must be strings, got {v!r}, {a!r}")
            b.node(v, a)
    listed = _require(doc, "edges")
    with _shape("edge entry"):
        for e in listed:
            v, d, u = e["from"], e["dir"], e["to"]
            if not (isinstance(v, str) and isinstance(u, str)):
                raise StructureError(f"edge ends must be strings, got {v!r}, {u!r}")
            b.add_halves((((v, d), u),))
            b.add_halves((((u, sig.opposite(d)), v),))
    return b


def label_of(g, v):
    """The label of node ``v`` of ``g``, resolved through its index."""
    return g.labels[g.at(v)[3]]


def label_reader(g):
    """The label of a node of ``g``, read from a dict of its node list."""
    labels = dict(g.nodes)

    def label_of(v):
        try:
            return labels[v]
        except KeyError:
            raise StructureError(f"unknown node {v!r}") from None

    return label_of


def run_record(a, g):
    """(configs, kind, steps, cycle_length, cycle_start) of the run of ``a``
    on ``g``; ``configs[t]`` is the configuration after t moves."""
    label_of, edges = label_reader(g), edges_of(g)
    bound = len(a.states) * g.node_count + 1
    seen: dict[tuple, int] = {}
    configs: list[engine.Configuration] = []
    q, v = a.initial, g.initial
    while True:
        t = len(configs)
        configs.append(engine.Configuration(q, v))
        if (q, v) in seen:
            return configs, LOOP, t, t - seen[(q, v)], seen[(q, v)]
        seen[(q, v)] = t
        assert t <= bound
        lab = label_of(v)
        if (q, lab) in a.accept:
            return configs, ACCEPT, t, None, None
        move = a.delta.get((q, lab))
        if move is None:
            return configs, REJECT, t, None, None
        q2, d = move
        u = edges.get((v, d))
        if u is None:
            raise StructureError(f"no edge in direction {d!r} at node {v!r}")
        q, v = q2, u


def simulate(a, p, entry):
    """(kind, state, direction, exit_from, visited) of ``a`` run inside the
    body of ``p``, with the kinds of ``hom.simulate_in_pattern``.  A label
    outside the automaton's signature reads as undefined."""
    sig, label_of, edges = a.sig, label_reader(p), edges_of(p)
    if isinstance(entry, hom.Enter):
        q, v = entry.state, p.ports[sig.opposite(entry.direction)]
    else:
        (v,) = p.initial_nodes(sig)
        q = a.initial
    states = {a.initial, *a.states, *(q2 for q2, _ in a.delta.values())}
    bound = len(states) * p.node_count + 1
    visited: list[tuple[str, str]] = []
    while True:
        if (q, v) in visited:
            return "loop_inside", None, None, None, visited
        visited.append((q, v))
        assert len(visited) <= bound + 1
        lab = label_of(v)
        if not sig.has_label(lab):
            return "reject_inside", None, None, None, visited
        if (q, lab) in a.accept:
            return "accept_inside", None, None, None, visited
        move = a.delta.get((q, lab))
        if move is None:
            return "reject_inside", None, None, None, visited
        q2, d = move
        if (v, d) in edges:
            q, v = q2, edges[(v, d)]
        elif p.ports.get(d) == v:
            return "exit", q2, d, (q, v), visited
        else:
            raise StructureError(f"open slot ({v!r}, {d!r}) reached during pattern simulation")


def apply_detailed(h, g):
    """Image of ``g`` under ``h`` plus a map from image node ids back to
    (original node, pattern node) pairs: every node of ``g`` becomes a copy
    of its pattern, in the order of ``g.nodes``, and every edge of ``g``
    joins port d of its copy to port -d of the neighbour's copy."""
    nodes: list[tuple[str, str]] = []
    edges: dict[tuple[str, str], str] = {}
    origin: dict[str, tuple[str, str]] = {}
    initial = None
    label_of = label_reader(g)

    def port(v, d):
        try:
            return h.pattern(label_of(v)).ports[d]
        except KeyError:
            raise StructureError(f"no port {d!r} at source node {v!r}") from None

    for v, a in g.nodes:
        p = h.pattern(a)
        for w, wl in p.nodes:
            nid = _image_id(v, w)
            if nid in origin:
                raise StructureError(f"image node id collision at {nid!r}")
            origin[nid] = (v, w)
            nodes.append((nid, wl))
            if h.target.label(wl).initial:
                if v != g.initial:
                    raise GwalkError("initial label inside the pattern of a non-initial node")
                initial = nid
        for (w, d), u in p.edges.items():
            edges[(_image_id(v, w), d)] = _image_id(v, u)
    for (v, d), u in g.edges.items():
        pv = port(v, d)
        edges[(_image_id(v, pv), d)] = _image_id(u, port(u, h.source.opposite(d)))
    if initial is None:
        raise GwalkError("image has no initial node")
    return Graph(h.target, nodes, initial, edges), origin


def probe(pair, automata):
    """The report of ``witnesses.distinguishability_probe``, entry by entry:
    both fragments of ``pair`` run through :func:`simulate` from every entry
    state of every automaton."""
    (port_dir,) = pair[0].ports
    report = witnesses.ProbeReport(port_dir, 0, 0)
    for idx, a in enumerate(automata):
        enter = a.sig.opposite(port_dir)
        report.automata_checked += 1
        for q in a.states:
            report.entries_checked += 1
            dl, dr = (_describe(simulate(a, f, hom.Enter(q, enter))) for f in pair)
            if dl != dr:
                report.findings.append(witnesses.ProbeFinding(idx, q, dl, dr))
    return report


def _describe(result):
    kind, state = result[:2]
    return f"exit:{state}" if kind == "exit" else kind


def crossings(a, h, g):
    """(kind, crossings, cycle_start) of the run of ``a`` on the materialized
    image of ``g``: a crossing is a move along an edge joining two pattern
    copies, listed in order as (landing time, source node, direction,
    state)."""
    image, origin = apply_detailed(h, g)
    label_of, image_label_of = label_reader(g), label_reader(image)
    inter_edges = {
        (_image_id(v, h.pattern(label_of(v)).ports[d]), d) for (v, d) in g.edges
    }
    configs, kind, _, _, cycle = run_record(a, image)
    out = []
    for t in range(1, len(configs)):
        prev, cur = configs[t - 1], configs[t]
        d = a.delta[(prev.state, image_label_of(prev.node))][1]
        if (prev.node, d) in inter_edges:
            out.append((t, origin[cur.node][0], d, cur.state))
    return kind, out, cycle


def verify_checks(a, b, decode, h, suite):
    """(b_kind, a_kind, alignment_failures) per graph, checked on the
    materialized image as ``verify_inverse`` did before its aligned pass:
    each composite configuration ((q, d), v) of the inverse ``b`` reached
    after t >= 1 steps must be an entry of the original into the copy of v
    in direction d in state q at some time >= t, or on the original's
    cycle; inside ``b``'s own cycle, on the original's cycle.  Every step
    that fails gets a sentence."""
    out = []
    for g in suite:
        kind_a, crossed, cycle_a = crossings(a, h, g)
        configs_b, kind_b, _, _, cycle_b = run_record(b, g)
        finite: dict[tuple, list[int]] = {}
        recurrent: set[tuple] = set()
        for t, *key in crossed:
            if cycle_a is not None and t > cycle_a:
                recurrent.add(tuple(key))
            else:
                finite.setdefault(tuple(key), []).append(t)
        failures = []
        for t in range(1, len(configs_b)):
            cfg = configs_b[t]
            if cfg.state not in decode:
                failures.append(f"step {t}: non-composite state {cfg.state!r}")
                continue
            q, d = decode[cfg.state]
            key = (cfg.node, d, q)
            if cycle_b is not None and t > cycle_b:
                ok = key in recurrent
            else:
                ok = key in recurrent or any(th >= t for th in finite.get(key, ()))
            if not ok:
                failures.append(
                    f"step {t}: no entry of the image of {cfg.node!r} "
                    f"in direction {d!r} in state {q!r} at time >= {t}"
                )
        out.append((kind_b, kind_a, failures))
    return out


def aligned_checks(a, b, decode, h, suite):
    """(b_kind, a_kind, alignment_failures) per graph, as ``verify_inverse``
    reports them, checked on the materialized image: the configuration of
    ``b`` after t >= 1 steps against the original's t-th crossing, the
    crossings on the original's cycle repeated past its run; the first
    step that differs gets a sentence."""
    out = []
    for g in suite:
        kind_a, crossed, cycle_a = crossings(a, h, g)
        tail = [c for c in crossed if cycle_a is not None and c[0] > cycle_a]
        configs_b, kind_b, _, _, _ = run_record(b, g)
        failures = []
        for t in range(1, len(configs_b)):
            cfg = configs_b[t]
            if cfg.state not in decode:
                failures.append(f"step {t}: non-composite state {cfg.state!r}")
                break
            q, d = decode[cfg.state]
            claim = (f"step {t}: B stands for an entry of {cfg.node!r} "
                     f"in direction {d!r} in state {q!r}")
            if t <= len(crossed):
                _, *got = crossed[t - 1]
            elif tail:
                _, *got = tail[(t - 1 - len(crossed)) % len(tail)]
            else:
                failures.append(f"{claim}, but A made only {len(crossed)} crossings")
                break
            if got != [cfg.node, d, q]:
                v, e, p = got
                failures.append(f"{claim}, but A entered {v!r} in direction {e!r} in state {p!r}")
                break
        out.append((kind_b, kind_a, failures))
    return out


def refinement_ok(check):
    """Whether the outcome of the original refines that of the inverse in an
    ``hom.InverseCheck``: B looping forces the original to loop; B rejecting
    allows the original to reject or to loop inside a single pattern."""
    if check.b_kind == ACCEPT:
        return check.a_kind == ACCEPT
    if check.b_kind == LOOP:
        return check.a_kind == LOOP
    return check.a_kind in (REJECT, LOOP)


def numbered_chain(n, k, d, i=None):
    """The chain of ``witnesses.numbered_chain``: n spine cells and a
    forwarder, with the start block included at position i and a fake block
    at every other position."""
    frag = GraphBuilder(chain_signature(k))
    u = [f"u{j}" for j in range(n)]
    frag.node(u[0], "c_st")
    for j in range(1, n - 1):
        frag.node(u[j], "c'")
    frag.node(u[n - 1], "go'_b" if d == "-a" else "go'_a")
    ugo = frag.node("ugo", f"go_{d}")
    for j in range(n - 1):
        frag.edge(u[j], "b", u[j + 1])
    frag.edge(u[n - 1], "b" if d == "-a" else "a", ugo)
    for j in range(n):
        block = start_block(n, k, "start" if j == i else "fake")
        frag.include(block, f"H{j}.")
        frag.edge(f"H{j}." + block.ports["a"], "a", u[j])
    return frag.build(ports={d: ugo})


def counting_graph(n, k, i, j, d):
    """The graph of ``witnesses.counting_graph``: the chain encoding i under
    the prefix ``F.``, two forwarders, j decrement cells and a final test."""
    sig = witness_signature(k)
    chain = numbered_chain(n, k, d, i)
    frag = GraphBuilder(sig)
    frag.include(chain, "F.")
    port = "F." + chain.ports[d]
    if d == "-a":
        w1 = frag.node("wgo1", "go_a_b")
        w2 = frag.node("wgo2", "go_-b_a")
        frag.edge(port, d, w1)
        frag.edge(w1, "b", w2)
    else:
        w1 = frag.node("wgo1", f"go_{sig.opposite(d)}_a")
        w2 = frag.node("wgo2", "go_-a_a")
        frag.edge(port, d, w1)
        frag.edge(w1, "a", w2)
    prev = w2
    for t in range(1, j + 1):
        wt = frag.node(f"w{t}", "c-")
        frag.edge(prev, "a", wt)
        prev = wt
    wend = frag.node("wend", "q0?")
    frag.edge(prev, "a", wend)
    return frag.build("F." + chain.initial_nodes(sig)[0])


def probe_graph(n, k, i, d, dprime):
    """The graph of ``witnesses.probe_graph``: a hub querying ``dprime``,
    joined to the chain encoding i for direction d and to an anonymous
    chain for every other direction."""
    sig = witness_signature(k)
    frag = GraphBuilder(sig)
    hub = frag.node("v", f"{dprime}?")
    initial = None
    for e in sig.dir_names:
        chain = numbered_chain(n, k, e, i if e == d else None)
        frag.include(chain, f"F{e}.")
        frag.edge(f"F{e}." + chain.ports[e], e, hub)
        if e == d:
            initial = f"F{d}." + chain.initial_nodes(sig)[0]
    return frag.build(initial)


def option_table(sig, states):
    """Per (state, label) cell, its options by name: ``("accept",)``,
    ``("undef",)``, then ``("move", (next state, direction))`` for every
    state in declaration order and direction in signature order."""
    cells = []
    for q in states:
        for lab in sig.labels:
            opts = [("accept",), ("undef",)]
            opts.extend(("move", (q2, d)) for q2 in states for d in sig.dirs_of(lab.name))
            cells.append(((q, lab.name), opts))
    return cells


def _automaton(states, cells, chosen):
    """(states, accepting pairs, moves) of the automaton taking option
    ``chosen[i]`` in cell i."""
    accept, delta = set(), {}
    for (cell, _), opt in zip(cells, chosen):
        if opt[0] == "accept":
            accept.add(cell)
        elif opt[0] == "move":
            delta[cell] = opt[1]
    return states, frozenset(accept), delta


def _states(num_states):
    return tuple(f"q{i}" for i in range(num_states))


def space_size(sig, num_states):
    """Number of automata with ``num_states`` states over ``sig``."""
    total = 1
    for _, opts in option_table(sig, _states(num_states)):
        total *= len(opts)
    return total


def enumerate_automata(sig, num_states, budget):
    """The first ``budget`` automata in the order of ``itertools.product``
    over the cells' options: the last cell's option varies fastest."""
    states = _states(num_states)
    cells = option_table(sig, states)
    choices = product(*(opts for _, opts in cells))
    return [_automaton(states, cells, chosen) for chosen in islice(choices, budget)]


def random_automaton(sig, rng, num_states):
    """One automaton, each cell's option drawn with ``rng.randrange``."""
    states = _states(num_states)
    cells = option_table(sig, states)
    return _automaton(states, cells, [opts[rng.randrange(len(opts))] for _, opts in cells])


def random_automata(sig, num_states, count, seed):
    rng = Random(seed)
    return [random_automaton(sig, rng, num_states) for _ in range(count)]


def read_fishbones(bundle, t_mid):
    """The fishbone skeleton of ``t_mid``, read by name on its edges and
    met in the order of the package's whole read: a real node, its links
    1..rank, then its children's subtrees, the last child first.  Below the
    +i slot of a real node hangs a spine of e_i nodes, each with an end_m
    leaf on every other child slot m, down to a real node.  None where
    ``t_mid`` is not so shaped or a node is met twice.  ``t_mid`` is not
    validated: as a view's read does, this reads images of broken patterns."""
    edges, labels = edges_of(t_mid), dict(t_mid.nodes)
    rank = {label: len(dirs) for label, dirs in bundle.automaton.child_dirs.items()}
    k = trees.tree_arity(bundle.s_mid)
    skel, seen = trees.FishboneSkeleton(t_mid.initial, {}), set()

    def read(v):  # whether the subtree below the real node v reads
        if v in seen or labels.get(v) not in rank:
            return False
        seen.add(v)
        skel.labels[v], kids = labels[v], []
        for i in range(1, rank[labels[v]] + 1):
            length, u = 0, edges.get((v, f"+{i}"))
            while labels.get(u) == f"e_{i}" and u not in seen:
                seen.add(u)
                if any(labels.get(edges.get((u, f"+{m}"))) != f"end_{m}"
                       for m in range(1, k + 1) if m != i):
                    return False
                length, u = length + 1, edges.get((u, f"+{i}"))
            skel.links[(v, i)] = length, u
            kids.append(u)
        return all(read(u) for u in reversed(kids))

    return skel if read(t_mid.initial) else None


def decode_encoding(bundle, t_mid):
    """The annotated tree whose encoded image is ``t_mid``, or None: the
    valid ``t_mid`` read by :func:`read_fishbones`, child states recovered
    bottom-up from the measured lengths, the tree rebuilt, and its encoded
    image materialized and compared with ``t_mid``."""
    valid = t_mid.sig == bundle.s_mid and validate_graph(t_mid).ok
    skel = read_fishbones(bundle, t_mid) if valid else None
    if skel is None:
        return None
    a, n = bundle.automaton, bundle.n
    out_index, comp_label = {}, {}
    for v in reversed(skel.labels):
        base = skel.labels[v]
        vec = []
        for i in range(1, len(a.child_dirs[base]) + 1):
            length, child = skel.links[(v, i)]
            qi = n + out_index[child] - length
            if not 0 <= qi < n:
                return None
            vec.append(a.states[qi])
        key = (base, tuple(vec))
        if key not in bundle.comp_name:
            return None
        comp_label[v] = bundle.comp_name[key]
        out_index[v] = bundle.state_index[a.delta[key]]
    b = GraphBuilder(bundle.s_comp)
    for v in sorted(skel.labels):
        b.node(v, comp_label[v])
    for (v, i), (_, c) in skel.links.items():
        b.edge(v, f"+{i}", c)
    t_comp = b.build(skel.root)
    if not validate_graph(t_comp).ok:
        return None
    return t_comp if isomorphic(apply_detailed(bundle.encode, t_comp)[0], t_mid) else None


def tree_shapes(sig, max_nodes):
    """Every tree over the tree signature ``sig`` with at most ``max_nodes``
    nodes as a nested (label, children) tuple: by size, then root label in
    signature order, then the children's sizes in lexicographic order, then
    the children's shapes in product order."""
    by_parent = {}
    for lab in sig.labels:
        by_parent.setdefault(trees.parent_direction(sig, lab.name) or 0, []).append(lab.name)

    @cache
    def shapes(pd, size):
        out = []
        for label in by_parent.get(pd, ()):
            for parts in product(range(1, size), repeat=trees.label_rank(sig, label)):
                if sum(parts) == size - 1:
                    kids = [shapes(i, part) for i, part in enumerate(parts, 1)]
                    out += [(label, combo) for combo in product(*kids)]
        return out

    for size in range(1, max_nodes + 1):
        yield from shapes(0, size)


def tree_graph(sig, shape):
    """The tree of ``shape`` over ``sig``, its nodes named n0, n1, ... in preorder."""
    nodes, edges = [], {}

    def walk(sh):
        vid = f"n{len(nodes)}"
        nodes.append((vid, sh[0]))
        for i, child in enumerate(sh[1], 1):
            kid = walk(child)
            edges[(vid, f"+{i}")], edges[(kid, f"-{i}")] = kid, vid
        return vid

    return Graph(sig, nodes, walk(shape), edges)


def enumerate_trees(sig, max_nodes):
    """The trees of :func:`tree_shapes` as graphs."""
    return (tree_graph(sig, shape) for shape in tree_shapes(sig, max_nodes))


def _annotation_consistent(bundle, t_comp):
    """The label vectors match the states the automaton actually computes:
    at every node, each child's state is delta of the child's annotation,
    which by induction from the leaves is the state computed there."""
    a, annotated, labels = bundle.automaton, bundle.annotated, t_comp.labels
    did, width = t_comp.sig.dir_index, len(t_comp.sig.directions)
    for w, lab in enumerate(labels):
        base, vec = annotated[lab]
        for d, q in zip(a.child_dirs[base], vec):
            if a.delta[annotated[labels[t_comp.nxt[w * width + did[d]]]]] != q:
                return False
    return True


def verify_characterization(a, max_nodes):
    """The two-sided characterization check, one graph per tree: every tree
    of :func:`enumerate_trees` is built, evaluated with ``eval_dta`` or
    checked for a consistent annotation here, and its whole image read
    through a view of its own.  It calls the package's per-tree reader
    (``trees._read_image``) and decoders (``trees._encoding_preimage``,
    ``trees._padding_preimage``) on purpose: what it is compared with is the
    shape loop of ``trees.verify_characterization``, and it shares neither
    that loop's shape space and enumeration, its memo of subtree verdicts
    nor its one view per side.
    The bundle comes from ``trees.build_characterization`` looked up at call
    time, so that a test replacing it breaks this check and the package's
    alike."""
    bundle = trees.build_characterization(a)
    cx = []
    reg_checked = comp_checked = 0
    for t in enumerate_trees(bundle.s_reg, max_nodes):
        accepted = trees.eval_dta(a, t)[1]
        skel = trees._read_image(bundle, bundle.pad, t)
        member = trees._encoding_preimage(bundle, skel) is not None
        if accepted != member:
            cx.append(f"tree {reg_checked}: accepted={accepted} but membership={member}")
        reg_checked += 1
    for tc in enumerate_trees(bundle.s_comp, max_nodes):
        decoded = trees._padding_preimage(bundle, trees._read_image(bundle, bundle.encode, tc))
        valid = _annotation_consistent(bundle, tc)
        if (decoded is not None) != valid:
            cx.append(f"annotated tree {comp_checked}: decoded={decoded is not None} "
                      f"but valid={valid}")
        elif decoded is not None and not isomorphic(trees.annotate(bundle, decoded), tc):
            cx.append(f"annotated tree {comp_checked}: annotate(decode) differs from the original")
        comp_checked += 1
    return trees.CharacterizationReport(reg_checked, comp_checked, cx)


def strip_annotations(bundle, t_comp):
    """Drop the state vectors, keeping base labels and topology."""
    labels = {v: bundle.annotated[lab][0] for v, lab in zip(t_comp.names, t_comp.labels)}
    return t_comp.space(bundle.s_reg).relabelled(labels, t_comp.initial)


def leafy_probe_automaton():
    """Zigzags between a and b moves, so chords send it around cycles:
    accepts on reaching the chain end evenly, rejects back at the start
    label, loops on unlucky chord patterns."""
    delta = {
        ("q0", "r"): ("q0", "a"),
        ("q0", "s"): ("q1", "b"),
        ("q1", "s"): ("q0", "a"),
        ("q1", "t"): ("q0", "b"),
    }
    return WalkingAutomaton(leafy_signature(), ["q0", "q1"], "q0", [("q0", "t")], delta)


# ------------------------------------------------------------ record twins
#
# Each record of the package declared with ``dataclasses``, with the fields
# and flags the package declared it with before its records were written
# out as slotted classes.  The twins are named as the records, so that their
# ``repr`` strings can be compared as they are.


@dataclass(frozen=True)
class Direction:
    name: str
    opposite: str


@dataclass(frozen=True)
class NodeLabel:
    name: str
    initial: bool
    dirs: frozenset


@dataclass(frozen=True)
class Signature:
    directions: tuple
    labels: tuple


@dataclass(frozen=True)
class Problem:
    kind: str
    code: str
    subject: str
    detail: str


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Configuration:
    state: str
    node: str


@dataclass(frozen=True)
class Outcome:
    kind: str
    config: Any
    steps: int
    cycle_length: Any = None


@dataclass(frozen=True)
class AgreementEntry:
    index: int
    kind1: str
    kind2: str


@dataclass
class AgreementReport:
    entries: list


@dataclass(frozen=True)
class Homomorphism:
    source: Any
    target: Any
    patterns: Any = field(hash=False)


@dataclass(frozen=True)
class Start:
    pass


@dataclass(frozen=True)
class Enter:
    state: str
    direction: str


@dataclass
class PatternResult:
    kind: str
    state: Any = None
    direction: Any = None
    exit_from: Any = None
    walk: Any = field(default=None, repr=False, compare=False)


@dataclass
class InverseCheck:
    index: int
    b_kind: str
    a_kind: str
    alignment_failures: list


@dataclass
class InverseReport:
    checks: list


@dataclass
class CharacterizationBundle:
    automaton: Any
    s_reg: Any
    s_mid: Any
    s_comp: Any
    pad: Any
    encode: Any
    n: int
    state_index: dict
    annotated: dict
    comp_name: dict
    _rank: list = field(init=False, repr=False)
    _fish: list = field(init=False, repr=False)

    def __post_init__(self):
        k = trees.tree_arity(self.s_mid)
        did, lid = self.s_mid.dir_index, self.s_mid.label_index
        dirs = self.automaton.child_dirs
        self._rank = [len(dirs[lab]) if lab in dirs else -1
                      for lab in self.s_mid.label_names] + [-1]
        self._fish = [(-1, -1, ())] + [
            (did[f"+{i}"], lid[f"e_{i}"],
             tuple((did[f"+{m}"], lid[f"end_{m}"]) for m in range(1, k + 1) if m != i))
            for i in range(1, k + 1)
        ]


@dataclass
class FishboneSkeleton:
    root: Any
    labels: dict
    links: dict = field(default_factory=dict)


@dataclass
class CharacterizationReport:
    reg_trees_checked: int
    comp_trees_checked: int
    counterexamples: list
    annotated_subtrees_read: int = 0


@dataclass(frozen=True)
class CyclicOrder:
    order: tuple


@dataclass(frozen=True)
class ProbeFinding:
    automaton_index: int
    entry_state: str
    left: str
    right: str


@dataclass
class ProbeReport:
    port_dir: str
    automata_checked: int
    entries_checked: int
    findings: list = field(default_factory=list)
    entry_walks: int = 0


@dataclass
class SweepReport:
    n: int
    k: int
    counting: dict
    probes: dict
    mismatches: list
