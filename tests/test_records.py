"""The package's records, plain slotted classes with their methods written
out, against their ``dataclasses`` twins in ``oracle``: the same fields
and defaults, equal ``repr`` strings, the same ``==`` verdicts and hashes,
and assignment to a frozen record still refused."""

import dataclasses
import inspect
import pickle
from types import SimpleNamespace

import pytest

import gwalk.core as core
import gwalk.hom as hom
import gwalk.trees as trees
import gwalk.witnesses  # noqa: F401  (its records join the subclasses read below)
import oracle
from gwalk.demo import (
    leaf_parity_automaton,
    leafy_parity_automaton,
    leafy_signature,
    ring_doubling_hom,
    ring_signature,
)
from gwalk.suites import random_automata
from gwalk.witnesses import start_block


def _records(base=core.Record):
    for cls in base.__subclasses__():
        if cls is not core.Frozen:
            yield cls
        yield from _records(cls)


RECORDS = {cls.__name__: cls for cls in _records()}
PACKAGE = SimpleNamespace(**RECORDS)


def samples(ns):
    """A few instances of every record, built from the classes of ``ns``:
    equal and unequal ones, the first two of each record with a
    ``default_factory`` field built with its defaults."""
    d = [ns.Direction("a", "-a"), ns.Direction("-a", "a"), ns.Direction("a", "a")]
    lab = [ns.NodeLabel("r", True, frozenset({"a", "-a"})), ns.NodeLabel("c", False, frozenset())]
    sig = ns.Signature((d[0], d[1]), tuple(lab))
    conf = [ns.Configuration("q0", "n0"), ns.Configuration("q1", "n0")]
    problem = ns.Problem("invariant", "missing-edge", "v", "label 'c' requires an edge")
    entry = ns.AgreementEntry(0, "accept", "reject")
    check = ns.InverseCheck(1, "loop", "loop", ["step 2: B at v, A elsewhere"])
    finding = ns.ProbeFinding(7, "q1", "accept", "exit:q0")
    patterns = ring_doubling_hom().patterns
    bundle = trees.build_characterization(leaf_parity_automaton())
    fields = [getattr(bundle, name) for name in bundle._fields]
    return {
        "Direction": [*d, ns.Direction("a", "-a")],
        "NodeLabel": [*lab, ns.NodeLabel("r", True, frozenset({"-a", "a"}))],
        "Signature": [sig, ns.Signature((d[0], d[1]), tuple(lab)),
                      ns.Signature((d[0], d[1]), tuple(lab[::-1])), ns.Signature((), ())],
        "Problem": [problem, ns.Problem("invariant", "missing-edge", "v",
                                        "label 'c' requires an edge"),
                    ns.Problem("structural", "missing-edge", "v", "label 'c' requires an edge")],
        "ValidationReport": [ns.ValidationReport(), ns.ValidationReport(),
                             ns.ValidationReport([problem]),
                             ns.ValidationReport(problems=[problem])],
        "Configuration": [*conf, ns.Configuration("q0", "n0")],
        "Outcome": [ns.Outcome("accept", conf[0], 3), ns.Outcome("accept", conf[0], 3, None),
                    ns.Outcome("loop", conf[1], 3, 2), ns.Outcome("loop", conf[0], 3, 2)],
        "AgreementEntry": [entry, ns.AgreementEntry(0, "accept", "reject"),
                           ns.AgreementEntry(0, "accept", "accept")],
        "AgreementReport": [ns.AgreementReport([entry]), ns.AgreementReport(entries=[entry]),
                            ns.AgreementReport([])],
        # The last two differ only in their patterns: unequal, hashed alike.
        "Homomorphism": [ns.Homomorphism(sig, sig, patterns), ns.Homomorphism(sig, sig, patterns),
                         ns.Homomorphism(sig, sig, {**patterns, "r": patterns["c"]}),
                         ns.Homomorphism(sig, ns.Signature((), ()), patterns)],
        "Start": [ns.Start(), ns.Start()],
        "Enter": [ns.Enter("q0", "a"), ns.Enter("q0", "a"), ns.Enter("q0", "-a")],
        # The last two differ only in their walks, which are not compared.
        "PatternResult": [ns.PatternResult("accept_inside"), ns.PatternResult("reject_inside"),
                          ns.PatternResult("exit", "q1", "a", ("q0", "n0"), "walk one"),
                          ns.PatternResult("exit", "q1", "a", ("q0", "n0"), walk="walk two")],
        "InverseCheck": [check, ns.InverseCheck(1, "loop", "loop", ["step 2: B at v, A elsewhere"]),
                         ns.InverseCheck(1, "loop", "loop", [])],
        "InverseReport": [ns.InverseReport([check]), ns.InverseReport([])],
        "CharacterizationBundle": [ns.CharacterizationBundle(*fields),
                                   ns.CharacterizationBundle(*fields),
                                   ns.CharacterizationBundle(*fields[:6], 3, *fields[7:])],
        "FishboneSkeleton": [ns.FishboneSkeleton("r", {"r": "root"}),
                             ns.FishboneSkeleton("r", {"r": "root"}),
                             ns.FishboneSkeleton("r", {"r": "root"}, {}),
                             ns.FishboneSkeleton("r", {"r": "root"}, {("r", 1): (2, "c")})],
        "CharacterizationReport": [ns.CharacterizationReport(8, 178, []),
                                   ns.CharacterizationReport(8, 178, [], 0),
                                   ns.CharacterizationReport(8, 178, ["tree 5: accepted"], 714)],
        "CyclicOrder": [ns.CyclicOrder(("a", "b", "-a", "-b")),
                        ns.CyclicOrder(("a", "b", "-a", "-b")),
                        ns.CyclicOrder(("-b", "-a", "b", "a"))],
        "ProbeFinding": [finding, ns.ProbeFinding(7, "q1", "accept", "exit:q0"),
                         ns.ProbeFinding(8, "q1", "accept", "exit:q0")],
        "ProbeReport": [ns.ProbeReport("a", 3, 6), ns.ProbeReport("a", 3, 6),
                        ns.ProbeReport("a", 3, 6, [finding], 2)],
        "SweepReport": [ns.SweepReport(4, 9, {(0, 0, "a"): True}, {(0, "a", "a"): True}, []),
                        ns.SweepReport(4, 9, {(0, 0, "a"): True}, {(0, "a", "a"): True}, []),
                        ns.SweepReport(4, 9, {(0, 0, "a"): False}, {(0, "a", "a"): True}, ["x"])],
    }


MINE, TWINS = samples(PACKAGE), samples(oracle)


def test_every_record_is_slotted_and_has_a_dataclass_twin():
    assert sorted(RECORDS) == sorted(MINE) and len(RECORDS) == 22
    for name, cls in RECORDS.items():
        twin = getattr(oracle, name)
        assert dataclasses.is_dataclass(twin) and not dataclasses.is_dataclass(cls)
        assert issubclass(cls, core.Frozen) == twin.__dataclass_params__.frozen, name
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin) if f.repr), name
        for x in MINE[name]:
            assert not hasattr(x, "__dict__"), name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_defaults_match_the_twin(name):
    """The same parameters in the same order, with the same defaults; a
    ``default_factory`` field is made fresh per instance."""
    mine = inspect.signature(RECORDS[name]).parameters
    twin = inspect.signature(getattr(oracle, name)).parameters
    assert list(mine) == list(twin)
    fields = {f.name: f for f in dataclasses.fields(getattr(oracle, name))}
    first, second = MINE[name][:2]
    for p in mine:
        factory = fields[p].default_factory
        if factory is dataclasses.MISSING:
            assert mine[p].default == twin[p].default, (name, p)
        else:
            assert getattr(first, p) == factory() and getattr(first, p) is not getattr(second, p)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_equality_and_hash_match_the_twin(name):
    mine, twins = MINE[name], TWINS[name]
    assert [repr(x) for x in mine] == [repr(y) for y in twins]
    for i, x in enumerate(mine):
        for j, y in enumerate(mine):
            assert (x == y) is (twins[i] == twins[j]), (name, i, j)
            assert (x != y) is (twins[i] != twins[j]), (name, i, j)
        assert x != twins[i]  # records of one class only
    if twins[0].__hash__ is None:
        for x in mine:
            with pytest.raises(TypeError):
                hash(x)
        return
    for x, y in zip(mine, twins):
        assert hash(x) == hash(y), name
    assert all(hash(x) == hash(y) for x in mine for y in mine if x == y)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_frozen_record_refuses_assignment(name):
    """As its twin does; a mutable record takes it."""
    x, twin = MINE[name][0], TWINS[name][0]
    names = [f.name for f in dataclasses.fields(twin)] or ["anything"]
    if not issubclass(RECORDS[name], core.Frozen):
        setattr(x, names[0], getattr(x, names[0]))
        return
    for target in (x, twin):
        before = [getattr(target, f, None) for f in names]
        for f in names:
            with pytest.raises(AttributeError):
                setattr(target, f, None)
            with pytest.raises(AttributeError):
                delattr(target, f)
        assert all(a is b for a, b in zip(before, [getattr(target, f, None) for f in names]))


def test_records_of_two_classes_are_never_equal():
    for ns in (PACKAGE, oracle):
        assert ns.Configuration("q0", "a") != ns.Enter("q0", "a")
        assert ns.AgreementReport([]) != ns.InverseReport([])


def test_derived_data_is_made_on_construction():
    """Fields a record derives in ``__init__``, not shown: the bundle's
    decoder tables (compared, as the twin compares them), the signature's
    tables, the homomorphism's frames."""
    for x, twin in zip(MINE["CharacterizationBundle"], TWINS["CharacterizationBundle"]):
        assert (x._rank, x._fish) == (twin._rank, twin._fish)
    for ns in (PACKAGE, oracle):
        a, b = samples(ns)["CharacterizationBundle"][:2]
        b._fish = b._fish[:1]
        assert a != b
    sig = MINE["Signature"][0]
    assert sig.dir_names == ("a", "-a") and sig.opp_index == (1, 0)
    assert sig.label_index == {"r": 0, "c": 1} and sig.initial_labels == ("r",)
    h = hom.Homomorphism(ring_signature(), ring_signature(), ring_doubling_hom().patterns)
    assert h._frames is None and h.frames() is h.frames() and h._frames is h.frames()


def _value(x):
    """What a pickle round trip must keep: a record's class and field
    values, and every slot of the graphs and tree automata in it, which
    compare by identity."""
    if isinstance(x, core.Record):
        return x.__class__, [_value(getattr(x, f)) for f in x._fields]
    if isinstance(x, (core.Graph, trees.BottomUpTreeAutomaton)):
        return x.__class__, [_value(getattr(x, f)) for f in x.__slots__ if f != "__weakref__"]
    if isinstance(x, dict):
        return {k: _value(v) for k, v in x.items()}
    return x


def _round_trip(x):
    return pickle.loads(pickle.dumps(x))


def test_records_graphs_and_automata_survive_pickling():
    """A record pickles as its class called on its fields, so ``__init__``
    derives the signature's tables and the bundle's ``_rank``/``_fish``
    again; a frozen record hashes as before.  ``PatternResult.walk`` is
    neither a field nor compared, and comes back as None.  A graph (here a
    witness block with its port) and an automaton, plain or drawn from an
    option stream, keep their tables and pairs."""
    for name, xs in MINE.items():
        for x in xs:
            y = _round_trip(x)
            assert y.__class__ is x.__class__ and _value(y) == _value(x), name
            if name not in ("Homomorphism", "CharacterizationBundle"):  # they hold graphs
                assert y == x, name
            if isinstance(x, core.Frozen):
                assert hash(y) == hash(x), name
    sig = _round_trip(MINE["Signature"][0])
    assert (sig.dir_names, sig.opp_index, sig.label_index) == (("a", "-a"), (1, 0), {"r": 0, "c": 1})
    for x in MINE["CharacterizationBundle"]:
        y = _round_trip(x)
        assert (y._rank, y._fish) == (x._rank, x._fish)
    assert [_round_trip(x).walk for x in MINE["PatternResult"]] == [None] * 4
    block = start_block(2, 4)
    assert _value(_round_trip(block)) == _value(block) and block.ports
    plain = leafy_parity_automaton()
    plain.table()
    for a in (plain, *random_automata(leafy_signature(), 2, 3, seed=4)):
        b = _round_trip(a)
        assert (b.sig, b.states, b.initial, b.accept, b.delta) == (
            a.sig, a.states, a.initial, a.accept, a.delta)
        assert (b.table().nq, b.table().nd) == (a.table().nq, a.table().nd)
