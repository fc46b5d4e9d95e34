"""End-to-end command-line tests: exit codes, report determinism, file IO."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gwalk
from gwalk import formats
from gwalk.cli import DEFAULT_SEED, _build_parser, main
from gwalk.core import Direction, Graph, GwalkError, Signature, StructureError, validate_graph
from gwalk.demo import (
    binary_tree_signature,
    leaf_expanding_hom,
    leaf_parity_automaton,
    leafy_parity_automaton,
    leafy_signature,
    ring_signature,
)
from gwalk.engine import WalkingAutomaton, validate_automaton
from gwalk.hom import Homomorphism, apply, validate_homomorphism
from gwalk.suites import random_graphs
from gwalk.trees import enumerate_trees
from test_engine import three_ring, undeclared_state_automaton
from test_formats import QUOTED_STATEMENTS, dot_statements, quoting_graph
from test_hom import extra_edge_hom
from test_walk import corrupted
import oracle


@pytest.fixture()
def files(tmp_path):
    sig = leafy_signature()
    paths = {
        "sig": tmp_path / "sig.json",
        "aut": tmp_path / "aut.json",
        "graph": tmp_path / "graph.json",
        "hom": tmp_path / "hom.json",
        "tree_sig": tmp_path / "tree_sig.json",
        "dta": tmp_path / "dta.json",
        "tree": tmp_path / "tree.json",
    }
    paths["sig"].write_text(formats.dumps(formats.signature_doc(sig)))
    paths["aut"].write_text(formats.dumps(formats.automaton_doc(leafy_parity_automaton())))
    g = random_graphs(sig, 1, seed=15, max_nodes=6)[0]
    paths["graph"].write_text(formats.dumps(formats.graph_doc(g)))
    paths["hom"].write_text(formats.dumps(formats.homomorphism_doc(leaf_expanding_hom())))
    paths["tree_sig"].write_text(formats.dumps(formats.signature_doc(binary_tree_signature())))
    paths["dta"].write_text(formats.dumps(formats.tree_automaton_doc(leaf_parity_automaton())))
    t = list(enumerate_trees(binary_tree_signature(), 5))[0]
    paths["tree"].write_text(formats.dumps(formats.graph_doc(t)))
    return {k: str(v) for k, v in paths.items()}


def test_validate_ok_exit_zero(files, capsys):
    code = main(["validate", files["sig"]])
    assert code == 0
    assert '"problems": []' in capsys.readouterr().out


def test_validate_tampered_graph_exit_one(files, tmp_path, capsys):
    doc = json.loads(open(files["graph"]).read())
    doc["edges"] = doc["edges"][:-1]  # drop one edge: degree violation
    bad = tmp_path / "bad.json"
    bad.write_text(formats.dumps(doc))
    code = main(["validate", "--sig", files["sig"], str(bad)])
    assert code == 1
    assert "missing-edge" in capsys.readouterr().out


def test_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_kind_exit_two(files, capsys):
    assert main(["run", "--sig", files["graph"], "--automaton", files["aut"],
                 "--graph", files["graph"]]) == 2
    assert "expected a signature" in capsys.readouterr().err


def test_run_and_trace(files, capsys):
    assert main(["run", "--sig", files["sig"], "--automaton", files["aut"],
                 "--graph", files["graph"]]) == 0
    out = capsys.readouterr().out
    assert '"outcome"' in out
    assert main(["trace", "--sig", files["sig"], "--automaton", files["aut"],
                 "--graph", files["graph"], "--max-len", "3"]) == 0
    payload = capsys.readouterr().out
    assert '"length": 3' in payload or '"length": 1' in payload or '"length": 2' in payload


def test_trace_refuses_a_negative_max_len(files, capsys):
    """A negative ``--max-len`` is a usage error, not a cut from the end."""
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--sig", files["sig"], "--automaton", files["aut"],
              "--graph", files["graph"], "--max-len", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "must be at least 0" in err


def test_agree_self(files, capsys):
    assert main(["agree", "--sig", files["sig"], "--a1", files["aut"],
                 "--a2", files["aut"], "--graphs", files["graph"]]) == 0
    assert '"full_agreement": true' in capsys.readouterr().out


def test_machine_report_is_byte_stable(files, capsys):
    argv = ["run", "--sig", files["sig"], "--automaton", files["aut"],
            "--graph", files["graph"], "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert set(report) == {"command", "inputs", "parameters", "results"}
    assert all(d.startswith("sha256:") for d in report["inputs"].values())


def test_hom_pipeline(files, tmp_path, capsys):
    assert main(["hom", "validate", "--hom", files["hom"]]) == 0
    capsys.readouterr()
    out_graph = tmp_path / "image.json"
    assert main(["hom", "apply", "--hom", files["hom"], "--graph", files["graph"],
                 "-o", str(out_graph)]) == 0
    capsys.readouterr()
    g = formats.graph_from(json.loads(open(files["graph"]).read()), leafy_signature())
    image = oracle.apply_detailed(leaf_expanding_hom(), g)[0]
    assert out_graph.read_text() == formats.dumps(formats.graph_doc(image))
    assert main(["validate", "--sig", files["sig"], str(out_graph)]) == 0
    capsys.readouterr()
    out_aut = tmp_path / "b.json"
    assert main(["hom", "invert", "--hom", files["hom"], "--automaton", files["aut"],
                 "-o", str(out_aut)]) == 0
    capsys.readouterr()
    assert main(["hom", "verify", "--hom", files["hom"], "--automaton", files["aut"],
                 "--suite", files["graph"]]) == 0
    assert '"disagreements": []' in capsys.readouterr().out


def test_witness_commands(tmp_path, capsys):
    out = tmp_path / "sig9.json"
    assert main(["witness", "sig", "--k", "9", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    capsys.readouterr()
    assert main(["witness", "G-probe", "--n", "2", "--k", "9", "--i", "1",
                 "--d", "a", "--dprime", "b", "-o", str(tmp_path / "gp.json")]) == 0
    capsys.readouterr()
    assert main(["validate", "--sig", str(out), str(tmp_path / "gp.json")]) == 0
    capsys.readouterr()
    assert main(["witness", "probe", "--n", "2", "--k", "4", "--states", "1",
                 "--budget", "200", "--sample", "100"]) == 0
    probe_out = capsys.readouterr().out
    assert '"automata_checked": 300' in probe_out


def _witness_doc(tmp_path, capsys, name, argv):
    """The document ``witness <name> --k 9`` writes, after checking that the
    command exits 0 and reports where it wrote."""
    out = tmp_path / f"{name}.json"
    assert main(["witness", name, "--k", "9", *argv, "-o", str(out), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["written"] == str(out)
    return out.read_text()


def test_witness_hom_and_automata_parse_back_valid(tmp_path, capsys):
    """``witness hom`` and both ``witness automaton`` documents parse back
    over the witness signature and validate, the automata with n states."""
    sig = formats.signature_from(json.loads(_witness_doc(tmp_path, capsys, "sig", [])))
    h = formats.homomorphism_from(json.loads(_witness_doc(tmp_path, capsys, "hom", [])))
    assert validate_homomorphism(h).ok and len(h.patterns) == len(sig.labels)
    for escape in ([], ["--escape"]):
        doc = json.loads(_witness_doc(tmp_path, capsys, "automaton", ["--n", "5", *escape]))
        aut = formats.automaton_from(doc, sig)
        assert validate_automaton(aut).ok and aut.state_count == 5


@pytest.mark.parametrize("kind", ["graph", "aut", "dta"])
def test_validate_without_sig_exits_two(files, capsys, kind):
    """A graph, an automaton or a tree automaton needs ``--sig`` to validate."""
    assert main(["validate", files[kind]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "validation needs --sig" in err


def test_tree_commands(files, tmp_path, capsys):
    assert main(["tree", "validate", "--sig", files["tree_sig"], "--dta", files["dta"],
                 "--tree", files["tree"]]) == 0
    capsys.readouterr()
    assert main(["tree", "eval", "--sig", files["tree_sig"], "--dta", files["dta"],
                 "--tree", files["tree"]]) == 0
    capsys.readouterr()
    bundle_dir = tmp_path / "bundle"
    assert main(["tree", "characterize", "--sig", files["tree_sig"], "--dta", files["dta"],
                 "-o", str(bundle_dir)]) == 0
    capsys.readouterr()
    assert (bundle_dir / "padding_hom.json").exists()
    assert main(["hom", "validate", "--hom", str(bundle_dir / "padding_hom.json")]) == 0
    capsys.readouterr()
    assert main(["tree", "verify", "--sig", files["tree_sig"], "--dta", files["dta"],
                 "--max-nodes", "5"]) == 0
    assert '"counterexamples": []' in capsys.readouterr().out


def test_tree_eval_of_a_cyclic_graph_exits_two(files, tmp_path, capsys):
    """Child edges that close a cycle: eval refuses the graph, and validate
    reports it not a tree."""
    nodes = [("r", "root"), ("u", "n1"), ("x", "l2")]
    edges = [("r", "+1", "u"), ("r", "+2", "x"), ("u", "+1", "u"), ("u", "+2", "u")]
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(formats.dumps({
        "kind": "graph", "initial": "r",
        "nodes": [{"id": v, "label": lab} for v, lab in nodes],
        "edges": [{"from": v, "dir": d, "to": u} for v, d, u in edges],
    }))
    tree = ["--sig", files["tree_sig"], "--dta", files["dta"], "--tree", str(cyclic)]
    assert main(["tree", "eval", *tree]) == 2
    assert "error: node 'u' is reached twice" in capsys.readouterr().err
    assert main(["tree", "validate", *tree]) == 1


def test_tree_commands_refuse_a_label_with_an_undeclared_direction(tmp_path, capsys):
    """A tree signature whose root lists a direction it does not declare:
    ``tree validate`` reports the structural finding that ``validate``
    reports, and exits 1; ``tree verify`` and ``tree characterize`` refuse
    the signature and exit 2."""
    from gwalk.trees import BottomUpTreeAutomaton

    sig = Signature.from_pairs([("+1", "-1")], [("root", True, {"+1", "initial"}),
                                                ("leaf", False, {"-1"})])
    dta = BottomUpTreeAutomaton(sig, ["q"], "q", {("root", ("q",)): "q", ("leaf", ()): "q"})
    paths = {"sig": tmp_path / "sig.json", "dta": tmp_path / "dta.json"}
    paths["sig"].write_text(formats.dumps(formats.signature_doc(sig)))
    paths["dta"].write_text(formats.dumps(formats.tree_automaton_doc(dta)))
    finding = "[structural] unknown-direction at root: label uses undeclared direction 'initial'"
    assert main(["validate", str(paths["sig"])]) == 1
    assert finding in capsys.readouterr().out
    tree = ["--sig", str(paths["sig"]), "--dta", str(paths["dta"])]
    assert main(["tree", "validate", *tree]) == 1
    assert finding in capsys.readouterr().out
    for argv in (["verify", *tree], ["characterize", *tree, "-o", str(tmp_path / "out")]):
        assert main(["tree", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid tree automaton: ") and finding in err
    assert not (tmp_path / "out").exists()


def test_repro_commands(capsys):
    assert main(["repro", "thm1", "--suite", "small"]) == 0
    out = capsys.readouterr().out
    assert '"disagreements": 0' in out and '"multi_initial_states": 37' in out
    assert main(["repro", "thm4", "--max-nodes", "4"]) == 0
    assert '"counterexamples": []' in capsys.readouterr().out


def test_repro_claim3(capsys):
    assert main(["repro", "claim3", "--n", "4", "--k", "9"]) == 0
    out = capsys.readouterr().out
    assert '"counting_matches_iff_i_equals_j": true' in out
    assert '"probe_matches_iff_d_equals_dprime": true' in out


def test_validate_checks_witness_fragments(tmp_path, capsys):
    """The fragments ``witness H`` and ``witness F`` write validate clean
    against the witness signature; dropping one edge (a self-loop, so that
    the body stays connected) leaves open slots."""
    sig = tmp_path / "sig9.json"
    assert main(["witness", "sig", "--k", "9", "-o", str(sig)]) == 0
    frags = [tmp_path / "h.json", tmp_path / "f.json"]
    assert main(["witness", "H", "--n", "2", "--k", "9", "-o", str(frags[0])]) == 0
    assert main(["witness", "F", "--n", "2", "--k", "9", "--d", "c1", "--i", "1",
                 "-o", str(frags[1])]) == 0
    capsys.readouterr()
    assert main(["validate", "--sig", str(sig), *map(str, frags), "--format", "machine"]) == 0
    files = json.loads(capsys.readouterr().out)["results"]["files"]
    assert [f["kind"] for f in files.values()] == ["pluggable", "pluggable"]
    assert all(f["problems"] == [] for f in files.values())
    assert main(["validate", str(frags[0])]) == 2
    assert "pluggable validation needs --sig" in capsys.readouterr().err
    for frag in frags:
        doc = json.loads(frag.read_text())
        loop = next(i for i, e in enumerate(doc["edges"]) if e["from"] == e["to"])
        dropped = doc["edges"].pop(loop)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--sig", str(sig), str(bad), "--format", "machine"]) == 1
        problems = json.loads(capsys.readouterr().out)["results"]["files"][str(bad)]["problems"]
        assert problems and all(" open-slot at <fragment>/" in p for p in problems)
        assert any(f"<fragment>/{dropped['from']}+{dropped['dir']}:" in p for p in problems)


def test_validate_reports_a_fragment_edge_outside_its_label(tmp_path, capsys):
    """A start block whose middle node ``lo2`` is relabelled ``cl``, a left
    end with no ``-a`` direction, keeps every slot of ``cl`` filled, but its
    internal ``-a`` edge is one too many."""
    sig, frag = tmp_path / "sig9.json", tmp_path / "h.json"
    assert main(["witness", "sig", "--k", "9", "-o", str(sig)]) == 0
    assert main(["witness", "H", "--n", "2", "--k", "9", "-o", str(frag)]) == 0
    capsys.readouterr()
    doc = json.loads(frag.read_text())
    (node,) = (v for v in doc["nodes"] if v["id"] == "lo2")
    node["label"] = "cl"
    frag.write_text(json.dumps(doc))
    assert main(["validate", "--sig", str(sig), str(frag), "--format", "machine"]) == 1
    problems = json.loads(capsys.readouterr().out)["results"]["files"][str(frag)]["problems"]
    assert [p.split(":")[0] for p in problems] == ["[invariant] extra-edge at <fragment>/lo2+-a"]


@pytest.mark.parametrize("argv", [
    ["witness", "sig", "--k", "8"],
    ["witness", "hom", "--k", "6"],
    ["witness", "G-counter", "--n", "4", "--k", "8", "--d", "a", "--i", "0", "--j", "0"],
    ["witness", "G-probe", "--n", "2", "--k", "6", "--d", "a", "--i", "0", "--dprime", "b"],
    ["witness", "G-probe", "--n", "2", "--k", "4", "--d", "a", "--i", "0", "--dprime", "b"],
])
def test_witness_signature_commands_need_nine_directions(capsys, argv):
    """The witness signature takes its cyclic order from its 9 or more
    directions, so every command that builds it refuses a smaller --k."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "must be at least 9" in err


@pytest.mark.parametrize("max_nodes, digest", [
    (7, "2588238abf23dd9ec05c75b2a1c34b564893913299e4fbae1836d0e1f7d121a2"),
    (9, "d2a9509648b4e140a87f89efc78f515b1fd6efaa82278087cc9abb2d47db66f9"),
    (11, "5f9def381bf9f60ec060759d5485202dd101f55e14c17229ac82ff77a0269f21"),
])
def test_repro_thm4_machine_report_is_pinned(capsys, max_nodes, digest):
    assert main(["repro", "thm4", "--max-nodes", str(max_nodes), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n, k, digest", [
    (4, 9, "8e262467dd1700de1351ec2f396fa768c239402b9ae84b3a3b007ed2b9382d42"),
    (5, 10, "522e59d4fcedcb45ea167430eb90db2d735fc54bee442e27e2647fbdddc981c6"),
    (8, 15, "b814052630df6fb84ededf99b746681ab966b63516a28b394189edfcdb4f8992"),
])
def test_witness_sweep_machine_report_is_pinned(capsys, n, k, digest):
    """The sweep's tables case by case, not only the counts ``repro claim3``
    reports."""
    assert main(["witness", "sweep", "--n", str(n), "--k", str(k), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_tree_characterize_files_are_pinned(files, tmp_path, capsys):
    """The four documents ``tree characterize`` writes for the leaf-parity
    fixtures, byte for byte."""
    out = tmp_path / "characterized"
    assert main(["tree", "characterize", "--sig", files["tree_sig"], "--dta", files["dta"],
                 "-o", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == {
        "annotated_signature.json":
            "d08f151a316be5b671e1e4633310baa4df6e0cc497782f33f116513fb6a98bea",
        "encoding_hom.json": "075d6410755e5f6f9bcd63bd4e39eef56a8ae116209da537b952c592c92e70e9",
        "mid_signature.json": "0b761b461bef809de1b9d65f3e477527719390ce2aeb75b6bd8df0e78aefd3b4",
        "padding_hom.json": "50ec4691039a2fb9adffe6a1f95d059b45dbe02022f93d3dd243d2bb936e0eaf",
    }


@pytest.mark.parametrize("broken, outcome, failures", [
    (corrupted, "accept", ["step 1: B stands for an entry of 'n1' in direction 'a' in state "
                           "'q1', but A entered 'n1' in direction 'a' in state 'q0'"]),
    (lambda b, decode: WalkingAutomaton(b.sig, b.states, b.initial, [], b.delta), "reject", []),
], ids=["moves", "accepting"])
def test_hom_verify_records_a_disagreement(files, monkeypatch, capsys, broken, outcome, failures):
    """An inverse with its moves sent to other states, or with no accepting
    pair, disagrees with the fixture automaton on the fixture graph:
    ``hom verify`` exits 1 with that graph's record."""
    b, decode = gwalk.hom.invert_detailed(leafy_parity_automaton(), leaf_expanding_hom())
    monkeypatch.setattr(gwalk.hom, "invert_detailed", lambda *args: (broken(b, decode), decode))
    assert main(["hom", "verify", "--hom", files["hom"], "--automaton", files["aut"],
                 "--suite", files["graph"], "--format", "machine"]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == {"graphs": 1, "disagreements": [{
        "graph": files["graph"], "inverse_outcome": outcome, "original_outcome": "accept",
        "alignment_failures": failures}]}


@pytest.mark.parametrize("dropped, mismatches", [
    (lambda q, label: (q, label) == ("q0", "q0?"),
     [f"counting i={i} j={i} d={d}: accepted=False"
      for d in ("a", "-a", "b", "-b", "c1", "-c1", "c2", "-c2", "z") for i in range(4)]),
    (lambda q, label: label == "acc_a", [f"probe i={i} d=a d'=a: accepted=False" for i in range(4)]),
], ids=["final-test", "acc_a"])
@pytest.mark.parametrize("command", [["witness", "sweep"], ["repro", "claim3"]])
def test_sweep_mismatches_are_reported(monkeypatch, capsys, command, dropped, mismatches):
    """A counter automaton that no longer accepts at the final test in q0,
    or at any acc_a label, misses the diagonal of the counting table, or of
    the probe table in direction a: both commands exit 1 and list those
    cases in table order."""
    real = gwalk.witnesses.counter_automaton

    def counter(n, k):
        a = real(n, k)
        accept = [pair for pair in a.accept if not dropped(*pair)]
        return WalkingAutomaton(a.sig, a.states, a.initial, accept, a.delta)

    monkeypatch.setattr(gwalk.witnesses, "counter_automaton", counter)
    assert main([*command, "--n", "4", "--k", "9", "--format", "machine"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["mismatches"] == mismatches


@pytest.mark.parametrize("argv", [
    ["repro", "thm4", "--max-nodes", "0"],
    ["repro", "thm4", "--max-nodes", "-3"],
    ["tree", "verify", "--sig", "s.json", "--dta", "d.json", "--max-nodes", "0"],
    ["repro", "claim3", "--n", "0"],
    ["repro", "claim3", "--k", "0"],
    ["witness", "sweep", "--n", "0", "--k", "3"],
    ["witness", "probe", "--n", "2", "--k", "1"],
    ["witness", "probe", "--n", "1", "--k", "4"],
    ["witness", "H", "--n", "1", "--k", "4"],
    ["witness", "sig", "--k", "3"],
    ["repro", "thm4", "--max-nodes", "seven"],
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--states", "0"],
    ["--states", "-1"],
    ["--budget", "-1"],
    ["--sample", "-5"],
])
def test_out_of_range_probe_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "probe", "--n", "2", "--k", "4", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(gwalk.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.parametrize("argv, digest", [
    ([], "ac8eb607de1d58408a92e44f249fb8e0657dd5151cd48e738d3bc4efa93b6463"),
    (["--n", "5", "--k", "10"], "0c54815eadbe1459b4f9d92c6417d40458b29067df000fee2a43e8096ce9d0e2"),
])
def test_python_dash_m_repro_claim3_report_is_pinned(argv, digest):
    """``python -m gwalk repro claim3`` in a fresh process, byte for byte."""
    proc = subprocess.run(
        [sys.executable, "-m", "gwalk", "repro", "claim3", *argv, "--format", "machine"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


def test_python_dash_m_runs_the_cli():
    """``python -m gwalk`` with the package found through PYTHONPATH only."""
    proc = subprocess.run(
        [sys.executable, "-m", "gwalk", "witness", "probe", "--n", "2", "--k", "4",
         "--states", "0"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: gwalk") and "Traceback" not in proc.stderr


def _cold_imports(statement):
    """The modules that ``statement`` adds to a fresh interpreter started
    without ``site`` (``-S``), with this checkout's package on its path."""
    src = str(Path(gwalk.__file__).resolve().parent.parent)
    program = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
               f"{statement}\n"
               "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", program],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cold_start_imports_only_what_a_command_runs(files):
    """Importing the package generates no code (``dataclasses`` and
    ``inspect`` stay unimported), and the CLI loads the tree, witness and
    suite layers only for the commands that run them: ``validate``, ``run``
    and ``hom verify`` run without them."""
    layers = {"gwalk.trees", "gwalk.witnesses", "gwalk.suites"}
    added = _cold_imports(
        "import gwalk.demo, gwalk.formats, gwalk.hom, gwalk.witnesses, gwalk.trees")
    assert {"gwalk.trees", "gwalk.witnesses"} <= added
    assert not added & {"dataclasses", "inspect"}
    added = _cold_imports("import gwalk.cli")
    assert "gwalk.cli" in added and not added & layers
    runs = [["validate", files["sig"]],
            ["run", "--sig", files["sig"], "--automaton", files["aut"], "--graph", files["graph"]],
            ["hom", "verify", "--hom", files["hom"], "--automaton", files["aut"],
             "--suite", files["graph"]]]
    added = _cold_imports(
        f"from gwalk.cli import main\nassert [main(a) for a in {runs!r}] == [0] * 3")
    assert "gwalk.cli" in added and not added & layers


@pytest.mark.parametrize("argv, digest", [
    ([], "520f099700e91090a4a12099a636700ca0876fc47102c4e41f7db724314f36c7"),
    (["--pair", "F"], "76dc0df7f985fca06222e6c3c7382d7ff92fc262ed1a541fd78fc17d3486418d"),
    (["--states", "1", "--budget", "0"],
     "dc36c3f7a3a6136148af756e4969bc5b791b2e9843e1382e23af24266a0e4815"),
])
def test_witness_probe_machine_report_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("GWA_SEED", raising=False)
    assert main(["witness", "probe", "--n", "2", "--k", "4", *argv, "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["witness", "F", "--n", "2", "--k", "4", "--d", "a", "--i", "5"],
    ["witness", "G-counter", "--n", "2", "--k", "9", "--d", "a", "--i", "0", "--j", "2"],
    ["witness", "G-probe", "--n", "2", "--k", "9", "--d", "a", "--i", "-1", "--dprime", "b"],
    ["witness", "probe", "--n", "2", "--k", "4", "--pair", "F", "--i", "3"],
    ["witness", "automaton", "--n", "3", "--k", "9"],
    ["witness", "automaton", "--n", "4", "--k", "8"],
])
def test_out_of_range_witness_indices_exit_two(tmp_path, capsys, argv):
    out = ["-o", str(tmp_path / "out.json")] if argv[1] != "probe" else []
    assert main(argv + out) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_seed_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("GWA_SEED", "12345")
    assert main(["repro", "thm1", "--suite", "random"]) == 0
    assert '"seed": 12345' in capsys.readouterr().out


def test_bad_seed_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("GWA_SEED", "not-a-number")
    for argv in (["repro", "thm1", "--suite", "small"],
                 ["witness", "probe", "--n", "2", "--k", "4", "--states", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_signature_direction_without_opposite_exits_two(files, tmp_path, capsys):
    doc = json.loads(open(files["sig"]).read())
    del doc["directions"][0]["opposite"]
    bad = tmp_path / "bad_sig.json"
    bad.write_text(formats.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_edge_without_target_exits_two(files, tmp_path, capsys):
    doc = json.loads(open(files["graph"]).read())
    del doc["edges"][0]["to"]
    bad = tmp_path / "bad_graph.json"
    bad.write_text(formats.dumps(doc))
    assert main(["validate", "--sig", files["sig"], str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_graph_node_without_label_exits_two(files, tmp_path, capsys):
    doc = json.loads(open(files["graph"]).read())
    del doc["nodes"][0]["label"]
    bad = tmp_path / "bad_graph.json"
    bad.write_text(formats.dumps(doc))
    assert main(["run", "--sig", files["sig"], "--automaton", files["aut"],
                 "--graph", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_transition_without_next_exits_two(files, tmp_path, capsys):
    doc = json.loads(open(files["aut"]).read())
    del doc["transitions"][0]["next"]
    bad = tmp_path / "bad_aut.json"
    bad.write_text(formats.dumps(doc))
    assert main(["run", "--sig", files["sig"], "--automaton", str(bad),
                 "--graph", files["graph"]]) == 2
    assert "error:" in capsys.readouterr().err


def _rewritten(path, tmp_path, edit):
    """A copy of the document at ``path`` after ``edit(doc)``."""
    doc = json.loads(open(path).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(formats.dumps(doc))
    return str(bad)


@pytest.mark.parametrize("dirs", ["b", "-ab"])
def test_validate_signature_with_string_dirs_exits_two(files, tmp_path, capsys, dirs):
    """A label's ``dirs`` given as a string is refused, not read as the set
    of its characters."""
    def edit(doc):
        doc["labels"][-1]["dirs"] = dirs
    assert main(["validate", _rewritten(files["sig"], tmp_path, edit)]) == 2
    assert f"must be a list, got {dirs!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("states", "qs", "automaton states must be a list, got 'qs'"),
    ("accept", ["q2", "qr"], "accepting pair must be a list of 2 items, got 'q2'"),
    ("accept", [["q0", "t", "x"]], "accepting pair must be a list of 2 items"),
])
def test_run_automaton_with_string_lists_exits_two(files, tmp_path, capsys, field, value,
                                                   message):
    def edit(doc):
        doc[field] = value
    bad = _rewritten(files["aut"], tmp_path, edit)
    assert main(["run", "--sig", files["sig"], "--automaton", bad,
                 "--graph", files["graph"]]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _set(*path_and_value):
    """An edit setting the field at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("aut", _set("initial", ["q0"]), "initial state must be a string, got ['q0']"),
    ("sig", _set("labels", 1, "initial", "no"),
     "initial flag of label 's' must be true or false, got 'no'"),
    ("graph", _set("nodes", 0, "id", 7), "graph node id and label must be strings, got 7"),
    ("graph", _set("edges", 0, "to", 7), "edge ends must be strings"),
    ("hom", _set("patterns", "t", "ports", "a", 7), "port node must be a string, got 7"),
], ids=["automaton-initial", "label-initial", "node-id", "edge-end", "port-node"])
def test_wrongly_typed_names_and_flags_exit_two(files, tmp_path, capsys, name, edit, message):
    """A name must be a JSON string and a flag a JSON bool: nothing is
    converted with str() or bool()."""
    use = {**files, name: _rewritten(files[name], tmp_path, edit)}
    argv = {
        "aut": ["run", "--sig", use["sig"], "--automaton", use["aut"], "--graph", use["graph"]],
        "sig": ["validate", use["sig"]],
        "graph": ["validate", "--sig", use["sig"], use["graph"]],
        "hom": ["hom", "validate", "--hom", use["hom"]],
    }[name]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_tree_automaton_with_string_args_exits_two(files, tmp_path, capsys):
    def edit(doc):
        doc["delta"][-1]["args"] = "".join(doc["delta"][-1]["args"])
    bad = _rewritten(files["dta"], tmp_path, edit)
    assert main(["tree", "validate", "--sig", files["tree_sig"], "--dta", bad]) == 2
    assert "tree transition args must be a list" in capsys.readouterr().err


def test_validate_checks_a_tree_automaton_against_its_signature(files, tmp_path, capsys):
    """``validate --sig`` reads a tree automaton document: 0 for a good one,
    1 for one that accepts in an undeclared state."""
    assert main(["validate", "--sig", files["tree_sig"], files["dta"]]) == 0
    capsys.readouterr()
    bad = _rewritten(files["dta"], tmp_path, _set("accept", "q9"))
    assert main(["validate", "--sig", files["tree_sig"], bad, "--format", "machine"]) == 1
    assert "unknown-accepting-state" in capsys.readouterr().out


def test_hom_validate_reports_target_signature_findings(files, tmp_path, capsys):
    """A target label with an undeclared direction, used by no pattern."""
    def edit(doc):
        doc["target_sig"]["labels"].append({"name": "q", "initial": False, "dirs": ["zz"]})
    assert main(["hom", "validate", "--hom", _rewritten(files["hom"], tmp_path, edit),
                 "--format", "machine"]) == 1
    problems = json.loads(capsys.readouterr().out)["results"]["problems"]
    assert problems == ["[structural] unknown-direction at target_sig/q: "
                        "label uses undeclared direction 'zz'"]


def test_hom_apply_pattern_without_port_exits_two(files, tmp_path, capsys):
    """A pattern lacking the port of one of its label's directions."""
    doc = json.loads(open(files["hom"]).read())
    del doc["patterns"]["t"]["ports"]["b"]
    bad = tmp_path / "bad_hom.json"
    bad.write_text(formats.dumps(doc))
    assert main(["hom", "apply", "--hom", str(bad), "--graph", files["graph"]]) == 2
    assert f"error: {bad}: invalid: " in (err := capsys.readouterr().err)
    assert "port-set-mismatch at t: ports ['-a', '-b'] but label directions" in err


def test_hom_apply_edge_without_port_exits_two(files, tmp_path, capsys):
    """A source edge in a direction that its node's pattern has no port for."""
    doc = json.loads(open(files["graph"]).read())
    doc["edges"].append({"from": doc["initial"], "dir": "-a", "to": doc["initial"]})
    bad = tmp_path / "bad_graph.json"
    bad.write_text(formats.dumps(doc))
    assert main(["hom", "apply", "--hom", files["hom"], "--graph", str(bad)]) == 2
    assert f"error: {bad}: invalid: " in (err := capsys.readouterr().err)
    assert f"extra-edge at {doc['initial']}+-a" in err


def test_hom_apply_disconnected_graph_exits_two(files, tmp_path, capsys):
    """A second component, one node with self-loops, writes no image."""
    doc = json.loads(open(files["graph"]).read())
    doc["nodes"].append({"id": "m", "label": "s"})
    doc["edges"] += [{"from": "m", "dir": d, "to": "m"} for d in ("a", "b")]
    bad = tmp_path / "bad_graph.json"
    bad.write_text(formats.dumps(doc))
    image = tmp_path / "image.json"
    assert main(["hom", "apply", "--hom", files["hom"], "--graph", str(bad),
                 "-o", str(image)]) == 2
    assert "[invariant] disconnected at <graph>" in capsys.readouterr().err
    assert not image.exists()


def test_hom_apply_pattern_with_open_slot_exits_two(files, tmp_path, capsys):
    """A pattern whose internal edge is dropped, leaving two slots open."""
    doc = json.loads(open(files["hom"]).read())
    del doc["patterns"]["t"]["edges"][0]
    bad = tmp_path / "bad_hom.json"
    bad.write_text(formats.dumps(doc))
    assert main(["hom", "apply", "--hom", str(bad), "--graph", files["graph"]]) == 2
    assert "[invariant] open-slot at t/" in capsys.readouterr().err


def test_hom_apply_pattern_with_an_edge_outside_its_label_exits_two(files, tmp_path, capsys):
    """A pattern body with an internal edge in a direction its node's label
    lacks writes no image."""
    bad, image = tmp_path / "bad_hom.json", tmp_path / "image.json"
    bad.write_text(formats.dumps(formats.homomorphism_doc(extra_edge_hom())))
    assert main(["hom", "apply", "--hom", str(bad), "--graph", files["graph"],
                 "-o", str(image)]) == 2
    assert f"error: {bad}: invalid: [invariant] extra-edge at t/x+a" in capsys.readouterr().err
    assert not image.exists()


def test_run_with_undeclared_states_reports_the_loop(tmp_path, capsys):
    """Used states beyond the declared ones raise the walk's step bound."""
    paths = {"sig": tmp_path / "ring_sig.json", "aut": tmp_path / "aut.json",
             "graph": tmp_path / "ring.json"}
    paths["sig"].write_text(formats.dumps(formats.signature_doc(ring_signature())))
    paths["aut"].write_text(formats.dumps(formats.automaton_doc(undeclared_state_automaton())))
    paths["graph"].write_text(formats.dumps(formats.graph_doc(three_ring())))
    assert main(["run", "--sig", str(paths["sig"]), "--automaton", str(paths["aut"]),
                 "--graph", str(paths["graph"]), "--format", "machine"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["outcome"] == "loop" and results["steps"] == 6


@pytest.mark.parametrize("sub", ["invert", "verify"])
def test_hom_without_initial_source_label_exits_two(files, tmp_path, capsys, sub):
    doc = json.loads(open(files["hom"]).read())
    for lab in doc["source_sig"]["labels"]:
        lab["initial"] = False
    bad = tmp_path / "bad_hom.json"
    bad.write_text(formats.dumps(doc))
    assert main(_hom_argv(sub, str(bad), files["graph"], files["aut"])) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: invalid: [invariant] initial-node-forbidden at r" in err


def _hom_argv(sub, hom, graph, aut):
    argv = ["hom", sub, "--hom", hom, "--automaton", aut]
    return argv + ["--suite", graph] if sub == "verify" else argv


@pytest.mark.parametrize("sub", ["invert", "verify"])
def test_hom_with_renamed_opposite_exits_two(files, tmp_path, capsys, sub):
    """A source direction whose opposite is renamed to an undeclared one."""
    doc = json.loads(open(files["hom"]).read())
    (b,) = (x for x in doc["source_sig"]["directions"] if x["name"] == "b")
    b["opposite"] = "zz"
    bad = tmp_path / "bad_hom.json"
    bad.write_text(formats.dumps(doc))
    assert main(_hom_argv(sub, str(bad), files["graph"], files["aut"])) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: invalid: [invariant] opposite-mismatch at b" in err


def test_hom_verify_graph_without_an_edge_exits_two(files, tmp_path, capsys):
    """A suite graph with one edge dropped; the first invalid file is named."""
    doc = json.loads(open(files["graph"]).read())
    gone = doc["edges"].pop(0)
    bad = tmp_path / "bad_graph.json"
    bad.write_text(formats.dumps(doc))
    argv = _hom_argv("verify", files["hom"], files["graph"], files["aut"]) + [str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: invalid: [invariant] missing-edge at {gone['from']}+{gone['dir']}" in err


def test_agree_mismatch_exits_one(files, tmp_path, capsys):
    sig = leafy_signature()
    never = WalkingAutomaton(sig, ["q0"], "q0", [], {})
    always = WalkingAutomaton(sig, ["q0"], "q0", [("q0", lab) for lab in sig.label_names], {})
    p1, p2 = tmp_path / "never.json", tmp_path / "always.json"
    p1.write_text(formats.dumps(formats.automaton_doc(never)))
    p2.write_text(formats.dumps(formats.automaton_doc(always)))
    assert main(["agree", "--sig", files["sig"], "--a1", str(p1), "--a2", str(p2),
                 "--graphs", files["graph"]]) == 1
    assert '"acceptance_agreement": false' in capsys.readouterr().out


def test_dot_export(files, tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["dot", "--sig", files["sig"], "--graph", files["graph"],
                 "-o", str(target)]) == 0
    assert target.read_text().startswith("graph G {")


def test_dot_export_escapes_quoted_strings(tmp_path, capsys):
    """``gwalk dot`` writes ids and labels holding ``"`` and ``\\`` as DOT
    quoted strings that read back as themselves."""
    sig, graph, target = (tmp_path / name for name in ("sig.json", "g.json", "g.dot"))
    g = quoting_graph()
    sig.write_text(formats.dumps(formats.signature_doc(g.sig)))
    graph.write_text(formats.dumps(formats.graph_doc(g)))
    assert main(["validate", "--sig", str(sig), str(graph)]) == 0
    assert main(["dot", "--sig", str(sig), "--graph", str(graph), "-o", str(target)]) == 0
    assert dot_statements(target.read_text()) == QUOTED_STATEMENTS


# The arguments, but ``-o``, of every subcommand that writes its output to a file.
WRITERS = {
    "dot": lambda f: ["--sig", f["sig"], "--graph", f["graph"]],
    "hom apply": lambda f: ["--hom", f["hom"], "--graph", f["graph"]],
    "hom invert": lambda f: ["--hom", f["hom"], "--automaton", f["aut"]],
    "witness sig": lambda f: ["--k", "9"],
    "witness hom": lambda f: ["--k", "9"],
    "witness automaton": lambda f: ["--n", "4", "--k", "9"],
    "witness H": lambda f: ["--n", "2", "--k", "4"],
    "witness F": lambda f: ["--n", "2", "--k", "4", "--d", "a"],
    "witness G-counter": lambda f: ["--n", "2", "--k", "9", "--d", "a", "--i", "0", "--j", "1"],
    "witness G-probe": lambda f: ["--n", "2", "--k", "9", "--d", "a", "--i", "1",
                                  "--dprime", "b"],
    "tree characterize": lambda f: ["--sig", f["tree_sig"], "--dta", f["dta"]],
}


def _writers(parser, path=()):
    """The subcommands below ``parser`` that take ``-o``, as in ``WRITERS``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _writers(sub, path + (name,))
        elif "-o" in action.option_strings:
            yield " ".join(path)


@pytest.mark.parametrize("command, target", [
    *((name, target) for name in WRITERS if name != "tree characterize"
      for target in ("missing-directory", "under-a-file", "a-directory")),
    ("tree characterize", "under-a-file"),
    ("tree characterize", "a-file"),
])
def test_an_unwritable_output_exits_two(files, tmp_path, capsys, command, target):
    """Every subcommand that takes ``-o`` refuses a path it cannot write, a
    file in a missing directory or where a file or a directory stands, with
    exit 2 and an error naming the path."""
    assert set(WRITERS) == set(_writers(_build_parser(str(DEFAULT_SEED))))
    (tmp_path / "file").write_text("")
    out = {"missing-directory": tmp_path / "missing" / "out", "a-directory": tmp_path,
           "under-a-file": tmp_path / "file" / "out", "a-file": tmp_path / "file"}[target]
    assert main([*command.split(), *WRITERS[command](files), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot write: ")


def _slots(doc, path=()):
    """(path, value) of every key and list entry below the document root."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,), value
            yield from _slots(value, path + (key,))


def _mutations(doc, rng):
    """Copies of ``doc``, each with one key, value or list entry changed: for
    every slot, dropped, given each other JSON type, and renamed to a string
    drawn from the document (a key, or a string value; a flag is negated)."""
    slots = list(_slots(doc))
    names = sorted({"zz"} | {x for path, value in slots for x in (path[-1], value)
                             if isinstance(x, str)})
    text = json.dumps(doc)
    for path, value in slots:
        *above, key = path
        changes = [("drop", None)]
        changes += [("retype", v) for v in (None, 7, "x", [], {}) if type(v) is not type(value)]
        if isinstance(value, bool):
            changes.append(("rename", not value))
        elif isinstance(value, str):
            changes.append(("rename", rng.choice(names)))
        if isinstance(key, str):
            changes.append(("rekey", rng.choice(names)))
        for op, new in changes:
            mutant = json.loads(text)
            parent = mutant
            for step in above:
                parent = parent[step]
            if op == "drop":
                del parent[key]
            elif op == "rekey":
                parent[new] = parent.pop(key)
            else:
                parent[key] = new
            yield mutant, f"{op} {list(path)} -> {new!r}"


def _fuzz(files):
    """(name, mutant, how) for every mutation of the fixture documents, in
    one seeded stream."""
    rng = random.Random(20261)
    for name in ("sig", "aut", "graph", "hom", "tree_sig", "dta", "tree"):
        for doc, how in _mutations(json.loads(open(files[name]).read()), rng):
            yield name, doc, how


@pytest.mark.parametrize("readers", ["graphs", "trees"])
def test_commands_survive_mutated_documents(files, tmp_path, capsys, readers):
    """Every single-slot mutation of the fixture documents, through each
    command that reads it: those that read graphs, automata and
    homomorphisms, or those that read trees.  Each run raises nothing and
    exits 0, 1 or 2, and all three codes occur."""
    bad, out = str(tmp_path / "mutated.json"), str(tmp_path / "characterized")
    commands = {"graphs": lambda use: [
        ["validate", bad] if use["sig"] == bad else ["validate", "--sig", use["sig"], bad],
        ["run", "--sig", use["sig"], "--automaton", use["aut"], "--graph", use["graph"]],
        ["trace", "--sig", use["sig"], "--automaton", use["aut"], "--graph", use["graph"]],
        ["trace", "--sig", use["sig"], "--automaton", use["aut"], "--graph", use["graph"],
         "--max-len", "3"],
        ["agree", "--sig", use["sig"], "--a1", use["aut"], "--a2", files["aut"],
         "--graphs", use["graph"]],
        ["dot", "--sig", use["sig"], "--graph", use["graph"]],
        ["hom", "apply", "--hom", use["hom"], "--graph", use["graph"]],
        ["hom", "invert", "--hom", use["hom"], "--automaton", use["aut"]],
        ["hom", "verify", "--hom", use["hom"], "--automaton", use["aut"],
         "--suite", use["graph"]],
    ], "trees": lambda use: [
        ["tree", "validate", "--sig", use["tree_sig"], "--dta", use["dta"],
         "--tree", use["tree"]],
        ["tree", "eval", "--sig", use["tree_sig"], "--dta", use["dta"], "--tree", use["tree"]],
        ["tree", "verify", "--sig", use["tree_sig"], "--dta", use["dta"], "--max-nodes", "3"],
        ["tree", "characterize", "--sig", use["tree_sig"], "--dta", use["dta"], "-o", out],
    ]}[readers]
    crashes, codes = [], set()
    for name, doc, how in _fuzz(files):
        # A command that does not read the mutant would repeat its unmutated run.
        argvs = [argv for argv in commands({**files, name: bad}) if bad in argv]
        if argvs:
            with open(bad, "w") as fh:
                fh.write(json.dumps(doc))
        for argv in argvs:
            try:
                code = main(argv)
            except Exception as exc:  # every crash is a finding
                crashes.append(f"{argv[:2]} on {name} after {how}: {exc!r}")
            else:
                codes.add(code)
                if code not in (0, 1, 2):
                    crashes.append(f"{argv[:2]} on {name} after {how}: exit {code}")
            capsys.readouterr()
    assert not crashes, "\n".join(crashes[:10])
    assert codes == {0, 1, 2}


def test_valid_leafy_homomorphism_mutants_have_valid_images(files):
    """For every mutant of the leafy homomorphism that validates, with the
    fixture graph valid over its source signature, the image validates: the
    pattern check leaves no slot rule for the image to break.  It is stored
    as the oracle's node-by-node image is."""
    graph = json.loads(open(files["graph"]).read())
    checked = 0
    for name, doc, how in _fuzz(files):
        if name != "hom":
            continue
        try:
            h = formats.homomorphism_from(doc)
            g = formats.graph_from(graph, h.source)
        except GwalkError:
            continue
        if validate_homomorphism(h).ok and validate_graph(g, h.source).ok:
            checked += 1
            image = apply(h, g)
            assert validate_graph(image).ok, how
            assert _stored(image) == _stored(oracle.apply_detailed(h, g)[0]), how
    # 26 mutants validate: one that retypes a label's initial flag is refused
    # as a document, even where bool() would read the flag it replaced.
    assert checked >= 24


def _stored(g):
    """What a graph or pattern is stored as, but the half-edges kept beside
    the tables, whose order follows the order they were written in."""
    return (g.sig, g.initial, g.ports, g.names, g.index, g.labels, g.lab, g.nxt, g.port,
            dict(g.loose))


def _findings(rep):
    return sorted((p.kind, p.code, p.subject, p.detail) for p in rep.problems)


def _bodies(files):
    """(body document, its signature document, parsed body, validate's
    subject) for the fixture graph and homomorphism and every mutant of them
    that parses, a homomorphism giving each of its patterns."""
    sig_doc = json.loads(open(files["sig"]).read())
    docs = [(json.loads(open(files[name]).read()), name) for name in ("graph", "hom")]
    docs += [(doc, name) for name, doc, _ in _fuzz(files) if name in ("graph", "hom")]
    for doc, name in docs:
        try:
            if name == "graph":
                yield doc, sig_doc, formats.graph_from(doc, formats.signature_from(sig_doc)), ""
            else:
                h = formats.homomorphism_from(doc)
                for lab, p in h.patterns.items():
                    yield doc["patterns"][lab], doc["target_sig"], p, lab
        except GwalkError:
            continue


def test_storage_matches_the_documents(files):
    """Every graph and pattern parsed from the fixture documents and their
    mutants holds the nodes and edges the document lists, read from the JSON
    alone: each listed edge with its symmetric half by the signature
    document's opposites, later entries winning.  The name constructor fed
    those containers fills the same tables and finds the same problems; the
    kept-beside halves are compared as a mapping, and the findings sorted,
    as their order follows the order the halves were written in."""
    checked = 0
    for doc, sig_doc, g, subject in _bodies(files):
        opposite = {d["name"]: d["opposite"] for d in sig_doc["directions"]}
        nodes = [(n["id"], n["label"]) for n in doc["nodes"]]
        edges = {}
        for e in doc["edges"]:
            edges[(e["from"], e["dir"])] = e["to"]
            edges[(e["to"], opposite[e["dir"]])] = e["from"]
        assert (list(g.nodes), dict(g.edges)) == (nodes, edges)
        named = Graph(g.sig, nodes, g.initial, edges, g.ports)
        assert _stored(named) == _stored(g)
        assert _findings(validate_graph(named, g.sig, subject)) == \
            _findings(validate_graph(g, g.sig, subject))
        checked += 1
    assert checked > 500


def _read(parse, doc, *args):
    """What ``parse(doc, *args)`` gives: the stored tables of the graph, or
    of each pattern, with the kept-beside halves in the order written; or
    the type and message of the error it raises."""
    try:
        out = parse(doc, *args)
    except Exception as exc:
        return type(exc), str(exc)
    graphs = out.patterns.items() if isinstance(out, Homomorphism) else [("", out)]
    return [(lab, _stored(g), g.loose) for lab, g in graphs]


def _crafted_bodies():
    """(name, graph document, signature) for corner cases of the node and
    edge lists: an 8-node ring over a signature with a self-opposite
    direction s, varied one way at a time."""
    sig = Signature.from_pairs([("a", "-a")], [("r", True, {"a", "-a", "s"}),
                                               ("c", False, {"a", "-a", "s"})], ["s"])
    odd = Signature((*sig.directions, Direction("h", "zz")), sig.labels)

    def ring(nodes=None, edges=None, where=sig):
        ids = [f"n{i}" for i in range(8)]
        return {
            "kind": "graph", "initial": "n0",
            "nodes": [{"id": v, "label": "c" if i else "r"} for i, v in enumerate(ids)]
            if nodes is None else nodes,
            "edges": [{"from": v, "dir": "a", "to": ids[(i + 1) % 8]} for i, v in enumerate(ids)]
            if edges is None else edges,
        }, where

    base, _ = ring()
    nodes, edges = base["nodes"], base["edges"]

    def edge(v, d, u):
        return {"from": v, "dir": d, "to": u}

    def without(entry, key):
        return {k: x for k, x in entry.items() if k != key}

    yield "ring", *ring()
    yield "duplicate id", *ring(nodes + [{"id": "n2", "label": "r"}])
    yield "duplicate id first", *ring([{"id": "n5", "label": "c"}] + nodes)
    yield "edge listed twice", *ring(edges=edges + edges[:1])
    yield "both halves listed", *ring(edges=edges + [edge("n1", "-a", "n0")])
    yield "later edge wins", *ring(edges=edges + [edge("n0", "a", "n5")])
    yield "unknown end", *ring(edges=edges[:3] + [edge("n3", "a", "zz")] + edges[4:])
    yield "unknown start", *ring(edges=[edge("zz", "a", "n0")] + edges)
    yield "unknown end, then the slot written", *ring(edges=[edge("n0", "a", "zz")] + edges)
    yield "unknown direction", *ring(edges=edges[:5] + [edge("n5", "q", "n6")] + edges[6:])
    yield "unhashable direction", *ring(edges=edges[:2] + [edge("n2", [], "n3")] + edges[3:])
    yield "non-string direction", *ring(edges=edges[:2] + [edge("n2", 7, "n3")] + edges[3:])
    yield "self-opposite", *ring(edges=edges + [edge("n0", "s", "n4"), edge("n2", "s", "n2")])
    yield "undeclared opposite", *ring(edges=edges + [edge("n0", "h", "n4")], where=odd)
    yield "undeclared opposite unused", *ring(where=odd)
    yield "empty", *ring([], [])
    yield "no edges", *ring(edges=[])
    yield "string lists", *ring("", "")
    yield "two node faults", *ring(nodes[:3] + [{"id": 333, "label": "c"}] + nodes[4:7]
                                   + [without(nodes[7], "label")])
    yield "node and edge faults", *ring(nodes[:6] + [without(nodes[6], "id"), nodes[7]],
                                        [edge("n0", "a", 5)] + edges)
    yield "two edge faults", *ring(edges=edges[:2] + [edge("n2", "a", 5)] + edges[3:5]
                                   + [without(edges[5], "dir")] + edges[6:])
    yield "edge fault after an unknown direction", *ring(
        edges=[edge("n0", "q", "n1"), without(edges[1], "to")] + edges[2:])
    yield "node fault and null edges", {**ring([{"id": "n0"}])[0], "edges": None}, sig
    no_edges = without(base, "edges")
    yield "no edges field", no_edges, sig
    yield "no edges field and a node fault", {**no_edges, "nodes": [{"label": "r"}]}, sig
    yield "not an object", [], sig


def test_columnar_reader_matches_the_entry_reader(files, monkeypatch):
    """``graph_from`` and ``homomorphism_from`` read every fixture
    document, every mutant of the fixture graph and homomorphism, and the
    crafted corner cases into the tables, and in-order kept-beside halves,
    that the entry-by-entry reference reader writes, or raise its error:
    the same type, the same message."""
    sig = formats.signature_from(json.loads(open(files["sig"]).read()))
    cases = [("graph", json.loads(open(files["graph"]).read()), sig, "fixture"),
             ("hom", json.loads(open(files["hom"]).read()), None, "fixture")]
    cases += [(name, doc, sig if name == "graph" else None, how)
              for name, doc, how in _fuzz(files) if name in ("graph", "hom")]
    cases += [("graph", doc, where, how) for how, doc, where in _crafted_bodies()]
    outcomes = set()
    for name, doc, where, how in cases:
        parse, args = (formats.graph_from, (where,)) if name == "graph" else \
            (formats.homomorphism_from, ())
        got = _read(parse, doc, *args)
        with monkeypatch.context() as m:
            m.setattr(formats, "_body", oracle.read_body)
            want = _read(parse, doc, *args)
        assert got == want, f"{name} {how}"
        outcomes.add(got[0] if isinstance(got, tuple) else "parsed")
    assert outcomes == {"parsed", StructureError}
    faults = dict((how, doc) for how, doc, _ in _crafted_bodies())
    message = _read(formats.graph_from, faults["two node faults"], sig)[1]
    assert "333" in message and "KeyError" not in message


@pytest.mark.parametrize("argv", [
    ["F", "--n", "2", "--k", "9", "--i", "1", "--d", "-a"],
    ["G-counter", "--n", "4", "--k", "9", "--i", "1", "--j", "2", "--d", "-a"],
    ["G-probe", "--n", "2", "--k", "9", "--i", "1", "--d", "-a", "--dprime", "-b"],
    ["probe", "--n", "2", "--k", "4", "--pair", "F", "--d", "-a", "--states", "1",
     "--budget", "20", "--sample", "20"],
])
def test_witness_directions_starting_with_a_dash(tmp_path, capsys, argv):
    """``--d -a`` and ``--dprime -b`` take the direction as ``--d=-a`` does,
    with the same machine report and the same file."""
    joined = list(argv)
    for opt in ("--d", "--dprime"):
        if opt in joined:
            at = joined.index(opt)
            joined[at:at + 2] = [f"{opt}={joined[at + 1]}"]
    out = tmp_path / "out.json"
    written = ["-o", str(out)] if argv[0] != "probe" else []
    outputs = []
    for args in (argv, joined):
        assert main(["witness", *args, *written, "--format", "machine"]) == 0
        report = capsys.readouterr().out
        assert json.loads(report)["parameters"]["d"] == "-a"
        outputs.append((report, out.read_text() if written else None))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["F", "--n", "2", "--k", "9", "--d"],
    ["F", "--n", "2", "--k", "9", "--d", "--i", "1"],
    ["F", "--n", "2", "--k", "9", "--d", "-o", "out.json"],
    ["G-probe", "--n", "2", "--k", "9", "--i", "1", "--d", "a", "--dprime"],
])
def test_witness_direction_without_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["witness", *argv])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
