"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository: ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

from gwalk import formats, witnesses  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def tiny_run(name: str, trace: bool, workload_cls=None, monkeypatch=None) -> dict:
    if workload_cls is not None:
        monkeypatch.setitem(run.WORKLOADS, name, workload_cls)
    return run.measure(name, seed=3, seconds=0, trace=trace, small=True, min_passes=1)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    first, second = tiny_run(name, True), tiny_run(name, True)
    assert first["correct"] and second["correct"]
    counts = [key for key, spec in LAYER_METRICS.items() if spec[0] == "count"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def _wrong_answer(cls):
    """A copy of the workload whose expected answers are wrong for one case."""

    class Wrong(cls):
        def __init__(self, seed, small=False):
            super().__init__(seed, small)
            if isinstance(self.expected, list):
                self.expected[0] = not self.expected[0]
            elif cls is workloads.Thm4Trees:
                reg, comp = self.expected["accept_all"]
                self.expected["accept_all"] = (reg + 1, comp)
            elif cls is workloads.Claim3Sweep:
                key = next(iter(self.expected))
                self.expected[key] = not self.expected[key]

        def oracle(self):  # only the probe works out its answers in a pass
            super().oracle()
            self.expected[0] = frozenset({("q0", "exit:q0", "loop_inside")})

    return Wrong


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_answer_raises_fail_ratio(name, monkeypatch):
    result = tiny_run(name, False, _wrong_answer(workloads.WORKLOADS[name]), monkeypatch)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["report"]["fail_ratio"] > 0


def test_exception_counts_as_failed_case(monkeypatch):
    import gwalk.hom

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    w = workloads.InverseWalk(3, small=True)
    w.setup()
    monkeypatch.setattr(gwalk.hom, "verify_inverse", broken)
    res = w.run_pass()
    assert res.failed == res.attempted == len(w.lengths)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(trace):
    result = tiny_run("thm4-trees", trace)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_result(result)
    lines = buf.getvalue().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    table = LAYER_METRICS if trace else run.END_TO_END
    assert set(last["metrics"]) == set(table)
    for key, spec in table.items():
        assert last["metrics"][key]["unit"] == spec[0]
        assert any(line.startswith(f"thm4-trees {key} = ") and line.endswith(f" {spec[0]}")
                   for line in lines)
    meta = json.loads(lines[0])["meta"]
    for key in ("git_revision", "python", "nproc", "loadavg_1m_start", "loadavg_1m_end"):
        assert key in meta
    assert set(meta["src_lines"]) >= {"core", "engine", "hom", "witnesses", "trees",
                                      "suites", "formats"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in LAYER_METRICS.items()}


def test_ring_documents_are_canonical():
    w = workloads.InverseWalk(3, small=True)
    w.setup()
    for text in w.documents:
        g = formats.graph_from(formats.loads(text), w.sig)
        assert formats.dumps(formats.graph_doc(g)) == text


def test_own_block_matches_start_block():
    for variant in ("start", "fake"):
        labels, edges, port = workloads.block_fragment(2, variant)
        block = witnesses.start_block(2, 4, variant)
        assert dict(block.pattern.nodes) == labels
        assert block.pattern.edges == edges
        assert block.pattern.ports == {"a": port}


def test_claim3_directions_are_those_of_the_witness_signature():
    assert witnesses.witness_signature(9).dir_names == workloads.Claim3Sweep.DIRS


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
