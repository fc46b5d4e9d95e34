"""Benchmark of gwalk's verification workloads.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 bench/run.py --workload inverse-walk --seed 7 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one process each
    python3 -m pytest bench/tests             # the benchmark's own tests

Load model: a closed loop with one caller.  One process and one thread run
one case after another; each workload run is a fresh process, so its peak
memory and import state are its own.  A run makes its inputs from the seed
before set-up starts, times set-up (``import gwalk`` plus the workload's fixed
objects) once here, runs one untimed pass (warm-up, and the probe's oracle),
then repeats passes over all of the workload's cases until ``--seconds`` have
gone by, timing set-up again in fresh processes between passes until it has
``SETUP_REPEATS`` samples (interpreter start-up excluded).  Every verdict of
every pass is checked against the workload's own oracle.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics (``END_TO_END``): medians over passes, or over set-ups.  With
``--trace 1`` untraced and traced passes alternate and the last line carries
the per-layer metrics of ``tracer.LAYER_METRICS``, medians over traced passes,
plus the tracing overhead and the share of traced wall time covered by layer
self time; the spans of the last traced pass are written to ``.bench_out/``.
Earlier lines give the run's metadata, the failure ratio, and where a case is
one call the benchmark can time, the per-case latency: the median over passes
of each pass's 50th and 90th percentile.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name: (unit, meaning)
END_TO_END = {
    "wall_s": ("s", "time to verdict for one pass over all of the workload's cases"),
    "setup_s": ("s", "import gwalk plus building the workload's fixed objects"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload process"),
}
SETUP_REPEATS = 10
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> dict[str, int]:
    """Line count of every module under ``src/gwalk``."""
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((SRC / "gwalk").glob("*.py"))}


def setup_in_child(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def require_program() -> None:
    """Stop unless ``gwalk`` was imported from this checkout's ``src``."""
    import gwalk

    origin = Path(gwalk.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: gwalk was imported from {origin}, not from {SRC}")


def percentiles_ms(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of one pass's case latencies, in ms."""
    return statistics.median(samples) * 1e3, statistics.quantiles(samples, n=10)[8] * 1e3


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
            min_passes: int = MIN_PASSES) -> dict:
    """One workload run; returns the result object printed as the last line,
    with the human-readable report and metadata under extra keys.  ``small``
    and ``min_passes`` shrink the run for the benchmark's own tests."""
    load_start = os.getloadavg()[0]
    workload = WORKLOADS[name](seed, small)
    setups = [timed_setup(workload)]
    require_program()

    attempted = failed = 0

    def account(res) -> None:
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed

    gc.collect()
    account(workload.run_pass())  # untimed: warm-up, and the probe's oracle
    tracer = Tracer() if trace else None
    walls: list[float] = []
    traced: list[tuple[float, dict]] = []
    # Per-pass latency percentiles: keeping every case's latency would grow
    # the process, and so peak_rss_mb, with the number of passes.
    case_ms: list[tuple[float, float]] = []
    case_samples = 0
    start = time.perf_counter()

    def set_up_in_children(share: float) -> None:
        # Spread over the run like the passes, so that both see the same
        # spells of a busy machine.
        while not trace and len(setups) < 1 + (SETUP_REPEATS - 1) * min(share, 1):
            setups.append(setup_in_child(name, seed))

    while (time.perf_counter() - start < seconds or len(walls) < min_passes
           or (trace and len(traced) < min_passes)):
        set_up_in_children((time.perf_counter() - start) / seconds if seconds > 0 else 1)
        tracing = trace and len(traced) < len(walls)
        gc.collect()
        if tracing:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = workload.run_pass(tracer if tracing else None)
        finally:
            wall = time.perf_counter() - t0
            if tracing:
                tracer.uninstall()
        account(res)
        if tracing:
            traced.append((wall, tracer.pass_metrics()))
            traced[-1][1]["trace.self_time_share"] = sum(tracer.layer_self_s().values()) / wall
        else:
            walls.append(wall)
            if len(res.case_s) >= 100:
                case_ms.append(percentiles_ms(res.case_s))
                case_samples += len(res.case_s)
    set_up_in_children(1)

    report: dict[str, float] = {"fail_ratio": failed / attempted}
    if case_ms:
        report["case_ms_p50"] = statistics.median(p50 for p50, _ in case_ms)
        report["case_ms_p90"] = statistics.median(p90 for _, p90 in case_ms)
    if trace:
        metrics = {key: statistics.median(m[key] for _, m in traced)
                   for key in LAYER_METRICS if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(walls))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{name}-{seed}.tsv")
        units = {key: spec[0] for key, spec in LAYER_METRICS.items()}
        metrics = {key: int(v) if units[key] == "count" else v for key, v in metrics.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {key: spec[0] for key, spec in END_TO_END.items()}
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(walls) + len(traced), "untimed_passes": 1,
        "case_samples": case_samples, "pass_wall_s": walls,
        "traced_pass_wall_s": [w for w, _ in traced], "setup_samples_s": setups,
        "git_revision": git_revision(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0], "src_lines": src_lines(),
    }
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "report": report, "meta": meta,
    }


def print_result(result: dict) -> None:
    name = result["meta"]["workload"]
    print(json.dumps({"meta": result["meta"]}, sort_keys=True))
    units = {"fail_ratio": "1", "case_ms_p50": "ms", "case_ms_p90": "ms"}
    for key, value in result["report"].items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    for key, m in result["metrics"].items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    last = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last), flush=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=20406)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "gwalk" / "__init__.py").is_file():
        print(f"bench: no gwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        # Set-up does not depend on the inputs, so skip making full-size ones.
        workload = WORKLOADS[args.workload](args.seed, small=True)
        print(f"{timed_setup(workload)!r}")
        return 0
    print_result(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
