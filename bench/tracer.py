"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds every public function of the seven layer modules
(``core``, ``engine``, ``hom``, ``witnesses``, ``trees``, ``suites``,
``formats``) to a wrapper, in every ``gwalk`` module that holds a reference to
it, so that calls between modules are seen too.  Each call is a span with a
parent and the current case id; a span's self time is its duration minus
that of its child spans, and a layer's self time is the sum over its spans.
Work done outside any wrapped function (class methods, constructors) counts
towards the innermost enclosing span.  A name that a later version of the
program removes simply records no calls.

Counts are taken from arguments and return values at the same boundaries.
Their definitions, and the end-to-end metric and workload each layer metric
is expected to move, are in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict, deque

LAYERS = ("core", "engine", "hom", "witnesses", "trees", "suites", "formats")

# Groups of functions whose time and counts are taken only at the outermost
# call of the group, so that a function calling its sibling (``run`` calls
# ``compute_run``) is not counted twice.
GROUPS = {
    "walk": ("engine.run", "engine.compute_run", "engine.trace"),
    "apply": ("hom.apply", "hom.apply_detailed"),
    "simulate": ("hom.simulate_in_pattern",),
    "invert": ("hom.invert", "hom.invert_detailed"),
    "random_automata": ("suites.random_automata", "suites.random_automaton"),
    "witness_graph": ("witnesses.counting_graph", "witnesses.probe_graph",
                      "witnesses.numbered_chain", "witnesses.start_block"),
    "decode": ("trees.decode_padding", "trees.decode_encoding"),
    "validate": ("core.validate_graph",),
    "encode": ("core.canonical_encode",),
    "parse": ("formats.loads", "formats.graph_from"),
}
BUILDERS = ("witnesses.start_block", "witnesses.numbered_chain", "witnesses.base_signature",
            "witnesses.chain_signature", "witnesses.witness_signature")

# name: (unit, better, end-to-end metric it should move, on which workload).
LAYER_METRICS = {
    **{f"{layer}.self_s": ("s", "lower", "wall_s", where) for layer, where in (
        ("core", "thm4-trees (small elsewhere)"),
        ("engine", "inverse-walk (about 1% of claim3-sweep, none on thm4-trees)"),
        ("hom", "inverse-walk"),
        ("witnesses", "claim3-sweep (none on probe, which builds two blocks once)"),
        ("trees", "thm4-trees"),
        ("suites", "probe (none elsewhere)"),
        ("formats", "inverse-walk"),
    )},
    "engine.run_calls": ("count", "lower", "wall_s, case_ms_p50/p90", "inverse-walk"),
    "engine.run_steps": ("count", "lower", "wall_s, case_ms_p50/p90", "inverse-walk"),
    "engine.steps_per_s": ("steps/s", "higher", "wall_s, case_ms_p50/p90", "inverse-walk"),
    "engine.automata_enumerated": ("count", "higher", "wall_s", "probe"),
    "suites.automata_generated": ("count", "higher", "wall_s", "probe"),
    "suites.automata_per_s": ("automata/s", "higher", "wall_s", "probe"),
    "hom.apply_s": ("s", "lower", "wall_s, peak_rss_mb",
                    "claim3-sweep and inverse-walk (small on thm4-trees, none on probe)"),
    "hom.image_nodes": ("count", "lower", "wall_s, peak_rss_mb", "claim3-sweep, inverse-walk"),
    "hom.image_nodes_per_s": ("nodes/s", "higher", "wall_s", "claim3-sweep, inverse-walk"),
    "hom.walked_image_ratio": ("1", "higher", "wall_s, peak_rss_mb",
                               "claim3-sweep (about 0.03), inverse-walk (about 1)"),
    "hom.simulate_s": ("s", "lower", "wall_s, case_ms_p50/p90", "probe"),
    "hom.simulate_calls": ("count", "lower", "wall_s, case_ms_p50/p90", "probe"),
    "hom.pattern_steps": ("count", "lower", "wall_s, case_ms_p50/p90", "probe"),
    "hom.invert_s": ("s", "lower", "wall_s", "inverse-walk (tiny today)"),
    "hom.invert_states": ("count", "lower", "wall_s", "inverse-walk (must equal n*k = 8)"),
    "hom.verify_self_s": ("s", "lower", "wall_s, case_ms_p90", "inverse-walk"),
    "witnesses.builder_calls": ("count", "lower", "wall_s, setup_s", "claim3-sweep"),
    "witnesses.builder_distinct_ratio": ("1", "higher", "wall_s, setup_s", "claim3-sweep"),
    "witnesses.graph_nodes": ("count", "lower", "wall_s", "claim3-sweep"),
    "witnesses.probe_self_s": ("s", "lower", "wall_s, case_ms_p50/p90", "probe"),
    "trees.trees_checked": ("count", "higher", "wall_s", "thm4-trees"),
    "trees.decode_s": ("s", "lower", "wall_s", "thm4-trees"),
    "core.validate_calls": ("count", "lower", "wall_s", "thm4-trees"),
    "core.validate_s": ("s", "lower", "wall_s", "thm4-trees"),
    "core.canonical_encode_s": ("s", "lower", "wall_s", "thm4-trees"),
    "formats.bytes_parsed": ("count", "higher", "wall_s, case_ms_p50", "inverse-walk"),
    "formats.parse_mb_per_s": ("MB/s", "higher", "wall_s, case_ms_p50", "inverse-walk"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s", "every workload"),
    "trace.self_time_share": ("1", "higher", "none: layer self time / traced wall_s",
                              "every workload"),
}


class Tracer:
    """Spans and counts for calls into the layer modules while installed."""

    def __init__(self) -> None:
        self.case = -1
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded, for the next pass."""
        self.spans: list[list] = []  # [key, parent index, case, start, duration, index]
        self.stack: list[list] = []  # [span, outermost groups, child time, entered]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.builder_args: set = set()
        self._open: dict[str, int] = defaultdict(int)
        self._images: deque = deque(maxlen=4)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Rebind the public functions of every layer module."""
        modules = {name: importlib.import_module(f"gwalk.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "gwalk" or name.startswith("gwalk.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def _wrap(self, key: str, fn):
        groups = [g for g, members in GROUPS.items() if key in members]
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter(key, groups)
                    try:
                        item = next(gen)
                    except StopIteration:
                        leave(frame, key, groups, args, kwargs, None)
                        return
                    except BaseException:
                        leave(frame, key, groups, args, kwargs, None)
                        raise
                    leave(frame, key, groups, args, kwargs, None)
                    self.counts[f"{key}.yielded"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key, groups)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(frame, key, groups, args, kwargs, result)
        return wrapper

    # ------------------------------------------------------------- spans

    def _enter(self, key: str, groups: list[str]) -> list:
        entered = time.perf_counter()
        parent = self.stack[-1][0][5] if self.stack else -1
        span = [key, parent, self.case, 0.0, 0.0, len(self.spans)]
        self.spans.append(span)
        frame = [span, [g for g in groups if not self._open[g]], 0.0, entered]
        for g in groups:
            self._open[g] += 1
        self.stack.append(frame)
        span[3] = time.perf_counter()
        return frame

    def _leave(self, frame: list, key: str, groups: list[str], args: tuple, kwargs: dict,
               result) -> None:
        end = time.perf_counter()
        span, outer, child, entered = frame
        duration = end - span[3]
        span[4] = duration
        self.stack.pop()
        for g in groups:
            self._open[g] -= 1
        self.calls[key] += 1
        self.self_s[key] += duration - child
        for g in outer:
            self.group_s[g] += duration
        if result is not None:
            self._count(key, outer, args, kwargs, result)
        if self.stack:
            # The parent's children include this wrapper's own bookkeeping, so
            # that tracing cost shows as the benchmark's own time, not layer time.
            self.stack[-1][2] += time.perf_counter() - entered

    def _count(self, key: str, outer: list[str], args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if "walk" in outer:
            outcome = getattr(result, "outcome", result)
            steps = getattr(outcome, "steps", None)
            if steps is not None:
                c["walk_calls"] += 1
                c["walk_steps"] += steps
                if len(args) > 1 and any(args[1] is g for g in self._images):
                    c["walked_image_steps"] += steps
        if "apply" in outer:
            image = result[0] if isinstance(result, tuple) else result
            self._images.append(image)
            c["image_nodes"] += image.node_count
        if "simulate" in outer:
            c["pattern_steps"] += len(getattr(result, "visited", ()))
        if "invert" in outer:
            b = result[0] if isinstance(result, tuple) else result
            c["invert_states"] = len(b.states)
        if key == "suites.random_automata":
            c["automata_generated"] += len(result)
        elif key == "suites.random_automaton" and "random_automata" in outer:
            c["automata_generated"] += 1
        if key in BUILDERS:
            c["builder_calls"] += 1
            self.builder_args.add((key, args, tuple(sorted(kwargs.items()))))
        if "witness_graph" in outer:
            nodes = getattr(result, "nodes", None)
            if nodes is None:
                nodes = result.pattern.nodes
            c["graph_nodes"] += len(nodes)
        if key == "trees.verify_characterization":
            c["trees_checked"] += result.reg_trees_checked + result.comp_trees_checked
        if key == "formats.loads" and args and isinstance(args[0], str):
            c["bytes_parsed"] += len(args[0].encode())

    # ----------------------------------------------------------- metrics

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out

    def pass_metrics(self) -> dict[str, float]:
        """Layer metrics of everything recorded since the last reset."""
        c, g, calls, own = self.counts, self.group_s, self.calls, self.self_s

        def rate(n: float, s: float) -> float:
            return n / s if s > 0 else 0.0

        m = {f"{layer}.self_s": s for layer, s in self.layer_self_s().items()}
        m.update({
            "engine.run_calls": c["walk_calls"],
            "engine.run_steps": c["walk_steps"],
            "engine.steps_per_s": rate(c["walk_steps"], g["walk"]),
            "engine.automata_enumerated": c["engine.enumerate_automata.yielded"],
            "suites.automata_generated": c["automata_generated"],
            "suites.automata_per_s": rate(c["automata_generated"], g["random_automata"]),
            "hom.apply_s": g["apply"],
            "hom.image_nodes": c["image_nodes"],
            "hom.image_nodes_per_s": rate(c["image_nodes"], g["apply"]),
            "hom.walked_image_ratio": rate(c["walked_image_steps"], c["image_nodes"]),
            "hom.simulate_s": g["simulate"],
            "hom.simulate_calls": calls["hom.simulate_in_pattern"],
            "hom.pattern_steps": c["pattern_steps"],
            "hom.invert_s": g["invert"],
            "hom.invert_states": c["invert_states"],
            "hom.verify_self_s": own["hom.verify_inverse"],
            "witnesses.builder_calls": c["builder_calls"],
            "witnesses.builder_distinct_ratio": rate(len(self.builder_args), c["builder_calls"]),
            "witnesses.graph_nodes": c["graph_nodes"],
            "witnesses.probe_self_s": own["witnesses.distinguishability_probe"],
            "trees.trees_checked": c["trees_checked"],
            "trees.decode_s": g["decode"],
            "core.validate_calls": calls["core.validate_graph"],
            "core.validate_s": g["validate"],
            "core.canonical_encode_s": g["encode"],
            "formats.bytes_parsed": c["bytes_parsed"],
            "formats.parse_mb_per_s": rate(c["bytes_parsed"] / 1e6, g["parse"]),
        })
        return m

    def write_spans(self, path) -> None:
        """Write the spans recorded since the last reset, one per line:
        index, parent index, case id, name, start and duration in seconds."""
        with open(path, "w") as out:
            out.write("index\tparent\tcase\tname\tstart_s\tduration_s\n")
            for key, parent, case, start, duration, index in self.spans:
                out.write(f"{index}\t{parent}\t{case}\t{key}\t{start:.9f}\t{duration:.9f}\n")
