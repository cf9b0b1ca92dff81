"""Span and counter tracing of signet from outside its source tree.

Each wrapped name is patched in the namespace where its caller looks it
up, so a call made inside signet (``learn_parameters`` calling
``triangle_census``, say) goes through the wrapper. Spans stay in memory
as ``[name, start, end, parent, root, rep, error]`` and are written out
when the repetition ends. Hot methods get count-only wrappers: a span per
generator step would cost more than the step.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name). A name wrapped in two namespaces gets one
# span name per caller, so input and output graph builds stay apart.
SPANS = [
    ("signet.io", "read_graph", "io.read_graph"),
    ("signet.io", "read_canonical", "io.read_canonical"),
    ("signet.io", "parse_rating_lines", "io.parse_rating_lines"),
    ("signet.io", "ingest_ratings", "io.ingest_ratings"),
    ("signet.io", "write_canonical", "io.write_canonical"),
    ("signet.io", "build_graph", "graph.build_input"),
    ("signet.generate", "build_graph", "graph.build_output"),
    ("signet.generate", "build_sampling_vector", "graph.build_sampling_vector"),
    ("signet.metrics", "triangle_census", "metrics.triangle_census"),
    ("signet.learn", "triangle_census", "metrics.triangle_census"),
    ("signet.metrics", "stats_report", "metrics.stats_report"),
    ("signet.evaluate", "stats_report", "metrics.stats_report"),
    ("signet.learn", "delta_random_fast", "estimators.delta_random_fast"),
    ("signet.learn", "delta_triangle_fast", "estimators.delta_triangle_fast"),
    ("signet.learn", "delta_random_balanced", "estimators.delta_random_balanced"),
    ("signet.learn", "learn_parameters", "learn.learn_parameters"),
    ("signet.learn", "em_learn_rho", "learn.em_learn_rho"),
    ("signet.generate", "generate", "generate.generate"),
    ("signet.generate", "fcl_initialize", "generate.fcl_initialize"),
    ("signet.baseline", "stcl_generate", "baseline.stcl_generate"),
    ("signet.evaluate", "evaluate", "evaluate.evaluate"),
    ("signet.evaluate", "ks_statistic", "evaluate.ks_statistic"),
]

# (module, attribute, counter name); a dotted attribute is a method.
COUNTS = [
    ("signet.generate", "generation_step", "steps"),
    ("signet.generate", "choose_wedge_sign", "wedge_signs"),
    ("signet.generate", "GenerationState.next_vertex", "vertex_draws"),
    ("signet.learn", "em_edge_responsibility", "em_responsibility_calls"),
]

NAME, START, END, PARENT, ROOT, REP, ERROR = range(7)


class Tracer:
    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans: list[list] = []
        self.stack: list[int] = []
        # Counts are keyed by (counter, root layer), so steps taken inside
        # stcl_generate count for baseline and not for generate.
        self.counts: dict[tuple[str, str], int] = {}
        self.root = "-"

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            if not stack:
                self.root = name.split(".")[0]
            rec = [name, time.monotonic(), 0.0, parent, self.root, self.rep, None]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[END] = time.monotonic()
                if not stack:
                    self.root = "-"

        return wrapped

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            key = (name, self.root)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    def park_counter(self, fn):
        """Counts parks that enqueue: a queue-sourced vertex is not parked
        again (see ``GenerationState.park``)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(state, v, from_queue):
            if not from_queue:
                key = ("parks", self.root)
                counts[key] = counts.get(key, 0) + 1
            return fn(state, v, from_queue)

        return wrapped

    def install(self) -> None:
        # Modules are looked up with import_module, never by attribute:
        # signet/__init__.py rebinds ``signet.generate`` to the generate()
        # function, so ``import signet.generate as G`` yields the function
        # and patching attributes on it would silently miss the module.
        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self.span(name, getattr(mod, attr)))
        for mod_name, attr, name in COUNTS:
            self._patch(mod_name, attr, lambda fn, name=name: self.counter(name, fn))
        self._patch("signet.generate", "GenerationState.park", self.park_counter)

    @staticmethod
    def _patch(mod_name: str, attr: str, make) -> None:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, make(getattr(owner, leaf)))

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def count(self, name: str, root: str) -> int:
        return self.counts.get((name, root), 0)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[k[0], k[1], v] for k, v in sorted(self.counts.items())],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition.

    ``run`` carries what the repetition knows outside the spans: byte
    counts, network counts, the learned trace lengths and the input's
    triangle count and measured allocation.
    """
    own = tr.self_times()
    spans = tr.spans

    def total(pred, selftime=False) -> float:
        return sum(
            (own[i] if selftime else s[END] - s[START])
            for i, s in enumerate(spans) if pred(s)
        )

    def named(*names, root=None):
        return lambda s: s[NAME] in names and (root is None or s[ROOT] == root)

    def calls(pred) -> int:
        return sum(1 for s in spans if pred(s))

    reads = ("io.read_graph", "io.read_canonical", "io.parse_rating_lines", "io.ingest_ratings")
    builds = ("graph.build_input", "graph.build_output")
    writes = calls(named("io.write_canonical"))
    steps = tr.count("steps", "generate")
    iid_steps = tr.count("steps", "baseline")
    evaluated = run["networks_evaluated"]
    return {
        "io.read_s": (total(named(*reads), selftime=True), "s"),
        "io.input_bytes": (run["input_bytes"], "bytes"),
        "io.write_s": (_ratio(total(named("io.write_canonical")), writes), "s"),
        "io.output_bytes": (run["output_bytes"], "bytes"),
        "graph.build_s": (total(named(*builds)), "s"),
        "graph.build_input_s": (total(named("graph.build_input")), "s"),
        "graph.build_output_s": (total(named("graph.build_output")), "s"),
        "graph.build_calls": (calls(named(*builds)), "count"),
        "graph.bytes_per_edge": (run["input_graph_bytes"] / run["m"], "B/edge"),
        "metrics.census_s": (total(named("metrics.triangle_census")), "s"),
        "metrics.census_calls": (calls(named("metrics.triangle_census")), "count"),
        "metrics.input_triangles": (run["input_triangles"], "count"),
        "estimators.s": (total(lambda s: s[NAME].startswith("estimators.")), "s"),
        "learn.em_s": (total(named("learn.em_learn_rho")), "s"),
        "learn.em_iterations": (run["em_iterations"], "count"),
        "learn.em_converged": (run["em_converged"], "bool"),
        "learn.em_responsibility_calls": (tr.count("em_responsibility_calls", "learn"), "count"),
        "learn.ab_s": (total(named("learn.learn_parameters"), selftime=True), "s"),
        "learn.ab_iterations": (run["ab_iterations"], "count"),
        "learn.clamp_warnings": (run["clamp_warnings"], "count"),
        "generate.fcl_init_s": (total(named("generate.fcl_initialize", root="generate")), "s"),
        "generate.step_loop_s": (total(named("generate.generate"), selftime=True), "s"),
        "generate.final_build_s": (total(named("graph.build_output", root="generate")), "s"),
        "generate.steps": (steps, "count"),
        "generate.vertex_draws": (tr.count("vertex_draws", "generate"), "count"),
        "generate.draws_per_step": (_ratio(tr.count("vertex_draws", "generate"), steps), "ratio"),
        "generate.parks": (tr.count("parks", "generate"), "count"),
        "generate.wedge_fraction": (_ratio(tr.count("wedge_signs", "generate"), steps), "ratio"),
        # Networks of either policy whose step ran out of retries.
        "generate.retry_exhausted": (
            calls(lambda s: s[ERROR] == "RetryExhaustedError"
                  and s[NAME] in ("generate.generate", "baseline.stcl_generate")),
            "count",
        ),
        "baseline.stcl_s": (total(named("baseline.stcl_generate")), "s"),
        "baseline.draws_per_step": (
            _ratio(tr.count("vertex_draws", "baseline"), iid_steps), "ratio"),
        "baseline.parks": (tr.count("parks", "baseline"), "count"),
        "evaluate.s_per_network": (_ratio(total(named("evaluate.evaluate")), evaluated), "s"),
        "evaluate.census_s": (total(named("metrics.triangle_census", root="evaluate")), "s"),
        "evaluate.ks_s": (total(named("evaluate.ks_statistic")), "s"),
    }
