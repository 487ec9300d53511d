"""Spans around calls into fairsample's modules, recorded from outside.

``install`` replaces public functions and methods with timing wrappers at
the names their callers look them up by (``fairsample.search.compute_plan``
as well as ``fairsample.balance.compute_plan`` where both are used), so no
file of the program changes. Spans stay in memory and are written once,
when the run ends; ``layer_metrics`` turns them into per-layer numbers.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import time


def now() -> float:
    # CLOCK_MONOTONIC is shared by every process on the machine, so the
    # benchmark can compare a child's timestamps with its own
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans are (name, start, end, span id, parent id); parent 0 is none."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = {}
        self.iterations: list[int] = []
        self._ids = itertools.count(1)
        self._stack = [0]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, next(self._ids), self._stack[-1]))

    def wrap(self, name: str, fn, after=None, raised=None):
        """fn inside a span; after(args, result) and raised(exc) update
        counters once the span has ended."""
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raised is not None:
                    raised(exc)
                raise
            finally:
                # also on SystemExit, which is how the CLI command ends
                spans.append((name, start, now(), sid, parent))
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
            "iterations": self.iterations,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every module the search goes through."""
    from fairsample import balance, classifiers, cli, dataset, search
    from fairsample.base import InfeasibleError

    def infeasible(exc):
        if isinstance(exc, InfeasibleError):
            tracer.count("balance.infeasible")

    def fitted(args, result):
        stacked_x, max_iter = args[0], args[4]
        tracer.count("logistic.problems", stacked_x.shape[0])
        tracer.count("logistic.max_iter_hits", int((result[2] >= max_iter).sum()))
        tracer.iterations.extend(result[2].tolist())

    def evaluated(args, result):
        tasks = args[0]
        tracer.count("search.tasks", len(tasks))
        tracer.count("search.thresholds", sum(len(t[1]) for t in tasks))

    def make_evaluator(fn):
        def make(*args, **kwargs):
            return tracer.wrap("search.evaluate", fn(*args, **kwargs), after=evaluated)

        return make

    def level(n):
        return lambda args, result: tracer.count(f"search.level{n}_points", len(result))

    original_front = search.pareto_front

    def front(points):
        points = list(points)
        tracer.count("search.front_in", len(points))
        result = original_front(points)
        tracer.count("search.front_out", len(result))
        return result

    traced_front = tracer.wrap("search.front", front)

    patches = [
        (cli, "load_config", "cli.load_config", {}),
        (cli, "generate_synthetic", "dataset.generate", {}),
        (cli, "load_csv", "dataset.load_csv", {}),
        (cli, "stratified_split", "dataset.split", {}),
        (cli, "full_search", "search.full", {}),
        (search, "max_sample_size", "balance.size_bound", {}),
        (search, "compute_plan", "balance.plan", {"raised": infeasible}),
        (search, "sample_indices", "balance.sample", {"raised": infeasible}),
        (balance, "sample_indices", "balance.sample", {"raised": infeasible}),
        (search, "materialize_sample", "balance.materialize", {}),
        (search, "fit_logistic_batch", "classifiers.logistic_fit", {"after": fitted}),
        (search, "report_from_counts", "metrics.report", {}),
        (search, "grid_search_level0", "search.level0", {"after": level(0)}),
        (search, "grid_search_level1", "search.level1", {"after": level(1)}),
        (search, "select_optimal", "search.select", {}),
        (dataset.FeaturePipeline, "fit", "dataset.pipeline", {}),
        (dataset.FeaturePipeline, "transform", "dataset.pipeline", {}),
        (classifiers.LogisticRegression, "predict_scores", "classifiers.logistic_predict", {}),
        (classifiers.RandomForest, "fit", "classifiers.forest_fit", {}),
        (classifiers.RandomForest, "predict_scores", "classifiers.forest_predict", {}),
        (search.EvaluationPoint, "to_dict", "cli.serialize", {}),
    ]
    for owner, attr, name, hooks in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))
    search.make_model_evaluator = make_evaluator(search.make_model_evaluator)
    search.pareto_front = traced_front
    cli.pareto_front = traced_front


class _Index:
    """Totals and self times by span name."""

    def __init__(self, spans):
        self.by_id = {s[3]: s for s in spans}
        self.children: dict[int, list] = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for s in spans:
            name, start, end, sid, _ = s
            self.count[name] = self.count.get(name, 0) + 1
            inner = sum(c[2] - c[1] for c in self.children.get(sid, ()))
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - inner)
            if not self._inside_same(s):
                self.total[name] = self.total.get(name, 0.0) + (end - start)

    def _inside_same(self, s) -> bool:
        parent = self.by_id.get(s[4])
        while parent is not None:
            if parent[0] == s[0]:
                return True
            parent = self.by_id.get(parent[4])
        return False


def layer_metrics(trace: dict, traced_search_s: float, write_s: float) -> dict:
    """Per-layer metrics (name -> value) of one traced search, whose
    process took traced_search_s from start to exit and write_s of that
    to write its spans out."""
    ix = _Index(trace["spans"])
    counters = trace["counters"]
    iterations = trace["iterations"]

    def total(name):
        return ix.total.get(name, 0.0)

    def calls(name):
        return ix.count.get(name, 0)

    fits = calls("classifiers.logistic_fit")
    problems = counters.get("logistic.problems", 0)
    tasks = counters.get("search.tasks", 0)
    # time below the CLI command (every span except the command's own)
    # and the final write of the spans
    command = {s[3] for s in trace["spans"] if s[0] == "cli.search"}
    covered = write_s + sum(
        s[2] - s[1]
        for s in trace["spans"]
        if s[0] != "cli.search" and (s[4] == 0 or s[4] in command)
    )
    return {
        "python.import_s": total("python.import"),
        "cli.load_config_s": total("cli.load_config"),
        "dataset.generate_s": total("dataset.generate"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.split_s": total("dataset.split"),
        "balance.size_bound_s": total("balance.size_bound"),
        "dataset.pipeline_calls": calls("dataset.pipeline"),
        "dataset.pipeline_s": total("dataset.pipeline"),
        "balance.plan_calls": calls("balance.plan"),
        "balance.plan_s": total("balance.plan"),
        "balance.infeasible": counters.get("balance.infeasible", 0),
        "balance.sample_calls": calls("balance.sample"),
        "balance.sample_s": total("balance.sample"),
        "classifiers.logistic_fit_calls": fits,
        "classifiers.logistic_problems": problems,
        "classifiers.logistic_batch_mean": problems / fits if fits else 0.0,
        "classifiers.logistic_fit_s": total("classifiers.logistic_fit"),
        "classifiers.logistic_iters_p50": statistics.median(iterations) if iterations else 0.0,
        "classifiers.logistic_at_max_iter_share": (
            counters.get("logistic.max_iter_hits", 0) / problems if problems else 0.0
        ),
        "classifiers.logistic_predict_s": total("classifiers.logistic_predict"),
        "classifiers.forest_fit_calls": calls("classifiers.forest_fit"),
        "classifiers.forest_fit_s": total("classifiers.forest_fit"),
        "classifiers.forest_predict_s": total("classifiers.forest_predict"),
        "metrics.report_calls": calls("metrics.report"),
        "metrics.report_s": total("metrics.report"),
        "search.level0_s": total("search.level0"),
        "search.level1_s": total("search.level1"),
        "search.level0_points": counters.get("search.level0_points", 0),
        "search.level1_points": counters.get("search.level1_points", 0),
        "search.thresholds_per_task": counters.get("search.thresholds", 0) / tasks if tasks else 0.0,
        "search.evaluate_s": total("search.evaluate"),
        "search.evaluate_self_s": ix.self_time.get("search.evaluate", 0.0),
        "search.front_s": total("search.front"),
        "search.front_in": counters.get("search.front_in", 0),
        "search.front_out": counters.get("search.front_out", 0),
        "search.select_s": total("search.select"),
        "cli.serialize_calls": calls("cli.serialize"),
        "cli.serialize_s": total("cli.serialize"),
        "cli.self_s": ix.self_time.get("cli.search", 0.0),
        "trace.coverage": covered / traced_search_s,
    }
