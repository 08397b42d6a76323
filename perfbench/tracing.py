"""Spans around triarm's layer boundaries, installed from outside.

``Tracer.install`` replaces module attributes and methods of the loaded
``triarm`` package with timing wrappers and ``uninstall`` puts the
originals back; no file of the package changes.  Spans live in memory
(name, start, end, parent, thread id and counts) until the caller writes
them out.

Span names and the layer each belongs to:

====================================  ============  ==============================
span                                  layer         wraps
====================================  ============  ==============================
``cli.main``                          cli           ``cli.main`` (the root span)
``population.load_population``       population    ``load_population``
``population.moment_set``            population    ``moment_set``
``theory.theory_report``             theory        ``theory_report``
``experiments.exact_distribution``   experiments   ``exact_distribution``
``experiments.monte_carlo``          experiments   ``monte_carlo``
``experiments.dump_rows``            experiments   ``_dump_rows``
``assignment.enum``                  assignment    each ``next()`` of ``iter_code_batches``
``assignment.draw``                  assignment    ``permuted`` on a ``worker_generator``
``estimators.evaluate_codes``        estimators    ``BatchEvaluator.evaluate_codes``
``estimators.evaluate_index``        estimators    ``BatchEvaluator.evaluate_index``
====================================  ============  ==============================

The engines run batches on a thread pool.  A span opened on a thread
with no open span of its own is a child of the engine span that owns
the pool.  Self time is computed per thread: a span's duration minus
the part of it covered by its children on the same thread.
"""

import functools
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

ENGINE_SPANS = ("experiments.exact_distribution", "experiments.monte_carlo")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    tid: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TimedGenerator:
    """Proxy for a numpy Generator that records a span per ``permuted``."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def permuted(self, x, *args, **kwargs):
        with self._tracer.span("assignment.draw") as s:
            out = self._rng.permuted(x, *args, **kwargs)
            s.counts["rows"] = x.shape[0] if x.ndim == 2 else 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self._pool_parent
        s = Span(next(self._ids), name, parent, threading.get_ident(), perf_counter())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            stack.pop()
            self.spans.append(s)

    def reset(self) -> None:
        self.spans = []

    # -- wrappers ---------------------------------------------------------

    def _call(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(args, result))
            return result

        return wrapper

    def _engine(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                outer, self._pool_parent = self._pool_parent, s.id
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._pool_parent = outer

        return wrapper

    def _batches(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    with self.span("assignment.enum") as s:
                        try:
                            batch = next(inner)
                        except StopIteration:
                            return
                        s.counts["rows"] = len(batch)
                    yield batch

            return timed()

        return wrapper

    def _generator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(fn(*args, **kwargs), self)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``triarm`` module attribute that names ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "triarm" or mod_name.startswith("triarm.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import triarm.cli
        import triarm.experiments as experiments
        import triarm.population as population
        import triarm.theory as theory
        from triarm.assignment import iter_code_batches, worker_generator
        from triarm.estimators import BatchEvaluator

        def rows_loaded(args, pop):
            return {"rows": pop.n}

        def rows_evaluated(args, res):
            return {"rows": len(args[1]), "valid": int(res["valid"].sum())}

        def rows_dumped(args, result):
            return {"rows": len(args[2]["q_hat"])}

        functions = [
            (triarm.cli.main, self._call("cli.main", triarm.cli.main)),
            (
                population.load_population,
                self._call("population.load_population", population.load_population, rows_loaded),
            ),
            (population.moment_set, self._call("population.moment_set", population.moment_set)),
            (theory.theory_report, self._call("theory.theory_report", theory.theory_report)),
            (
                experiments.exact_distribution,
                self._engine("experiments.exact_distribution", experiments.exact_distribution),
            ),
            (experiments.monte_carlo, self._engine("experiments.monte_carlo", experiments.monte_carlo)),
            (
                experiments._dump_rows,
                self._call("experiments.dump_rows", experiments._dump_rows, rows_dumped),
            ),
            (iter_code_batches, self._batches(iter_code_batches)),
            (worker_generator, self._generator(worker_generator)),
        ]
        for original, replacement in functions:
            self._replace_everywhere(original, replacement)
        for method in ("evaluate_codes", "evaluate_index"):
            original = vars(BatchEvaluator)[method]
            self._patches.append((BatchEvaluator, method, original))
            setattr(
                BatchEvaluator, method, self._call(f"estimators.{method}", original, rows_evaluated)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


# -- analysis -----------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its same-thread children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.tid == s.tid and c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _union_length(covered)
    return out


def busy_time(spans, parent: Span) -> float:
    """Time covered by ``parent``'s direct children, summed over threads."""
    by_thread = {}
    for s in spans:
        if s.parent == parent.id:
            by_thread.setdefault(s.tid, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return sum(_union_length(v) for v in by_thread.values())


def _total(spans, name, key=None):
    chosen = [s for s in spans if s.name == name]
    if key is None:
        return sum(s.duration for s in chosen)
    return sum(s.counts.get(key, 0) for s in chosen)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, threads: int, dump_bytes: int) -> dict:
    """Per-layer metric values of one traced command."""
    own = self_times(spans)

    def self_of(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    evaluate = ("estimators.evaluate_codes", "estimators.evaluate_index")
    eval_rows = sum(_total(spans, name, "rows") for name in evaluate)
    engines = [s for s in spans if s.name in ENGINE_SPANS]
    engine_wall = sum(s.duration for s in engines)
    enum_s = _total(spans, "assignment.enum")
    enum_rows = _total(spans, "assignment.enum", "rows")
    load_s = _total(spans, "population.load_population")
    return {
        "assignment.enum_s": enum_s,
        "assignment.enum_rows": enum_rows,
        "assignment.enum_rows_per_s": _ratio(enum_rows, enum_s),
        "assignment.draw_s": _total(spans, "assignment.draw"),
        "assignment.draw_rows": _total(spans, "assignment.draw", "rows"),
        "estimators.eval_s": sum(_total(spans, name) for name in evaluate),
        "estimators.eval_rows": eval_rows,
        "estimators.valid_frac": _ratio(
            sum(_total(spans, name, "valid") for name in evaluate), eval_rows
        ),
        "experiments.dump_s": _total(spans, "experiments.dump_rows"),
        "experiments.dump_bytes": dump_bytes,
        "experiments.self_s": self_of(*ENGINE_SPANS),
        "experiments.parallel_eff": _ratio(
            sum(busy_time(spans, e) for e in engines), threads * engine_wall
        ),
        "population.load_s": load_s,
        "population.load_rows_per_s": _ratio(
            _total(spans, "population.load_population", "rows"), load_s
        ),
        "population.moment_set_calls": sum(1 for s in spans if s.name == "population.moment_set"),
        "population.moment_set_s": _total(spans, "population.moment_set"),
        "theory.self_s": self_of("theory.theory_report"),
        "cli.self_s": self_of("cli.main"),
    }


#: Per-layer metrics whose values are counts; they must repeat exactly.
COUNT_METRICS = (
    "assignment.enum_rows",
    "assignment.draw_rows",
    "estimators.eval_rows",
    "experiments.dump_bytes",
    "population.moment_set_calls",
)
