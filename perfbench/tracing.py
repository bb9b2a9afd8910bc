"""In-process tracing of the package's layers, and fixed layer probes.

The tracer wraps every public function of the layer modules (``states``,
``mathutil``, ``rules``, ``sampling``, ``engine``, ``cli``) wherever the
package refers to it, so a call into a layer, from the benchmark or from
another layer, records a span: name, start, end, parent and run id. Spans
stay in memory until the run ends. The package's files are not changed.

Not traced: ``mathutil.fmt17``, called once per CSV cell (its time stays
inside ``engine.report_to_csv``); calls made inside pool worker processes;
and work that is not a public function call, such as the PMF-table
contraction, which a probe measures instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("states", "mathutil", "rules", "sampling", "engine", "cli")
UNTRACED = {"mathutil.fmt17"}
TRACED_METHODS = (("sampling", "SeedSpec", "rng"),)
GRID_BUILDERS = {"states.build_binary_grid", "states.build_prediction_grid"}
SCANS = {"engine.max_regret_scan", "engine.max_mse_scan"}


@dataclass(frozen=True)
class Span:
    run: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``run`` is the id given to new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.grid_calls: dict[str, tuple] = {}  # distinct grid builds, replayed for memory
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.run, sid, parent, name, start, end))
                if name in GRID_BUILDERS:
                    self.grid_calls.setdefault(repr((name, args, kwargs)), (fn, args, kwargs))

        return traced

    def install(self, package: str) -> None:
        """Patch every reference the package's modules hold to a layer function."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[obj] = self.wrap(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, method in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"{package}.{layer}"), cls_name)
            self._patch(cls, method, self.wrap(f"{layer}.{cls_name}.{method}",
                                               getattr(cls, method)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer numbers from the spans of one traced pass

def layer_metrics(spans: list[Span], invocations) -> tuple[dict, dict]:
    """(per-layer metrics, per-invocation detail) for the spans of one pass."""
    child = defaultdict(float)
    name_of = {s.id: s.name for s in spans}
    layer_of = {s.id: s.name.split(".", 1)[0] for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds

    def self_s(s: Span) -> float:
        return s.seconds - child[s.id]

    def total(pred, f=lambda s: s.seconds) -> float:
        return sum(f(s) for s in spans if pred(s))

    def outer(name: str):
        """Spans of a function not nested in a span of itself (recursion)."""
        return lambda s: s.name == name and name_of.get(s.parent) != name

    def count(name: str) -> int:
        return sum(map(outer(name), spans))

    metrics = {
        "cli.main_s": total(lambda s: s.name == "cli.main"),
        "cli.overhead_s": total(lambda s: layer_of[s.id] == "cli", self_s),
        "states.grid_s": total(lambda s: layer_of[s.id] == "states"
                               and layer_of.get(s.parent) != "states"),
        "engine.scan_s": total(lambda s: s.name in SCANS),
        "engine.scan_self_s": total(lambda s: s.name in SCANS, self_s),
        "mathutil.pmf_calls": count("mathutil.binom_pmf_vector"),
        "engine.choice_table_calls": count("engine.choice_table"),
        "sampling.substream_calls": count("sampling.SeedSpec.rng"),
    }
    detail = {
        "mathutil.pmf_s": total(outer("mathutil.binom_pmf_vector")),
        "engine.csv_s": total(lambda s: s.name == "engine.report_to_csv"),
        "sampling.substream_s": total(lambda s: s.name == "sampling.SeedSpec.rng"),
    }
    for inv in invocations:
        mine = [s for s in spans if s.run.startswith(inv.name + ".")]
        detail[f"cli.main_s.{inv.name}"] = sum(s.seconds for s in mine if s.name == "cli.main")
        detail[f"engine.scan_s.{inv.name}"] = sum(s.seconds for s in mine if s.name in SCANS)
        if inv.name == "exact_es":
            detail["engine.exact_es_math_s"] = sum(
                s.seconds for s in mine
                if s.name == "engine.choice_table"
                or outer("mathutil.binom_pmf_vector")(s))
    return metrics, detail


def grid_bytes_per_state(calls: dict[str, tuple]) -> float:
    """Replay the grid builds a traced pass made, under tracemalloc."""
    peak_total = states = 0
    for fn, args, kwargs in calls.values():
        tracemalloc.start()
        try:
            grid = fn(*args, **kwargs)
            peak_total += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states += len(grid)
        del grid
    return peak_total / states


# ---------------------------------------------------------------------------
# probes: the same fixed inputs on every workload

def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(package: str, seed: int, work: Path) -> tuple[dict, dict]:
    """(per-layer metrics, detail) from fixed calls into single layers.

    The inputs are those of the trial_exact and trial_mc scans at n = 145:
    501 distinct probabilities, 441 states, 20,000 replications.
    """
    import numpy as np
    engine = importlib.import_module(f"{package}.engine")
    mathutil = importlib.import_module(f"{package}.mathutil")
    rules = importlib.import_module(f"{package}.rules")
    sampling = importlib.import_module(f"{package}.sampling")
    states = importlib.import_module(f"{package}.states")

    n, ps, reps, block = 145, np.linspace(0.0, 1.0, 501), 20000, 20
    es = rules.DecisionRule("empirical_success")
    ztest = rules.DecisionRule("ztest", {"alpha": 0.05, "status_quo": 0})
    pmf = np.vstack([mathutil.binom_pmf_vector(n, p) for p in ps])
    table = engine.choice_table(es, n)
    spec = sampling.SeedSpec(seed)
    rng = spec.rng(0, 0)
    report = engine.max_regret_scan(es, states.build_binary_grid(0.01),
                                    sampling.TrialDesign(arms=2, per_arm_n=n))
    csv_path = work / "probe.csv"
    csv_s = _median_time(lambda: engine.report_to_csv(report, csv_path), 3)
    csv_path.unlink()
    u = len(ps)
    metrics = {
        "mathutil.pmf_us_per_call":
            _median_time(lambda: [mathutil.binom_pmf_vector(n, p) for p in ps]) / u * 1e6,
        "rules.choice_table_s":
            _median_time(lambda: (engine.choice_table(es, n), engine.choice_table(ztest, n))),
        "engine.contraction_s": _median_time(lambda: pmf @ table @ pmf.T),
        "engine.csv_rows_per_s": len(report.per_state) / csv_s,
        "sampling.substream_s": _median_time(lambda: [spec.rng(k, 0) for k in range(441)]),
        "sampling.draws_per_s": reps * block / _median_time(
            lambda: [rng.binomial(n, 0.5, size=reps) for _ in range(block)]),
    }
    # computed, not measured: the contraction's multiply-adds counted as 2 flops
    detail = {"engine.contraction_flops_computed": 2 * u * (n + 1) ** 2 + 2 * u * u * (n + 1)}
    return metrics, detail
