"""Per-layer timing of a crblea run, taken from outside the package.

The tracer replaces module attributes of ``crblea.nested`` and
``crblea.crframework`` with timing wrappers for the length of a ``with
tracer.installed():`` block and puts the originals back afterwards.  Both
modules import their callees by name, so the wrappers go on the importing
module's attribute (``crblea.nested.evaluate_lower``), not on the defining
module's.

Each boundary keeps a call count, inclusive seconds and self seconds
(inclusive minus the time of wrapped calls made from inside it).  Spans are
aggregated per name as they close rather than stored one by one, because a
protocol run makes about 280 000 lower-level evaluations.

The per-FE ``objective`` closure inside ``nested.lower_level_search`` is
created per task and cannot be wrapped from outside.  Its bookkeeping runs
inside ``optimizers.step`` / ``optimizers.init_search`` and is counted in
their self time.
"""

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

from crblea.errors import TrainingDivergenceError

# (module, attribute, span name).  The span name's prefix is the layer.
BOUNDARIES = (
    ("crblea.nested", "evaluate_lower", "problems.evaluate_lower"),
    ("crblea.nested", "evaluate_upper", "problems.evaluate_upper"),
    ("crblea.nested", "init_search", "optimizers.init_search"),
    ("crblea.nested", "step", "optimizers.step"),
    ("crblea.nested", "lower_level_search", "nested.lower_level_search"),
    ("crblea.nested", "upper_variation", "nested.upper_variation"),
    ("crblea.crframework", "upper_variation", "nested.upper_variation"),
    ("crblea.nested", "environmental_selection", "nested.environmental_selection"),
    ("crblea.crframework", "environmental_selection", "nested.environmental_selection"),
    ("crblea.crframework", "pdp", "ranknet.pdp"),
    ("crblea.crframework", "train", "ranknet.train"),
    ("crblea.crframework", "scale_init_to_batch", "ranknet.scale_init_to_batch"),
    ("crblea.crframework", "model_accuracy", "ranknet.model_accuracy"),
    ("crblea.crframework", "ranking_scores", "ranknet.ranking_scores"),
    ("crblea.crframework", "pgr", "crframework.pgr"),
)

# (name, unit) of every metric layer_metrics() returns, in print order.
LAYER_METRICS = (
    ("problems.lower_calls", "count"), ("problems.lower_us", "us"),
    ("problems.upper_calls", "count"), ("problems.upper_us", "us"),
    ("problems.share", "frac"),
    ("optimizers.step_calls", "count"), ("optimizers.step_us", "us"),
    ("optimizers.init_us", "us"), ("optimizers.share", "frac"),
    ("nested.tasks", "count"), ("nested.task_ms.p50", "ms"), ("nested.task_ms.p95", "ms"),
    ("nested.task_fes", "count"), ("nested.task_capped_frac", "frac"),
    ("nested.task_fstar.p50", "value"), ("nested.variation_us", "us"),
    ("nested.selection_us", "us"),
    ("ranknet.train_calls", "count"), ("ranknet.train_ms", "ms"),
    ("ranknet.train_epochs", "count"), ("ranknet.epoch_us", "us"),
    ("ranknet.train_pairs", "count"), ("ranknet.train_failures", "count"),
    ("ranknet.pdp_ms", "ms"), ("ranknet.score_us", "us"), ("ranknet.model_acc", "frac"),
    ("ranknet.share", "frac"),
    ("crframework.pgr_calls", "count"), ("crframework.pgr_us", "us"),
    ("crframework.resample_frac", "frac"), ("crframework.gate_frac", "frac"),
    ("crframework.warmup_fes", "count"),
    ("ledger.fes_u", "count"), ("ledger.fes_l", "count"),
)


class Tracer:
    """Counts and times the calls across every boundary in BOUNDARIES."""

    def __init__(self):
        self.spans = {}  # span name -> [calls, inclusive s, self s]
        self._open = []  # time spent in wrapped children, one entry per open span
        self.ledger = None  # the run's EvalLedger, seen on the first lower task
        self._fes_l_seen = 0
        self.tasks = []  # (wall s, FEs used, FE cap, f_star) per lower task
        self.train_epochs = []
        self.train_pairs = []
        self.train_failures = 0
        self.model_acc = []
        self.resamples = 0
        self.warmup_fes = None  # fes_t when the first training event started
        self.alloc_tasks = 0
        self.alloc_offspring = 0
        self._observers = {
            "nested.lower_level_search": self._on_task,
            "nested.upper_variation": self._on_variation,
            "ranknet.train": self._on_train,
            "ranknet.model_accuracy": self._on_model_accuracy,
            "crframework.pgr": self._on_pgr,
        }

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        observe = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            out = exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if observe is not None:
                    observe(args, kwargs, out, exc, dt)

        return traced

    # -- observers (called after the wrapped call returns or raises) -------

    def _on_task(self, args, kwargs, out, exc, dt):
        # lower_level_search(p, x_u, cfg, rule, ledger, rng=None)
        rule, ledger = args[3], args[4]
        if self.ledger is None:
            self.ledger = ledger
        used = ledger.fes_l - self._fes_l_seen
        self._fes_l_seen = ledger.fes_l
        f_star = out[1] if out is not None else float("nan")
        self.tasks.append((dt, used, rule.fes_l_max, f_star))
        if self.warmup_fes is not None:
            self.alloc_tasks += 1

    def _on_variation(self, args, kwargs, out, exc, dt):
        if self.warmup_fes is not None and out is not None:
            self.alloc_offspring += len(out)

    def _on_train(self, args, kwargs, out, exc, dt):
        # The CR loop switches to the allocated phase at its first training event.
        if self.warmup_fes is None:
            self.warmup_fes = self.ledger.fes_t if self.ledger is not None else 0
        self.train_pairs.append(len(args[1]))
        if isinstance(exc, TrainingDivergenceError):
            self.train_failures += 1
        elif out is not None:
            self.train_epochs.append(len(out.loss_curve) - 1)  # last entry is the final loss

    def _on_model_accuracy(self, args, kwargs, out, exc, dt):
        if out is not None:
            self.model_acc.append(out)

    def _on_pgr(self, args, kwargs, out, exc, dt):
        if out is not None and out[1]:
            self.resamples += 1

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def _per_call(self, name, scale, self_time=False):
        n, incl, self_s = self.spans.get(name, (0, 0.0, 0.0))
        return (self_s if self_time else incl) / n * scale if n else 0.0

    def _self(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_metrics(self, run_s):
        """Per-layer metrics of one traced run whose wall time was ``run_s``."""
        task_s = [t[0] for t in self.tasks]
        task_fes = [t[1] for t in self.tasks]
        capped = sum(1 for _, used, cap, _ in self.tasks if used >= cap)
        f_stars = [t[3] for t in self.tasks]
        epochs = sum(self.train_epochs)
        train_s = self.spans.get("ranknet.train", (0, 0.0, 0.0))[1]
        pgr_calls = self.calls("crframework.pgr")
        return {
            "problems.lower_calls": self.calls("problems.evaluate_lower"),
            "problems.lower_us": self._per_call("problems.evaluate_lower", 1e6),
            "problems.upper_calls": self.calls("problems.evaluate_upper"),
            "problems.upper_us": self._per_call("problems.evaluate_upper", 1e6),
            "problems.share": self._self("problems.evaluate_lower", "problems.evaluate_upper") / run_s,
            "optimizers.step_calls": self.calls("optimizers.step"),
            "optimizers.step_us": self._per_call("optimizers.step", 1e6, self_time=True),
            "optimizers.init_us": self._per_call("optimizers.init_search", 1e6, self_time=True),
            "optimizers.share": self._self("optimizers.step", "optimizers.init_search") / run_s,
            "nested.tasks": len(self.tasks),
            "nested.task_ms.p50": _quantile(task_s, 50) * 1e3,
            "nested.task_ms.p95": _quantile(task_s, 95) * 1e3,
            "nested.task_fes": statistics.fmean(task_fes) if task_fes else 0.0,
            "nested.task_capped_frac": capped / len(self.tasks) if self.tasks else 0.0,
            "nested.task_fstar.p50": _quantile(f_stars, 50),
            "nested.variation_us": self._per_call("nested.upper_variation", 1e6),
            "nested.selection_us": self._per_call("nested.environmental_selection", 1e6),
            "ranknet.train_calls": self.calls("ranknet.train"),
            "ranknet.train_ms": self._per_call("ranknet.train", 1e3),
            "ranknet.train_epochs": epochs / len(self.train_epochs) if self.train_epochs else 0.0,
            "ranknet.epoch_us": train_s / epochs * 1e6 if epochs else 0.0,
            "ranknet.train_pairs": statistics.fmean(self.train_pairs) if self.train_pairs else 0.0,
            "ranknet.train_failures": self.train_failures,
            "ranknet.pdp_ms": self._per_call("ranknet.pdp", 1e3),
            "ranknet.score_us": self._per_call("ranknet.ranking_scores", 1e6),
            "ranknet.model_acc": statistics.fmean(self.model_acc) if self.model_acc else 0.0,
            "ranknet.share": self._self(*(n for _, _, n in BOUNDARIES if n.startswith("ranknet."))) / run_s,
            "crframework.pgr_calls": pgr_calls,
            "crframework.pgr_us": self._per_call("crframework.pgr", 1e6),
            "crframework.resample_frac": self.resamples / pgr_calls if pgr_calls else 0.0,
            "crframework.gate_frac": self.alloc_tasks / self.alloc_offspring if self.alloc_offspring else 0.0,
            "crframework.warmup_fes": self.warmup_fes or 0,
            "ledger.fes_u": self.ledger.fes_u if self.ledger is not None else 0,
            "ledger.fes_l": self.ledger.fes_l if self.ledger is not None else 0,
        }


def _quantile(values, pct):
    """The ``pct``-th percentile (inclusive method), 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
