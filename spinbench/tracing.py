"""In-memory spans around spinref's public functions, and the per-layer
metrics derived from them.

The tracer replaces module attributes, so calls made inside the library are
captured too (``cooling.pipeline`` -> ``perms.count_inversions``).  Each span
is ``[name, start, end, parent index]``; a layer's self time is its spans'
durations minus the durations of their direct children.  Machine primitives
run once per step and are never wrapped: a span around each would time the
tracer, not the layer.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

from spinref import analysis, compiler, cooling, machine, perms, polymer, reports, thermal

MODULES = (thermal, perms, cooling, analysis, compiler, machine, polymer, reports)

_UNWRAPPED = {
    "machine.shift",
    "machine.apply_head_gate",
    "machine.measure_first",
    "machine.ca_parallel_gate",
    "machine.swap_register",
    "machine.trace",  # calls execute once per primitive
}

# Private, but compile emission spends its time in the first; the second is
# wrapped to show that nothing calls it.
_PRIVATE = ("compiler._emit_deinterleave", "compiler._bubble_passes_needed")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def traced_names():
    """Every ``module.function`` the tracer wraps."""
    names = []
    for module in MODULES:
        public = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")
        ]
        for attr in public:
            obj = getattr(module, attr)
            name = f"{_short(module)}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name not in _UNWRAPPED:
                names.append(name)
    return names + list(_PRIVATE)


def _round_call(counts, args, result):
    rec = result[1]
    counts["cooling.round_calls"] += 1
    # a round whose population is below its pair/bin/block size does nothing
    counts["cooling.degenerate_calls"] += rec.n_in < (rec.k or 2)


def _equiv(counts, args, report):
    counts["compiler.equiv_cases"] += report.cases
    counts["compiler.equiv_mismatches"] += report.mismatches


def _emitted(counts, args, program):
    counts["compiler.emitted_steps"] += program.steps


def _executed(counts, args, result):
    counts["machine.exec_steps"] += len(args[1])  # one step per primitive


_HOOKS = {
    "cooling.phase1_round": _round_call,
    "cooling.phase2_round": _round_call,
    "cooling.phase3_round": _round_call,
    "compiler.equivalence_check": _equiv,
    "compiler.compile_phase1": _emitted,
    "compiler.compile_phase2_round": _emitted,
    "compiler.compile_phase3_round": _emitted,
    "machine.execute": _executed,
}

_MODULE_OF = {_short(m): m for m in MODULES}


# ---------------------------------------------------------------------------
# per-layer metrics: name -> span names whose self time they sum; a name
# ending in "." sums a whole module

SELF_MS = {
    "cooling.pipeline.self_ms": ("cooling.pipeline",),
    "cooling.phase1_round.self_ms": ("cooling.phase1_round",),
    "cooling.phase2_round.self_ms": ("cooling.phase2_round",),
    "cooling.phase3_round.self_ms": ("cooling.phase3_round",),
    "perms.count_inversions.self_ms": ("perms.count_inversions",),
    "perms.apply_to.self_ms": ("perms.apply_to",),
    "thermal.sample.self_ms": ("thermal.sample",),
    "thermal.perm.self_ms": ("thermal.stride_shuffle_perm", "thermal.uniform_random_perm"),
    "machine.execute.self_ms": ("machine.execute",),
    "machine.program_to_text.self_ms": ("machine.program_to_text",),
    "compiler.equivalence_check.self_ms": ("compiler.equivalence_check",),
    "compiler.compile.self_ms": (
        "compiler.compile_phase1",
        "compiler.compile_phase2_round",
        "compiler.compile_phase3_round",
    ),
    "compiler.emit_deinterleave.self_ms": ("compiler._emit_deinterleave",),
    "compiler.cost.self_ms": (
        "compiler.phase1_cost",
        "compiler.phase2_round_cost",
        "compiler.phase3_round_cost",
    ),
    "analysis.self_ms": ("analysis.",),
    "polymer.self_ms": ("polymer.",),
    "reports.self_ms": ("reports.",),
}

COUNTS = (
    "cooling.round_calls",
    "machine.exec_steps",
    "compiler.equiv_cases",
    "compiler.equiv_mismatches",
    "compiler.emitted_steps",
)


UNITS = {
    **dict.fromkeys(SELF_MS, "ms"),
    **dict.fromkeys(COUNTS, "count"),
    "cooling.degenerate_calls_frac": "frac",
    "machine.exec_steps_per_s": "1/s",
}


class Tracer:
    """Installs span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._saved = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def __enter__(self):
        for name in traced_names():
            mod, attr = name.split(".", 1)
            module = _MODULE_OF[mod]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, _HOOKS.get(name)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self._open.clear()

    def _wrap(self, name, fn, hook):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def split(self, scale=1.0):
        """Per span name: (self seconds, total seconds, calls), times multiplied by ``scale``."""
        own, total, calls = defaultdict(float), defaultdict(float), Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return {n: (scale * own[n], scale * total[n], calls[n]) for n in calls}

    def metrics(self, scale=1.0):
        """Per-layer metrics (the keys of UNITS) of the op just recorded, times
        multiplied by ``scale``."""
        split = self.split(scale)
        out = {}
        for metric, names in SELF_MS.items():
            out[metric] = 1e3 * sum(
                own
                for span, (own, _, _) in split.items()
                if any(span.startswith(n) if n.endswith(".") else span == n for n in names)
            )
        counts = self.counts
        for metric in COUNTS:
            out[metric] = counts[metric]
        calls = counts["cooling.round_calls"]
        out["cooling.degenerate_calls_frac"] = counts["cooling.degenerate_calls"] / calls if calls else 0.0
        exec_s = split.get("machine.execute", (0.0, 0.0, 0))[1]
        out["machine.exec_steps_per_s"] = counts["machine.exec_steps"] / exec_s if exec_s else 0.0
        return out


def median_split(splits):
    """Per span name, the median over ops of (self ms, calls); absent counts as 0."""
    names = sorted({n for s in splits for n in s})
    return {
        n: (
            statistics.median(1e3 * s.get(n, (0.0, 0.0, 0))[0] for s in splits),
            statistics.median(s.get(n, (0.0, 0.0, 0))[2] for s in splits),
        )
        for n in names
    }
