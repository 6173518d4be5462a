"""Spans around the calls into the delayh2 layers, recorded from outside.

A :class:`Tracer` replaces the names a calling module imported (for example
``delayh2.iodirka.irka_reduce``) with wrappers that record one span per call:
name, layer, start, end and parent span. Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` puts the original functions back. Spans stay in
memory until the caller writes them out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass, field

# (calling module, name it imported, layer the callee belongs to)
TARGETS = (
    ("delayh2.iodirka", "irka_reduce", "irka"),
    ("delayh2.iodirka", "optimize_delays", "delayopt"),
    ("delayh2.iodirka", "build_gtilde", "h2"),
    ("delayh2.iodirka", "compute_gap", "h2"),
    ("delayh2.iodirka", "h2_norm_sq", "h2"),
    ("delayh2.iodirka", "optimality_residuals", "h2"),
    ("delayh2.cli", "io_dirka", "iodirka"),
    ("delayh2.cli", "load_model", "serialize"),
    ("delayh2.cli", "save_model", "serialize"),
    ("delayh2.cli", "write_json", "serialize"),
    ("delayh2.cli", "report_to_obj", "serialize"),
)

LAYERS = ("cli", "iodirka", "irka", "delayopt", "h2", "serialize")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _irka_counts(args, kwargs, result) -> dict:
    return {"iters": int(getattr(result, "iterations", 0)),
            "unconverged": int(not getattr(result, "converged", True)),
            "reflections": int(getattr(result, "reflections", 0))}


def _grid_points_computed(args, kwargs, result) -> dict:
    """Grid points the delay scan evaluates, computed from the call's config.

    Mirrors the documented search: a joint grid over up to three active
    channels (per-axis size capped by the joint budget), two cyclic sweeps
    above that. Box doublings inside the call are not counted.
    """
    g, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
    k_in = g.nu if cfg.input_mask is None else sum(map(bool, cfg.input_mask))
    k_out = g.ny if cfg.output_mask is None else sum(map(bool, cfg.output_mask))
    k = k_in + k_out
    per_axis = cfg.grid_points_per_channel
    if k > 1:
        per_axis = min(per_axis, max(2, int(cfg.joint_grid_budget ** (1.0 / k))))
    points = 0 if k == 0 else per_axis ** k if k <= 3 else 2 * k * per_axis
    return {"grid_points_computed": points}


COUNTERS = {"irka_reduce": _irka_counts, "optimize_delays": _grid_points_computed}


class Tracer:
    """In-memory span recorder for one benchmark process (one caller thread)."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = Span(id=len(self.spans), name=name, layer=layer,
                    parent=self._stack[-1] if self._stack else None,
                    start=time.perf_counter() - self.t0)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter() - self.t0
            self._stack.pop()
        counter = COUNTERS.get(name.rsplit(".", 1)[-1])
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def install(self) -> None:
        """Wrap every target name that exists; record the ones that do not."""
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(mod, attr, self._wrap(name, layer, orig))
            self._saved.append((mod, attr, orig))

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def summarize(spans: list[Span]) -> dict:
    """Busy time, self time, calls and summed counts per layer.

    A span's self time is its duration minus the time its child spans
    cover. No traced layer calls into itself, so busy time (the sum of span
    durations) counts nothing twice; for the leaf layers it equals self time.
    """
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += s.end - s.start
    out = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}}
           for layer in LAYERS}
    for s in spans:
        row = out[s.layer]
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += (s.end - s.start) - child_time[s.id]
        for key, val in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out
