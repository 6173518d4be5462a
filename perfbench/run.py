"""delayh2 benchmark: closed-loop reductions, checked, timed and traced by layer.

    python3 perfbench/run.py --workload bench-input --seed 0 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``. One
caller runs one reduction after another until ``--seconds`` have passed
(at least two reductions, or one untraced/traced pair with ``--trace 1``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
``reduce_s`` (median wall time of one reduction unit), ``setup_s`` (median
of several fresh-interpreter set-ups: importing delayh2 plus building or
writing the model), ``peak_rss_mb`` and ``rel_gap`` (worst final squared H2
gap over ||G||^2). ``--trace 1`` alternates untraced and traced reductions
and prints the per-layer metrics from spans around the calls into each
layer, with the tracing overhead (traced minus untraced median).

Every reduction is checked (see workloads.py) and must repeat exactly
within the run. The last stdout line is the result object; the line before
it carries the environment, samples, counts and layer shares, and the same
record (with the spans, when traced) is written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_UNTRACED = 2

END_TO_END = {"reduce_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "rel_gap": "ratio"}
PER_LAYER = {
    "irka.busy_s": "s", "irka.s_per_iter": "s", "irka.iters": "count",
    "irka.calls": "count", "irka.unconverged": "count",
    "irka.reflections": "count",
    "delayopt.busy_s": "s", "delayopt.s_per_call": "s",
    "delayopt.calls": "count", "delayopt.grid_points_computed": "count",
    "h2.busy_s": "s", "h2.calls": "count",
    "iodirka.self_s": "s", "iodirka.outer_iters": "count",
    "iodirka.max_residual": "abs",
    "serialize.busy_s": "s", "serialize.calls": "count",
    "cli.self_s": "s",
    "trace.reduce_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def _direct(name, layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "delayh2").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cap_threads(nproc: int) -> bool:
    """Keep the delay-search pool within nproc; True if the cap was set here."""
    if "DELAY_H2_THREADS" in os.environ or min(4, os.cpu_count() or 1) <= nproc:
        return False
    os.environ["DELAY_H2_THREADS"] = str(nproc)
    return True


def _environment(nproc: int, capped: bool) -> dict:
    import mpmath
    import numpy
    import scipy
    from delayh2 import DelaySearchConfig, delayopt

    pool = getattr(delayopt, "_thread_count", None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "cpu_count": os.cpu_count(), "nproc": nproc,
            "DELAY_H2_THREADS": os.environ.get("DELAY_H2_THREADS"),
            "DELAY_H2_THREADS_set_by_benchmark": capped,
            "delay_pool_threads": pool(DelaySearchConfig()) if pool else None,
            "git_revision": _git_revision(), "src_sha256": _src_digest()}


def _setup_samples(workload: str, seed: int, workdir: Path) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir / f"setup-{i}")],
            capture_output=True, text=True, env=env, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _run_loop(wl, seconds: float, trace: bool):
    """Closed loop of reduction units; returns samples, outcomes, traced units."""
    from tracing import Tracer, summarize

    tracer = Tracer()
    samples = {False: [], True: []}
    outcomes, traced_units = [], []
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_UNTRACED
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for traced in modes:
            first = len(tracer.spans)
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                raw = wl.reduce(tracer.call if traced else _direct)
                samples[traced].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            outs = wl.check(raw)
            outcomes.extend(outs)
            if traced:
                traced_units.append((summarize(tracer.spans[first:]),
                                     len(tracer.spans) - first, outs))
        rounds += 1
    return samples, outcomes, traced_units, tracer


def _repeat_problems(outcomes, traced_units) -> list[str]:
    """Mark results that differ from the first repeat; compare layer counts."""
    problems = []
    first = {}
    for o in outcomes:
        ref = first.setdefault(o.label, o)
        if o.error is None and ref.error is None and o.fingerprint != ref.fingerprint:
            o.error = "result differs from the first repeat in this run"
    if traced_units:
        def counts(unit):
            rows, n_spans, _ = unit
            return n_spans, {k: (r["calls"], r["counts"]) for k, r in rows.items()}
        ref = counts(traced_units[0])
        for unit in traced_units[1:]:
            if counts(unit) != ref:
                problems.append("layer counts differ between traced repeats")
    return problems


def _per_layer(samples, traced_units) -> dict:
    """Per-layer metrics: times are medians over traced units, counts per unit."""
    def med(layer, key="busy_s"):
        return statistics.median(u[0][layer][key] for u in traced_units)

    first, n_spans, outs = traced_units[0]
    irka, dopt = first["irka"], first["delayopt"]
    iters = irka["counts"].get("iters", 0)
    residuals = [o.max_residual for o in outs if o.max_residual is not None]
    traced_s = statistics.median(samples[True])
    return {
        "irka.busy_s": med("irka"),
        "irka.s_per_iter": med("irka") / iters if iters else None,
        "irka.iters": iters,
        "irka.calls": irka["calls"],
        "irka.unconverged": irka["counts"].get("unconverged", 0),
        "irka.reflections": irka["counts"].get("reflections", 0),
        "delayopt.busy_s": med("delayopt"),
        "delayopt.s_per_call": med("delayopt") / dopt["calls"] if dopt["calls"] else None,
        "delayopt.calls": dopt["calls"],
        "delayopt.grid_points_computed": dopt["counts"].get("grid_points_computed", 0),
        "h2.busy_s": med("h2"),
        "h2.calls": first["h2"]["calls"],
        "iodirka.self_s": med("iodirka", "self_s"),
        "iodirka.outer_iters": sum(o.counts.get("outer_iters", 0) for o in outs),
        "iodirka.max_residual": max(residuals) if residuals else None,
        "serialize.busy_s": med("serialize"),
        "serialize.calls": first["serialize"]["calls"],
        "cli.self_s": med("cli", "self_s"),
        "trace.reduce_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(samples[False]),
        "trace.spans": n_spans,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "delayh2" / "__init__.py").is_file():
        print(f"perfbench: no delayh2 package under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    capped = _cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup = [] if args.trace else _setup_samples(args.workload, args.seed, workdir)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "main")
        samples, outcomes, traced_units, tracer = _run_loop(
            wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = _repeat_problems(outcomes, traced_units)
    failed = [o for o in outcomes if o.error is not None]
    gaps = [o.rel_gap for o in outcomes if o.rel_gap is not None]
    if args.trace:
        values = _per_layer(samples, traced_units)
        units = PER_LAYER
    else:
        values = {"reduce_s": statistics.median(samples[False]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "rel_gap": max(gaps) if gaps else None}
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(nproc, capped),
        "reduce_s_samples": samples[False], "traced_reduce_s_samples": samples[True],
        "setup_s_samples": setup,
        "attempted": len(outcomes), "failed_frac": len(failed) / len(outcomes),
        "failures": sorted({f"{o.label}: {o.error}" for o in failed}),
        "problems": problems,
        "counts": {o.label: o.counts for o in outcomes},
        "rel_gap": {o.label: o.rel_gap for o in outcomes},
        "max_residual": {o.label: o.max_residual for o in outcomes},
    }
    if traced_units:
        rows, _, _ = traced_units[0]
        total = values["trace.reduce_s"]
        record["layer_self_share"] = {k: r["self_s"] / total for k, r in rows.items()}
        record["untraced_names"] = tracer.missing
        record["spans"] = tracer.as_records()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    record.pop("spans", None)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes), "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
