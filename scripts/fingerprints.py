"""delayh2 fingerprints: one checked unit of each benchmark workload, one row per result.

    python3 scripts/fingerprints.py [--workload NAME ...] [--json PATH] [--compare PATH]

Run from anywhere; the program is imported from ``src/`` and the workloads
from ``perfbench/workloads.py``, unchanged. Runs one reduction unit of
bench-input and bench-io-cli (seed 0; their model does not depend on the
seed) and of mimo-float at seeds 0-2, checks each result as the benchmark
does, and prints one row per result: its label, its verdict (``ok`` or the
check's error), its counts, J/||G||^2 and its fingerprint (the sha256 the
workload's check computes: of the counts and the exact J, residual, delays
and poles, or of bench-io-cli's ``report.json`` bytes). ``--json PATH``
writes the same rows. ``--compare PATH`` reads rows written that way and
exits 1, listing every row run here whose fingerprint differs from, or is
missing in, that file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

SEEDS = {"bench-input": (0,), "bench-io-cli": (0,), "mimo-float": (0, 1, 2)}


def _direct(label, layer, fn, *args):
    return fn(*args)


def run(name: str, seed: int) -> list[dict]:
    """One checked reduction unit of workload ``name`` as rows, one per
    result."""
    with tempfile.TemporaryDirectory() as tmp:
        w = WORKLOADS[name](seed, Path(tmp))
        outcomes = w.check(w.reduce(_direct))
    return [{"label": f"{name} s{seed} {o.label}", "verdict": o.error or "ok",
             "counts": o.counts, "rel_gap": o.rel_gap,
             "fingerprint": o.fingerprint} for o in outcomes]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="run only this workload (repeatable; default all)")
    p.add_argument("--json", metavar="PATH", help="also write the rows here")
    p.add_argument("--compare", metavar="PATH",
                   help="exit 1 if a fingerprint differs from this --json file")
    args = p.parse_args(argv)
    saved = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            saved = {r["label"]: r["fingerprint"] for r in json.load(fh)["rows"]}
    rows = []
    for name in args.workload or WORKLOADS:
        for seed in SEEDS[name]:
            for r in run(name, seed):
                rows.append(r)
                counts = " ".join(f"{k}={v}" for k, v in r["counts"].items())
                rel_gap = "-" if r["rel_gap"] is None else f"{r['rel_gap']:.10g}"
                print(f"{r['label']:<18} {r['verdict']} {counts} "
                      f"rel_gap={rel_gap} {r['fingerprint']}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows}, fh, indent=1)
            fh.write("\n")
    if saved is None:
        return 0
    differ = [r["label"] for r in rows if saved.get(r["label"]) != r["fingerprint"]]
    for label in differ:
        print(f"fingerprint differs: {label}")
    print(f"{len(differ)} of {len(rows)} fingerprints differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
