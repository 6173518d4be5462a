"""delayh2 A/B: paired reduction units of one benchmark workload in two trees.

    python3 scripts/ab.py BASE_DIR --workload NAME [--pairs N] [--json PATH]

Side A is the tree at BASE_DIR (for example a ``git archive`` of the parent
commit), side B the tree this script is in. Each side runs in one
long-lived worker process that imports its own tree's ``src/`` and
``perfbench/workloads.py``, builds the workload at seed 0 and runs one
warm-up unit. Then the two workers run units in ABBA order, one at a time:
pair i runs A then B for even i, B then A for odd i, so a drift in the
host's speed falls on both sides alike. A unit is timed as the benchmark
times it (``reduce`` alone) and checked outside the timed region.

Prints each side's minimum (min-of-k over the k pairs), median and
quartiles of the unit time, the median of the per-pair ratios B/A and the
number of pairs in which B was faster, and checks that both sides'
fingerprints (see ``scripts/fingerprints.py``) agree unit by unit.
``--json PATH`` writes the pairs and the summary. Exits 1 if any
fingerprint differs, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(tree: str, name: str) -> None:
    """Serve reduction units of workload ``name`` from ``tree``: one JSON
    line (seconds, fingerprints, verdicts) per line read on stdin."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    from workloads import WORKLOADS

    # the protocol owns stdout; anything else the program prints goes to stderr
    out, sys.stdout = sys.stdout, sys.stderr
    direct = lambda label, layer, fn, *args: fn(*args)
    with tempfile.TemporaryDirectory() as tmp:
        w = WORKLOADS[name](0, Path(tmp))
        w.check(w.reduce(direct))
        for _ in sys.stdin:
            t0 = time.perf_counter()
            raw = w.reduce(direct)
            seconds = time.perf_counter() - t0
            outcomes = w.check(raw)
            out.write(json.dumps({"seconds": seconds,
                                  "fingerprints": [o.fingerprint for o in outcomes],
                                  "verdicts": [o.error or "ok" for o in outcomes]}) + "\n")
            out.flush()


class Side:
    """A worker process on one tree."""

    def __init__(self, tree: Path, name: str):
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             "--workload", name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def unit(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker on {self.tree} exited "
                               f"with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """End the worker: it exits when its stdin closes."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _spread(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"min_s": min(xs), "median_s": median, "q1_s": q1, "q3_s": q3}


def compare(base: Path, name: str, pairs: int) -> dict:
    """Run ``pairs`` ABBA pairs of workload ``name``; the pairs and a summary."""
    sides = {}
    try:
        # each worker's start-up and warm-up unit run before any timed unit
        sides["a"] = Side(base, name)
        sides["b"] = Side(ROOT, name)
        rows = []
        for i in range(pairs):
            units = {s: sides[s].unit() for s in ("ab" if i % 2 == 0 else "ba")}
            a, b = units["a"], units["b"]
            rows.append({"a_s": a["seconds"], "b_s": b["seconds"],
                         "ratio": b["seconds"] / a["seconds"],
                         "agree": a["fingerprints"] == b["fingerprints"],
                         "a_verdicts": a["verdicts"], "b_verdicts": b["verdicts"]})
    finally:
        for side in sides.values():
            side.close()
    summary = {"a": _spread([r["a_s"] for r in rows]),
               "b": _spread([r["b_s"] for r in rows]),
               "median_ratio": statistics.median(r["ratio"] for r in rows),
               "b_faster": sum(r["b_s"] < r["a_s"] for r in rows),
               "agree": sum(r["agree"] for r in rows)}
    return {"workload": name, "base": str(base), "tree": str(ROOT), "pairs": rows,
            "summary": summary,
            "environment": {"python": sys.version.split()[0], "cpu_count": os.cpu_count()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="?", metavar="BASE_DIR",
                   help="the tree of side A (side B is this script's tree)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10, help="ABBA pairs to run (at least 2)")
    p.add_argument("--json", metavar="PATH", help="also write the pairs and summary here")
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload)
        return 0
    if args.base is None or args.pairs < 2:
        p.error("give BASE_DIR and --pairs of at least 2")
    base = Path(args.base).resolve()
    for tree in (base, ROOT):
        if not (tree / "perfbench" / "workloads.py").is_file():
            p.error(f"no perfbench/workloads.py under {tree}")
    result = compare(base, args.workload, args.pairs)
    s = result["summary"]
    print(f"{args.workload}: {args.pairs} ABBA pairs; A = {base}, B = {ROOT}")
    names = ("min_s", "median_s", "q1_s", "q3_s")
    print(f"{'side':<5}" + "".join(f" {n:>9}" for n in names))
    for side in ("a", "b"):
        print(f"{side.upper():<5}" + "".join(f" {s[side][n]:>9.4f}" for n in names))
    print(f"median B/A {s['median_ratio']:.3f}; B faster in {s['b_faster']} of {args.pairs} pairs")
    print(f"fingerprints agree in {s['agree']} of {args.pairs} pairs")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0 if s["agree"] == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
