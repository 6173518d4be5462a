"""delayh2 corpus: the seeded reductions beyond the benchmark, one row per run.

    python3 scripts/corpus.py [--shape N20-o2 ...] [--seed 3 ...] [--json corpus.json]
                              [--compare corpus.json]

Run from anywhere; the program is imported from ``src/`` and the models
from ``tests/conftest.py``. Each run reduces
``corpus_model(default_rng(1000 + seed), n, ny, nu)`` with ``io_dirka`` at
default settings, for seeds 0-5 in four shapes: N=20 SISO at orders 2 and
4 and N=50 SISO at order 4 (input delay), and N=30 2x2 at order 4 (input
and output delays). A row gives whether the run converged, its outer
iterations, its IRKA iterations summed over the trace, J/||G||^2, the max
first-order residual, the delay search's objective evaluations (each a
value with its derivatives) and the most of them any one refinement
start took, and its wall time; then one line per shape gives the runs
converged in it, and the last line the converged total. ``--json PATH``
writes the same rows and counts; each row there also carries a
``fingerprint``, the sha256 of its outer and IRKA counts and of the exact
(hex) J, max residual, delays and poles, so two trees' files can be
compared run by run. The search's evaluation counts measure effort, not
the result, and stay out of it. ``--compare PATH`` reads rows written that
way and, after the run, lists each row run here whose fingerprint or
verdict differs from that file's row of the same run (or that the file
lacks), prints the converged totals of those runs here and there, and
exits 1 if any row differs. The evaluations are counted by wrapping
``_Objective`` and ``delayopt._refine`` here, so the library carries no
counter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import corpus_model  # noqa: E402
from delayh2 import DelaySearchConfig, IoDirkaConfig, delayopt, io_dirka  # noqa: E402
from delayh2.delayopt import _Objective  # noqa: E402

INPUT = DelaySearchConfig(input_mask=(True,), output_mask=(False,))
# name: (n, ny, nu, order, search)
SHAPES = {
    "N20-o2": (20, 1, 1, 2, INPUT),
    "N20-o4": (20, 1, 1, 4, INPUT),
    "N50-o4": (50, 1, 1, 4, INPUT),
    "N30-io": (30, 2, 2, 4, None),
}
SEEDS = range(6)


@contextmanager
def counting():
    """[``_Objective`` evaluations, the most of them in one ``_refine``
    call] while open."""
    count = [0, 0]
    orig = _Objective.value_grad_hess

    def counted(self, x):
        count[0] += 1
        return orig(self, x)
    _Objective.value_grad_hess = counted
    refine = delayopt._refine

    def refine_counted(*args):
        before = count[0]
        out = refine(*args)
        count[1] = max(count[1], count[0] - before)
        return out
    delayopt._refine = refine_counted
    try:
        yield count
    finally:
        _Objective.value_grad_hess = orig
        delayopt._refine = refine


def run(shape: str, seed: int) -> dict:
    """One corpus reduction as a row."""
    n, ny, nu, order, search = SHAPES[shape]
    g = corpus_model(np.random.default_rng(1000 + seed), n, ny, nu)
    with counting() as count:
        start = time.perf_counter()
        rep = io_dirka(g, IoDirkaConfig(order=order, search=search))
        seconds = time.perf_counter() - start
    counts = {"outer": rep.outer_iterations,
              "irka": sum(e.irka_iterations for e in rep.trace),
              "evaluations": count[0], "max_start": count[1]}
    max_res = float(rep.residuals.max_residual())
    m = rep.model
    exact = (counts["outer"], counts["irka"], float(rep.gap.j).hex(), max_res.hex(),
             [float(v).hex() for v in m.input_delays.delays + m.output_delays.delays],
             [(complex(p).real.hex(), complex(p).imag.hex()) for p in m.core.poles])
    return {"shape": shape, "seed": seed, "converged": rep.converged, **counts,
            "j_rel": rep.gap.j / rep.norm_g_sq, "max_residual": max_res,
            "seconds": seconds,
            "fingerprint": hashlib.sha256(repr(exact).encode()).hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--shape", action="append", choices=list(SHAPES),
                   help="run only this shape (repeatable; default all)")
    p.add_argument("--seed", action="append", type=int, choices=list(SEEDS),
                   help="run only this seed (repeatable; default 0-5)")
    p.add_argument("--json", metavar="PATH", help="also write the rows here")
    p.add_argument("--compare", metavar="PATH",
                   help="exit 1 if a fingerprint or verdict differs from this --json file")
    args = p.parse_args(argv)
    saved = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            saved = {(r["shape"], r["seed"]): r for r in json.load(fh)["rows"]}
    rows = []
    print(f"{'run':<10} {'conv':<5} {'outer':>5} {'irka':>5} {'J/|G|^2':>10} "
          f"{'max res':>9} {'evals':>7} {'start':>5} {'s':>6}")
    for shape in args.shape or SHAPES:
        for seed in args.seed or SEEDS:
            r = run(shape, seed)
            rows.append(r)
            print(f"{shape + ' s' + str(seed):<10} {str(r['converged']):<5} "
                  f"{r['outer']:>5} {r['irka']:>5} {r['j_rel']:>10.6g} "
                  f"{r['max_residual']:>9.2e} "
                  f"{r['evaluations']:>7} {r['max_start']:>5} {r['seconds']:>6.2f}",
                  flush=True)
    shapes = {}
    for r in rows:
        share = shapes.setdefault(r["shape"], {"converged": 0, "runs": 0})
        share["converged"] += r["converged"]
        share["runs"] += 1
    for shape, share in shapes.items():
        print(f"{shape:<10} converged {share['converged']} of {share['runs']}")
    converged = sum(r["converged"] for r in rows)
    print(f"converged {converged} of {len(rows)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "shapes": shapes, "converged": converged}, fh, indent=1)
            fh.write("\n")
    if saved is None:
        return 0
    key = lambda r: (r["shape"], r["seed"])
    differ = [r for r in rows if key(r) not in saved
              or (saved[key(r)]["fingerprint"], saved[key(r)]["converged"])
              != (r["fingerprint"], r["converged"])]
    for r in differ:
        old = saved.get(key(r))
        was = "missing there" if old is None else f"{old['converged']} there"
        print(f"differs: {r['shape']} s{r['seed']} (converged {r['converged']} here, {was})")
    there = sum(bool(saved.get(key(r), {}).get("converged")) for r in rows)
    print(f"converged {converged} of {len(rows)} here, {there} in {args.compare}")
    print(f"{len(differ)} of {len(rows)} rows differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
