"""delayh2 search diff: one fixed set of delay searches in two trees, search by search.

    python3 scripts/searchdiff.py BASE_DIR [--shape NAME ...] [--seed N ...] [--json PATH]

Side A is the tree at BASE_DIR (for example a ``git archive`` of the parent
commit), side B the tree this script is in. Each side runs in its own
process, which imports its own tree's ``src/`` and this tree's
``tests/conftest.py`` for the models, so both sides search the same
models. Every search is ``optimize_delays(g, h, cfg)`` on float models
``g = random_pr(default_rng(seed), 6, ny, nu)`` and ``h =
random_pr(default_rng(1000 + seed), 2, ny, nu)`` at the default grid, for
seeds 0-11 in eight shapes: a SISO input delay, two inputs of a 2x2 model,
three inputs of a 2x3 model, three outputs of a 3x1 model (the masks that
search only inputs or only outputs), and every channel of a 2x2, 2x3, 3x3
and 4x4 model (the coupled io mask, whose gauge faces have 3, 4, 5 and 7
coordinates).

Prints one line per search whose delays or ``cross`` (the kernel's complex
sum at the delays) differ between the sides: the delays of each side and
the objective Re(cross) of B minus that of A, in units in the last place
of A's and relative to it. Then one line per shape: how many of its
searches reach a higher, the same or a lower objective on side B, and each
side's search time and objective evaluations (each a value with its
derivatives, counted by wrapping ``_Objective`` here), summed over the
shape; and last the number of searches that differ. ``--json PATH``
writes every search of both sides. Exits 1 if any search differs, and 2
on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# name: (ny, nu, input mask, output mask)
SHAPES = {
    "1x1-input": (1, 1, (True,), (False,)),
    "2x2-inputs": (2, 2, (True, True), (False, False)),
    "2x3-inputs": (2, 3, (True, True, True), (False, False)),
    "3x1-outputs": (3, 1, (False,), (True, True, True)),
    "2x2-io": (2, 2, (True, True), (True, True)),
    "2x3-io": (2, 3, (True,) * 3, (True,) * 2),
    "3x3-io": (3, 3, (True,) * 3, (True,) * 3),
    "4x4-io": (4, 4, (True,) * 4, (True,) * 4),
}
SEEDS = range(12)


def worker(tree: str, cases: list) -> None:
    """Run the searches ``cases`` ([shape, seed] pairs) with ``tree``'s
    library; print one JSON list of rows."""
    sys.path[:0] = [str(Path(tree) / "src"), str(ROOT / "tests")]
    from conftest import random_pr
    from delayh2 import DelaySearchConfig, optimize_delays
    from delayh2.delayopt import _Objective

    count = [0]
    evaluate = _Objective.value_grad_hess

    def counted(self, x):
        count[0] += 1
        return evaluate(self, x)
    _Objective.value_grad_hess = counted

    rows = []
    for shape, seed in cases:
        ny, nu, in_mask, out_mask = SHAPES[shape]
        g = random_pr(np.random.default_rng(seed), 6, ny=ny, nu=nu)
        h = random_pr(np.random.default_rng(1000 + seed), 2, ny=ny, nu=nu)
        count[0] = 0
        start = time.perf_counter()
        found = optimize_delays(g, h, DelaySearchConfig(input_mask=in_mask,
                                                        output_mask=out_mask))
        seconds = time.perf_counter() - start
        delays = found.input_delays.delays + found.output_delays.delays
        rows.append({"shape": shape, "seed": seed,
                     "delays": [float(d).hex() for d in delays],
                     "cross": [complex(found.cross).real.hex(),
                               complex(found.cross).imag.hex()],
                     "seconds": seconds, "evaluations": count[0]})
    print(json.dumps(rows))


def run(tree: Path, cases: list) -> list[dict]:
    """The rows of ``cases`` searched by ``tree``'s library, in a process of its own."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                          str(tree), "--cases", json.dumps(cases)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def differences(a_rows: list[dict], b_rows: list[dict]) -> list[dict]:
    """One entry per search whose delays or cross differ: both sides' delays,
    and B's objective minus A's in ulps of A's and relative to it."""
    out = []
    for a, b in zip(a_rows, b_rows):
        if (a["delays"], a["cross"]) == (b["delays"], b["cross"]):
            continue
        fa, fb = float.fromhex(a["cross"][0]), float.fromhex(b["cross"][0])
        out.append({"shape": a["shape"], "seed": a["seed"],
                    "a_delays": [float.fromhex(d) for d in a["delays"]],
                    "b_delays": [float.fromhex(d) for d in b["delays"]],
                    "ulps": (fb - fa) / float(np.spacing(abs(fa))),
                    "rel": (fb - fa) / max(abs(fa), 1e-300)})
    return out


def shape_summary(a_rows: list[dict], b_rows: list[dict]) -> list[str]:
    """One line per shape: searches whose objective is higher, the same or
    lower on side B, and each side's summed time and evaluations."""
    lines = []
    for shape in dict.fromkeys(r["shape"] for r in a_rows):
        pairs = [(a, b) for a, b in zip(a_rows, b_rows) if a["shape"] == shape]
        sign = [np.sign(float.fromhex(b["cross"][0]) - float.fromhex(a["cross"][0]))
                for a, b in pairs]
        secs = [sum(r["seconds"] for r in side) for side in zip(*pairs)]
        evals = [sum(r["evaluations"] for r in side) for side in zip(*pairs)]
        lines.append(f"{shape}: B higher {sign.count(1)}, equal {sign.count(0)}, "
                     f"lower {sign.count(-1)}; time A {secs[0]:.2f} s, B {secs[1]:.2f} s "
                     f"({secs[1] / secs[0]:.2f}x); evaluations A {evals[0]}, B {evals[1]}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="?", metavar="BASE_DIR",
                   help="the tree of side A (side B is this script's tree)")
    p.add_argument("--shape", action="append", choices=list(SHAPES),
                   help="run only this shape (repeatable; default all)")
    p.add_argument("--seed", action="append", type=int, choices=list(SEEDS),
                   help="run only this seed (repeatable; default 0-11)")
    p.add_argument("--json", metavar="PATH", help="also write every search here")
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    p.add_argument("--cases", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, json.loads(args.cases))
        return 0
    if args.base is None:
        p.error("give BASE_DIR")
    base = Path(args.base).resolve()
    if not (base / "src" / "delayh2").is_dir():
        p.error(f"no src/delayh2 under {base}")
    cases = [[shape, seed] for shape in args.shape or SHAPES for seed in args.seed or SEEDS]
    a_rows, b_rows = run(base, cases), run(ROOT, cases)
    diff = differences(a_rows, b_rows)
    for d in diff:
        fmt = lambda xs: "(" + ", ".join(f"{x:.17g}" for x in xs) + ")"
        print(f"{d['shape']} s{d['seed']}: delays A {fmt(d['a_delays'])} "
              f"B {fmt(d['b_delays'])}; objective B - A {d['ulps']:+.3g} ulps "
              f"({d['rel']:+.3g} relative)")
    print("\n".join(shape_summary(a_rows, b_rows)))
    print(f"{len(diff)} of {len(cases)} searches differ; A = {base}, B = {ROOT}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"a": a_rows, "b": b_rows, "differences": diff}, fh, indent=1)
            fh.write("\n")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
