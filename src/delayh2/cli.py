"""Command-line front end.

Subcommands: ``reduce`` (delayed reduction of a full model, delays
starting at zero), ``bench`` (benchmark reproduction study), ``impulse``
(impulse-response CSV of a model file), ``analyze`` (gap and first-order
residuals of a given full/reduced pair). Exit codes: 0 on success (for
``reduce``: the loop stopped and the reduced model's max first-order
residual is at most 1e-6 max(1, ||G||^2)), 2 when a result was produced
best-effort without meeting that rule, 1 on errors (bad files, bad flags,
unwritable output paths). Output files carry no timestamps; a given
config and seed always produce byte-identical files. A ``reduce`` or
``bench`` flag left off is not passed on (each flag's ``dest`` names the
field it sets), so each default lives only in its config class or in
:func:`~delayh2.bench.run_bench`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .delayopt import DelaySearchConfig, search_domain
from .errors import DelayH2Error
from .h2 import compute_gap, h2_norm_sq, optimality_residuals
from .iodirka import IoDirkaConfig, io_dirka
from .irka import INIT_MODES, IrkaConfig
from .models import (
    PoleResidueModel,
    StateSpaceModel,
    impulse_response,
    pole_residue_from_state_space,
)
from .bench import run_bench
from .serialize import (
    config_to_obj,
    dumps_canonical,
    gap_to_obj,
    load_model,
    report_to_obj,
    residuals_to_obj,
    save_model,
    write_csv,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    # usage errors must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise DelayH2Error(message)


def _load(path: str, flag: str, delayed: bool = False):
    """The model in ``path``, a state-space model in pole/residue form; a
    delayed model only where ``delayed``."""
    m = load_model(path)
    if isinstance(m, StateSpaceModel):
        return pole_residue_from_state_space(m)
    if not delayed and not isinstance(m, PoleResidueModel):
        raise DelayH2Error(f"{flag} must be a delay-free model")
    return m


def _given(args, *names) -> dict:
    """The settings among ``names`` given on the command line, by name."""
    return {k: getattr(args, k) for k in names if hasattr(args, k)}


def _parse_delay_spec(spec: str, nu: int, ny: int):
    named = {"none": ((False,) * nu, (False,) * ny),
             "input": ((True,) * nu, (False,) * ny),
             "output": ((False,) * nu, (True,) * ny),
             "io": ((True,) * nu, (True,) * ny)}
    if spec in named:
        return named[spec]
    if spec.startswith("mask:"):
        parts = spec[5:].split(",")
        if len(parts) != 2:
            raise DelayH2Error("--delays mask form is mask:<input bits>,<output bits>")
        bits_in, bits_out = parts
        if len(bits_in) != nu or len(bits_out) != ny \
                or set(bits_in + bits_out) - {"0", "1"}:
            raise DelayH2Error(
                f"--delays mask needs {nu} input bits and {ny} output bits of 0/1")
        return (tuple(c == "1" for c in bits_in),
                tuple(c == "1" for c in bits_out))
    raise DelayH2Error(f"bad --delays value {spec!r}")


def _cmd_reduce(args) -> int:
    g = _load(args.model, "--model")
    in_mask, out_mask = _parse_delay_spec(args.delays, g.nu, g.ny)
    search = DelaySearchConfig(
        input_mask=in_mask, output_mask=out_mask,
        **_given(args, "grid_points_per_channel", "tau_max"))
    irka = IrkaConfig(order=args.order, **_given(args, "seed", "init"))
    cfg = IoDirkaConfig(order=args.order, irka=irka, search=search, **_given(
        args, "outer_max_iters", "landscape_csv"))
    # a box or face the delay search refuses fails now, before --out exists
    search_domain(g, search)
    os.makedirs(args.out, exist_ok=True)
    if cfg.landscape_csv:
        # fail on an unwritable path now, not after the first delay search
        open(cfg.landscape_csv, "a", encoding="utf-8").close()
    report = io_dirka(g, cfg)
    save_model(os.path.join(args.out, "reduced-model.json"), report.model)
    write_json(os.path.join(args.out, "report.json"), report_to_obj(report))
    write_json(os.path.join(args.out, "run-config.json"),
               {"command": "reduce", "model": args.model,
                "delays": args.delays, "config": config_to_obj(cfg)})
    print(f"converged={report.converged} gap={report.gap.j:.6e} "
          f"outer_iterations={report.outer_iterations}")
    return 0 if report.converged else 2


def _cmd_bench(args) -> int:
    summary = run_bench(args.out, **_given(
        args, "orders_free", "orders_delayed", "outer_max", "t_max", "n_points"))
    ok = all(summary["checks"].values()) and all(
        d["converged"] for d in summary["delayed"].values())
    for name, val in sorted(summary["checks"].items()):
        print(f"{name}={val}")
    print(f"report written to {os.path.join(args.out, 'bench-report.json')}")
    return 0 if ok else 2


def _cmd_impulse(args) -> int:
    m = _load(args.model, "--model", delayed=True)
    if args.points < 0:
        raise DelayH2Error(f"--points {args.points} is negative")
    if not 0.0 <= args.t_max < np.inf:
        raise DelayH2Error(f"--t-max {args.t_max} is not finite and nonnegative")
    t = np.linspace(0.0, args.t_max, args.points)
    resp = impulse_response(m, t)
    ny, nu = resp.shape[0], resp.shape[1]
    header = ["t"] + [f"g_{i + 1}_{j + 1}" for i in range(ny) for j in range(nu)]
    rows = np.column_stack([t, resp.reshape(ny * nu, -1).T])
    write_csv(args.out, header, rows)
    print(f"impulse written to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    g = _load(args.model, "--model")
    h = _load(args.reduced, "--reduced", delayed=True)
    gap = compute_gap(g, h, h2_norm_sq(g))
    res = optimality_residuals(g, h)
    obj = {"gap": gap_to_obj(gap), "residuals": residuals_to_obj(res)}
    if args.out:
        write_json(args.out, obj)
        print(f"analysis written to {args.out}")
    else:
        print(dumps_canonical(obj))
    return 0


def _int_list(text: str):
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise DelayH2Error(f"bad integer list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="delayh2",
                description="H2-optimal reduction with input/output delays")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("reduce", help="reduce a full model to a delayed model",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--model", required=True, help="full model JSON")
    r.add_argument("--order", required=True, type=int, help="reduced order")
    r.add_argument("--out", default=".", help="output directory")
    r.add_argument("--delays", default="io",
                   help="none | input | output | io | mask:<bits>,<bits>; "
                        "with every channel delayed (io) the result is the "
                        "representative with min output delay 0")
    r.add_argument("--seed", type=int)
    r.add_argument("--outer-max", dest="outer_max_iters", type=int)
    r.add_argument("--irka-init", dest="init", choices=INIT_MODES)
    r.add_argument("--grid-points", dest="grid_points_per_channel", type=int)
    r.add_argument("--tau-max", type=float,
                   help="initial delay box (default 5 / min|Re pole|); with "
                        "every channel delayed it bounds each path delay "
                        "by 2 * tau-max")
    r.add_argument("--landscape-csv",
                   help="dump the delay-search grid to this CSV")
    r.set_defaults(func=_cmd_reduce)

    b = sub.add_parser("bench", help="run the benchmark reproduction study",
                       argument_default=argparse.SUPPRESS)
    b.add_argument("--out", default="bench-out", help="output directory")
    b.add_argument("--outer-max", type=int)
    b.add_argument("--orders-free", type=_int_list)
    b.add_argument("--orders-delayed", type=_int_list)
    b.add_argument("--t-max", type=float)
    b.add_argument("--points", dest="n_points", type=int)
    b.set_defaults(func=_cmd_bench)

    i = sub.add_parser("impulse", help="impulse-response CSV of a model")
    i.add_argument("--model", required=True)
    i.add_argument("--t-max", type=float, default=50.0)
    i.add_argument("--points", type=int, default=2000)
    i.add_argument("--out", required=True, help="output CSV path")
    i.set_defaults(func=_cmd_impulse)

    a = sub.add_parser("analyze",
                       help="gap and optimality residuals of a model pair")
    a.add_argument("--model", required=True, help="full model JSON")
    a.add_argument("--reduced", required=True, help="reduced model JSON")
    a.add_argument("--out", default=None, help="output JSON path (default stdout)")
    a.set_defaults(func=_cmd_analyze)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DelayH2Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
