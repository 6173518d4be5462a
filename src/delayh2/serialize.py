"""Deterministic JSON and CSV writers plus model (de)serialization.

All JSON is emitted in canonical form: keys sorted, floats as %.17g (exact
binary64 round trip), no timestamps, LF newlines. The same data therefore
always produces byte-identical files. Models whose terms carry an
extended-precision payload add a "precision" field (decimal digits, at
least 17) and store coefficients as decimal strings at that precision,
printed from each payload entry's exact value
(:func:`delayh2.precision.decimal_pair`). Loading parses each decimal
exactly into integers and rounds it once, to the bits mpmath would give it
at that precision (:func:`delayh2.precision.payload_entry`), so only
printing a payload loads mpmath. Masks must be JSON booleans, and numbers
must be JSON numbers other than ``true``/``false``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import DelayH2Error, DimensionMismatch
from .h2 import GapValue, OptimalityResiduals
from .models import (
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    PoleResidueModel,
    StateSpaceModel,
)
from .precision import checked_precision, decimal_pair, payload_entry

# ---------------------------------------------------------------------------
# canonical JSON text


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DelayH2Error("non-finite value cannot be serialized")
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Serialize a plain python tree to canonical JSON text."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DelayH2Error("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise DelayH2Error(f"cannot serialize object of type {type(obj).__name__}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DelayH2Error(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from exc
    except OSError as exc:
        raise DelayH2Error(f"cannot read {path}: {exc}") from exc


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DelayH2Error(f"missing field {key!r} in {where}")
    return obj[key]


def _convert(convert, value, key: str, where: str):
    """``convert(value)``; a value it rejects fails naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DelayH2Error(f"malformed field {key!r} in {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# models

def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def model_to_obj(m) -> dict:
    """Plain-tree form of a state-space, pole-residue, or delayed model."""
    if isinstance(m, DelayedModel):
        obj = model_to_obj(m.core)
        obj["input_delays"] = [float(d) for d in m.input_delays.delays]
        obj["output_delays"] = [float(d) for d in m.output_delays.delays]
        obj["input_mask"] = [bool(x) for x in m.input_delays.mask]
        obj["output_mask"] = [bool(x) for x in m.output_delays.mask]
        obj["kind"] = "delayed"
        return obj
    if isinstance(m, StateSpaceModel):
        return {"kind": "state_space",
                "E": m.E.tolist(), "A": m.A.tolist(),
                "B": m.B.tolist(), "C": m.C.tolist()}
    if isinstance(m, PoleResidueModel):
        terms = []
        if m.hp is not None:
            dps = m.hp.dps
            for p, lrow, rrow in zip(m.hp.poles, m.hp.left, m.hp.right):
                terms.append({"pole": decimal_pair(p, dps),
                              "left": [decimal_pair(v, dps) for v in lrow],
                              "right": [decimal_pair(v, dps) for v in rrow]})
            return {"kind": "pole_residue", "ny": m.ny, "nu": m.nu,
                    "precision": dps, "terms": terms}
        for k in range(m.order):
            terms.append({"pole": _pair(m.poles[k]),
                          "left": [_pair(v) for v in m.left[k]],
                          "right": [_pair(v) for v in m.right[k]]})
        return {"kind": "pole_residue", "ny": m.ny, "nu": m.nu, "terms": terms}
    raise DelayH2Error(f"cannot serialize model of type {type(m).__name__}")


# a decimal string: sign, digits with at most one point, optional exponent
_DECIMAL = r"\s*([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?\s*"
# largest decimal exponent a string may carry; past it the exact integers
# grow with the exponent, while the binary64 view only spans 1e+-324
MAX_DECIMAL_EXPONENT = 10_000


def _json_number(v):
    """``v`` if it is a JSON number (an int or a float, not a bool), else
    TypeError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    return v


def _count(v) -> int:
    """``v`` if it is a JSON integer (not a bool), else TypeError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{v!r} is not an integer")
    return v


def _ratio(v) -> tuple[int, int]:
    """The exact value of a payload part, a decimal string or a finite JSON
    number, as integers (numerator, denominator)."""
    if not isinstance(v, str):
        return _json_number(v).as_integer_ratio()
    m = re.fullmatch(_DECIMAL, v)
    if m is None:
        raise ValueError(f"{v!r} is not a decimal number")
    whole, _, frac = m[1].partition(".")
    exp = int(m[2] or 0)
    if abs(exp) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"exponent of {v!r} beyond +-{MAX_DECIMAL_EXPONENT}")
    exp -= len(frac)
    n = int(whole + frac)
    return (n * 10 ** exp, 1) if exp >= 0 else (n, 10 ** -exp)


def _number(value, dps: int | None, where: str):
    """One [re, im] pair: a payload entry at ``dps`` digits, or a complex
    for None."""
    try:
        real, imag = value
        if dps is None:
            return complex(_json_number(real), _json_number(imag))
        return payload_entry(_ratio(real), _ratio(imag), dps)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DelayH2Error(
            f"{where} is not a [re, im] number pair: {value!r} ({exc})") from exc


def _row(term: dict, key: str, width: int, dps: int | None, where: str) -> list:
    row = _require(term, key, where)
    if not isinstance(row, list) or len(row) != width:
        raise DimensionMismatch(f"residue shapes disagree with ny/nu in {where}")
    return [_number(v, dps, f"{where} {key}") for v in row]


def _obj_to_pole_residue(obj: dict, where: str) -> PoleResidueModel:
    terms = _convert(list, _require(obj, "terms", where), "terms", where)
    ny = _convert(_count, _require(obj, "ny", where), "ny", where)
    nu = _convert(_count, _require(obj, "nu", where), "nu", where)
    if len(terms) == 0:
        raise DelayH2Error(f"empty term list in {where}")
    dps = obj.get("precision")
    dps = None if dps is None else _convert(checked_precision, dps, "precision", where)
    poles, left, right = [], [], []
    for k, t in enumerate(terms):
        at = f"{where} term {k}"
        poles.append(_number(_require(t, "pole", at), dps, f"{at} pole"))
        left.append(_row(t, "left", ny, dps, at))
        right.append(_row(t, "right", nu, dps, at))
    hp = None
    if dps is not None:
        hp = HighPrecisionTerms(poles, left, right, dps)
    return PoleResidueModel(np.array(poles, dtype=complex),
                            np.array(left, dtype=complex),
                            np.array(right, dtype=complex), hp=hp)


def _flag(v) -> bool:
    """``v`` if it is a JSON boolean, else TypeError."""
    if not isinstance(v, bool):
        raise TypeError(f"{v!r} is not true or false")
    return v


def _sized(values, convert, width: int, side: str) -> tuple:
    """One converted entry per channel of ``side``, or ValueError."""
    out = tuple(map(convert, values))
    if len(out) != width:
        raise ValueError(f"{len(out)} entries for {width} {side}s")
    return out


def obj_to_model(obj: dict, where: str = "model"):
    kind = _require(obj, "kind", where)
    if kind == "state_space":
        mats = [_convert(lambda v: np.asarray(v, dtype=float),
                         _require(obj, k, where), k, where)
                for k in ("E", "A", "B", "C")]
        return StateSpaceModel(*mats)
    if kind == "pole_residue":
        return _obj_to_pole_residue(obj, where)
    if kind == "delayed":
        core = _obj_to_pole_residue(obj, where)
        blocks = []
        for side, width in (("input", core.nu), ("output", core.ny)):
            delays = _convert(lambda v: _sized(v, lambda d: float(_json_number(d)), width, side),
                              _require(obj, f"{side}_delays", where),
                              f"{side}_delays", where)
            mask = _convert(lambda v: _sized(v, _flag, width, side),
                            obj.get(f"{side}_mask", [True] * width),
                            f"{side}_mask", where)
            blocks.append(DelayBlock(delays, mask))
        return DelayedModel(core, *blocks)
    raise DelayH2Error(f"unknown model kind {kind!r} in {where}")


def save_model(path, m) -> None:
    write_json(path, model_to_obj(m))


def load_model(path):
    return obj_to_model(read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# reports


def gap_to_obj(gap: GapValue) -> dict:
    return {"j": float(gap.j), "norm_g_sq": float(gap.norm_g_sq),
            "cross": float(gap.cross), "norm_h_sq": float(gap.norm_h_sq)}


def residuals_to_obj(r: OptimalityResiduals) -> dict:
    return {"interp_right": [float(v) for v in r.interp_right],
            "interp_left": [float(v) for v in r.interp_left],
            "interp_hermite": [float(v) for v in r.interp_hermite],
            "delay_in": [float(v) for v in r.delay_in],
            "delay_out": [float(v) for v in r.delay_out],
            "max_residual": float(r.max_residual())}


def report_to_obj(report) -> dict:
    """Plain-tree form of a ReductionReport."""
    trace = []
    for e in report.trace:
        core = e.model.core
        trace.append({
            "outer": int(e.outer),
            "input_delays": [float(d) for d in e.model.input_delays.delays],
            "output_delays": [float(d) for d in e.model.output_delays.delays],
            "poles": [_pair(p) for p in core.poles],
            "left": [[_pair(v) for v in row] for row in core.left],
            "right": [[_pair(v) for v in row] for row in core.right],
            "gap": gap_to_obj(e.gap),
            "irka_iterations": int(e.irka_iterations),
            "irka_converged": bool(e.irka_converged),
            "irka_jumps": int(e.irka_jumps),
            "irka_reflections": int(e.irka_reflections),
            "delay_jump": bool(e.delay_jump),
        })
    return {"model": model_to_obj(report.model),
            "gap": gap_to_obj(report.gap),
            "residuals": residuals_to_obj(report.residuals),
            "outer_iterations": int(report.outer_iterations),
            "converged": bool(report.converged),
            "norm_g_sq": float(report.norm_g_sq),
            "total_reflections": int(report.total_reflections),
            "trace": trace}


def config_to_obj(cfg) -> dict:
    """Plain-tree echo of a (possibly nested) configuration dataclass."""
    import dataclasses
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        return {f.name: config_to_obj(getattr(cfg, f.name))
                for f in dataclasses.fields(cfg)}
    if isinstance(cfg, (list, tuple)):
        return [config_to_obj(v) for v in cfg]
    if isinstance(cfg, np.bool_):
        return bool(cfg)
    if isinstance(cfg, np.integer):
        return int(cfg)
    if isinstance(cfg, np.floating):
        return float(cfg)
    return cfg


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, header, rows) -> None:
    """Write numeric rows under a text header, every value as %.12e."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header))
        fh.write("\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".12e") for v in row))
            fh.write("\n")
