"""Canonical JSON / CSV serialization: byte stability and validation."""

import hashlib
import json
import re

import mpmath
import numpy as np
import pytest

from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    HighPrecisionTerms,
    IoDirkaConfig,
    PoleResidueModel,
    StateSpaceModel,
    build_bench_model,
    io_dirka,
)
from delayh2.cli import main
from delayh2.precision import entry_bits, to_mpc
from delayh2.serialize import (
    config_to_obj,
    dumps_canonical,
    load_model,
    model_to_obj,
    obj_to_model,
    read_json,
    report_to_obj,
    save_model,
    write_csv,
    write_json,
)

from conftest import make_siso, random_pr


# ---------------------------------------------------------------------------
# canonical text


def test_canonical_sorted_keys_and_spacing():
    s = dumps_canonical({"b": 1, "a": [True, None, "x"]})
    assert s == '{"a": [true, null, "x"], "b": 1}'


def test_canonical_float_17g():
    assert dumps_canonical(0.1) == format(0.1, ".17g")
    assert dumps_canonical(1.0) == "1"
    assert dumps_canonical(-2.5e-300) == format(-2.5e-300, ".17g")


def test_canonical_float_round_trip_exact():
    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.standard_normal(200),
                           10.0 ** rng.uniform(-300, 300, 200)
                           * rng.choice([-1.0, 1.0], 200)])
    for v in vals:
        assert float(dumps_canonical(float(v))) == float(v)


def test_canonical_numpy_scalars():
    s = dumps_canonical({"i": np.int64(3), "f": np.float64(0.5),
                         "b": np.bool_(True), "a": np.arange(3.0)})
    assert s == '{"a": [0, 1, 2], "b": true, "f": 0.5, "i": 3}'


def test_canonical_rejects_nonfinite():
    with pytest.raises(DelayH2Error, match="non-finite"):
        dumps_canonical(float("nan"))
    with pytest.raises(DelayH2Error, match="non-finite"):
        dumps_canonical({"x": [float("inf")]})


def test_canonical_rejects_bad_keys_and_types():
    with pytest.raises(DelayH2Error, match="keys must be strings"):
        dumps_canonical({1: "a"})
    with pytest.raises(DelayH2Error, match="cannot serialize"):
        dumps_canonical(object())


def test_write_json_trailing_newline_lf(tmp_path):
    p = tmp_path / "t.json"
    write_json(p, {"x": 1.5})
    raw = p.read_bytes()
    assert raw == b'{"x": 1.5}\n'
    assert read_json(p) == {"x": 1.5}


def test_read_json_malformed_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"a": 1,\n  "b": }\n')
    with pytest.raises(DelayH2Error, match=r"line 2 column \d+"):
        read_json(p)


def test_read_json_missing_file():
    with pytest.raises(DelayH2Error, match="cannot read"):
        read_json("/nonexistent/nowhere.json")


# ---------------------------------------------------------------------------
# model round trips


def test_pole_residue_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    m = random_pr(rng, 5, ny=2, nu=3)
    p = tmp_path / "m.json"
    save_model(p, m)
    m2 = load_model(p)
    assert isinstance(m2, PoleResidueModel)
    # %.17g round-trips binary64 exactly
    assert np.array_equal(m2.poles, m.poles)
    assert np.array_equal(m2.left, m.left)
    assert np.array_equal(m2.right, m.right)
    p2 = tmp_path / "m2.json"
    save_model(p2, m2)
    assert p.read_bytes() == p2.read_bytes()


def test_high_precision_round_trip(tmp_path):
    m = build_bench_model(8)
    assert m.hp is not None
    obj = model_to_obj(m)
    assert obj["precision"] == m.hp.dps
    # coefficients stored as decimal strings, not floats
    assert isinstance(obj["terms"][0]["pole"][0], str)
    p = tmp_path / "hp.json"
    save_model(p, m)
    m2 = load_model(p)
    assert m2.hp is not None and m2.hp.dps == m.hp.dps
    assert np.array_equal(m2.poles, m.poles)
    assert np.array_equal(m2.left, m.left)
    assert np.array_equal(m2.right, m.right)
    p2 = tmp_path / "hp2.json"
    save_model(p2, m2)
    assert p.read_bytes() == p2.read_bytes()


def test_payload_entry_with_parts_far_apart_round_trips(tmp_path):
    # 1e-30/3 + i/7 and its conjugate partner: the file stores 50 digits
    # of each part, and loading converts them exactly
    with mpmath.workdps(50):
        v = mpmath.mpc(mpmath.mpf("1e-30") / 3, mpmath.mpf(1) / 7)
        poles = [mpmath.mpc(-1, 2), mpmath.mpc(-1, -2)]
        left, right = [[v], [mpmath.conj(v)]], [[mpmath.mpc(1)], [mpmath.mpc(1)]]
    as_float = lambda a: np.array(a, dtype=complex)
    m = PoleResidueModel(as_float(poles), as_float(left), as_float(right),
                         hp=HighPrecisionTerms(poles, left, right, 50))
    p = tmp_path / "wide.json"
    save_model(p, m)
    got = to_mpc(load_model(p).hp.left[0, 0])
    with mpmath.workdps(60):
        assert abs(got.real - v.real) <= abs(v.real) * mpmath.mpf("1e-49")
        assert abs(got.imag - v.imag) <= abs(v.imag) * mpmath.mpf("1e-49")
    save_model(tmp_path / "again.json", load_model(p))
    assert (tmp_path / "again.json").read_bytes() == p.read_bytes()


# the bytes of the benchmark model file: its payload's 50 stored digits
BENCH_MODEL_SHA256 = "55d6cc4b29f5be2424c57767197bb206cb08c5163f13a6c0e9e93e9d68167850"


def test_benchmark_model_file_bytes_are_pinned(tmp_path):
    p = tmp_path / "bench.json"
    save_model(p, build_bench_model())
    assert hashlib.sha256(p.read_bytes()).hexdigest() == BENCH_MODEL_SHA256


def _decimal_strings(rng, digits, count):
    """Seeded decimals of ``digits`` significant digits: either sign, the
    point anywhere, exponents up to +-40."""
    out = []
    for _ in range(count):
        body = "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, digits - 1)]))
        k = int(rng.integers(0, digits + 1))
        exp = int(rng.integers(-40, 41))
        out.append(str(rng.choice(["", "-", "+"])) + body[:k] + "." + body[k:]
                   + (f"e{exp:+d}" if exp else ""))
    return out


def _binary_ties(rng, bits, count):
    """Exact decimals of m 2^e with m odd of bits + 1 bits: each lies halfway
    between two neighbouring values of ``bits`` bits."""
    out = []
    for _ in range(count):
        m = int.from_bytes(rng.bytes(bits // 8 + 1), "big") % (1 << bits) | 1 << bits | 1
        e = int(rng.integers(-150, 151))
        text = str(m << e) if e >= 0 else f"{m * 5 ** -e}e{e}"
        out.append(text if rng.integers(2) else "-" + text)
    return out


@pytest.mark.parametrize("dps", [17, 30, 50, 80])
def test_payload_decimals_parse_to_the_bits_of_mpmath(dps):
    # every decimal of a payload file is rounded once to the value mpmath
    # gives it at the file's precision, also at exact binary ties
    rng = np.random.default_rng(dps)
    texts = [t for digits in (17, 30, 50, 80) for t in _decimal_strings(rng, digits, 50)]
    texts += _binary_ties(rng, entry_bits(dps), 50)
    terms = [{"pole": [str(-1 - k), "0"], "left": [[t, "0"]], "right": [["1", "0"]]}
             for k, t in enumerate(texts)]
    m = obj_to_model({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": dps,
                      "terms": terms})
    got = {-1 - int(p.real): (z, v) for p, z, v in zip(m.poles, m.hp.left[:, 0], m.left[:, 0])}
    for k, t in enumerate(texts):
        with mpmath.workdps(dps):
            want = mpmath.mpf(t)
        sign, man, exp, _ = want._mpf_
        z, v = got[k]
        assert (z.re, z.im, z.exp) == ((-man if sign else man), 0, exp), t
        assert v == complex(float(want)), t


def test_state_space_round_trip(tmp_path):
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    ss = StateSpaceModel(np.eye(2), A, np.array([[1.0], [0.5]]),
                         np.array([[1.0, -1.0]]))
    p = tmp_path / "ss.json"
    save_model(p, ss)
    ss2 = load_model(p)
    assert isinstance(ss2, StateSpaceModel)
    for name in ("E", "A", "B", "C"):
        assert np.array_equal(getattr(ss2, name), getattr(ss, name))


def test_delayed_round_trip(tmp_path):
    core = make_siso([-1.0 + 2.0j, -1.0 - 2.0j], [0.5 - 0.25j, 0.5 + 0.25j])
    m = DelayedModel(core,
                     DelayBlock((0.75,), (True,)),
                     DelayBlock((0.0,), (False,)))
    p = tmp_path / "d.json"
    save_model(p, m)
    m2 = load_model(p)
    assert isinstance(m2, DelayedModel)
    assert m2.input_delays.delays == (0.75,)
    assert m2.input_delays.mask == (True,)
    assert m2.output_delays.delays == (0.0,)
    assert m2.output_delays.mask == (False,)
    assert np.array_equal(m2.core.poles, core.poles)


def test_delayed_masks_default_to_all_active():
    core = make_siso([-1.0], [1.0])
    obj = model_to_obj(DelayedModel(core, DelayBlock((0.5,), (True,)),
                                    DelayBlock((0.25,), (True,))))
    del obj["input_mask"], obj["output_mask"]
    m = obj_to_model(obj)
    assert m.input_delays.mask == (True,)
    assert m.output_delays.mask == (True,)


def test_obj_to_model_validation():
    good = model_to_obj(make_siso([-1.0], [1.0]))
    with pytest.raises(DelayH2Error, match="missing field 'kind'"):
        obj_to_model({k: v for k, v in good.items() if k != "kind"})
    with pytest.raises(DelayH2Error, match="missing field 'terms'"):
        obj_to_model({k: v for k, v in good.items() if k != "terms"})
    with pytest.raises(DelayH2Error, match="unknown model kind"):
        obj_to_model(dict(good, kind="rational"))
    with pytest.raises(DelayH2Error, match="empty term list"):
        obj_to_model(dict(good, terms=[]))
    bad = json.loads(json.dumps(good))
    bad["ny"] = 2  # term rows still carry one output entry
    with pytest.raises(DelayH2Error, match="shapes disagree"):
        obj_to_model(bad)


def _term(pole, left=((1.0, 0.0),), right=((1.0, 0.0),)):
    return {"pole": list(pole), "left": [list(v) for v in left],
            "right": [list(v) for v in right]}


_HP_ONE = (("1", "0"),)


def test_payload_decimal_exponent_is_bounded():
    # the exact integers grow with the exponent: a huge one fails at once
    obj = {"kind": "pole_residue", "ny": 1, "nu": 1, "precision": 30,
           "terms": [_term(("-1", "0"), (("1e999999999", "0"),), _HP_ONE)]}
    with pytest.raises(DelayH2Error,
                       match="term 0 left is not a .*exponent of '1e999999999' beyond"):
        obj_to_model(obj)


def _delayed_two_inputs(**fields):
    obj = {"kind": "delayed", "ny": 1, "nu": 2,
           "terms": [_term((-1.0, 0.0), right=((1.0, 0.0), (1.0, 0.0)))],
           "input_delays": [0.5, 0.0], "output_delays": [0.0],
           "input_mask": [True, False], "output_mask": [False]}
    return dict(obj, **fields)


@pytest.mark.parametrize("obj, message", [
    (_delayed_two_inputs(input_mask=["false", "true"]),
     "malformed field 'input_mask' .*'false' is not true or false"),
    (_delayed_two_inputs(input_mask=[None, True]),
     "malformed field 'input_mask' .*None is not true or false"),
    (_delayed_two_inputs(input_mask=[[], True]),
     "malformed field 'input_mask' .*\\[\\] is not true or false"),
    (_delayed_two_inputs(output_mask=[1]),
     "malformed field 'output_mask' .*1 is not true or false"),
    (_delayed_two_inputs(input_delays=[True, 0.0]),
     "malformed field 'input_delays' .*True is not a number"),
    (_delayed_two_inputs(input_delays=["0.5", 0.0]),
     "malformed field 'input_delays' .*'0.5' is not a number"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1,
      "terms": [_term((-1.0, 0.0), left=((True, 0.0),))]},
     "term 0 left is not a \\[re, im\\] number pair.*True is not a number"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1,
      "terms": [_term((-1.0, False))]},
     "term 0 pole is not a \\[re, im\\] number pair.*False is not a number"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": 30,
      "terms": [_term(("-1", "0"), ((True, "0"),), _HP_ONE)]},
     "term 0 left is not a \\[re, im\\] number pair.*True is not a number"),
    ({"kind": "pole_residue", "ny": True, "nu": 1, "terms": [_term((-1.0, 0.0))]},
     "malformed field 'ny' .*True is not an integer"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1.9, "terms": [_term((-1.0, 0.0))]},
     "malformed field 'nu' .*1.9 is not an integer"),
], ids=["mask-strings", "mask-null", "mask-list", "mask-int", "delay-bool",
        "delay-string", "residue-bool", "pole-bool", "payload-bool", "ny-bool",
        "nu-fraction"])
def test_masks_are_booleans_and_numbers_are_not(obj, message):
    # a mask entry that is not true/false, or a bool where a number belongs,
    # fails naming its field instead of loading as a truth value or 0/1
    with pytest.raises(DelayH2Error, match=message):
        obj_to_model(obj)


def test_delayed_model_with_json_masks_loads():
    m = obj_to_model(_delayed_two_inputs())
    assert m.input_delays.mask == (True, False)
    assert m.input_delays.delays == (0.5, 0.0)
    assert m.output_delays.mask == (False,)


@pytest.mark.parametrize("model_obj, message", [
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": 30,
      "terms": [{"left": [["1", "0"]], "right": [["1", "0"]]}]},
     "missing field 'pole' in .* term 0"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": 30,
      "terms": [_term(("abc", "0"), _HP_ONE, _HP_ONE)]},
     "term 0 pole is not a \\[re, im\\] number pair"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1,
      "terms": [_term((-1.0, 0.0)), _term(("abc", 0))]},
     "term 1 pole is not a \\[re, im\\] number pair"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "terms": [_term((-1,))]},
     "term 0 pole is not a \\[re, im\\] number pair"),
    ({"kind": "pole_residue", "ny": 2, "nu": 1, "terms": [_term((-1.0, 0.0))]},
     "residue shapes disagree with ny/nu in .* term 0"),
    ({"kind": "pole_residue", "ny": "x", "nu": 1, "terms": [_term((-1.0, 0.0))]},
     "malformed field 'ny' in .*bad.json"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": "x",
      "terms": [_term(("-1", "0"), _HP_ONE, _HP_ONE)]},
     "malformed field 'precision' in .*bad.json"),
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "terms": 5},
     "malformed field 'terms' in .*bad.json"),
    ({"kind": "state_space", "E": [[1.0]], "A": "a", "B": [[1.0]], "C": [[1.0]]},
     "malformed field 'A' in .*bad.json"),
    ({"kind": "delayed", "ny": 1, "nu": 1, "terms": [_term((-1.0, 0.0))],
      "input_delays": ["x"], "output_delays": [0.0]},
     "malformed field 'input_delays' in .*bad.json"),
    ({"kind": "delayed", "ny": 1, "nu": 1, "terms": [_term((-1.0, 0.0))],
      "input_delays": [1.0, 2.0], "output_delays": [0.0]},
     "malformed field 'input_delays' in .*bad.json: 2 entries for 1 inputs"),
    ({"kind": "delayed", "ny": 1, "nu": 1, "terms": [_term((-1.0, 0.0))],
      "input_delays": [1.0, 2.0], "input_mask": [True, True],
      "output_delays": [0.0]},
     "malformed field 'input_delays' in .*bad.json: 2 entries for 1 inputs"),
] + [
    ({"kind": "pole_residue", "ny": 1, "nu": 1, "precision": bad,
      "terms": [_term(("-1", "0"), _HP_ONE, _HP_ONE)]},
     "malformed field 'precision' in .*bad.json")
    for bad in (-3, 2.5, True, 3, 16)
], ids=["hp-no-pole", "hp-bad-pole", "float-bad-pole", "short-pole",
        "short-residue-row", "bad-ny", "bad-precision", "terms-not-list",
        "state-space-bad-matrix", "bad-input-delay", "long-input-delays",
        "long-input-delays-and-mask", "negative-precision", "fractional-precision",
        "bool-precision", "precision-3", "precision-16"])
def test_malformed_model_file_exits_cleanly(tmp_path, capsys, model_obj, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model_obj))
    good = tmp_path / "good.json"
    save_model(good, make_siso([-1.0], [1.0]))
    rc = main(["analyze", "--model", str(bad), "--reduced", str(good)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert re.search(message, err)


# ---------------------------------------------------------------------------
# reports, configs, CSV


def _tiny_report():
    rng = np.random.default_rng(23)
    g = random_pr(rng, 4)
    cfg = IoDirkaConfig(order=2, outer_max_iters=8,
                        search=DelaySearchConfig(grid_points_per_channel=40,
                                                 tau_max=3.0))
    return io_dirka(g, cfg), cfg


def test_report_to_obj_shape_and_canonical():
    rep, _ = _tiny_report()
    obj = report_to_obj(rep)
    assert set(obj) == {"model", "gap", "residuals", "outer_iterations",
                        "converged", "norm_g_sq", "total_reflections", "trace"}
    assert obj["model"]["kind"] == "delayed"
    assert len(obj["trace"]) == rep.outer_iterations
    assert set(obj["trace"][0]) == {
        "outer", "input_delays", "output_delays", "poles", "left", "right",
        "gap", "irka_iterations", "irka_converged", "irka_jumps",
        "irka_reflections", "delay_jump"}
    assert [e["delay_jump"] for e in obj["trace"]] == [e.delay_jump for e in rep.trace]
    # serializable end to end, and canonical text is parseable JSON
    text = dumps_canonical(obj)
    assert json.loads(text) == json.loads(json.dumps(json.loads(text)))


def test_report_serialization_deterministic(tmp_path):
    rep, cfg = _tiny_report()
    a = dumps_canonical(report_to_obj(rep))
    rep2, cfg2 = _tiny_report()
    b = dumps_canonical(report_to_obj(rep2))
    assert a == b
    assert dumps_canonical(config_to_obj(cfg)) == dumps_canonical(config_to_obj(cfg2))


def test_config_to_obj_nested():
    cfg = IoDirkaConfig(order=3, search=DelaySearchConfig(tau_max=2.0),
                        init_input_delays=(0.5, 1.0))
    obj = config_to_obj(cfg)
    assert obj["order"] == 3
    assert obj["search"]["tau_max"] == 2.0
    assert obj["init_input_delays"] == [0.5, 1.0]
    json.dumps(obj)  # plain tree


def test_write_csv_format(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["t", "g_1_1"], [[0.0, 1.0], [0.5, np.exp(-0.5)]])
    lines = p.read_text().splitlines()
    assert lines[0] == "t,g_1_1"
    assert lines[1] == "0.000000000000e+00,1.000000000000e+00"
    assert lines[2].split(",")[1] == format(np.exp(-0.5), ".12e")
    assert p.read_bytes().endswith(b"\n")
