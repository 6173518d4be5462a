"""End-to-end command-line tests: exit codes, files, determinism."""

import builtins
import hashlib
import json

import numpy as np
import pytest

from conftest import make_siso, random_pr, random_ss
from delayh2 import (
    DelayBlock,
    DelayedModel,
    DelayH2Error,
    DelaySearchConfig,
    IoDirkaConfig,
    IrkaConfig,
    compute_gap,
    h2_norm_sq,
    pole_residue_from_state_space,
)
from delayh2.cli import build_parser, main
from delayh2.serialize import config_to_obj, load_model, read_json, save_model


def _model_file(tmp_path, model, name="model.json"):
    p = tmp_path / name
    save_model(p, model)
    return str(p)


def _read_csv(path):
    lines = path.read_text().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return lines[0], data


# ---------------------------------------------------------------------------
# reduce


def test_reduce_exact_recovery_writes_files(tmp_path, capsys):
    rng = np.random.default_rng(31)
    g = random_pr(rng, 3)
    mpath = _model_file(tmp_path, g)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", mpath, "--order", "3", "--delays", "none",
               "--out", str(out)])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    for name in ("reduced-model.json", "report.json", "run-config.json"):
        assert (out / name).is_file()
    h = load_model(out / "reduced-model.json")
    gap = compute_gap(g, h, h2_norm_sq(g))
    assert abs(gap.j) <= 1e-9 * gap.norm_g_sq
    run = read_json(out / "run-config.json")
    assert run["command"] == "reduce"
    assert run["model"] == mpath
    assert run["delays"] == "none"
    assert run["config"]["order"] == 3
    assert run["config"]["search"]["input_mask"] == [False]
    report = read_json(out / "report.json")
    assert report["converged"] is True
    assert report["model"]["kind"] == "delayed"
    assert report["model"]["input_delays"] == [0.0]


def test_reduce_deterministic_bytes(tmp_path, capsys):
    rng = np.random.default_rng(33)
    g = random_pr(rng, 5)
    mpath = _model_file(tmp_path, g)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["reduce", "--model", mpath, "--order", "2",
                   "--delays", "io", "--out", str(out),
                   "--grid-points", "80", "--tau-max", "4.0",
                   "--outer-max", "12"])
        assert rc in (0, 2)
        outs.append(out)
    for name in ("reduced-model.json", "report.json", "run-config.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()


def test_reduce_writes_landscape_once(tmp_path, capsys, monkeypatch):
    # the file holds the last outer iteration's search scan, written once
    # after the loop rather than after every delay search
    rng = np.random.default_rng(33)
    mpath = _model_file(tmp_path, random_pr(rng, 5))
    csv = tmp_path / "landscape.csv"
    writes = []
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(csv) and "w" in mode:
            writes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", mpath, "--order", "2", "--delays", "input",
               "--out", str(out), "--grid-points", "80", "--tau-max", "4.0",
               "--landscape-csv", str(csv)])
    assert rc in (0, 2)
    capsys.readouterr()
    assert read_json(out / "report.json")["outer_iterations"] > 1
    assert writes == ["w"]
    header, data = _read_csv(csv)
    assert header == "tau_1,gamma_1,objective"
    assert data.shape == (80, 3) and np.all(data[:, 1] == 0.0)


def test_reduce_landscape_of_a_per_axis_search_keeps_its_bytes(tmp_path, capsys):
    # both inputs of a 2x2 model delayed: the search screens axis lines and
    # their peaks' grid, and forms the whole 30 x 30 grid only for the
    # file, whose bytes are those the whole-grid screen wrote (sha256
    # recorded from it)
    mpath = _model_file(tmp_path, random_pr(np.random.default_rng(94), 5, ny=2, nu=2))
    csv = tmp_path / "landscape.csv"
    rc = main(["reduce", "--model", mpath, "--order", "2", "--delays", "mask:11,00",
               "--out", str(tmp_path / "out"), "--grid-points", "30", "--tau-max", "2.0",
               "--landscape-csv", str(csv)])
    assert rc == 0
    capsys.readouterr()
    data = csv.read_bytes()
    assert data.count(b"\n") == 1 + 30 * 30
    assert hashlib.sha256(data).hexdigest() == \
        "38d4107447af0a009cf960231437311c1cbb7032c2a4a69d0d1aa6ba23899882"


def test_reduce_without_delays_writes_the_landscape_header(tmp_path, capsys):
    # with nothing delayable the search scans no grid: the file is the
    # header line alone, not an empty file
    mpath = _model_file(tmp_path, random_pr(np.random.default_rng(33), 5))
    csv = tmp_path / "landscape.csv"
    rc = main(["reduce", "--model", mpath, "--order", "2", "--delays", "none",
               "--out", str(tmp_path / "out"), "--landscape-csv", str(csv)])
    assert rc in (0, 2)
    capsys.readouterr()
    assert csv.read_bytes() == b"tau_1,gamma_1,objective\n"


def test_reduce_best_effort_exit2(tmp_path, capsys):
    rng = np.random.default_rng(35)
    g = random_pr(rng, 5)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--outer-max", "1", "--out", str(out),
               "--grid-points", "60", "--tau-max", "3.0"])
    assert rc == 2
    assert "converged=False" in capsys.readouterr().out
    assert read_json(out / "report.json")["converged"] is False


def test_reduce_mask_spec(tmp_path, capsys):
    rng = np.random.default_rng(37)
    g = random_pr(rng, 4, ny=2, nu=2)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--delays", "mask:10,01", "--out", str(out),
               "--grid-points", "40", "--tau-max", "2.0", "--outer-max", "6"])
    assert rc in (0, 2)
    capsys.readouterr()
    run = read_json(out / "run-config.json")
    assert run["config"]["search"]["input_mask"] == [True, False]
    assert run["config"]["search"]["output_mask"] == [False, True]
    h = load_model(out / "reduced-model.json")
    assert h.input_delays.delays[1] == 0.0
    assert h.output_delays.delays[0] == 0.0


def test_reduce_huge_tau_max_converges(tmp_path, capsys):
    # a box of 1e300 puts the screen's lattice offsets past the range of its
    # stated bound: the bound is infinite and the exact kernel ranks the
    # peaks, where an OverflowError escaped before
    g = random_pr(np.random.default_rng(0), 6)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--tau-max", "1e300", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0 and "Traceback" not in captured.err
    assert read_json(out / "report.json")["converged"] is True


def test_reduce_tau_max_near_the_float_limit_converges(tmp_path, capsys):
    # a box of 1e307 spaces the grid by 2.5e304, where the lattice offsets
    # were NaN (an overflowing split) and the run exited 1 with a
    # non-finite grid scan
    g = random_pr(np.random.default_rng(0), 6)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--tau-max", "1e307", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0 and "Traceback" not in captured.err
    assert read_json(out / "report.json")["converged"] is True


@pytest.mark.parametrize("delays", ["io", "input"])
def test_reduce_tau_max_past_the_float_limit_exit1(tmp_path, capsys, monkeypatch, delays):
    # a box of 1.7e308 makes the io path range 2 tau_max infinite (an empty
    # screen table raised a bare ValueError) and overflows t mu on the
    # input screen (a non-finite grid scan): both are refused by name
    # before any reduction and before --out exists
    monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
    g = random_pr(np.random.default_rng(0), 6)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--delays", delays, "--tau-max", "1.7e308", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error: tau_max 1.7e+308 ")
    assert not out.exists()


def test_reduce_coupled_face_past_the_grid_budget_exit1(tmp_path, capsys, monkeypatch):
    # --delays io on a 10x10 model: each face's joint grid exceeds the
    # delay search's budget even at two points per box axis, refused by
    # name before any reduction and before --out exists
    monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
    g = random_pr(np.random.default_rng(0), 8, ny=10, nu=10)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--delays", "io", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error: a coupled face of 19 delays needs ")
    assert "joint_grid_budget" in err
    assert not out.exists()


def test_reduce_bad_mask_exit1(tmp_path, capsys):
    g = make_siso([-1.0], [1.0])
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "1",
               "--delays", "mask:11,1"])
    assert rc == 1
    assert "input bits" in capsys.readouterr().err


def test_reduce_bad_delays_value_exit1(tmp_path, capsys):
    g = make_siso([-1.0], [1.0])
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "1",
               "--delays", "sideways"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit1(tmp_path, capsys):
    g = make_siso([-1.0], [1.0])
    mpath = _model_file(tmp_path, g)
    assert main(["reduce", "--model", mpath]) == 1  # missing --order
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["reduce", "--model", mpath, "--order", "one"]) == 1
    assert main(["reduce", "--model", mpath, "--order", "1",
                 "--threads", "2"]) == 1  # unknown option
    assert main(["reduce", "--model", mpath, "--order", "1",
                 "--init-delays", "correlation"]) == 1  # unknown option
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_malformed_model_exit1(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": "pole_residue", "terms": [}\n')
    rc = main(["reduce", "--model", str(p), "--order", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 1" in err


def test_reduce_corpus_n200_exit2(tmp_path, capsys, corpus):
    # the movement rule stops this run, but the certificate fails
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, corpus[200]),
               "--order", "6", "--out", str(out)])
    assert rc == 2
    assert "converged=False" in capsys.readouterr().out
    assert read_json(out / "report.json")["converged"] is False


def test_reduce_order_beyond_full_exit1(tmp_path, capsys):
    g = make_siso([-1.0, -3.0], [1.0, 0.5])
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "5",
               "--delays", "none"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# impulse


def test_impulse_csv_single_pole(tmp_path, capsys):
    g = make_siso([-1.0], [1.0])
    out = tmp_path / "imp.csv"
    rc = main(["impulse", "--model", _model_file(tmp_path, g),
               "--t-max", "5.0", "--points", "501", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    assert header == "t,g_1_1"
    assert data.shape == (501, 2)
    assert np.allclose(data[:, 0], np.linspace(0.0, 5.0, 501))
    assert np.max(np.abs(data[:, 1] - np.exp(-data[:, 0]))) < 1e-12


def test_impulse_delayed_shifts_support(tmp_path, capsys):
    core = make_siso([-1.0], [1.0])
    m = DelayedModel(core, DelayBlock((1.0,), (True,)),
                     DelayBlock((0.0,), (False,)))
    out = tmp_path / "imp.csv"
    rc = main(["impulse", "--model", _model_file(tmp_path, m),
               "--t-max", "4.0", "--points", "401", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    _, data = _read_csv(out)
    t, y = data[:, 0], data[:, 1]
    assert np.all(y[t < 1.0] == 0.0)
    late = t >= 1.0
    assert np.max(np.abs(y[late] - np.exp(-(t[late] - 1.0)))) < 1e-12


def test_impulse_mimo_header_order(tmp_path, capsys):
    rng = np.random.default_rng(41)
    g = random_pr(rng, 3, ny=2, nu=2)
    out = tmp_path / "imp.csv"
    rc = main(["impulse", "--model", _model_file(tmp_path, g),
               "--t-max", "1.0", "--points", "11", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    assert header == "t,g_1_1,g_1_2,g_2_1,g_2_2"
    from delayh2 import impulse_response
    resp = impulse_response(g, np.linspace(0.0, 1.0, 11))
    assert np.allclose(data[:, 1], resp[0, 0, :])
    assert np.allclose(data[:, 2], resp[0, 1, :])
    assert np.allclose(data[:, 3], resp[1, 0, :])


# ---------------------------------------------------------------------------
# analyze


def test_analyze_self_prints_zero_gap(tmp_path, capsys):
    rng = np.random.default_rng(43)
    g = random_pr(rng, 3)
    mpath = _model_file(tmp_path, g)
    rc = main(["analyze", "--model", mpath, "--reduced", mpath])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["gap"]["j"]) <= 1e-10
    assert obj["residuals"]["max_residual"] <= 1e-6


def test_analyze_writes_file_and_detects_error(tmp_path, capsys):
    rng = np.random.default_rng(45)
    g = random_pr(rng, 5)
    h = random_pr(rng, 2)
    out = tmp_path / "analysis.json"
    rc = main(["analyze", "--model", _model_file(tmp_path, g, "g.json"),
               "--reduced", _model_file(tmp_path, h, "h.json"),
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    obj = read_json(out)
    assert obj["gap"]["j"] > 0.0
    assert obj["residuals"]["max_residual"] > 1e-6


def test_analyze_dimension_mismatch_exit1(tmp_path, capsys):
    rng = np.random.default_rng(47)
    g = random_pr(rng, 3, ny=1, nu=1)
    h = random_pr(rng, 2, ny=2, nu=2)
    rc = main(["analyze", "--model", _model_file(tmp_path, g, "g.json"),
               "--reduced", _model_file(tmp_path, h, "h.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# OS errors and bad grids


def _fail_if_reduced(*args):
    raise AssertionError("reduced before checking --out")


@pytest.mark.parametrize("case", ["reduce-out-file", "reduce-landscape-dir",
                                  "impulse-out-dir", "analyze-out-dir"])
def test_unwritable_output_exit1(tmp_path, capsys, monkeypatch, case):
    mpath = _model_file(tmp_path, make_siso([-1.0, -3.0], [1.0, 0.5]))
    missing = str(tmp_path / "missing" / "x.csv")
    if case == "reduce-out-file":
        # a file where the output directory should go fails before reducing
        monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
        argv = ["reduce", "--model", mpath, "--order", "1",
                "--out", mpath]
    elif case == "reduce-landscape-dir":
        # a missing directory for the landscape fails before reducing too
        monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
        argv = ["reduce", "--model", mpath, "--order", "1", "--grid-points",
                "20", "--out", str(tmp_path / "out"), "--landscape-csv", missing]
    elif case == "impulse-out-dir":
        argv = ["impulse", "--model", mpath, "--points", "5", "--out", missing]
    else:
        argv = ["analyze", "--model", mpath, "--reduced", mpath, "--out", missing]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["impulse", "--points", "-1"],
                                  ["impulse", "--t-max", "nan"],
                                  ["bench", "--points", "-1"],
                                  ["impulse", "--t-max", "inf"],
                                  ["bench", "--t-max", "inf"]])
def test_bad_impulse_grid_exit1(tmp_path, capsys, argv):
    # rejected before any grid is built or any output is written
    out = tmp_path / "out.csv"
    if argv[0] == "impulse":
        argv = argv + ["--model", _model_file(tmp_path, make_siso([-1.0], [1.0])),
                       "--out", str(out)]
    else:
        out = tmp_path / "bench"
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--tau-max", "inf"],
                                   ["--irka-init", "random-stable", "--seed", "-1"],
                                   ["--shift-tol", "inf"], ["--refine-tol", "inf"]],
                         ids=["tau-max-inf", "negative-seed", "shift-tol-inf",
                              "refine-tol-inf"])
def test_reduce_bad_config_exit1(tmp_path, capsys, monkeypatch, flags):
    # rejected before any reduction: no warning, no reduction, no --out (the
    # tolerance flags are removed, so they fail as unknown arguments)
    monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
    out = tmp_path / "out"
    argv = ["reduce", "--model", _model_file(tmp_path, make_siso([-1.0, -3.0], [1.0, 0.5])),
            "--order", "1", "--out", str(out)] + flags
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_reduce_rejects_the_removed_tolerance_flags(tmp_path, capsys, monkeypatch):
    # the stop tolerances are module constants now: each old flag is an
    # unknown argument, exit 1 before --out exists
    monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
    model = _model_file(tmp_path, make_siso([-1.0, -3.0], [1.0, 0.5]))
    out = tmp_path / "out"
    for flag in ("--outer-tol", "--shift-tol", "--refine-tol"):
        argv = ["reduce", "--model", model, "--order", "1", "--out", str(out),
                flag, "1e-9"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# bench


@pytest.mark.slow
def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--out", str(out), "--orders-free", "2,3",
               "--orders-delayed", "2", "--points", "400"])
    assert rc == 0
    capsys.readouterr()
    for name in ("bench-model-n20.json", "impulse-full.csv",
                 "free-n2-model.json", "impulse-free-n2.csv",
                 "delayed-n2-model.json", "delayed-n2-report.json",
                 "impulse-delayed-n2.csv", "summary.csv", "bench-report.json"):
        assert (out / name).is_file()
    model_obj = read_json(out / "bench-model-n20.json")
    assert model_obj["precision"] == 50
    assert len(model_obj["terms"]) == 20
    summary = read_json(out / "bench-report.json")
    assert summary["delayed"]["2"]["converged"] is True
    assert summary["delayed"]["2"]["input_delay"] > 1.0
    # at equal order the delay must pay for itself
    assert summary["delayed"]["2"]["gap"] < summary["free"]["2"]["gap"]
    # and it beats the next delay-free order (the self-check of the study)
    assert summary["checks"] == {"gap_delayed2_lt_free3": True}
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "order,delayed,gap,mse"


# ---------------------------------------------------------------------------
# settings: one source for every default


def test_parsed_namespace_holds_only_given_settings():
    # a config flag left off is absent, so its config class (or run_bench)
    # supplies the default; only the CLI's own flags carry one here
    p = build_parser()
    r = p.parse_args(["reduce", "--model", "m.json", "--order", "2"])
    assert set(vars(r)) == {"command", "func", "model", "order", "out", "delays"}
    b = p.parse_args(["bench"])
    assert set(vars(b)) == {"command", "func", "out"}


def test_default_reduce_echoes_the_config_class_defaults(tmp_path, capsys):
    g = random_pr(np.random.default_rng(39), 3)
    out = tmp_path / "out"
    rc = main(["reduce", "--model", _model_file(tmp_path, g), "--order", "2",
               "--out", str(out)])
    assert rc in (0, 2)
    capsys.readouterr()
    want = IoDirkaConfig(order=2, irka=IrkaConfig(order=2), search=DelaySearchConfig(
        input_mask=(True,), output_mask=(True,)))
    assert read_json(out / "run-config.json")["config"] == config_to_obj(want)


def test_reduce_flags_set_their_fields(tmp_path, capsys, monkeypatch):
    seen = []

    def stop(g, cfg):
        seen.append(cfg)
        raise DelayH2Error("stopped")

    monkeypatch.setattr("delayh2.cli.io_dirka", stop)
    csv = str(tmp_path / "scan.csv")
    argv = ["reduce", "--model", _model_file(tmp_path, make_siso([-1.0, -3.0], [1.0, 0.5])),
            "--order", "1", "--out", str(tmp_path / "out"), "--delays", "input",
            "--seed", "3", "--outer-max", "7", "--irka-init", "random-stable",
            "--grid-points", "33", "--tau-max", "2.5", "--landscape-csv", csv]
    assert main(argv) == 1
    capsys.readouterr()
    assert seen == [IoDirkaConfig(
        order=1, outer_max_iters=7, landscape_csv=csv,
        irka=IrkaConfig(order=1, seed=3, init="random-stable"),
        search=DelaySearchConfig(grid_points_per_channel=33, tau_max=2.5,
                                 input_mask=(True,), output_mask=(False,)))]


def test_bench_passes_only_given_flags(tmp_path, capsys, monkeypatch):
    calls = []

    def run(outdir, **kw):
        calls.append((outdir, kw))
        return {"checks": {}, "delayed": {}}

    monkeypatch.setattr("delayh2.cli.run_bench", run)
    out = str(tmp_path / "bench")
    assert main(["bench", "--out", out]) == 0
    assert main(["bench", "--out", out, "--outer-max", "9", "--orders-free", "2,3",
                 "--orders-delayed", "4", "--t-max", "10", "--points", "50"]) == 0
    capsys.readouterr()
    assert calls == [(out, {}),
                     (out, dict(outer_max=9, orders_free=(2, 3), orders_delayed=(4,),
                                t_max=10.0, n_points=50))]


def test_state_space_files_read_as_pole_residue(tmp_path, capsys):
    # impulse and both analyze inputs take a state-space file as its
    # pole/residue form
    ss = random_ss(np.random.default_rng(49), 3)
    files = [_model_file(tmp_path, m, name) for m, name in
             ((ss, "ss.json"), (pole_residue_from_state_space(ss), "pr.json"))]
    csvs = []
    for i, path in enumerate(files):
        csvs.append(tmp_path / f"imp{i}.csv")
        assert main(["impulse", "--model", path, "--t-max", "2.0", "--points", "21",
                     "--out", str(csvs[-1])]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    capsys.readouterr()
    for model, reduced in (files, files[::-1]):
        assert main(["analyze", "--model", model, "--reduced", reduced]) == 0
        assert abs(json.loads(capsys.readouterr().out)["gap"]["j"]) <= 1e-10
