"""End-to-end command-line tests: exit codes, files, determinism."""

import json

import numpy as np
import pytest

from conftest import make_siso, random_pr
from delayh2 import DelayBlock, DelayedModel, compute_gap, h2_norm_sq
from delayh2.cli import main
from delayh2.serialize import load_model, read_json, save_model


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
    # rejected while building the config: no warning, no reduction, no --out
    monkeypatch.setattr("delayh2.cli.io_dirka", _fail_if_reduced)
    out = tmp_path / "out"
    argv = ["reduce", "--model", _model_file(tmp_path, make_siso([-1.0, -3.0], [1.0, 0.5])),
            "--order", "1", "--out", str(out)] + flags
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
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
