"""The measurement tools' hold on the library: names, configs and flags.

``perfbench/`` imports library names, reads config fields and wraps the
functions the layers import from each other. A rename there would not fail
a benchmark run, it would only drop the renamed layer's spans, so these
tests run the harness's own modules (unchanged) against the library. The
corpus runner in ``scripts/`` wraps the search objective the same way.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pr
from delayh2 import DelaySearchConfig, IoDirkaConfig, PoleResidueModel, delayopt, iodirka
from delayh2.cli import build_parser
from delayh2.delayopt import _Objective

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    return workloads, tracing


def test_every_workload_builds_its_calls(harness, tmp_path):
    # each workload's set-up, and the top-level calls of one reduction
    # recorded instead of run: io_dirka configs, or a parseable reduce argv
    workloads, _ = harness
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0, tmp_path / name)
        calls = []
        w.reduce(lambda label, layer, fn, *args: calls.append((label, args)))
        assert calls, name
        for label, args in calls:
            if label == "bench.io_dirka":
                g, cfg = args
                assert isinstance(g, PoleResidueModel)
                assert isinstance(cfg, IoDirkaConfig)
            else:
                assert label == "bench.cli_main"
                assert build_parser().parse_args(args[0]).command == "reduce"


def test_grid_point_counter_reads_the_search_config(harness):
    _, tracing = harness
    g = random_pr(np.random.default_rng(1), 4, ny=2, nu=2)
    cfg = DelaySearchConfig(input_mask=(True, True), output_mask=(False, False))
    counts = tracing._grid_points_computed((g, g, cfg), {}, None)
    assert counts == {"grid_points_computed": 400 ** 2}


def test_tracer_finds_every_target(harness):
    _, tracing = harness
    orig = iodirka.irka_reduce
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert iodirka.irka_reduce is not orig
    finally:
        tracer.uninstall()
    assert iodirka.irka_reduce is orig


def test_tracer_records_one_search_span_per_outer_iteration(harness):
    # the tracer wraps the name io_dirka calls the search by and reads the
    # search config from that call, once per outer iteration
    _, tracing = harness
    g = random_pr(np.random.default_rng(91), 6)
    cfg = IoDirkaConfig(order=2, search=DelaySearchConfig(
        grid_points_per_channel=60, tau_max=4.0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = iodirka.io_dirka(g, cfg)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.layer == "delayopt"]
    assert len(spans) == rep.outer_iterations
    assert all(s.counts["grid_points_computed"] > 0 for s in spans)


def test_corpus_runner_prints_and_writes_one_row(monkeypatch, tmp_path, capsys):
    # one two-iteration corpus run; the evaluation counters are the runner's
    # own wrappers, removed again when the run ends
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import corpus
    value, refine = _Objective.value_grad_hess, delayopt._refine
    out = tmp_path / "corpus.json"
    assert corpus.main(["--shape", "N20-o2", "--seed", "3", "--json", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    (row,) = written["rows"]
    assert (row["shape"], row["seed"], row["converged"], row["outer"]) == ("N20-o2", 3, True, 2)
    assert row["evaluations"] > 0 and written["converged"] == 1
    assert row["irka"] > 0 and written["shapes"] == {"N20-o2": {"converged": 1, "runs": 1}}
    assert 0 < row["max_start"] <= row["evaluations"]
    assert len(row["fingerprint"]) == 64 and int(row["fingerprint"], 16) >= 0
    assert corpus.run("N20-o2", 3)["fingerprint"] == row["fingerprint"]
    assert _Objective.value_grad_hess is value and delayopt._refine is refine
    lines = capsys.readouterr().out.splitlines()
    assert f" {row['irka']:>5} " in lines[1]
    assert f" {row['evaluations']:>7} {row['max_start']:>5} " in lines[1]
    assert lines[-2:] == ["N20-o2     converged 1 of 1", "converged 1 of 1"]


def test_corpus_runner_compares_with_a_saved_run(monkeypatch, tmp_path, capsys):
    # one corpus run against its own --json rows: nothing differs; then
    # against rows whose fingerprint, or verdict, was changed, or that lack
    # the run: the row is listed and the exit is 1
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import corpus
    saved = tmp_path / "corpus.json"
    args = ["--shape", "N50-o4", "--seed", "0"]
    assert corpus.main(args + ["--json", str(saved)]) == 0
    written = json.loads(saved.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert corpus.main(args + ["--compare", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"converged 1 of 1 here, 1 in {saved}", f"0 of 1 rows differ from {saved}"]
    for change, there in ((dict(fingerprint="0" * 64), "True there"),
                          (dict(converged=False), "False there"),
                          (dict(seed=1), "missing there")):
        edited = json.loads(json.dumps(written))
        edited["rows"][0].update(change)
        saved.write_text(json.dumps(edited), encoding="utf-8")
        assert corpus.main(args + ["--compare", str(saved)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3] == f"differs: N50-o4 s0 (converged True here, {there})"
        assert lines[-1] == f"1 of 1 rows differ from {saved}"
    assert lines[-2] == f"converged 1 of 1 here, 0 in {saved}"


def test_fingerprint_script_prints_the_workload_fingerprint(harness, monkeypatch,
                                                            tmp_path, capsys):
    # the script's row for mimo-float seed 0 carries the fingerprint the
    # workload's own check computes; --compare lists a row that differs
    workloads, _ = harness
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fingerprints
    saved = tmp_path / "fingerprints.json"
    assert fingerprints.main(["--workload", "mimo-float", "--json", str(saved)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rep = iodirka.io_dirka(workloads.mimo_float_model(0), workloads.MimoFloat.cfg)
    want = workloads._report_outcome("n4", rep, 1.0).fingerprint
    assert lines[0].split()[:4] == ["mimo-float", "s0", "n4", "ok"]
    assert lines[0].endswith(" " + want)
    written = json.loads(saved.read_text(encoding="utf-8"))
    assert [r["label"] for r in written["rows"]] == [
        "mimo-float s0 n4", "mimo-float s1 n4", "mimo-float s2 n4"]
    written["rows"][1]["fingerprint"] = "0" * 64
    saved.write_text(json.dumps(written), encoding="utf-8")
    assert fingerprints.main(["--workload", "mimo-float", "--compare", str(saved)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["fingerprint differs: mimo-float s1 n4",
                          f"1 of 3 fingerprints differ from {saved}"]


def test_ab_runner_pairs_two_trees(monkeypatch, tmp_path, capsys):
    # two ABBA pairs of mimo-float with this tree on both sides: every
    # unit's fingerprints agree, and the summary counts the pairs
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab
    out = tmp_path / "ab.json"
    assert ab.main([str(ROOT), "--workload", "mimo-float", "--pairs", "2",
                    "--json", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert len(written["pairs"]) == 2
    assert all(r["agree"] and r["a_verdicts"] == r["b_verdicts"] == ["ok"]
               for r in written["pairs"])
    s = written["summary"]
    assert s["agree"] == 2 and 0 <= s["b_faster"] <= 2
    for side in ("a", "b"):
        assert s[side]["min_s"] <= s[side]["q1_s"] <= s[side]["median_s"] <= s[side]["q3_s"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "fingerprints agree in 2 of 2 pairs"
    assert lines[-2].startswith("median B/A ")


def test_ab_runner_takes_the_workload_seed(harness, monkeypatch, tmp_path, capsys):
    # --seed 1 builds mimo-float at seed 1 on both sides: each unit's
    # fingerprint is the one the workload's own check gives that model
    workloads, _ = harness
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab
    out = tmp_path / "ab.json"
    assert ab.main([str(ROOT), "--workload", "mimo-float", "--pairs", "2", "--seed", "1",
                    "--json", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    rep = iodirka.io_dirka(workloads.mimo_float_model(1), workloads.MimoFloat.cfg)
    want = [workloads._report_outcome("n4", rep, 1.0).fingerprint]
    assert written["seed"] == 1
    assert all(r["a_fingerprints"] == r["b_fingerprints"] == want for r in written["pairs"])
    assert capsys.readouterr().out.startswith("mimo-float seed 1: 2 ABBA pairs")
    with pytest.raises(SystemExit) as exc:
        ab.main([str(ROOT), "--workload", "mimo-float", "--seed", "-1"])
    assert exc.value.code == 2


def test_searchdiff_lists_the_searches_that_differ(monkeypatch, tmp_path, capsys):
    # this tree on both sides: no search differs, and each shape's line
    # counts its one search as equal, with the same evaluations on both
    # sides (the times differ run to run). A row whose objective moved by
    # one unit in the last place is listed with +1 ulps
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import searchdiff
    out = tmp_path / "searchdiff.json"
    assert searchdiff.main([str(ROOT), "--shape", "2x2-inputs", "--shape", "3x1-outputs",
                            "--seed", "0", "--json", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    untimed = [[{k: v for k, v in r.items() if k != "seconds"} for r in written[side]]
               for side in "ab"]
    assert untimed[0] == untimed[1] and written["differences"] == []
    assert [(r["shape"], r["seed"]) for r in written["a"]] == [("2x2-inputs", 0),
                                                               ("3x1-outputs", 0)]
    assert len(written["a"][0]["delays"]) == 4 and len(written["a"][1]["delays"]) == 4
    assert all(r["evaluations"] > 0 and r["seconds"] > 0 for r in written["a"])
    lines = capsys.readouterr().out.splitlines()
    evals = [r["evaluations"] for r in written["a"]]
    for line, shape, n in zip(lines, ("2x2-inputs", "3x1-outputs"), evals):
        assert line.startswith(f"{shape}: B higher 0, equal 1, lower 0; time A ")
        assert line.endswith(f"evaluations A {n}, B {n}")
    assert lines[-1].startswith("0 of 2 searches differ")
    a = written["a"][0]
    b = dict(a, cross=[np.nextafter(float.fromhex(a["cross"][0]), np.inf).hex(),
                       a["cross"][1]])
    (diff,) = searchdiff.differences([a, written["a"][1]], [b, written["a"][1]])
    assert diff["shape"] == "2x2-inputs" and diff["ulps"] == 1.0
    assert diff["a_delays"] == diff["b_delays"] == [float.fromhex(d) for d in a["delays"]]
