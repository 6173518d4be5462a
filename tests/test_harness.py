"""The benchmark harness's hold on the library: names, configs and flags.

``perfbench/`` imports library names, reads config fields and wraps the
functions the layers import from each other. A rename there would not fail
a benchmark run, it would only drop the renamed layer's spans, so these
tests run the harness's own modules (unchanged) against the library.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import random_pr
from delayh2 import DelaySearchConfig, IoDirkaConfig, PoleResidueModel, iodirka
from delayh2.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
