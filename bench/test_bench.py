"""Tests of the benchmark itself, on small inputs:

    python3 -m pytest bench
"""

import importlib
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

import tracing
import workloads
from workloads import DecomposeWorkload, ScanWorkload

SMALL_SCAN = ScanWorkload("small-scan", "scan", "quartic:1,2,1,5", 300, jobs=1)
SMALL_SURVEY = ScanWorkload("small-survey", "conjecture", "cubic:7..20;quartic:-1,2,1,5",
                            60, jobs=2)
SMALL_SWEEP = DecomposeWorkload("small-sweep", "cubic:7..20;quartic:1,2,1,5", 13)


def inputs(workload, seed):
    return workload.order(workload.expand(), random.Random(seed))


def outcome(workload, seed, jobs):
    return workload.check(workload.run(inputs(workload, seed), jobs))


def traced(workload, seed=0):
    ins = inputs(workload, seed)
    tracer = tracing.Tracer()
    with tracer.patched():
        out = workload.check(tracer.wrap(tracing.ROOT_SPAN, workload.run)(ins, 1))
    return tracer, out


def wrlat_modules():
    return [m for key, m in sys.modules.items() if key == "wrlat" or key.startswith("wrlat.")]


def traced_originals():
    funcs = [getattr(importlib.import_module(mod), attr)
             for _, mod, attr, _ in tracing.FUNCTIONS]
    methods = [getattr(importlib.import_module(mod), cls).__dict__[attr]
               for _, mod, cls, attr in tracing.METHODS]
    return funcs, methods


@pytest.mark.parametrize("workload", [SMALL_SURVEY, SMALL_SWEEP], ids=lambda w: w.name)
def test_digest_independent_of_seed_and_jobs(workload):
    digests = {outcome(workload, seed, jobs).digest for seed in (0, 1) for jobs in (1, 2)}
    assert len(digests) == 1


def test_seed_permutes_inputs_only():
    a, b = inputs(SMALL_SURVEY, 0), inputs(SMALL_SURVEY, 3)
    assert a != b and sorted(a) == sorted(b) == sorted(SMALL_SURVEY.expand())
    assert inputs(SMALL_SWEEP, 0) == inputs(SMALL_SWEEP, 0)


def test_reference_mismatch_fails_every_unit():
    units, status, text = SMALL_SCAN.run(inputs(SMALL_SCAN, 0), 1)
    good = SMALL_SCAN.check((units, status, text))
    assert good.failed == 1 and good.errors[0].startswith("digest ")
    checked = ScanWorkload("small-scan", "scan", "quartic:1,2,1,5", 300, jobs=1,
                           reference=good.digest)
    assert checked.check((units, status, text)).errors == []
    altered = text.replace('"wr": false', '"wr": true', 1)
    assert altered != text
    bad = checked.check((units, status, altered))
    assert bad.failed == bad.units == 1


def test_expected_counterexample_status_is_not_a_failure():
    out = outcome(SMALL_SURVEY, 0, 1)
    assert all(not e.startswith("exit status") for e in out.errors)


def test_oracle_disagreement_counts_per_pair():
    raw = SMALL_SWEEP.run(inputs(SMALL_SWEEP, 0), 1)
    fid, p, dec, _ = raw[0]
    other = next(r[2] for r in raw if r[2].factors != dec.factors)
    raw[0] = (fid, p, dec, other)
    checked = DecomposeWorkload("small-sweep", SMALL_SWEEP.spec, SMALL_SWEEP.max_prime,
                                reference=SMALL_SWEEP.check(raw).digest)
    out = checked.check(raw)
    assert out.failed == 1 and "disagrees with oracle" in out.errors[0]


@pytest.mark.parametrize("workload", [SMALL_SCAN, SMALL_SWEEP], ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(workload):
    first, out1 = traced(workload)
    second, out2 = traced(workload, seed=5)
    m1, m2 = first.layer_metrics(), second.layer_metrics()
    assert {k: m1[k] for k in tracing.COUNT_METRICS} == {k: m2[k] for k in tracing.COUNT_METRICS}
    assert out1.digest == out2.digest == outcome(workload, 0, 1).digest


def test_traced_scan_sees_every_layer():
    tracer, _ = traced(SMALL_SCAN)
    m = tracer.layer_metrics()
    for name in ("lattice_reduce.minimal_pairs", "lattice_reduce.wr_ideals",
                 "ideal_lattice.decompose.calls", "ideal_lattice.mul.calls",
                 "ideal_lattice.ideals", "linalg.hnf_upper.calls", "wr_certify.cases"):
        assert m[name] > 0, name
    for name in ("lattice_reduce.lll_s", "lattice_reduce.gram_s", "quartic_field.construct_s",
                 "survey_cli.expand_s", "survey_cli.emit_s"):
        assert m[name] > 0, name
    assert 0 < m["ideal_lattice.decompose.kept_ratio"] < 1


def test_sweep_does_no_lattice_reduction():
    m = traced(SMALL_SWEEP)[0].layer_metrics()
    assert m["ideal_lattice.decompose.calls"] > 0 and m["ideal_lattice.oracle.calls"] > 0
    assert m["lattice_reduce.lll_s"] == m["lattice_reduce.gram_s"] == 0
    assert m["lattice_reduce.minimal_pairs"] == 0


@pytest.mark.parametrize("workload", [SMALL_SCAN, SMALL_SWEEP], ids=lambda w: w.name)
def test_self_times_account_for_traced_wall(workload):
    tracer, _ = traced(workload)
    own = tracer.self_times()
    wall = tracer.layer_metrics()["trace.wall_s"]
    assert [s[3] for s in tracer.spans].count(-1) == 1
    assert min(own) > -1e-6
    assert sum(own) == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_patching_rebinds_every_name_and_restores_it():
    funcs, methods = traced_originals()
    bound = {(m.__name__, k) for m in wrlat_modules() for k, v in vars(m).items()
             if any(v is f for f in funcs)}
    assert ("wrlat.survey_cli", "wr_report") in bound
    assert ("wrlat.wr_certify", "decompose_prime") in bound
    tracer = tracing.Tracer()
    with tracer.patched():
        for m in wrlat_modules():
            for k, v in vars(m).items():
                assert not any(v is f for f in funcs), (m.__name__, k)
        now = [getattr(importlib.import_module(mod), cls).__dict__[attr]
               for _, mod, cls, attr in tracing.METHODS]
        assert not any(a is b for a, b in zip(now, methods))
    assert traced_originals() == (funcs, methods)
    assert {(m.__name__, k) for m in wrlat_modules() for k, v in vars(m).items()
            if any(v is f for f in funcs)} == bound


def test_calibrator_samples_during_the_operation_only():
    import run
    calibrator = run.Calibrator()
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with calibrator.sampling():
        while time.perf_counter() - t0 < 3.2 * run.CALIBRATION_PERIOD_S:
            pass
    wall = time.perf_counter() - t0
    assert 2 <= len(calibrator.samples) <= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < calibrator.paused_cpu <= calibrator.paused_wall < wall
    assert calibrator.speed() > 0


def test_names_match_benchmark_json():
    import run
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert all(len(w.reference) == 64 for w in workloads.WORKLOADS.values())
