"""Tests of the benchmark itself: wrappers, output checks, spans, inputs."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbench import inputs, measure, tracing
from qbench.workloads import Context, Op, Outcome, _check_cli, _check_report, build_verdict


@pytest.fixture(scope="module")
def mods():
    return tracing.layer_modules()


def _bindings(mods) -> dict:
    """Every function binding the wrappers may touch, by identity."""
    out = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(name, attr)] = value
    for key, value in mods["cli"]._COMMANDS.items():
        out[("cli._COMMANDS", key)] = value
    for name in tracing.LAPACK:
        out[("numpy.linalg", name)] = getattr(np.linalg, name)
    return out


def _current(mods, key):
    namespace, attr = key
    if namespace == "cli._COMMANDS":
        return mods["cli"]._COMMANDS[attr]
    if namespace == "numpy.linalg":
        return getattr(np.linalg, attr)
    return vars(mods[namespace])[attr]


def test_wrappers_patch_every_binding_and_restore_it(mods):
    before = _bindings(mods)
    originals = {id(fn) for _, fn in tracing.layer_functions(mods)}
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, mods):
        for key, value in before.items():
            if id(value) in originals:
                # no module still reaches a layer function unwrapped
                assert _current(mods, key) is not value, key
        assert mods["compat"].support_of is mods["linalg"].support_of
        assert mods["cli"]._COMMANDS["check"] is not before[("cli._COMMANDS", "check")]
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
    for key, value in before.items():
        assert _current(mods, key) is value, key


def test_wrappers_restore_after_an_exception(mods):
    before = _bindings(mods)
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer(), mods):
            raise RuntimeError("boom")
    for key, value in before.items():
        assert _current(mods, key) is value, key


def _verdict_op(mods, rng, dim=8, n=3, compatible=True):
    planted = (inputs.compatible_set(rng, dim, n, 2) if compatible
               else inputs.incompatible_set(rng, dim, n))
    states = [mods["qcompat"].validate_density(m) for m in planted.matrices]
    qc = mods["qcompat"]
    return Op("check_bfm", n, lambda: qc.check_bfm(states), _check_report(planted)), planted


def test_planted_verdicts_pass_their_checks(mods):
    rng = np.random.default_rng(0)
    for compatible in (True, False):
        op, _ = _verdict_op(mods, rng, compatible=compatible)
        sample = measure.execute(op)
        assert sample.ok, sample.error


def test_injected_wrong_verdict_is_a_failure(mods, monkeypatch):
    rng = np.random.default_rng(1)
    op, _ = _verdict_op(mods, rng, compatible=True)
    wrong, _ = _verdict_op(mods, rng, compatible=False)
    wrong_report = wrong.run()
    monkeypatch.setattr(mods["qcompat"], "check_bfm", lambda states, tol=None: wrong_report)
    sample = measure.execute(op)
    assert not sample.ok
    assert "verdict_bfm" in sample.error
    other = measure.execute(wrong)
    assert other.ok, other.error
    e2e = measure.end_to_end([sample, other], {"check_bfm": 1})
    assert e2e["ops_per_s"] == pytest.approx(0.5 / ((sample.seconds + other.seconds) / 2))


def test_times_are_scaled_by_the_slowdown_around_them():
    fast = measure.Sample("x", 0.2, True, slowdown=1.0)
    slow = measure.Sample("x", 0.4, True, slowdown=2.0)
    assert measure.end_to_end([fast, slow], {"x": 1})["latency_p50_ms"] == pytest.approx(200.0)
    wall = measure.end_to_end([fast, slow], {"x": 1}, scaled=False)
    assert wall["latency_p50_ms"] == pytest.approx(300.0)


def test_gauge_measures_the_slowdown_around_each_call():
    gauge = measure.Gauge()
    sample = measure.execute(Op("x", 0, lambda: None, lambda result: None), gauge=gauge)
    assert sample.ok and sample.slowdown > 0
    assert measure.execute(Op("x", 0, lambda: None, lambda result: None)).slowdown == 1.0


def test_a_crash_is_a_failure_not_a_verdict():
    def crash():
        raise MemoryError("out of memory")

    sample = measure.execute(Op("x", 1, crash, lambda result: None))
    assert not sample.ok
    assert sample.error.startswith("MemoryError")


def test_cli_exit_1_with_stderr_is_a_failure(tmp_path):
    ctx = Context(np.random.default_rng(0), {}, tmp_path, tmp_path)
    report = tmp_path / "r.json"
    report.write_text('{"report": {"verdict_bfm": false, "intersection_dim": 0}}')
    check = _check_cli(ctx, 1, report=report, verdict=False, dim=0)
    assert check(Outcome(1, "incompatible\n", "")) is None
    assert "stderr" in check(Outcome(1, "", "error: MemoryError\n"))
    assert "exit code" in check(Outcome(2, "", ""))
    report.write_text('{"report": {"verdict_bfm": true, "intersection_dim": 1}}')
    assert "differs" in check(Outcome(1, "incompatible\n", ""))
    report.unlink()
    assert "not written" in check(Outcome(1, "incompatible\n", ""))


def _traced(mods, ops, tracer=None):
    tracer = tracer or tracing.Tracer()
    with tracing.instrumented(tracer, mods):
        samples = [measure.execute(op, tracer.operation(i)) for i, op in enumerate(ops)]
    assert all(s.ok for s in samples), [s.error for s in samples]
    return tracer, samples


def _witness_op(mods, rng):
    qc = mods["qcompat"]
    ma, mb, _ = inputs.witness_pair(rng, 6, 2)
    a, b = qc.validate_density(ma), qc.validate_density(mb)

    def run():
        w = qc.build_witness(qc.build_shared_decomposition(a, b))
        return qc.simulate_protocol(w)

    return Op("witness", 2, run, lambda result: None)


def test_layer_self_times_sum_to_no_more_than_wall(mods):
    rng = np.random.default_rng(2)
    ops = [_verdict_op(mods, rng)[0], _witness_op(mods, rng)]
    tracer, samples = _traced(mods, ops)
    for i, sample in enumerate(samples):
        s = tracing.summarize(tracer, [i], {i: ops[i].states})
        layers = sum(s[f"{layer}.self_ms"] for layer in (*tracing.LAYERS, "lapack"))
        assert 0 < layers <= 1e3 * sample.seconds <= s["trace.op_wall_ms"]
    assert min(tracer.self_times()) > -1e-6


def test_call_counts_repeat_exactly(mods):
    rng = np.random.default_rng(3)
    ops = [_verdict_op(mods, rng)[0], _witness_op(mods, rng)]
    tracer, _ = _traced(mods, ops + ops)
    counts = tracing.call_counts(tracer)
    assert counts[0] == counts[2] and counts[1] == counts[3]
    assert counts[0]["numpy.eigh"] > 0 and counts[1]["numpy.eigvalsh"] > 0


def test_witness_probes_measure_the_witness(mods):
    tracer = tracing.Tracer()
    with tracing.tracking_memory(tracer):
        _traced(mods, [_witness_op(mods, np.random.default_rng(4))], tracer)
    s = tracing.summarize(tracer, [0], {0: 2})
    assert s["witness.stored_amplitudes"] == 3 * 3 * 6
    assert s["witness.nonzero_fraction"] == pytest.approx(5 / 9)
    assert tracer.peak_alloc > 0


def test_cycle_keeps_the_mix_in_every_prefix():
    class C:
        def __init__(self, weight):
            self.weight = weight

    weights = [5, 5, 3, 8, 2, 4, 2, 1]
    order = measure.cycle([C(w) for w in weights])
    total = sum(weights)
    assert len(order) == total
    for k in range(1, total + 1):
        for i, w in enumerate(weights):
            assert abs(order[:k].count(i) - k * w / total) <= 1


def test_weighted_quantile_matches_the_unweighted_median():
    values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert measure.weighted_quantile(values, np.ones(5), 0.5) == 3.0
    # weighting one sample more pulls the median towards it
    w = np.array([1.0, 4.0, 1.0, 1.0, 1.0])
    assert measure.weighted_quantile(values, w, 0.5) < 3.0


def test_inputs_repeat_for_a_seed_and_carry_their_answer(mods):
    a = inputs.compatible_set(np.random.default_rng(5), 16, 4, 3)
    b = inputs.compatible_set(np.random.default_rng(5), 16, 4, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
    report = mods["qcompat"].check_bfm([mods["qcompat"].validate_density(m) for m in a.matrices])
    assert report.intersection_dim == 3
    text = inputs.matrix_file_text(a.matrices[0], "A")
    parsed, label = mods["formats"].parse_matrix(__import__("io").StringIO(text))
    assert label == "A" and np.array_equal(parsed, a.matrices[0])


def test_verdict_cells_hold_every_grid_point_but_the_slowest(mods, tmp_path):
    # draws the real grid, D=256 included (a few seconds)
    ctx = Context(np.random.default_rng(6), mods, tmp_path, tmp_path)
    names = {c.name for c in build_verdict(ctx)}
    assert "check_bfm.D256.n8" in names and "check_bfm.D256.n32" not in names
    assert {f"check_bfm.D{d}.n{n}" for d in (8, 64) for n in (2, 8, 32)} <= names


def test_run_fails_without_the_library_sources(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
