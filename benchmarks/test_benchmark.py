"""Tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest benchmarks``.
They use a cheap slice of the real op lists, so they take seconds.
"""

import json

import pytest

import calibration
import run
import tracing
import workloads


def small_ops(socle, seed):
    """Monomial ops in at most two variables, the conic, and two series ops."""
    mono = [
        op
        for op in workloads.build(socle, "monomial", seed)
        if " n=1" in op.label or " n=2" in op.label
    ]
    conic = [op for op in workloads.build(socle, "hypersurface", seed) if op.label == "conic-p2"]
    return mono + conic + workloads.build(socle, "series", seed)[:2]


def bindings(socle):
    return [(owner, attr, vars(owner)[attr]) for _, owner, attr in tracing.layer_sites(socle)]


def test_tracing_restores_bindings_and_keeps_answers():
    socle = run.import_socle()
    ops = small_ops(socle, seed=5)
    before = bindings(socle)
    plain = [(op.compute(), op.expect()) for op in ops]

    tracer = tracing.Tracer()
    with tracing.installed(socle, tracer):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
        traced = [tracer.run_op(i, lambda: (op.compute(), op.expect())) for i, op in enumerate(ops)]
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    assert traced == plain
    assert all(certified and answer == expected for (answer, certified), expected in traced)
    for layer in ("linalg.rank", "derham.assemble", "poly.mul", "series.mul", "weyl.mul",
                  "seriesdecomp.decompose", "structure.predict", "grammar.parse"):
        assert tracer.calls[layer] > 0, layer

    with pytest.raises(RuntimeError):
        with tracing.installed(socle, tracing.Tracer()):
            raise RuntimeError("an op blew up")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def exact_metrics(seed):
    socle = run.import_socle()
    ops = small_ops(socle, seed)
    tracer = tracing.Tracer()
    with tracing.installed(socle, tracer):
        result = run.run_pass(ops, calibration.Sampler(), tracer)
    assert not result.failed
    return {
        name: value
        for name, (value, unit) in tracing.layer_metrics(tracer, 1).items()
        if unit != "s"
    }


def test_exact_counts_repeat_for_one_seed():
    first, second = exact_metrics(11), exact_metrics(11)
    assert first == second
    assert first["linalg.rank.calls"] > 0
    assert first["seriesdecomp.decompose.sweeps"] > 0
    assert first["structure.predict.calls"] == 1
    assert 0 < first["derham.assemble.repeat"] < 1


def test_wrong_expected_answer_is_counted_as_failed(monkeypatch, capsys, tmp_path):
    real_build = workloads.build

    def build(socle, workload, seed):
        ops = [op for op in real_build(socle, "monomial", seed) if " n=1" in op.label]
        ops[0] = ops[0]._replace(expect=lambda: ["wrong"])
        return ops

    monkeypatch.setattr(workloads, "build", build)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "monomial", "--seed", "1", "--seconds", "0.001"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # one op of the three fails in every pass
    assert result["failed"] >= 1
    assert result["attempted"] == 3 * result["failed"]


def test_no_library_means_no_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "series", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
