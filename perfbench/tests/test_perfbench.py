"""Tests of the benchmark itself, on tiny inputs.

They check that every named metric is emitted with its unit and that the
correctness gate counts a deliberately wrong answer as failed.
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import skewpencil as sp  # noqa: E402
from perfbench import run, spans, speed, workloads  # noqa: E402

# each keeps the rung of its workload's typical operation
TINY = {
    "verify-ladder": lambda d, s: workloads.build_verify_ladder(d, s, rungs=(("n10", 1), ("n35", 1))),
    "reduce-ladder": lambda d, s: workloads.build_reduce_ladder(d, s, rungs=(("n10", 2), ("n21", 1))),
    "corpus-sweep": lambda d, s: workloads.build_corpus_sweep(d, s, max_dim=3),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run the benchmark in-process on tiny inputs, with no child set-ups."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    for name, builder in TINY.items():
        monkeypatch.setitem(workloads.BUILDERS, name, builder)

    def go(workload, trace):
        return run.run(workload, seed=3, seconds=0.0, trace=trace, probes=0)
    return go


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(tiny, workload):
    result = tiny(workload, trace=False)
    expected = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == expected
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(tiny, workload):
    result = tiny(workload, trace=True)
    expected = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == expected
    assert result["failed"] == 0
    # the recorder restores every binding it replaced
    assert sp.verify_direct_sum is sp.tangent.verify_direct_sum
    assert not hasattr(sp.tangent.verify_direct_sum, "__wrapped__")


def test_traced_spans_nest_across_namespaces(tmp_path):
    ops = workloads.build_verify_ladder(str(tmp_path), 0, rungs=(("n10", 1),))
    rec = spans.SpanRecorder()
    rec.install()
    try:
        run.run_pass(ops, rec)
    finally:
        rec.uninstall()
    by_index = {k: s for k, s in enumerate(rec.spans)}
    # cli.main -> verify_pairwise -> verify_direct_sum -> gaussian_columns_rank -> sparse_int_rank
    chain, k = [], next(k for k, s in by_index.items() if s[0] == "exact.sparse_int_rank")
    while k >= 0:
        chain.append(by_index[k][0])
        k = by_index[k][1]
    assert chain[-1] == "cli.main"
    assert "tangent.verify_direct_sum" in chain and "exact.gaussian_columns_rank" in chain
    metrics = rec.summary(passes=1)
    blocks = len(workloads.rung_structure("n10").blocks)
    assert metrics["tangent.verify_pairwise.subproblems"] == blocks * (blocks + 1) // 2
    assert metrics["exact.sparse_int_rank.calls"] == 2 * metrics["tangent.verify_direct_sum.calls"]
    out = tmp_path / "spans.json"
    rec.write(str(out))
    assert len(json.loads(out.read_text())["spans"]) == len(rec.spans)


def test_gate_fails_a_pattern_from_another_structure():
    rng = np.random.default_rng(5)
    dim4 = [st for st in sp.enumerate_structures(4) if st.dim == 4]
    item = workloads.make_corpus_item(dim4[0], rng)
    assert workloads.check_corpus_item(item, workloads.sweep_structure(item))[1] == 0

    other = next(sp.assemble(st) for st in dim4 if sp.assemble(st).params != item.pattern.params)
    item.pattern = other
    attempted, failed = workloads.check_corpus_item(item, workloads.sweep_structure(item))
    assert 0 < failed <= attempted


def test_gate_fails_a_wrong_reduction(tmp_path):
    op = workloads.build_reduce_ladder(str(tmp_path), 1, rungs=(("n10", 1),))[0]
    rc, out = op.run()
    assert op.check((rc, out)) == (1, 0)
    trace = json.loads(out)
    trace["S"] = sp.matrix_to_json(np.eye(10))
    assert op.check((rc, json.dumps(trace))) == (1, 1)


def test_gate_fails_a_failed_verify(tmp_path):
    op = workloads.build_verify_ladder(str(tmp_path), 0, rungs=(("n10", 1),))[0]
    rc, out = op.run()
    assert op.check((rc, out)) == (1, 0)
    rep = json.loads(out)
    rep["all_ok"] = False
    assert op.check((1, json.dumps(rep))) == (1, 1)


def test_inputs_follow_the_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        workloads.build_reduce_ladder(str(tmp_path / sub), 7, rungs=(("n10", 2),))
        texts.append(sorted(p.read_text() for p in (tmp_path / sub).glob("*.json")))
    assert len(texts[0]) == 3 and texts[0] == texts[1]


def test_speed_probe_scales_by_nearby_samples(monkeypatch):
    monkeypatch.setattr(speed, "NEAR_SAMPLES", 2)
    probe = speed.SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 10.0]
    probe.seconds = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 3 * speed.NOMINAL_S,
                     7 * speed.NOMINAL_S]
    # the samples taken while the operation ran
    assert probe.scale(0.5, 2.5) == pytest.approx(1 / 2.5)
    # too few: the nearest sample on each side is added
    assert probe.scale(5.0, 5.0) == pytest.approx(1 / 5)
    assert probe.scale(1.5, 1.5) == pytest.approx(1 / 2.5)


def test_op_time_excludes_probe_samples():
    class Probe:
        paused = 0.0

        def scale(self, start, end):
            return 0.5

    probe = Probe()

    def op_with_a_sample():
        time.sleep(0.05)
        probe.paused += 0.04  # as if a 40 ms kernel sample ran inside

    op = workloads.Op("x", 1, op_with_a_sample, lambda out: (1, 0))
    times, raw, attempted, failed = run.run_pass([op], probe=probe)
    assert 0.005 < raw[0][3] < 0.04
    assert times[0][3] == pytest.approx(0.5 * raw[0][3])
    assert (attempted, failed) == (1, 0)


def test_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        time.sleep(0.25)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.seconds) >= 2 and probe.paused > 0
