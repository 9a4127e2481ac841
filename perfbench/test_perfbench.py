"""Tests of the benchmark itself: seeded inputs, span arithmetic, quick mode.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import inputs
import oracle
from probe import Probe
from spans import Span, Tracer, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (imports fstlearn from this checkout)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_same_seed_gives_same_inputs():
    def pipeline_digest(seed):
        specs = inputs.pipeline_scenarios(seed, 12)
        return inputs.digest([sorted(s["recordings"]["sensor"]) for s in specs])

    assert pipeline_digest(3) == pipeline_digest(3)
    assert pipeline_digest(3) != pipeline_digest(4)
    rung = inputs.LEARN_LADDER_QUICK[1]
    assert inputs.learn_machines(5, *rung) == inputs.learn_machines(5, *rung)
    assert inputs.learn_machines(5, *rung) != inputs.learn_machines(6, *rung)
    assert inputs.ring(2, 10) == inputs.ring(2, 10) != inputs.ring(3, 10)


def test_learn_machines_meet_the_ground_truth_conditions():
    for n, count, (lo, hi), cells in inputs.LEARN_LADDER_QUICK:
        for m in inputs.learn_machines(7, n, count, (lo, hi), cells):
            assert len(m.arcs) == n and inputs.candidate_block_shape(m, n)[0] == n
            assert lo <= len(oracle.language(m, 2 * n + 1)) == oracle.count_words(m, 2 * n + 1) <= hi


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile(range(1, 102), 95) == 96
    assert percentile([7], 95) == 7


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nested_spans_and_restores_attributes():
    class Module:
        @staticmethod
        def outer(x):
            return Module.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    originals = (Module.outer, Module.inner)
    tracer.install([(Module, "outer", "layer.outer"), (Module, "inner", "layer.inner")])
    with tracer.op("op0"):
        assert Module.outer(3) == 7
    with tracer.op("op1"):
        assert Module.inner(1) == 2
    tracer.uninstall()
    assert (Module.outer, Module.inner) == originals
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op0", -1, 0), ("layer.outer", 0, 0), ("layer.inner", 1, 0),
        ("op1", -1, 1), ("layer.inner", 3, 1),
    ]
    assert self_times(tracer.spans)[:3] == [2.0, 2.0, 1.0]
    assert [c.result for c in tracer.calls] == [6, 7, 2]


def test_adopted_child_spans_join_the_current_op():
    ticks = iter([0.0, 1.0, 10.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    child = [
        {"name": "formats.load_dataset", "start": 11.0, "end": 12.0, "parent": -1, "op": 0},
        {"name": "spectral.learn_pipeline", "start": 12.0, "end": 16.0, "parent": -1, "op": 0},
        {"name": "hankel.find_basis", "start": 13.0, "end": 15.0, "parent": 1, "op": 0},
    ]
    with tracer.op("op0"):
        pass
    with tracer.op("op1"):
        tracer.adopt(child, {"loop.ticks": 2})
        tracer.adopt([dict(child[0], start=16.0, end=17.0)], {"loop.ticks": 3})
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op0", -1, 0), ("op1", -1, 1), ("formats.load_dataset", 1, 1),
        ("spectral.learn_pipeline", 1, 1), ("hankel.find_basis", 3, 1), ("formats.load_dataset", 1, 1),
    ]
    assert self_times(tracer.spans) == [1.0, 4.0, 1.0, 2.0, 2.0, 1.0]
    assert tracer.counts == {"loop.ticks": 5}


def test_probe_runs_in_a_helper_process():
    with Probe() as probe:
        readings = [probe() for _ in range(3)]
        helper = probe.proc
    assert all(0 < r < 1 for r in readings)
    assert helper.pid != os.getpid() and helper.returncode == 0


def test_only_the_known_gap_leaves_a_run_correct():
    pipeline = workloads.PipelineSparse.__new__(workloads.PipelineSparse)
    gap = f"{workloads.CONSISTENCY_GAP}: learned sensor attacker rejects recorded word ()"
    walk, perm = (workloads.Op("s0", None, {"kind": kind}) for kind in ("walk", "perm"))
    assert pipeline.tolerated(walk, gap)
    assert not pipeline.tolerated(perm, gap)
    assert not pipeline.tolerated(walk, "witness () is not in the symmetric difference")
    assert not workloads.LoopRing.tolerated(None, walk, gap)


def test_walk_recordings_are_the_same_for_every_seed():
    def walks(seed):
        return [(sc["attackers"], sc["recordings"]) for sc in inputs.pipeline_scenarios(seed, 48)
                if sc["kind"] == "walk"]

    assert walks(1) and walks(1) == walks(2)
    assert inputs.pipeline_scenarios(1, 48) != inputs.pipeline_scenarios(2, 48)


def test_loop_check_rejects_a_trace_cut_short():
    op = workloads.Op("run10", None, {"ring": inputs.ring(1, 10), "k": 10, "ticks": 4})

    def trace(terminated_by, ticks):
        word = ((("a1", "s2"), ("a2", "s2")) * 2)[:ticks]
        return SimpleNamespace(terminated_by=terminated_by, steps=word, plant_word=lambda: word)

    assert workloads.LoopRing.check(None, op, trace("max_steps", 4), None) is None
    for cut in (trace("alarm", 0), trace("deadlock", 3), trace("max_steps", 2)):
        assert "ticks" in workloads.LoopRing.check(None, op, cut, None)
    assert workloads.LoopRing.problem(None, op, "verdict", ValueError("x"), None)


def test_set_up_repeated_in_a_child_gives_the_same_inputs(tmp_path):
    import run

    seconds, digest = run.setup_in_child(workloads.LoopRing, tmp_path, SimpleNamespace(seed=1, quick=True))
    assert seconds > 0
    assert digest == workloads.LoopRing(ROOT, tmp_path, 1, True).digest


def test_join_oracle_finds_the_supervised_language():
    ident = oracle.Machine("0", frozenset({"0"}), {"0": [(("a", "a"), "0"), (("b", "b"), "0")]})
    only_a = oracle.Machine("0", frozenset({"0"}), {"0": [(("a", "a"), "0")]})
    words = oracle.supervised_words(ident, only_a, ident, ident, 2)
    assert words == {(), (("a", "a"),), (("a", "a"), ("a", "a"))}
    assert oracle.verdict_problem(ident, only_a, ident, ident, only_a, True, None) is None
    assert oracle.verdict_problem(ident, ident, ident, ident, only_a, False, (("b", "b"),)) is None
    assert oracle.verdict_problem(ident, only_a, ident, ident, only_a, False, (("a", "a"),))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_runs_every_check_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    again = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--quick")
    assert json.loads(again.stdout.splitlines()[0])["inputs_digest"] == info["inputs_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "loop-ring", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
