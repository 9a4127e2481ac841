"""The four workloads: set-up, timed ops, oracle checks and metrics.

A workload object is built by its set-up (input generation, files
written) and then exposes `ops`, a list of closed-loop operations the
harness times one after another. Ops call the program through module
attributes looked up at call time, so the traced run can swap them for
span-recording wrappers. Everything after an op returns (summaries,
oracle checks, metric arithmetic) happens outside the timed region.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import fstlearn.cli
import fstlearn.formats
import fstlearn.loop
import fstlearn.spectral
import fstlearn.supervisor
from fstlearn import EPS, Fst, LoopConfig, SampleSet
from fstlearn.errors import AnalysisError, ClosednessError, NaturalityError

import inputs
import oracle
from oracle import Machine
from spans import Tracer, self_times


class Op(NamedTuple):
    key: str
    fn: Callable
    data: dict


def to_fst(m: Machine) -> Fst:
    states = {m.initial} | set(m.arcs) | {d for outs in m.arcs.values() for _, d in outs}
    return Fst(
        states=tuple(sorted(states)),
        initial=m.initial,
        transitions=frozenset(m.transitions()),
        finals=m.finals,
    )


def fst_summary(f: Fst) -> tuple:
    return (f.initial, tuple(sorted(f.finals)), tuple(sorted(f.transitions)))


def outcome_summary(status: str, value) -> tuple:
    """Comparable form of a verdict or an unexpected exception."""
    return (status, type(value).__name__, str(value))


class Workload:
    """Base: ops run in order; subclasses define set-up, checks, metrics."""

    name = ""
    ops: list[Op]
    digest: str
    tracer: Tracer | None = None  # set while the traced run's passes run

    def summary(self, op: Op, value) -> tuple:
        raise NotImplementedError

    def problem(self, op: Op, status: str, value, summary) -> str | None:
        """Oracle check of one op's first outcome; None when it passes.

        status is "ok", "verdict" (an AnalysisError: a documented
        negative result about the inputs) or "error" (any other exception).
        """
        if status == "error":
            return f"unexpected {type(value).__name__}: {value}"
        if status == "verdict":
            return None
        return self.check(op, value, summary)

    def tolerated(self, op: Op, problem: str) -> bool:
        """A failed check that is a documented defect of the program: it
        counts in `failed`, but leaves the run `correct`."""
        return False

    def check(self, op: Op, value, summary) -> str | None:
        raise NotImplementedError

    def units(self, op: Op, value) -> float:
        """Work units one successful op completed (for work_per_s)."""
        return 1.0

    def work(self, records) -> tuple[float, list[float]]:
        """(work units per second, per-op milliseconds) from timed records."""
        counted = [r for r in records if r.units]
        per_s = sum(r.units for r in counted) / sum(r.seconds for r in counted)
        return per_s, [r.seconds * 1e3 for r in records]

    def details(self, firsts: dict) -> dict:
        return {}


class LearnExhaustive(Workload):
    """Exhaustive recordings of minimal machines up the n = 5, 7, 9, 11 ladder."""

    name = "learn-exhaustive"

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        ladder = inputs.LEARN_LADDER_QUICK if quick else inputs.LEARN_LADDER
        self.ops, parts = [], []
        for n, count, words, cells in ladder:
            for i, truth in enumerate(inputs.learn_machines(seed, n, count, words, cells)):
                recorded = oracle.language(truth, 2 * n + 1)
                letters = sum(map(len, recorded))
                d = SampleSet.from_words(recorded)
                del recorded
                parts.append((n, truth.transitions()))
                self.ops.append(
                    Op(f"n{n}.{i}", lambda d=d: fstlearn.spectral.learn_pipeline(d),
                       dict(truth=truth, horizon=2 * n + 1, letters=letters, words=len(d),
                            latency=n == inputs.LEARN_LATENCY_STATES))
                )
        self.digest = inputs.digest(parts)

    def summary(self, op, value):
        return fst_summary(value.fst) + (value.mask.prefixes, value.mask.suffixes)

    def check(self, op, value, summary):
        horizon = op.data["horizon"]
        if oracle.language(Machine.from_fst(value.fst), horizon) != oracle.language(
            op.data["truth"], horizon
        ):
            return "learned language differs from the recorded dataset"
        return None

    def problem(self, op, status, value, summary):
        if status == "verdict":
            return f"exact recovery expected, got {value}"
        return super().problem(op, status, value, summary)

    def units(self, op, value):
        return op.data["letters"]

    def work(self, records):
        # Rungs differ in cost by 100x, so latency is taken on one rung.
        per_s, _ = super().work(records)
        return per_s, [r.seconds * 1e3 for r in records if r.op.data["latency"]]

    def details(self, firsts):
        return {"datasets": {op.key: {"words": op.data["words"], "letters": op.data["letters"]} for op in self.ops}}


CONSISTENCY_GAP = "consistency gap"
UNIVERSAL_PLANT = Machine("0", frozenset({"0"}), {"0": [(l, "0") for l in inputs.PLANT_LETTERS]})


class PipelineSparse(Workload):
    """Many small learn -> synthesize -> verify scenarios via fstlearn.cli.pipeline."""

    name = "pipeline-sparse"

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        count = inputs.PIPELINE_SCENARIOS_QUICK if quick else inputs.PIPELINE_SCENARIOS
        self.plant = to_fst(UNIVERSAL_PLANT)
        self.ops, parts = [], []
        for k, spec in enumerate(inputs.pipeline_scenarios(seed, count)):
            paths = {}
            for side in ("sensor", "actuator"):
                text = inputs.dataset_text(spec["recordings"][side])
                paths[side] = workdir / f"{k}.{side}.txt"
                paths[side].write_text(text, encoding="utf-8")
                parts.append(text)
            m_k = to_fst(spec["m_k"])
            parts.append(spec["m_k"].transitions())
            self.ops.append(
                Op(f"s{k}", lambda p=paths, m_k=m_k: fstlearn.cli.pipeline(
                    str(p["sensor"]), str(p["actuator"]), self.plant, m_k),
                   dict(spec, paths=paths))
            )
        self.digest = inputs.digest(parts)

    def summary(self, op, value):
        return (value.resilient, value.witness, fst_summary(value.supervisor))

    def check(self, op, value, summary):
        learned = {}
        for side, path in op.data["paths"].items():
            d = fstlearn.formats.load_dataset(path)
            learned[side] = Machine.from_fst(fstlearn.spectral.learn_pipeline(d).fst)
            for w in sorted(op.data["recordings"][side]):
                if not oracle.accepts(learned[side], w):
                    return f"{CONSISTENCY_GAP}: learned {side} attacker rejects recorded word {w}"
        return oracle.verdict_problem(
            UNIVERSAL_PLANT, Machine.from_fst(value.supervisor), learned["sensor"],
            learned["actuator"], op.data["m_k"], value.resilient, value.witness,
        )

    def tolerated(self, op, problem):
        # ROADMAP's known consistency gap: on sparse walk recordings the
        # learner can return a model that rejects one of its own words.
        return op.data["kind"] == "walk" and problem.startswith(CONSISTENCY_GAP)

    def details(self, firsts):
        mix: dict = {}
        for op in self.ops:
            status, value = firsts[op.key]
            if status == "ok":
                got = "RESILIENT" if value.resilient else "NOT_RESILIENT"
            else:
                got = f"{type(value).__name__}[{getattr(value, 'stage', '')}]"
            key = f"{op.data['kind']} expected={op.data['expected']} got={got}"
            mix[key] = mix.get(key, 0) + 1
        return {"scenarios": len(self.ops), "verdict_mix": dict(sorted(mix.items()))}


def trace_digest(trace) -> str:
    steps = [(r.alpha, r.alpha_c, r.sigma, r.sigma_c, tuple(vars(r.states).values())) for r in trace.steps]
    return inputs.digest(steps, trace.terminated_by)


class LoopRing(Workload):
    """Supervisor rings of 10, 100 and 1000 states: synthesize, verify, simulate."""

    name = "loop-ring"

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        demo = root / "demo"
        plant = fstlearn.formats.load_fst(demo / "plant.fst")
        attacker = fstlearn.formats.load_fst(demo / "attacker.fst")
        sensor = fstlearn.formats.load_fst(demo / "sensor_identity.fst")
        self.machines = [Machine.from_fst(m) for m in (plant, sensor, attacker)]
        ticks = inputs.TICKS_PER_RING_QUICK if quick else inputs.TICKS_PER_RING
        loop_seed = inputs.loop_seed(seed)
        self.largest = max(inputs.RINGS_QUICK if quick else inputs.RINGS)
        self.ops, parts = [], [loop_seed, ticks]
        for k in inputs.RINGS_QUICK if quick else inputs.RINGS:
            ring = inputs.ring(seed, k)
            parts.append(ring.transitions())
            m_k = to_fst(ring)
            sup = fstlearn.supervisor.synthesize(m_k, sensor, attacker)
            cfg = LoopConfig(plant=plant, supervisor=sup, sensor_attacker=sensor,
                             actuator_attacker=attacker, max_steps=ticks, seed=loop_seed)

            def synth_verify(m_k=m_k):
                s = fstlearn.supervisor.synthesize(m_k, sensor, attacker)
                return fstlearn.supervisor.verify_resilient(plant, s, sensor, attacker, m_k)

            self.ops.append(Op(f"sv{k}", synth_verify, dict(ring=ring, k=k)))
            self.ops.append(Op(f"run{k}", lambda cfg=cfg: fstlearn.loop.run(cfg), dict(ring=ring, k=k, ticks=ticks)))
        self.digest = inputs.digest(parts)

    def summary(self, op, value):
        if op.key.startswith("sv"):
            return (value.resilient, value.witness, fst_summary(value.supervisor))
        return (len(value.steps), trace_digest(value))

    def problem(self, op, status, value, summary):
        if status == "verdict":
            return f"{type(value).__name__} on a resilient ring: {value}"
        return super().problem(op, status, value, summary)

    def check(self, op, value, summary):
        ring = op.data["ring"]
        if op.key.startswith("run"):
            # Every ring state is final, so L(mk) alone would accept a trace
            # cut short by an alarm or a deadlock.
            if value.terminated_by != fstlearn.loop.TERMINATED_MAX_STEPS or len(value.steps) != op.data["ticks"]:
                return f"loop ended by {value.terminated_by} after {len(value.steps)} of {op.data['ticks']} ticks"
            word = value.plant_word()
            return None if oracle.accepts(ring, word) else f"plant word {word[:4]}... not in L(mk)"
        if not value.resilient:
            return f"ring supervisor reported NOT_RESILIENT, witness {value.witness}"
        plant, sensor, attacker = self.machines
        return oracle.verdict_problem(
            plant, Machine.from_fst(value.supervisor), sensor, attacker, ring, True, None, 6
        )

    def units(self, op, value):
        return len(value.steps) if op.key.startswith("run") else 0

    def work(self, records):
        per_s, _ = super().work(records)
        return per_s, [r.seconds * 1e3 for r in records if r.op.key == f"sv{self.largest}"]


README_SUPERVISOR = "fst v1\ninitial 0\nfinal 0 1\ntrans 0 s2 a3 1\ntrans 1 s2 a1 0\n"
README_TRACE = (
    "step 1: alpha=a3 alpha_c=a1 sigma=s2 sigma_c=s2\n"
    "step 2: alpha=a1 alpha_c=a2 sigma=s2 sigma_c=s2\n"
    "step 3: alpha=a3 alpha_c=a1 sigma=s2 sigma_c=s2\n"
    "step 4: alpha=a1 alpha_c=a2 sigma=s2 sigma_c=s2\n"
    "END max_steps\n"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


CLI_TRACED = Path(__file__).resolve().parent / "cli_traced.py"


class CliDemo(Workload):
    """Sequential cold `python -m fstlearn.cli` runs of the README quick start.

    In the traced run each invocation starts the same CLI through
    cli_traced.py, which records spans in the child; they are adopted
    under the op's span here.
    """

    name = "cli-demo"

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        self.root, self.env = root, child_env(root)
        out = workdir.relative_to(root)
        attacker, supervisor = str(out / "attacker.fst"), str(out / "supervisor.fst")
        sim_seed = str(inputs.loop_seed(seed))
        commands = [
            ("learn", ["learn", "--data", "demo/attacker_samples.txt", "--out", attacker], attacker),
            ("pipeline", ["pipeline", "--sensor-data", "demo/sensor_samples.txt",
                          "--actuator-data", "demo/attacker_samples.txt", "--plant", "demo/plant.fst",
                          "--mk", "demo/mk.fst", "--out", supervisor], supervisor),
            ("verify", ["verify", "--plant", "demo/plant.fst", "--supervisor", supervisor,
                        "--sensor-attacker", "demo/sensor_identity.fst",
                        "--actuator-attacker", attacker, "--mk", "demo/mk.fst"], None),
            ("simulate", ["simulate", "--plant", "demo/plant.fst", "--supervisor", supervisor,
                          "--sensor-attacker", "demo/sensor_identity.fst",
                          "--actuator-attacker", "demo/attacker.fst", "--steps", "4",
                          "--seed", sim_seed], None),
        ]
        self.spans_file = workdir / "cli-spans.json"
        self.ops = [Op(key, lambda argv=argv: self._invoke(argv), dict(out=path)) for key, argv, path in commands]
        self.demo_attacker = oracle.parse_fst_text((root / "demo" / "attacker.fst").read_text())
        self.digest = inputs.digest(
            sim_seed, [(p.name, p.read_bytes()) for p in sorted((root / "demo").iterdir())]
        )
        self._invoke(commands[1][1])  # warm-up: bytecode caches, file cache

    def _invoke(self, argv):
        tracer = self.tracer
        launch = ["-m", "fstlearn.cli"] if tracer is None else [str(CLI_TRACED), str(self.spans_file)]
        proc = subprocess.run(
            [sys.executable, *launch, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        if tracer is not None:
            tracer.adopt(**json.loads(self.spans_file.read_text(encoding="utf-8")))
        return proc.returncode, proc.stdout

    def summary(self, op, value):
        path = op.data["out"]
        written = (self.root / path).read_text() if path else None
        return value + (written,)

    def check(self, op, value, summary):
        code, stdout, written = summary
        expected = {"learn": "", "pipeline": "RESILIENT\n", "verify": "RESILIENT\n", "simulate": README_TRACE}
        if code != 0 or stdout != expected[op.key]:
            return f"{op.key}: exit {code}, stdout {stdout!r}"
        if op.key == "pipeline" and written != README_SUPERVISOR:
            return f"pipeline wrote {written!r}"
        if op.key == "learn" and oracle.language(oracle.parse_fst_text(written), 7) != oracle.language(
            self.demo_attacker, 7
        ):
            return "learned attacker differs from demo/attacker.fst"
        return None


WORKLOADS = {w.name: w for w in (LearnExhaustive, PipelineSparse, LoopRing, CliDemo)}


# ---------------------------------------------------------------- tracing


def trace_targets() -> list[tuple]:
    """Each layer's public functions, as the calling module sees them."""
    cli, spectral, supervisor = fstlearn.cli, fstlearn.spectral, fstlearn.supervisor
    targets = [
        (cli, "load_dataset", "formats.load_dataset"),
        (cli, "load_fst", "formats.load_fst"),
        (cli, "learn_pipeline", "spectral.learn_pipeline"),
        (spectral, "learn_pipeline", "spectral.learn_pipeline"),
        (spectral, "find_basis", "hankel.find_basis"),
        (spectral, "build_hankel_set", "hankel.build_hankel_set"),
        (spectral, "check_closed", "hankel.check_closed"),
        (spectral, "full_rank_decompose", "spectral.full_rank_decompose"),
        (spectral, "naturalize", "spectral.naturalize"),
        (spectral, "extract_tuple", "spectral.extract_tuple"),
        (spectral, "tuple_to_fst", "spectral.tuple_to_fst"),
        (cli, "synthesize", "supervisor.synthesize"),
        (supervisor, "synthesize", "supervisor.synthesize"),
        (cli, "verify_resilient", "supervisor.verify_resilient"),
        (supervisor, "verify_resilient", "supervisor.verify_resilient"),
        (fstlearn.loop, "step", "loop.step"),
    ]
    targets += [(supervisor, fn, f"fst.{fn}") for fn in FST_FUNCTIONS]
    return targets


FST_FUNCTIONS = ("compose", "intersect", "counterexample", "invert", "is_prefix_closed")

TIME_METRICS = {
    "formats.load_s": ("formats.load_dataset", "formats.load_fst"),
    "hankel.find_basis_s": ("hankel.find_basis",),
    "hankel.build_set_s": ("hankel.build_hankel_set",),
    "hankel.check_closed_s": ("hankel.check_closed",),
    "spectral.decompose_s": ("spectral.full_rank_decompose",),
    "spectral.naturalize_s": ("spectral.naturalize",),
    "spectral.extract_s": ("spectral.extract_tuple", "spectral.tuple_to_fst"),
    "fst.compose_s": ("fst.compose",),
    "fst.intersect_s": ("fst.intersect",),
    "fst.counterexample_s": ("fst.counterexample",),
    "fst.other_s": ("fst.invert", "fst.is_prefix_closed"),
}
SELF_METRICS = {
    "supervisor.synthesize_self_s": "supervisor.synthesize",
    "supervisor.verify_self_s": "supervisor.verify_resilient",
}


COUNT_METRICS = (
    "formats.letters_parsed", "hankel.candidate_cells", "hankel.distinct_cells",
    "hankel.mask_cells", "spectral.rank", "spectral.rejects.closedness",
    "spectral.rejects.naturality", "spectral.rejects.rank", "supervisor.resilient",
    "supervisor.not_resilient", "loop.ticks", "loop.alarms", "loop.deadlocks", "loop.empty_msgs",
    *(f"fst.calls.{fn}" for fn in FST_FUNCTIONS),
    "fst.result_states.compose", "fst.result_states.intersect",
)


def reject_stage(exc: BaseException) -> str | None:
    """Which learning gate an exception from learn_pipeline stands for."""
    if isinstance(exc, ClosednessError):
        return "closedness"
    if isinstance(exc, NaturalityError):
        return "naturality"
    if isinstance(exc, AnalysisError):  # DegenerateRankError, rank-deficient factors
        return "rank"
    return None


def call_counts(tracer: Tracer) -> dict:
    """Counters from the wrapped calls' arguments and results, plus those
    adopted from child processes; zero where a layer did no work."""
    spans = tracer.spans
    blocks: dict = {}  # (D, mask length) -> candidate_block(), computed once per dataset
    out = dict.fromkeys(COUNT_METRICS, 0)
    for name, count in tracer.counts.items():
        out[name] += count
    for call in tracer.calls:
        name = spans[call.span].name
        res = call.result
        if call.error is not None:
            if name == "spectral.learn_pipeline" and reject_stage(call.error):
                out[f"spectral.rejects.{reject_stage(call.error)}"] += 1
            continue
        if name == "formats.load_dataset":
            out["formats.letters_parsed"] += sum(map(len, res.words))
        elif name == "hankel.find_basis":
            d, max_len = call.args
            key = (d.words, max_len)
            if key not in blocks:
                blocks[key] = oracle.candidate_block(d.words, max_len)
            out["hankel.candidate_cells"] += blocks[key][0]
            out["hankel.distinct_cells"] += blocks[key][1]
            out["hankel.mask_cells"] += len(res.prefixes) * len(res.suffixes)
        elif name == "spectral.full_rank_decompose":
            out["spectral.rank"] += res.r
        elif name.startswith("fst."):
            fn = name[4:]
            out[f"fst.calls.{fn}"] += 1
            if f"fst.result_states.{fn}" in out:
                out[f"fst.result_states.{fn}"] += len(res.states)
        elif name == "supervisor.verify_resilient":
            out["supervisor.resilient" if res.resilient else "supervisor.not_resilient"] += 1
        elif name == "loop.step":
            kind, record, _ = res
            out["loop.deadlocks" if kind == fstlearn.loop.TERMINATED_DEADLOCK else "loop.ticks"] += 1
            out["loop.alarms"] += kind == fstlearn.loop.TERMINATED_ALARM
            if record is not None:
                out["loop.empty_msgs"] += sum(
                    x == EPS for x in (record.alpha, record.alpha_c, record.sigma, record.sigma_c)
                )
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per traced pass."""
    spans = tracer.spans
    out = dict(call_counts(tracer))
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.seconds)
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(sum(by_name.get(n, ())) for n in names)
    selfs = self_times(spans)
    for metric, name in SELF_METRICS.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.name == name)
    out = {k: v / passes for k, v in out.items()}
    cells = out["hankel.candidate_cells"]
    out["hankel.useful_cell_ratio"] = out["hankel.distinct_cells"] / cells if cells else 0.0

    op_names = {s.op: s.name for s in spans if s.parent < 0}
    for k in inputs.RINGS:
        ticks = [s.seconds * 1e6 for s in spans if s.name == "loop.step" and op_names[s.op] == f"run{k}"]
        out[f"loop.tick_us_p50.ring{k}"] = statistics.median(ticks) if ticks else 0.0

    roots = [(s, t) for s, t in zip(spans, selfs) if s.parent < 0]
    total = sum(s.seconds for s, _ in roots)
    out["trace.uncovered_share"] = sum(t for _, t in roots) / total if total else 0.0
    return out


def interpreter_costs(root: Path, repeats: int = 5) -> dict:
    """Cold interpreter start, and what importing fstlearn.cli adds to it.

    Medians of `python -c pass` and of `python -c 'import fstlearn.cli'`
    wall times; import_ms is the difference.
    """
    env = child_env(root)
    medians = []
    for code in ("pass", "import fstlearn.cli"):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=120)
            times.append((time.perf_counter() - t0) * 1e3)
        medians.append(statistics.median(times))
    return {"cli.interpreter_ms": medians[0], "cli.import_ms": medians[1] - medians[0]}
