"""Seeded benchmark of fstlearn: four closed-loop workloads, one process each.

    python3 perfbench/run.py --workload learn-exhaustive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With --trace 0 the last stdout line is
a JSON object holding every end-to-end metric; with --trace 1 it holds
every per-layer metric, measured by wrapping each layer's public
functions in this process only. The line before it is a JSON record of
the input digest, the environment, raw wall-clock figures and the
workload's details. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Thread counts and hash seed must be fixed before numpy is imported and
# before the interpreter starts, so re-execute once with them pinned.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from probe import Probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("learn-exhaustive", "pipeline-sparse", "loop-ring", "cli-demo")
SETUP_REPEATS = 3
# Seconds the gauge kernel (probe.py) takes on the machine the baseline
# was recorded on (2-vCPU Xeon VM, Python 3.11) in a quiet period; sets
# the scale of the reference-speed times.
PROBE_REFERENCE_S = 0.004
# A gauge reading and the collection after it take ~35 ms, more than
# three typical pipeline-sparse ops, so short ops share one: the gauge
# is read once the ops timed since the last reading add up to this many
# seconds. The host's speed moves on a scale of seconds.
GAUGE_EVERY_S = 0.1


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so the gauge helper and every child it starts
    later, to one CPU; returns (CPUs allowed before, the CPU chosen).

    Timed on a different CPU than the op, the gauge tracks the host's
    speed poorly (readings paired with the in-process kernel spread 4.6 %
    in one-second buckets); on the same CPU it tracks it within 1.5 %.
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def import_program() -> float:
    """Import fstlearn from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "fstlearn" / "__init__.py").is_file() or not (ROOT / "demo").is_dir():
        raise SystemExit(f"error: {ROOT} is not an fstlearn checkout (src/fstlearn, demo/)")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fstlearn

    seconds = time.perf_counter() - t0
    if Path(fstlearn.__file__).resolve().parent != src / "fstlearn":
        raise SystemExit(f"error: imported fstlearn from {fstlearn.__file__}, not {src}")
    return seconds


def environment(nproc: int, cpu_index: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "pinned_cpu": cpu_index,
        "cpu": cpu,
        **{k: os.environ.get(k) for k in PINNED},
    }


class Record(NamedTuple):
    op: object
    seconds: float  # wall time rescaled to reference speed
    raw: float  # wall time as measured
    digest: str  # of the op's output summary
    units: float  # work units completed


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time, given the gauge
    readings just before and just after the timed work."""
    return 2 * PROBE_REFERENCE_S / (before + after)


class Run:
    """Timed records of one process, plus each op's first outcome.

    Records keep digests, not output summaries, so the benchmark's own
    heap stays small and adds nothing to the collector's work in an op.
    """

    def __init__(self, wl, probe: Probe):
        self.wl = wl
        self.probe = probe
        self.records: list[Record] = []
        self.firsts: dict = {}
        self.consistent = True
        gc.collect()
        self._gauge = probe()
        self._pending: list[Record] = []  # timed since the last gauge reading

    def _timed(self, op, tracer):
        from fstlearn.errors import AnalysisError

        with tracer.op(op.key) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                value, status = op.fn(), "ok"
            except AnalysisError as exc:  # a documented negative verdict about the inputs
                value, status = exc, "verdict"
            except Exception as exc:  # an op that crashes is counted, not fatal
                value, status = exc, "error"
            raw = time.perf_counter() - t0
        return status, value, raw

    def _settle(self) -> None:
        """Read the gauge and rescale every op timed since the last reading;
        one reading is the "after" of those ops and the "before" of the next.
        Then empty the collector, so the next ops start from its empty state
        instead of the benchmark's garbage."""
        before, self._gauge = self._gauge, self.probe()
        factor = scale(before, self._gauge)
        self.records += [r._replace(seconds=r.raw * factor) for r in self._pending]
        self._pending = []
        gc.collect()

    def passes(self, seconds: float, tracer=None) -> int:
        """Whole passes over the ops until `seconds` have elapsed (at least one)."""
        from inputs import digest
        from workloads import outcome_summary

        deadline = time.perf_counter() + seconds
        count = 0
        while True:
            for op in self.wl.ops:
                status, value, raw = self._timed(op, tracer)
                ok = status == "ok"
                summary = self.wl.summary(op, value) if ok else outcome_summary(status, value)
                units = self.wl.units(op, value) if ok else 0
                rec = Record(op, raw, raw, digest(summary), units)
                self._pending.append(rec)
                if sum(r.raw for r in self._pending) >= GAUGE_EVERY_S:
                    self._settle()
                first = self.firsts.setdefault(op.key, (status, value, summary, rec.digest))
                self.consistent &= rec.digest == first[3]
            count += 1
            if time.perf_counter() >= deadline:
                if self._pending:
                    self._settle()
                return count

    def problems(self) -> dict:
        return {op.key: self.wl.problem(op, *self.firsts[op.key][:3]) for op in self.wl.ops}

    def vouched(self, problems: dict) -> bool:
        """Every pass gave the same outputs and every failed check is a known gap."""
        return self.consistent and all(
            p is None or self.wl.tolerated(op, p) for op in self.wl.ops for p in [problems[op.key]]
        )


def metric(value, unit):
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us" if ".tick_us_" in name else "count"


def traced_layers(run: Run, workload: str, seconds: float) -> tuple[dict, int]:
    """Per-layer metrics from traced passes after two untraced ones.

    The first untraced pass warms caches and gives the reference outputs;
    the second is the untraced timing that tracing overhead is taken
    against, measured before the tracer's span and call logs grow the heap.
    Overhead compares raw wall times.
    """
    import workloads
    from spans import Tracer

    run.passes(0.0)
    start = len(run.records)
    run.passes(0.0)
    untraced = sum(r.raw for r in run.records[start:])
    start = len(run.records)
    tracer = Tracer()
    tracer.install(workloads.trace_targets())
    run.wl.tracer = tracer
    try:
        passes = run.passes(seconds, tracer)
    finally:
        tracer.uninstall()
        run.wl.tracer = None
    layers = workloads.layer_metrics(tracer, passes)
    traced = sum(r.raw for r in run.records[start:]) / passes
    layers["trace.overhead_ratio"] = traced / untraced - 1
    layers.update(
        workloads.interpreter_costs(ROOT) if workload == "cli-demo"
        else {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}
    )
    tracer.dump(WORKDIR / workload / "spans.jsonl")
    return layers, passes


def setup_in_child(cls, workdir: Path, args) -> tuple[float, str]:
    """Set the workload up once more in a forked child; returns the
    child's set-up seconds and input digest. The copy dies with the child."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # the child never returns: no cleanup, the probe helper is the parent's
        try:
            os.close(read_fd)
            gc.freeze()  # the parent's objects stay out of the child's collections
            t0 = time.perf_counter()
            wl = cls(ROOT, workdir, args.seed, args.quick)
            os.write(write_fd, f"{time.perf_counter() - t0!r} {wl.digest}".encode())
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="ascii") as fh:
        reply = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not reply:
        raise SystemExit(f"error: set-up in a child process failed (wait status {status})")
    raw, digest = reply.split()
    return float(raw), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one pass (self-test)")
    args = parser.parse_args(argv)

    nproc, cpu_index = pin_to_one_cpu()
    with Probe() as probe:
        return measure(args, probe, environment_info=(nproc, cpu_index))


def measure(args, probe: Probe, environment_info: tuple) -> int:
    before = probe()
    import_s = import_program()
    import_scale = scale(before, probe())
    import workloads
    from spans import percentile

    cls = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    seconds = 0.0 if args.quick else args.seconds

    gc.collect()
    before = probe()
    t0 = time.perf_counter()
    wl = cls(ROOT, workdir, args.seed, args.quick)
    setups = [(time.perf_counter() - t0, scale(before, probe()))]

    run = Run(wl, probe)
    if traced:
        layers, passes = traced_layers(run, args.workload, seconds)
    else:
        passes = run.passes(seconds)
        rss_kind = resource.RUSAGE_CHILDREN if args.workload == "cli-demo" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024

    problems = run.problems()

    # Set up several times so set-up time is a median. The repeats run
    # after the timed passes, each in a forked child, so the process that
    # runs the ops never holds another copy's garbage (it moved the
    # learn-exhaustive peak RSS by 20 MB from seed to seed) and its peak
    # RSS is read before they exist.
    digests = {wl.digest}
    for _ in range(0 if traced or args.quick else SETUP_REPEATS - 1):
        before = probe()
        raw, digest = setup_in_child(cls, workdir, args)
        setups.append((raw, scale(before, probe())))
        digests.add(digest)
    setup_raw = import_s + statistics.median(raw for raw, _ in setups)
    setup_s = import_s * import_scale + statistics.median(raw * s for raw, s in setups)

    # Counted over the run's distinct ops: each is checked by its oracle
    # on its first outcome, and every repeat must give the same output
    # (else `correct` is false), so the counts do not depend on how many
    # passes fit in the run.
    failed = sum(1 for op in wl.ops if problems[op.key])
    attempted = len(wl.ops)
    correct = run.vouched(problems) and len(digests) == 1
    per_s, samples = wl.work(run.records)
    raw_per_s, raw_samples = wl.work([r._replace(seconds=r.raw) for r in run.records])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "inputs_digest": wl.digest,
        "passes": passes, "ops_per_pass": len(wl.ops), "environment": environment(*environment_info),
        "raw_wall_clock": {
            "setup_s": setup_raw, "setup_runs_s": [raw for raw, _ in setups], "work_per_s": raw_per_s,
            "op_ms_p50": percentile(raw_samples, 50), "op_ms_p95": percentile(raw_samples, 95),
            "speed_vs_reference": statistics.median(r.seconds / r.raw for r in run.records),
        },
        "details": {**wl.details({k: v[:2] for k, v in run.firsts.items()}),
                    "problems": {k: v for k, v in problems.items() if v}},
    }))

    if traced:
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ok_rate": metric(1 - failed / attempted, "ratio"),
            "work_per_s": metric(per_s, "1/s"),
            "op_ms_p50": metric(percentile(samples, 50), "ms"),
            "op_ms_p95": metric(percentile(samples, 95), "ms"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
