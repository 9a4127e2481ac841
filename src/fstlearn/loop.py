"""Clocked supervisory control loop with channel attackers.

One tick runs five substeps: (1) the supervisor picks an outgoing
transition and commits to its output alpha, (2) the actuator attacker
rewrites alpha to alpha_c, (3) the plant consumes alpha_c and emits
sigma, (4) the sensor attacker rewrites sigma to sigma_c, (5) the
supervisor moves by a transition labeled (sigma_c, alpha) from the state
it committed in, or raises an alarm when none exists.

At substeps 2-4 a machine handed the empty message may take its implicit
stay; a machine handed a message it has no transition for ignores it and
emits the empty message (a stall, not a termination). Deadlock happens
only when the supervisor has no transition to choose at substep 1.

Every nondeterministic choice is drawn uniformly, as `randrange` draws,
by one seeded generator over sorted transition lists indexed once per
config, each stored with its length and draw width, so a (config, seed)
pair fixes the whole trace.

A run builds each distinct step record once and shares it among the
ticks that repeat it, so equal steps in one trace may be one object;
the table of records dies with the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .formats import symbol_to_text
from .errors import AnalysisError
from .fst import EPS, Fst, SampleSet, Word, is_prefix_closed, language_upto, trim

TERMINATED_MAX_STEPS = "max_steps"
TERMINATED_ALARM = "alarm"
TERMINATED_DEADLOCK = "deadlock"


@dataclass(frozen=True)
class LoopState:
    supervisor: str
    actuator: str
    plant: str
    sensor: str


@dataclass(frozen=True)
class StepRecord:
    """Symbols exchanged in one tick and the states after it."""

    alpha: str
    alpha_c: str
    sigma: str
    sigma_c: str
    states: LoopState


@dataclass(frozen=True)
class LoopConfig:
    plant: Fst
    supervisor: Fst
    sensor_attacker: Fst
    actuator_attacker: Fst
    max_steps: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("max_steps", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        for name in ("plant", "supervisor", "sensor_attacker", "actuator_attacker"):
            machine = getattr(self, name)
            if trim(machine) != machine:
                raise ValueError(f"{name} must be trim")

    @cached_property
    def _moves(self) -> tuple[dict, dict, dict, dict, dict]:
        """Each machine's moves by what it reads, built once: (actuator, plant, sensor, supervisor, commands).

        A mid-loop machine maps (state, in) to its (out, dst) options, a missing key being a stall;
        the supervisor maps (state, in, out) to its (dst,) options, and `commands` maps each
        supervisor state with a move to its outputs alpha, one per arc. Options keep `arcs` order
        with the implicit stay last, the order that fixes every draw, and each is stored draw-ready
        as (n, k, options), n = len(options) and k = n.bit_length(); tuples, which the collector skips.
        """
        index: tuple[dict, ...] = ({}, {}, {}, {})
        machines = (self.actuator_attacker, self.plant, self.sensor_attacker, self.supervisor)
        for machine, table, reads in zip(machines, index, (1, 1, 1, 2)):
            for state, moves in machine.arcs.items():
                for move in (*moves, (EPS, EPS, state)):
                    table.setdefault((state, *move[:reads]), []).append(move[reads:])
        commands = {state: [out for _, out, _ in moves] for state, moves in self.supervisor.arcs.items() if moves}
        return tuple(
            {key: (len(options), len(options).bit_length(), tuple(options)) for key, options in table.items()}
            for table in (*index, commands)
        )


@dataclass(frozen=True)
class LoopTrace:
    """The records of a run's ticks, in order; equal records may be one object."""

    steps: tuple[StepRecord, ...]
    terminated_by: str

    def plant_word(self) -> Word:
        return tuple((r.alpha_c, r.sigma) for r in self.steps if (r.alpha_c, r.sigma) != (EPS, EPS))

    def supervisor_word(self) -> Word:
        return tuple((r.sigma_c, r.alpha) for r in self.steps if (r.sigma_c, r.alpha) != (EPS, EPS))


def initial_state(cfg: LoopConfig) -> LoopState:
    return LoopState(
        cfg.supervisor.initial, cfg.actuator_attacker.initial, cfg.plant.initial, cfg.sensor_attacker.initial
    )


def _pick(bits, options):
    """options[rng.randrange(len(options))] for bits = rng.getrandbits, in two calls fewer.

    This is CPython's `_randbelow_with_getrandbits`, so the stream is the same; one option still draws.
    """
    n = len(options)
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return options[r]


def step(
    cfg: LoopConfig, states: LoopState, rng: random.Random, records: dict | None = None
) -> tuple[str, StepRecord | None, LoopState]:
    """One tick; returns ("ok" | "alarm" | "deadlock", record, new states).

    `records` maps a tick's symbols and new states to the record built for them, returned
    again when a tick repeats them; `run` passes one table per call, and without one the
    record is built fresh.
    """
    records = {} if records is None else records
    actuator, plant, sensor, supervisor, commands = cfg._moves
    drawn = commands.get(states.supervisor)
    if drawn is None:
        return TERMINATED_DEADLOCK, None, states
    # Each draw is _pick's, inlined on the stored (n, k, options): a tick makes no call to draw.
    bits = rng.getrandbits
    n, k, options = drawn
    r = bits(k)
    while r >= n:
        r = bits(k)
    alpha = options[r]

    # A mid-loop machine with no option for its symbol stalls and emits nothing.
    drawn = actuator.get((states.actuator, alpha))
    if drawn is None:
        alpha_c, act_state = EPS, states.actuator
    else:
        n, k, options = drawn
        r = bits(k)
        while r >= n:
            r = bits(k)
        alpha_c, act_state = options[r]
    drawn = plant.get((states.plant, alpha_c))
    if drawn is None:
        sigma, plant_state = EPS, states.plant
    else:
        n, k, options = drawn
        r = bits(k)
        while r >= n:
            r = bits(k)
        sigma, plant_state = options[r]
    drawn = sensor.get((states.sensor, sigma))
    if drawn is None:
        sigma_c, sensor_state = EPS, states.sensor
    else:
        n, k, options = drawn
        r = bits(k)
        while r >= n:
            r = bits(k)
        sigma_c, sensor_state = options[r]

    # The supervisor committed alpha before seeing sigma_c; it now moves
    # by any transition matching the observed pair, not necessarily the
    # arc it drew alpha from.
    drawn = supervisor.get((states.supervisor, sigma_c, alpha))
    if drawn is None:
        sup_state = states.supervisor
    else:
        n, k, options = drawn
        r = bits(k)
        while r >= n:
            r = bits(k)
        sup_state = options[r][0]

    key = (alpha, alpha_c, sigma, sigma_c, sup_state, act_state, plant_state, sensor_state)
    record = records.get(key)
    if record is None:
        new_states = LoopState(sup_state, act_state, plant_state, sensor_state)
        record = records[key] = StepRecord(alpha, alpha_c, sigma, sigma_c, new_states)
    return ("ok" if drawn else TERMINATED_ALARM), record, record.states


def run(cfg: LoopConfig) -> LoopTrace:
    rng = random.Random(cfg.seed)
    states = initial_state(cfg)
    records: dict = {}  # one per call, so no two runs share a record
    steps: list[StepRecord] = []
    for _ in range(cfg.max_steps):
        kind, record, states = step(cfg, states, rng, records)
        if record is not None:
            steps.append(record)
        if kind != "ok":  # TERMINATED_ALARM or TERMINATED_DEADLOCK
            return LoopTrace(steps=tuple(steps), terminated_by=kind)
    return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_MAX_STEPS)


def format_trace(trace: LoopTrace) -> str:
    lines = [
        "step {}: alpha={} alpha_c={} sigma={} sigma_c={}".format(
            k, *map(symbol_to_text, (rec.alpha, rec.alpha_c, rec.sigma, rec.sigma_c))
        )
        for k, rec in enumerate(trace.steps, start=1)
    ]
    lines.append(f"END {trace.terminated_by}")
    return "\n".join(lines) + "\n"


def sample_attacker(
    attacker: Fst, n_words: int, max_len: int, seed: int = 0, exhaustive: bool = False
) -> SampleSet:
    """Record attack words: seeded walks, or the whole bounded language.

    Walks stop with probability 0.25 at final states and always at
    max_len; only accepted words are kept, along with all their prefixes
    (recorded behavior is prefix-closed, so the attacker must be too).
    """
    if not is_prefix_closed(attacker):
        raise AnalysisError(
            "sample", "the attacker is not prefix-closed: it rejects a prefix of a word it accepts"
        )
    if exhaustive:
        return SampleSet.from_words(language_upto(attacker, max_len))
    rng = random.Random(seed)
    words: set[Word] = set()
    if attacker.initial in attacker.finals:
        words.add(())
    for _ in range(n_words):
        state = attacker.initial
        walk: list = []
        while len(walk) < max_len:
            if state in attacker.finals and rng.random() < 0.25:
                break
            outs = attacker.arcs[state]
            if not outs:
                break
            i, o, dst = _pick(rng.getrandbits, outs)
            walk.append((i, o))
            state = dst
        if state in attacker.finals:
            words.update(tuple(walk[:k]) for k in range(len(walk) + 1))
    return SampleSet.from_words(words)
