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

Every nondeterministic choice is resolved uniformly by one seeded
generator over sorted transition lists, so a (config, seed) pair fixes
the whole trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        for name in ("plant", "supervisor", "sensor_attacker", "actuator_attacker"):
            machine = getattr(self, name)
            if trim(machine) != machine:
                raise ValueError(f"{name} must be trim")


@dataclass(frozen=True)
class LoopTrace:
    steps: tuple[StepRecord, ...]
    terminated_by: str

    def plant_word(self) -> Word:
        return tuple(
            (rec.alpha_c, rec.sigma) for rec in self.steps if (rec.alpha_c, rec.sigma) != (EPS, EPS)
        )

    def supervisor_word(self) -> Word:
        return tuple(
            (rec.sigma_c, rec.alpha) for rec in self.steps if (rec.sigma_c, rec.alpha) != (EPS, EPS)
        )


def initial_state(cfg: LoopConfig) -> LoopState:
    return LoopState(
        supervisor=cfg.supervisor.initial,
        actuator=cfg.actuator_attacker.initial,
        plant=cfg.plant.initial,
        sensor=cfg.sensor_attacker.initial,
    )


def _relay(machine: Fst, state: str, symbol: str, rng: random.Random) -> tuple[str, str]:
    """Feed one symbol through a mid-loop machine; returns (state, output).

    Eligible moves are the explicit transitions consuming the symbol,
    plus the implicit stay when the symbol is the empty message. With no
    eligible move the machine stalls in place and emits nothing.
    """
    options = [(o, dst) for (i, o, dst) in machine.arcs[state] if i == symbol]
    if symbol == EPS:
        options.append((EPS, state))
    if not options:
        return state, EPS
    out, dst = options[rng.randrange(len(options))]
    return dst, out


def step(cfg: LoopConfig, states: LoopState, rng: random.Random) -> tuple[str, StepRecord | None, LoopState]:
    """One tick; returns ("ok" | "alarm" | "deadlock", record, new states)."""
    sup_moves = cfg.supervisor.arcs[states.supervisor]
    if not sup_moves:
        return TERMINATED_DEADLOCK, None, states
    alpha = sup_moves[rng.randrange(len(sup_moves))][1]

    act_state, alpha_c = _relay(cfg.actuator_attacker, states.actuator, alpha, rng)
    plant_state, sigma = _relay(cfg.plant, states.plant, alpha_c, rng)
    sensor_state, sigma_c = _relay(cfg.sensor_attacker, states.sensor, sigma, rng)

    # The supervisor committed alpha before seeing sigma_c; it now moves
    # by any transition matching the observed pair, not necessarily the
    # arc it drew alpha from.
    matches = [dst for (i, o, dst) in sup_moves if i == sigma_c and o == alpha]
    if (sigma_c, alpha) == (EPS, EPS):
        matches.append(states.supervisor)
    alarmed = not matches
    sup_state = states.supervisor if alarmed else matches[rng.randrange(len(matches))]

    new_states = LoopState(supervisor=sup_state, actuator=act_state, plant=plant_state, sensor=sensor_state)
    record = StepRecord(alpha=alpha, alpha_c=alpha_c, sigma=sigma, sigma_c=sigma_c, states=new_states)
    return (TERMINATED_ALARM if alarmed else "ok"), record, new_states


def run(cfg: LoopConfig) -> LoopTrace:
    rng = random.Random(cfg.seed)
    states = initial_state(cfg)
    steps: list[StepRecord] = []
    for _ in range(cfg.max_steps):
        kind, record, states = step(cfg, states, rng)
        if kind == TERMINATED_DEADLOCK:
            return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_DEADLOCK)
        steps.append(record)
        if kind == TERMINATED_ALARM:
            return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_ALARM)
    return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_MAX_STEPS)


def format_trace(trace: LoopTrace) -> str:
    lines = [
        "step {}: alpha={} alpha_c={} sigma={} sigma_c={}".format(
            k,
            symbol_to_text(rec.alpha),
            symbol_to_text(rec.alpha_c),
            symbol_to_text(rec.sigma),
            symbol_to_text(rec.sigma_c),
        )
        for k, rec in enumerate(trace.steps, start=1)
    ]
    lines.append(f"END {trace.terminated_by}")
    return "\n".join(lines) + "\n"


def sample_attacker(
    attacker: Fst,
    n_words: int,
    max_len: int,
    seed: int = 0,
    exhaustive: bool = False,
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
            i, o, dst = outs[rng.randrange(len(outs))]
            walk.append((i, o))
            state = dst
        if state in attacker.finals:
            for k in range(len(walk) + 1):
                words.add(tuple(walk[:k]))
    return SampleSet.from_words(words)
