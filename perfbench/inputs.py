"""Seeded input generators, one per workload.

Every generator is a pure function of its arguments: it draws from its
own random.Random, seeded from the benchmark seed (pipeline-sparse's
walk recordings from a fixed one, see pipeline_scenarios), and builds machines
and recordings with the benchmark's own enumeration and walks
(oracle.py), never with the fstlearn functions being timed. Workloads
digest what was generated so that runs on different inputs are never
compared.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from oracle import Machine, count_words, language

PAIR_LETTERS = tuple((i, o) for i in ("x", "y") for o in ("u", "v"))
PLANT_LETTERS = tuple((a, s) for a in ("a1", "a2") for s in ("s1", "s2"))
SENSOR_SYMBOLS = ("s1", "s2")
ACTUATOR_SYMBOLS = ("a1", "a2")

# (states, machines, |D| window, candidate-block cell window). Tight
# windows keep a rung's time and memory nearly seed-independent; the top
# rung is the >= 100k-word dataset. Learn latency is taken on the n = 7
# rung, whose ~0.2 s ops are many per run.
LEARN_LADDER = (
    (5, 1, (1000, 4000), (0, 10**9)),
    (7, 4, (8000, 12000), (0, 10**9)),
    (9, 1, (20000, 30000), (200_000, 300_000)),
    (11, 1, (100_000, 115_000), (1_300_000, 1_700_000)),
)
LEARN_LADDER_QUICK = ((5, 1, (1000, 4000), (0, 10**9)), (7, 2, (2000, 4000), (0, 10**9)))
LEARN_LATENCY_STATES = 7

PIPELINE_SCENARIOS = 240
PIPELINE_SCENARIOS_QUICK = 12
# Scenario mix: state-dependent permutation attackers on both channels
# (RESILIENT expected); a sensor attacker that merges both readings in
# its initial state, so the supervisor cannot tell them apart
# (NOT_RESILIENT expected); and a minority of either kind recorded by
# sparse random walks instead of exhaustively.
PIPELINE_MIX = (("perm", 0.40), ("noninj", 0.35), ("walk", 0.25))

RINGS = (10, 100, 1000)
RINGS_QUICK = (10, 100)
TICKS_PER_RING = 500
TICKS_PER_RING_QUICK = 100


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _reachable(m: Machine) -> set:
    seen, stack = {m.initial}, [m.initial]
    while stack:
        for _, dst in m.arcs.get(stack.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _trim(m: Machine) -> Machine:
    keep = _reachable(m)
    return Machine(m.initial, m.finals & keep, {s: a for s, a in m.arcs.items() if s in keep})


def random_dfa(rng: random.Random, n: int, letters, max_degree: int = 2) -> Machine:
    """Deterministic all-final machine, out-degree 1..max_degree per state."""
    arcs = {}
    for q in range(n):
        picks = sorted(rng.sample(letters, rng.randint(1, max_degree)))
        arcs[str(q)] = [(letter, str(rng.randrange(n))) for letter in picks]
    return Machine("0", frozenset(arcs), arcs)


def _minimal_states(m: Machine) -> int:
    """Moore refinement of a deterministic all-final machine (implicit sink)."""
    states = sorted(m.arcs)
    letters = sorted({letter for outs in m.arcs.values() for letter, _ in outs})
    delta = {s: dict(m.arcs[s]) for s in states}
    cls = {s: 0 for s in states}
    while True:
        sig: dict = {}
        new = {
            s: sig.setdefault(
                (cls[s], *(cls.get(delta[s].get(l), -1) for l in letters)), len(sig)
            )
            for s in states
        }
        if len(sig) == len(set(cls.values())):
            return len(sig)
        cls = new


def candidate_block_shape(m: Machine, n: int) -> tuple[int, int, int]:
    """(rank, prefixes, suffixes) of the full candidate Hankel block.

    For the exhaustive sample to 2n+1 of an n-state machine whose states
    all have out-degree >= 1, the learner's mask length is n and every
    candidate prefix row equals the row of the state it reaches:
    [suffix readable from that state]. So the block's rank is the rank
    of that state-by-suffix matrix, its prefixes are the words of length
    <= n, and its suffixes are the words of length <= n readable anywhere.
    """
    rows = [language(Machine(q, frozenset(m.arcs), m.arcs), n) for q in sorted(m.arcs)]
    cols = sorted(set().union(*rows))
    mat = np.array([[w in r for w in cols] for r in rows], dtype=float)
    return int(np.linalg.matrix_rank(mat)), len(rows[sorted(m.arcs).index(m.initial)]), len(cols)


def learn_shapes(n: int, count: int, words: tuple, cells: tuple) -> list[Machine]:
    """The first `count` minimal n-state machines with full Hankel rank,
    |D| and candidate-block size in the windows."""
    rng = random.Random(f"learn-shape-{n}")
    shapes: list[Machine] = []
    while len(shapes) < count:
        m = random_dfa(rng, n, PAIR_LETTERS)
        if len(_reachable(m)) != n or not words[0] <= count_words(m, 2 * n + 1) <= words[1]:
            continue
        if _minimal_states(m) != n:
            continue
        rank, prefixes, suffixes = candidate_block_shape(m, n)
        if rank == n and cells[0] <= prefixes * suffixes <= cells[1]:
            shapes.append(m)
    return shapes


def learn_machines(seed: int, n: int, count: int, words: tuple, cells: tuple) -> list[Machine]:
    """The rung's machine shapes with letters and states relabelled by the seed.

    Relabelling keeps |D|, the candidate block and its rank, so a rung
    costs about the same for every seed while its recordings differ.
    """
    out = []
    for i, shape in enumerate(learn_shapes(n, count, words, cells)):
        rng = random.Random(f"learn-{seed}-{n}-{i}")
        letter = dict(zip(PAIR_LETTERS, rng.sample(PAIR_LETTERS, len(PAIR_LETTERS))))
        state = dict(zip(sorted(shape.arcs), (f"q{v}" for v in rng.sample(range(n), n))))
        arcs = {state[q]: [(letter[l], state[d]) for l, d in outs] for q, outs in shape.arcs.items()}
        out.append(Machine(state[shape.initial], frozenset(arcs), arcs))
    return out


def channel_attacker(rng: random.Random, symbols, n: int, injective: bool) -> Machine:
    """n-state attacker rewriting each symbol by a state-dependent map.

    Every state is reachable; a non-injective attacker maps all symbols
    to one in its initial state.
    """
    while True:
        arcs = {}
        for q in range(n):
            image = list(symbols)
            rng.shuffle(image)
            if not injective and q == 0:
                image = [image[0]] * len(symbols)
            arcs[str(q)] = [((a, b), str(rng.randrange(n))) for a, b in zip(symbols, image)]
        m = Machine("0", frozenset(arcs), arcs)
        if len(_reachable(m)) == n:
            return m


def walk_recording(rng: random.Random, m: Machine, walks: int, max_len: int) -> set:
    """Prefix-closed words of a few seeded random walks (all-final m)."""
    words = {()}
    for _ in range(walks):
        state, word = m.initial, ()
        for _ in range(rng.randint(1, max_len)):
            outs = m.arcs.get(state)
            if not outs:
                break
            letter, state = outs[rng.randrange(len(outs))]
            word += (letter,)
            words.add(word)
    return words


def dataset_text(words) -> str:
    def letter(l):
        return ":".join(sym or "<eps>" for sym in l)

    lines = [" ".join(map(letter, w)) or "<empty>" for w in sorted(words, key=lambda w: (len(w), w))]
    return "\n".join(lines) + "\n"


def pipeline_scenarios(seed: int, count: int) -> list[dict]:
    """Scenario specs: kind, desired machine, and both channels' recordings.

    The walk scenarios' attackers and recordings come from one fixed
    stream for every seed (their desired machines stay seeded). Which
    walk recordings hit the consistency gap then does not depend on the
    seed, so every run fails the same share of its ops, whatever its seed.
    """
    rng = random.Random(f"pipeline-{seed}")
    walk_rng = random.Random("pipeline-walks")
    kinds = [k for k, share in PIPELINE_MIX for _ in range(round(share * count))]
    kinds += ["perm"] * (count - len(kinds))
    # Machine sizes cycle through every combination instead of being
    # drawn, so the cost mix of a run does not depend on the seed.
    sizes = [(s, a, k) for s in range(1, 5) for a in range(1, 5) for k in range(1, 4)]
    out = []
    for i, kind in enumerate(kinds):
        n_sensor, n_actuator, n_desired = sizes[i % len(sizes)]
        draw = walk_rng if kind == "walk" else rng
        merging = kind == "noninj" or (kind == "walk" and draw.random() < 0.5)
        attackers = {
            "sensor": channel_attacker(draw, SENSOR_SYMBOLS, n_sensor, injective=not merging),
            "actuator": channel_attacker(draw, ACTUATOR_SYMBOLS, n_actuator, injective=True),
        }
        recordings = {}
        for side, m in attackers.items():
            horizon = 2 * len(m.arcs) + 1
            if kind == "walk":
                recordings[side] = walk_recording(draw, m, draw.randint(2, 6), horizon)
            else:
                recordings[side] = language(m, horizon)
        m_k = _trim(random_dfa(rng, n_desired, PLANT_LETTERS))
        expected = "NOT_RESILIENT" if merging else "RESILIENT"
        out.append(dict(kind=kind, expected=expected, m_k=m_k, attackers=attackers, recordings=recordings))
    return out


def ring(seed: int, k: int) -> Machine:
    """k-state desired-behaviour ring alternating (a1:s2)(a2:s2), seeded state names."""
    names = [f"r{v}" for v in random.Random(f"ring-{seed}-{k}").sample(range(10 * k), k)]
    arcs = {
        names[i]: [(("a1" if i % 2 == 0 else "a2", "s2"), names[(i + 1) % k])] for i in range(k)
    }
    return Machine(names[0], frozenset(names), arcs)


def loop_seed(seed: int) -> int:
    return random.Random(f"loop-{seed}").randrange(2**31)
