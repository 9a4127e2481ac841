"""Characterization tests: seeded inputs whose outputs must stay byte-identical.

Each family draws its inputs from its own random.Random(SEED), with randrange
and random only, whose streams are the same on every supported CPython, and
states each input and its result as text. identity_digests.json keeps one
short digest per input, in order, so a failing family names itself and prints
the first input whose result changed, with that result.

The readme family runs the README's command lines in order, each in a fresh
`python -m fstlearn.cli` inside a copy of demo/. Every output the README shows
is compared with the text README.md holds when the test runs; what it does not
show (exit codes, stderr, the files written) is digested.

A changed digest is a behaviour change. Regenerate the file with

    PYTHONPATH=src python tests/test_identity.py

and name the family that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

import fstlearn
from fstlearn import (
    EPS,
    Fst,
    FstlearnError,
    LoopConfig,
    SampleSet,
    compose,
    counterexample,
    format_trace,
    fst_to_text,
    identity_fst,
    intersect,
    invert,
    is_prefix_closed,
    learn_pipeline,
    load_fst,
    minimize,
    pattern_to_fst,
    run,
    sample_attacker,
    sampleset_to_text,
    save_fst,
    synthesize,
    trim,
    verify_resilient,
    word_to_text,
)

SEED = 2025
DIGESTS = Path(__file__).with_name("identity_digests.json")
ROOT = Path(__file__).resolve().parent.parent
# The src/ directory fstlearn is imported from, for the command line run as a child process.
SRC = str(Path(fstlearn.__file__).resolve().parent.parent)


def _letters(ins, outs):
    return [(i, o) for i in ins for o in outs if (i, o) != (EPS, EPS)]


def _machine(rng, letters, n_arcs, final=0.5) -> Fst:
    """Up to four states "0".., n_arcs random arcs over letters, each state final with probability final."""
    states = tuple(str(k) for k in range(1 + rng.randrange(4)))
    arcs = [
        (states[rng.randrange(len(states))], *letters[rng.randrange(len(letters))], states[rng.randrange(len(states))])
        for _ in range(n_arcs)
    ]
    return Fst(states, "0", frozenset(arcs), frozenset(s for s in states if rng.random() < final))


def _show(m: Fst) -> str:
    return f"states {' '.join(m.states)}\n{fst_to_text(m)}"


def _word(w) -> str:
    return "None" if w is None else word_to_text(w)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}\n"


def algebra():
    """trim, compose, intersect and minimize, counterexample and is_prefix_closed on machines with eps letters."""
    rng = random.Random(SEED)
    letters = _letters(("a", "b", EPS), ("a", "b", EPS))
    for _ in range(300):
        a, b = (_machine(rng, letters, rng.randrange(12)) for _ in range(2))
        results = [_show(trim(a)), _show(compose(a, b)), _show(intersect(a, b)), _show(minimize(a))]
        results += [_word(counterexample(a, b)), _word(counterexample(a, intersect(a, b))), str(is_prefix_closed(a))]
        yield _show(a) + _show(b), "\n".join(results)


PATTERN_ITEMS = ("(a:x)", "(b:u)", "(x:<eps>)", "(<eps>:u)", "(a1:s2)", "(a2:s2)")
PATTERN_MUTANTS = ("(", ")", "*", "(<eps>:<eps>)", "(a)", "x:u", "(a#:u)", "(*:u)", "(x:<empty>)", "(a:b:c)", "()")


def _pattern(rng, depth=0) -> str:
    parts = []
    for _ in range(1 + rng.randrange(3)):
        pick = rng.random()
        if pick < 0.06:
            item = PATTERN_MUTANTS[rng.randrange(len(PATTERN_MUTANTS))]
        elif pick < 0.35 and depth < 3:
            item = f"({_pattern(rng, depth + 1)})"
        else:
            item = PATTERN_ITEMS[rng.randrange(len(PATTERN_ITEMS))]
        parts.append(item + ("*" if rng.random() < 0.4 else ""))
    return "".join(parts)


def pattern():
    """pattern_to_fst's machine, or the class and message of its exception."""
    rng = random.Random(SEED)
    for _ in range(300):
        text = _pattern(rng)
        try:
            result = _show(pattern_to_fst(text))
        except FstlearnError as exc:
            result = _error(exc)
        yield text, result


ATTACK_LETTERS = _letters(("x", "y", EPS), ("u", "v", EPS))


def learn():
    """learn_pipeline's mask and machine, or its gate's message, on exhaustive and walk-style recordings."""
    rng = random.Random(SEED)
    for _ in range(200):
        states = tuple(str(k) for k in range(2 + rng.randrange(4)))  # deterministic, so that its rank is high
        arcs = [(s, *letter, states[rng.randrange(len(states))]) for s in states for letter in ATTACK_LETTERS
                if rng.random() < 0.3]
        attacker = Fst(states, "0", frozenset(arcs), frozenset(states))
        kind, max_len, seed = rng.randrange(4), 3 + rng.randrange(5), rng.randrange(1000)
        if kind == 0:
            d = sample_attacker(attacker, 0, max_len, exhaustive=True)
        else:
            d = sample_attacker(attacker, 1 + rng.randrange(40), max_len + 3, seed=seed)
        if kind == 2:  # a sparse set: some of the words, with the empty word
            d = SampleSet.from_words([w for w in sorted(d.words) if not w or rng.random() < 0.7])
        elif kind == 3:  # without the empty word
            d = SampleSet.from_words(d.words - {()})
        try:
            res = learn_pipeline(d)
            result = "prefixes {}\nsuffixes {}\n{}".format(
                *(" | ".join(map(word_to_text, side)) for side in (res.mask.prefixes, res.mask.suffixes)),
                fst_to_text(res.fst),
            )
        except FstlearnError as exc:
            result = _error(exc)
        yield f"{_show(attacker)}kind {kind} max_len {max_len} seed {seed}", sampleset_to_text(d) + result


ACTS, SENSES = ("a1", "a2", "a3"), ("s1", "s2")


def supervisor():
    """synthesize's supervisor and warnings, and verify_resilient's verdict and witness for it and for invert(m_k)."""
    rng = random.Random(SEED)
    for _ in range(100):
        plant = _machine(rng, _letters(ACTS[:2], SENSES), 1 + rng.randrange(7), final=1.0)
        m_k = _machine(rng, _letters(ACTS[:2], SENSES), 1 + rng.randrange(7), final=0.8)
        if rng.random() < 0.5:
            sensor = identity_fst(SENSES)
        else:
            sensor = _machine(rng, _letters((*SENSES, EPS), (*SENSES, EPS)), 1 + rng.randrange(5), final=1.0)
        actuator = _machine(rng, _letters((*ACTS, EPS), (*ACTS, EPS)), 1 + rng.randrange(6), final=1.0)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sup = synthesize(m_k, sensor, actuator)
            results = [_show(sup), *(f"warning: {w.message}" for w in caught)]
            for s in (sup, invert(m_k)):
                res = verify_resilient(plant, s, sensor, actuator, m_k)
                results.append(f"resilient {res.resilient} witness {_word(res.witness)}")
            result = "\n".join(results)
        except FstlearnError as exc:
            result = _error(exc)
        yield "".join(map(_show, (plant, m_k, sensor, actuator))), result


def _loop_machine(rng, arcs_of) -> Fst:
    """Up to three states, all final, trimmed; arcs_of(state, states) lists a state's arcs."""
    states = tuple(str(k) for k in range(1 + rng.randrange(3)))
    return trim(Fst(states, "0", frozenset(a for s in states for a in arcs_of(s, states)), frozenset(states)))


def loop():
    """Seeded loop.run traces. A mid-loop machine has zero to four arcs per state and symbol read,
    so a draw there has up to five options with the stay; a supervisor state reads most sigma back
    for each command alpha it has, some by two arcs, so it draws among none or two and more."""
    rng = random.Random(SEED)
    acts, senses = ("a1", "a2", EPS), ("s1", "s2", EPS)

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    def mid(ins, outs):
        return lambda s, states: [
            (s, i, pick([o for o in outs if (i, o) != (EPS, EPS)]), pick(states))
            for i in ins for _ in range(rng.randrange(5))
        ]

    def commands(s, states):
        return [(s, i, o, pick(states)) for o in acts[:2] if rng.random() < 0.75
                for i in senses if i or rng.random() < 0.6 for _ in range(1 + (rng.random() < 0.25))]

    for _ in range(200):
        sup = _loop_machine(rng, commands)
        actuator, plant, sensor = (
            _loop_machine(rng, mid(*io)) for io in ((acts, acts), (acts, senses), (senses, senses))
        )
        cfg = LoopConfig(plant=plant, supervisor=sup, sensor_attacker=sensor, actuator_attacker=actuator,
                         max_steps=1 + rng.randrange(40), seed=rng.randrange(10**6))
        machines = "".join(map(_show, (plant, sup, sensor, actuator)))
        yield f"{machines}max_steps {cfg.max_steps} seed {cfg.seed}", format_trace(run(cfg))


# The flags that the "..." of the README's naive verify line stands for.
ELIDED = ["--sensor-attacker", "demo/sensor_identity.fst", "--actuator-attacker", "demo/attacker.fst",
          "--mk", "demo/mk.fst"]


def _readme_commands(readme: str) -> list[list]:
    """Each fstlearn command of README.md's sh blocks, in order, as [argv, the stdout the README shows or None].

    In a block of `$ ` lines the README shows the lines up to the next one; beside a bare
    command line, the word of a `# prints WORD` comment."""
    commands: list[list] = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", "").splitlines():
            if line.startswith("$ "):
                commands.append([shlex.split(line[2:]), ""])
            elif block.startswith("$ "):
                commands[-1][1] += line + "\n"
            else:
                shown = re.search(r"# prints ([A-Z_]+)$", line)
                commands.append([shlex.split(line, comments=True), shown and shown[1] + "\n"])
    return [c for c in commands if c[0][:1] == ["fstlearn"]]


def readme():
    """The README's command lines, then its quick-start loop for 1000 steps.

    A command's stdout the README shows, under it or under the same command
    line elsewhere, and the supervisor file it shows, are compared with
    README.md; the rest is this family's output."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    supervisor_block = re.search(r"\n```\n(fst v1\n.*?)```", text, re.S)[1]
    commands = _readme_commands(text)
    shown = {tuple(argv): out for argv, out in commands if out is not None}
    trace = next(argv for argv in shown if argv[1] == "simulate")
    period = re.findall(r"step [12]: (.*)", shown[trace])
    steps = [*trace[: trace.index("--steps") + 1], "1000", *trace[trace.index("--steps") + 2 :]]
    shown[tuple(steps)] = "".join(f"step {k}: {period[(k - 1) % 2]}\n" for k in range(1, 1001)) + "END max_steps\n"
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "demo", Path(tmp, "demo"))
        save_fst(invert(load_fst(ROOT / "demo" / "mk.fst")), Path(tmp, "naive.fst"))
        for argv in [*(argv for argv, _ in commands), steps]:
            args = [a for arg in argv[1:] for a in (ELIDED if arg == "..." else [arg])]
            proc = subprocess.run([sys.executable, "-m", "fstlearn.cli", *args], cwd=tmp, capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
            line = " ".join(argv)
            result = f"exit {proc.returncode}\nstderr:\n{proc.stderr}"
            if tuple(argv) in shown:
                assert proc.stdout == shown[tuple(argv)], f"readme: {line} prints what README.md does not show"
            else:
                result += f"stdout:\n{proc.stdout}"
            out = args[args.index("--out") + 1] if "--out" in args else None
            if out == "supervisor.fst":
                written = Path(tmp, out).read_text(encoding="utf-8")
                assert written == supervisor_block, f"readme: {line} writes another supervisor than README.md shows"
            elif out:
                result += f"{out}:\n" + Path(tmp, out).read_text(encoding="utf-8")
            yield line, result


FAMILIES = {f.__name__: f for f in (algebra, pattern, learn, supervisor, loop, readme)}


def _digest(case: tuple[str, str]) -> str:
    return hashlib.sha256("\0".join(case).encode()).hexdigest()[:12]


@pytest.mark.parametrize("family", FAMILIES)
def test_each_input_gives_its_recorded_output(family):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[family]
    cases = list(FAMILIES[family]())
    for k, (case, digest) in enumerate(zip(cases, recorded)):
        if _digest(case) != digest:
            pytest.fail(f"{family}: input {k} gives another output\n--- input ---\n{case[0]}\n"
                        f"--- output now ---\n{case[1]}", pytrace=False)
    assert len(cases) == len(recorded), f"{family}: {len(cases)} inputs but {len(recorded)} digests"


if __name__ == "__main__":
    digests = {name: [_digest(case) for case in family()] for name, family in FAMILIES.items()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
