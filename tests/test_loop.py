"""Clocked control-loop execution, alarms, traces, and attack recording."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstlearn import (
    EPS,
    AnalysisError,
    Fst,
    LoopConfig,
    accepts,
    format_trace,
    identity_fst,
    invert,
    language_upto,
    run,
    sample_attacker,
    trim,
)
from fstlearn.loop import _pick, initial_state, step
from conftest import DEMO_WORDS
from oracles import ref_accepts, ref_run


@pytest.fixture
def golden_supervisor() -> Fst:
    return Fst(
        states=("0", "1"),
        initial="0",
        transitions=frozenset({("0", "s2", "a3", "1"), ("1", "s2", "a1", "0")}),
        finals=frozenset({"0", "1"}),
    )


@pytest.fixture
def resilient_cfg(demo_plant, golden_supervisor, identity_sensor, demo_attacker):
    def make(seed: int = 0, max_steps: int = 12) -> LoopConfig:
        return LoopConfig(
            plant=demo_plant,
            supervisor=golden_supervisor,
            sensor_attacker=identity_sensor,
            actuator_attacker=demo_attacker,
            max_steps=max_steps,
            seed=seed,
        )

    return make


class TestLoopConfig:
    def test_negative_max_steps_rejected(self, resilient_cfg):
        with pytest.raises(ValueError):
            resilient_cfg(max_steps=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", None), ("seed", 1.0), ("seed", "0"), ("seed", True),
         ("max_steps", 2.5), ("max_steps", "3")],
    )
    def test_non_int_seed_or_max_steps_rejected(self, resilient_cfg, field, value):
        # A None seed would draw from OS entropy, so equal configs would
        # give different traces; a float or string count used to fail
        # only inside run, with a bare TypeError.
        with pytest.raises(ValueError, match=field):
            resilient_cfg(**{field: value})

    def test_the_move_index_is_not_part_of_the_config(self, resilient_cfg):
        # The index is cached on the instance on the first tick; equality,
        # hashing and repr still see the six fields only.
        used, fresh = resilient_cfg(), resilient_cfg()
        run(used)
        assert "_moves" in vars(used) and "_moves" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    def test_non_trim_machine_rejected(self, demo_plant, identity_sensor, demo_attacker):
        floating = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset(),
            finals=frozenset({"0", "1"}),
        )
        with pytest.raises(ValueError):
            LoopConfig(
                plant=demo_plant,
                supervisor=floating,
                sensor_attacker=identity_sensor,
                actuator_attacker=demo_attacker,
                max_steps=4,
                seed=0,
            )


class TestResilientRuns:
    def test_deterministic_for_a_fixed_seed(self, resilient_cfg):
        cfg = resilient_cfg(seed=5)
        first, second = run(cfg), run(cfg)
        assert first == second == run(resilient_cfg(seed=5))
        # Within a run each distinct record is built once, so the loop's
        # two-tick period holds two objects; a second run builds its own.
        assert len({id(r) for r in first.steps}) == 2
        assert not {id(r) for r in first.steps} & {id(r) for r in second.steps}

    def test_step_without_a_table_gives_a_fresh_equal_record(self, resilient_cfg):
        cfg = resilient_cfg()
        alone, shared, table, fresh = random.Random(4), random.Random(4), {}, []
        states_alone = states_shared = initial_state(cfg)
        for _ in range(12):
            got = step(cfg, states_alone, alone)
            expected = step(cfg, states_shared, shared, table)
            assert got == expected and got[1] is not expected[1]
            states_alone, states_shared = got[2], expected[2]
            fresh.append(got[1])
        assert len({id(r) for r in fresh}) == 12 and len(table) == 2

    def test_records_stay_frozen_hashable_dataclasses(self, resilient_cfg):
        record = run(resilient_cfg(max_steps=1)).steps[0]
        assert list(vars(record.states)) == ["supervisor", "actuator", "plant", "sensor"]
        assert hash(record) == hash(dataclasses.replace(record))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.alpha = "a2"
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.states.plant = "0"

    def test_zero_steps(self, resilient_cfg):
        trace = run(resilient_cfg(max_steps=0))
        assert trace.steps == ()
        assert trace.terminated_by == "max_steps"
        assert trace.plant_word() == ()

    def test_no_alarms_and_desired_plant_behavior(self, resilient_cfg, demo_mk):
        for seed in range(30):
            trace = run(resilient_cfg(seed=seed))
            assert trace.terminated_by == "max_steps"
            assert accepts(demo_mk, trace.plant_word())

    def test_supervisor_word_stays_in_the_supervisor_language(
        self, resilient_cfg, golden_supervisor
    ):
        trace = run(resilient_cfg(seed=3))
        assert accepts(golden_supervisor, trace.supervisor_word())

    def test_commands_alternate(self, resilient_cfg):
        trace = run(resilient_cfg(seed=0, max_steps=6))
        assert tuple(rec.alpha for rec in trace.steps) == ("a3", "a1") * 3
        assert all(rec.sigma == "s2" for rec in trace.steps)


class TestNaiveSupervisorAlarm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alarm_on_the_first_tick(
        self, demo_plant, demo_mk, identity_sensor, demo_attacker, seed
    ):
        # The naive supervisor commands a1, the attacker rewrites it to
        # a3, the plant cannot execute a3 and stalls silently, and the
        # supervisor sees the impossible pair (empty, a1): alarm.
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=invert(demo_mk),
            sensor_attacker=identity_sensor,
            actuator_attacker=demo_attacker,
            max_steps=10,
            seed=seed,
        )
        trace = run(cfg)
        assert trace.terminated_by == "alarm"
        assert len(trace.steps) == 1
        rec = trace.steps[0]
        assert (rec.alpha, rec.alpha_c, rec.sigma, rec.sigma_c) == ("a1", "a3", EPS, EPS)

    def test_alarm_is_sound(self, demo_plant, demo_mk, identity_sensor, demo_attacker):
        # Whenever a run alarms, the observed (sigma_c, alpha) pair really
        # has no matching supervisor transition from the committed state.
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=invert(demo_mk),
            sensor_attacker=identity_sensor,
            actuator_attacker=demo_attacker,
            max_steps=10,
            seed=0,
        )
        trace = run(cfg)
        rec = trace.steps[-1]
        state = cfg.supervisor.initial if len(trace.steps) == 1 else trace.steps[-2].states.supervisor
        matching = [
            t
            for t in cfg.supervisor.transitions
            if t[0] == state and (t[1], t[2]) == (rec.sigma_c, rec.alpha)
        ]
        assert trace.terminated_by == "alarm"
        assert not matching and (rec.sigma_c, rec.alpha) != (EPS, EPS)


class TestDeadlockAndIdentity:
    def test_supervisor_with_no_move_deadlocks(
        self, demo_plant, identity_sensor, demo_attacker
    ):
        one_shot = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "s2", "a3", "1")}),
            finals=frozenset({"0", "1"}),
        )
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=one_shot,
            sensor_attacker=identity_sensor,
            actuator_attacker=demo_attacker,
            max_steps=10,
            seed=0,
        )
        trace = run(cfg)
        assert trace.terminated_by == "deadlock"
        assert len(trace.steps) == 1

    def test_identity_loop_echoes_everywhere(self):
        ident = identity_fst(("m",))
        cfg = LoopConfig(
            plant=ident,
            supervisor=ident,
            sensor_attacker=ident,
            actuator_attacker=ident,
            max_steps=5,
            seed=9,
        )
        trace = run(cfg)
        assert trace.terminated_by == "max_steps"
        assert trace.plant_word() == trace.supervisor_word() == (("m", "m"),) * 5

    def test_silent_plant_ticks_are_dropped_from_the_plant_word(self):
        # The actuator swallows every command, so the plant neither hears
        # nor says anything: its word stays empty while the supervisor
        # keeps (silently) committing.
        supervisor = Fst(
            states=("0",),
            initial="0",
            transitions=frozenset({("0", EPS, "a1", "0")}),
            finals=frozenset({"0"}),
        )
        swallow = Fst(
            states=("0",),
            initial="0",
            transitions=frozenset({("0", "a1", EPS, "0")}),
            finals=frozenset({"0"}),
        )
        cfg = LoopConfig(
            plant=identity_fst(("m",)),
            supervisor=supervisor,
            sensor_attacker=identity_fst(("m",)),
            actuator_attacker=swallow,
            max_steps=4,
            seed=0,
        )
        trace = run(cfg)
        assert trace.terminated_by == "max_steps"
        assert trace.plant_word() == ()
        assert trace.supervisor_word() == ((EPS, "a1"),) * 4


class TestFormatTrace:
    def test_golden_resilient_prefix(self, resilient_cfg):
        text = format_trace(run(resilient_cfg(seed=0, max_steps=2)))
        assert text == (
            "step 1: alpha=a3 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 2: alpha=a1 alpha_c=a2 sigma=s2 sigma_c=s2\n"
            "END max_steps\n"
        )

    def test_alarm_trace_shows_empty_messages(
        self, demo_plant, demo_mk, identity_sensor, demo_attacker
    ):
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=invert(demo_mk),
            sensor_attacker=identity_sensor,
            actuator_attacker=demo_attacker,
            max_steps=10,
            seed=0,
        )
        text = format_trace(run(cfg))
        assert text == (
            "step 1: alpha=a1 alpha_c=a3 sigma=<eps> sigma_c=<eps>\n"
            "END alarm\n"
        )


class TestSeededTrace:
    def test_trace_with_several_arcs_to_draw_from_is_pinned(self, demo_plant, identity_sensor):
        # Both the supervisor and the attacker offer two or more arcs at
        # every state, so each tick draws from sorted arc lists.
        supervisor = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset(
                {("0", "s2", "a3", "1"), ("0", "s2", "a1", "0"), ("0", "s2", "a2", "1"),
                 ("1", "s2", "a1", "0"), ("1", "s2", "a3", "0"), ("1", "s2", "a1", "1")}
            ),
            finals=frozenset({"0", "1"}),
        )
        attacker = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset(
                {("0", "a3", "a1", "0"), ("0", "a3", "a2", "1"), ("0", "a1", "a2", "0"),
                 ("0", "a1", "a1", "1"), ("0", "a2", "a1", "1"), ("1", "a3", "a2", "0"),
                 ("1", "a1", "a1", "0"), ("1", "a2", "a2", "0"), ("1", "a2", "a1", "1"),
                 ("1", "a3", "a1", "1")}
            ),
            finals=frozenset({"0", "1"}),
        )
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=supervisor,
            sensor_attacker=identity_sensor,
            actuator_attacker=attacker,
            max_steps=8,
            seed=3,
        )
        assert format_trace(run(cfg)) == (
            "step 1: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 2: alpha=a3 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 3: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 4: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 5: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 6: alpha=a2 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 7: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 8: alpha=a2 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "END max_steps\n"
        )

    def test_implicit_stay_is_drawn_after_the_explicit_eps_arcs(self, demo_plant):
        # The plant stalls on a3 and hands the sensor attacker the empty
        # message. From state 0 the attacker draws among two (<eps>, ...)
        # insertion arcs and then its implicit stay, from state 1 among
        # one arc and then the stay; every option leaves a different mark.
        supervisor = Fst(
            states=("0",),
            initial="0",
            transitions=frozenset(("0", i, o, "0") for i in ("s2", "s9", EPS) for o in ("a1", "a2", "a3")),
            finals=frozenset({"0"}),
        )
        sensor = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset(
                {("0", EPS, "s9", "0"), ("0", EPS, "s2", "1"), ("0", "s2", "s2", "0"),
                 ("1", EPS, "s9", "0"), ("1", "s2", "s2", "1")}
            ),
            finals=frozenset({"0", "1"}),
        )
        cfg = LoopConfig(
            plant=demo_plant,
            supervisor=supervisor,
            sensor_attacker=sensor,
            actuator_attacker=identity_fst(["a1", "a2", "a3"]),
            max_steps=10,
            seed=1,
        )
        assert format_trace(run(cfg)) == (
            "step 1: alpha=a3 alpha_c=a3 sigma=<eps> sigma_c=s9\n"
            "step 2: alpha=a2 alpha_c=a2 sigma=s2 sigma_c=s2\n"
            "step 3: alpha=a2 alpha_c=a2 sigma=s2 sigma_c=s2\n"
            "step 4: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 5: alpha=a3 alpha_c=a3 sigma=<eps> sigma_c=s2\n"
            "step 6: alpha=a3 alpha_c=a3 sigma=<eps> sigma_c=<eps>\n"
            "step 7: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 8: alpha=a3 alpha_c=a3 sigma=<eps> sigma_c=<eps>\n"
            "step 9: alpha=a1 alpha_c=a1 sigma=s2 sigma_c=s2\n"
            "step 10: alpha=a3 alpha_c=a3 sigma=<eps> sigma_c=s9\n"
            "END max_steps\n"
        )


SYMBOLS = ("a", "b", EPS)


@st.composite
def loop_machines(draw, lenient: bool = False) -> Fst:
    """A trim all-final machine over a, b and eps.

    Each (state, input) it reads has 1, 2, 3 or 5 moves, so draws run the
    rejection loop; states and inputs it does not read make stalls, alarms
    and deadlocks. A lenient machine also stays put on every letter, so a
    supervisor made so never alarms and its runs go long.
    """
    states = tuple(str(k) for k in range(draw(st.integers(1, 3))))
    transitions = set()
    for s, i in draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(SYMBOLS)), max_size=4)):
        moves = [(s, i, o, d) for o in SYMBOLS for d in states if (i, o) != (EPS, EPS)]
        transitions.update(draw(st.permutations(moves))[: draw(st.sampled_from((1, 2, 3, 5)))])
    if lenient:
        transitions.update((s, i, o, s) for s in states for i in SYMBOLS for o in SYMBOLS if (i, o) != (EPS, EPS))
    return trim(Fst(states, "0", frozenset(transitions), frozenset(states)))


# The actuator attacker has five moves on (0, a) and, with its stay, three
# on (1, <eps>); it stalls on a from state 1, and the plant stalls on b.
FIVE_WAY = Fst(
    states=("0", "1"),
    initial="0",
    transitions=frozenset(
        {("0", "a", "a", "0"), ("0", "a", "b", "0"), ("0", "a", EPS, "0"), ("0", "a", "a", "1"),
         ("0", "a", "b", "1"), ("1", EPS, "a", "0"), ("1", EPS, "b", "1")}
    ),
    finals=frozenset({"0", "1"}),
)
ANYTHING = Fst(
    states=("0",),
    initial="0",
    transitions=frozenset(("0", i, o, "0") for i in SYMBOLS for o in SYMBOLS if (i, o) != (EPS, EPS)),
    finals=frozenset({"0"}),
)


def fanned(fans: dict) -> Fst:
    """An all-final machine: from state s, reading i and writing o, it moves to each of fans[s, i, o]."""
    arcs = frozenset((s, i, o, d) for (s, i, o), targets in fans.items() for d in targets)
    states = tuple(sorted({s for s, _, _, _ in arcs}))
    return Fst(states, "0", arcs, frozenset(states))


# Each key these machines are read by has 3 or 4 options, and the sensor
# always reports a, so every tick of their loop draws five times, from 3 or
# 4 options: 3 is not a power of two and 4 is, so randrange's rejection
# loop runs both ways. A supervisor state's arcs share one (a, alpha) and
# fan out to 3 or 4 targets, so the target drawn need not be the one on
# the arc alpha was drawn from.
FAN_SUPERVISOR = fanned({("0", "a", "a"): "012", ("1", "a", "b"): "0123", ("2", "a", "a"): "123", ("3", "a", "b"): "0123"})
FAN_RELAY = fanned(
    {("0", "a", "a"): "01", ("0", "a", "b"): "2", ("0", "b", "a"): "01", ("0", "b", "b"): "12",
     ("1", "a", "a"): "2", ("1", "a", "b"): "012", ("1", "b", "b"): "012",
     ("2", "a", "a"): "012", ("2", "b", "a"): "02", ("2", "b", "b"): "01"}
)
FAN_SENSOR = fanned(
    {("0", "a", "a"): "012", ("0", "b", "a"): "0123", ("1", "a", "a"): "0123", ("1", "b", "a"): "123",
     ("2", "a", "a"): "023", ("2", "b", "a"): "0123", ("3", "a", "a"): "013", ("3", "b", "a"): "0123"}
)


class TestAgainstTheReference:
    """The indexed tick and its bit-level draw give the reference's traces."""

    @settings(deadline=None, max_examples=300)
    @given(
        loop_machines(),
        st.booleans().flatmap(lambda lenient: loop_machines(lenient)),
        loop_machines(),
        loop_machines(),
        st.integers(0, 25),
        st.integers(0, 2**32),
    )
    @example(identity_fst(["a"]), ANYTHING, identity_fst(["a", "b"]), FIVE_WAY, 25, 0)
    @example(FAN_RELAY, FAN_SUPERVISOR, FAN_SENSOR, FAN_RELAY, 25, 7)
    def test_same_trace(self, plant, supervisor, sensor, actuator, max_steps, seed):
        cfg = LoopConfig(
            plant=plant,
            supervisor=supervisor,
            sensor_attacker=sensor,
            actuator_attacker=actuator,
            max_steps=max_steps,
            seed=seed,
        )
        assert run(cfg) == ref_run(cfg)


class TestMoveIndex:
    """The index `step` draws from: every option list with its length and draw width."""

    @settings(deadline=None, max_examples=100)
    @given(loop_machines(), loop_machines(), loop_machines(), loop_machines())
    def test_each_entry_is_draw_ready_in_arcs_order_with_the_stay_last(self, plant, supervisor, sensor, actuator):
        cfg = LoopConfig(plant=plant, supervisor=supervisor, sensor_attacker=sensor,
                         actuator_attacker=actuator, max_steps=0, seed=0)
        *tables, commands = cfg._moves
        for machine, table, reads in zip((actuator, plant, sensor, supervisor), tables, (1, 1, 1, 2)):
            keys = set()
            for state, arcs in machine.arcs.items():
                moves = (*arcs, (EPS, EPS, state))
                for move in moves:
                    key = (state, *move[:reads])
                    options = tuple(m[reads:] for m in moves if m[:reads] == move[:reads])
                    assert table[key] == (len(options), len(options).bit_length(), options)
                    keys.add(key)
            assert set(table) == keys
        outputs = {s: tuple(o for _, o, _ in arcs) for s, arcs in supervisor.arcs.items() if arcs}
        assert commands == {s: (len(o), len(o).bit_length(), o) for s, o in outputs.items()}

    def test_commands_list_each_arcs_output_and_omit_states_without_moves(self, demo_plant, identity_sensor):
        # Sorted, state 0's arcs are (a, a, 0), (a, b, 2), (b, a, 1): alpha a
        # is listed twice, as _pick over the arcs would draw it; 2 has no move.
        supervisor = Fst(("0", "1", "2"), "0", frozenset(
            {("0", "b", "a", "1"), ("0", "a", "a", "0"), ("0", "a", "b", "2"), ("1", "a", "a", "0")}
        ), frozenset({"0", "1", "2"}))
        cfg = LoopConfig(plant=demo_plant, supervisor=supervisor, sensor_attacker=identity_sensor,
                         actuator_attacker=identity_sensor, max_steps=0, seed=0)
        assert cfg._moves[4] == {"0": (3, 2, ("a", "b", "a")), "1": (1, 1, ("a",))}


class TestDraw:
    def test_pick_draws_as_randrange(self):
        # On every supported CPython the bit-level draw must keep
        # randrange's stream, or every seeded trace changes.
        for seed in range(10):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in range(1, 71):
                assert _pick(ours.getrandbits, range(n)) == theirs.randrange(n)


class TestSampleAttacker:
    def test_exhaustive_equals_the_bounded_language(self, demo_attacker):
        got = sample_attacker(demo_attacker, 0, 3, exhaustive=True)
        assert got.words == DEMO_WORDS
        assert set(got.words) == set(language_upto(demo_attacker, 3))

    def test_walks_yield_accepted_words_only(self, demo_attacker):
        got = sample_attacker(demo_attacker, 40, 5, seed=1)
        assert got.words
        for w in got.words:
            assert ref_accepts(demo_attacker, w)
            assert len(w) <= 5

    def test_recorded_behavior_is_prefix_closed(self, demo_attacker):
        got = sample_attacker(demo_attacker, 40, 5, seed=2)
        for w in got.words:
            for k in range(len(w)):
                assert w[:k] in got.words

    def test_zero_walks_still_record_the_empty_word(self, demo_attacker):
        got = sample_attacker(demo_attacker, 0, 5, seed=0)
        assert got.words == frozenset({()})

    @pytest.mark.parametrize("seed", range(5))
    def test_walk_stops_at_a_final_state_without_moves(self, seed):
        # State 1 is final and has no move: a walk that reaches it stops
        # there even when the 0.25 draw says go on, and records x:u.
        attacker = Fst(("0", "1"), "0", frozenset({("0", "x", "u", "1")}), frozenset({"0", "1"}))
        got = sample_attacker(attacker, 20, 5, seed=seed)
        assert got.words == frozenset({(), (("x", "u"),)})

    def test_an_empty_language_records_nothing(self):
        # The initial state is not final and no walk ends in a final state.
        empty = Fst(("0", "1", "2"), "0", frozenset({("0", "a", "u", "2")}), frozenset({"1"}))
        assert sample_attacker(empty, 20, 5, seed=0).words == frozenset()

    @pytest.mark.parametrize("seed, end", [(0, "2"), (2, "1"), (6, "1")])
    def test_a_walk_cut_in_a_state_that_is_not_final_adds_no_word(self, seed, end):
        # Prefix-closed but nondeterministic: a:u leads to final 2 or to 1,
        # which accepts only after b:v. One walk, cut at max_len 1, ends in
        # `end` for this seed; ended in 1, it adds not even its prefixes.
        attacker = Fst(
            ("0", "1", "2"),
            "0",
            frozenset({("0", "a", "u", "1"), ("0", "a", "u", "2"), ("1", "b", "v", "2")}),
            frozenset({"0", "2"}),
        )
        got = sample_attacker(attacker, 1, 1, seed=seed)
        assert got.words == ({(), (("a", "u"),)} if end in attacker.finals else {()})
        assert all(ref_accepts(attacker, w) for w in got.words)

    def test_deterministic_per_seed(self, demo_attacker):
        a = sample_attacker(demo_attacker, 25, 4, seed=7)
        b = sample_attacker(demo_attacker, 25, 4, seed=7)
        assert a.words == b.words

    @pytest.mark.parametrize(
        "seed, walks",
        [
            (1, ["a1:a3 a1:a2 a3:a1 a1:a2", "a3:a1 a1:a2 a3:a1 a1:a2 a1:a3 a1:a2"]),
            (2, ["a1:a3 a1:a2 a1:a3 a1:a2 a3:a1 a1:a2", "a3:a1 a1:a2 a3:a1 a1:a2 a3:a1 a1:a2"]),
            (7, ["a1:a3 a1:a2 a1:a3 a1:a2", "a3:a1 a1:a2"]),
        ],
    )
    def test_walks_are_pinned(self, demo_attacker, seed, walks):
        # The words recorded are the prefixes of these longest walks. They
        # pin the walks' draws, which share the loop's random stream.
        longest = [tuple(tuple(letter.split(":")) for letter in walk.split()) for walk in walks]
        got = sample_attacker(demo_attacker, 5, 6, seed=seed)
        assert got.words == {w[:k] for w in longest for k in range(len(w) + 1)}

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_non_prefix_closed_attacker_is_rejected(self, exhaustive):
        gappy = Fst(
            states=("0", "1", "2"),
            initial="0",
            transitions=frozenset({("0", "a", "a", "1"), ("1", "b", "b", "2")}),
            finals=frozenset({"0", "2"}),
        )
        with pytest.raises(AnalysisError) as err:
            sample_attacker(gappy, 20, 4, seed=0, exhaustive=exhaustive)
        assert err.value.stage == "sample"
