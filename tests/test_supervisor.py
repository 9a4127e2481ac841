"""Supervisor synthesis, supervised language, resilience verdicts, patterns."""

from __future__ import annotations

import dataclasses
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fstlearn.supervisor
from fstlearn import (
    EPS,
    FormatError,
    Fst,
    ResourceLimitError,
    SynthesisResult,
    accepts,
    compose,
    equivalent,
    identity_fst,
    invert,
    language_upto,
    load_fst,
    minimize,
    pattern_to_fst,
    supervised_language,
    synthesize,
    verify_resilient,
)
from fstlearn import fst as fst_module
from fstlearn.formats import fst_to_text
from oracles import ref_pattern_to_fst, ref_verify_resilient
from test_fst import PATTERNS

A1S2 = ("a1", "s2")
A2S2 = ("a2", "s2")

DEMO = Path(__file__).resolve().parent.parent / "demo"
PLANT, ATTACKER, SENSOR, MK = (
    load_fst(str(DEMO / name)) for name in ("plant.fst", "attacker.fst", "sensor_identity.fst", "mk.fst")
)
# The worked example's supervisor: command a3, then a1, forever. The
# actuator attacker turns a3 into a1 and a1 into a2, so this command
# stream makes the plant execute (a1 s2)(a2 s2)... as desired.
GOLDEN = Fst(
    states=("0", "1"),
    initial="0",
    transitions=frozenset({("0", "s2", "a3", "1"), ("1", "s2", "a1", "0")}),
    finals=frozenset({"0", "1"}),
)
# Without the a3->a1 rewrite the commanded a3 dies in the channel.
CRIPPLED = Fst(
    states=ATTACKER.states,
    initial=ATTACKER.initial,
    transitions=frozenset(t for t in ATTACKER.transitions if t[1] != "a3"),
    finals=ATTACKER.finals,
)
# A sensor attacker that may insert x, and the golden supervisor
# deleting it: their composition takes silent (eps, eps) steps.
INSERTS_X = Fst(("0",), "0", frozenset({("0", EPS, "x", "0"), ("0", "s2", "s2", "0")}), frozenset({"0"}))
DELETES_X = Fst(
    GOLDEN.states,
    GOLDEN.initial,
    GOLDEN.transitions | {("0", "x", EPS, "0"), ("1", "x", EPS, "1")},
    GOLDEN.finals,
)
DEAD = Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset())


@pytest.fixture
def golden_supervisor() -> Fst:
    return GOLDEN


def shortest_difference(a: Fst, b: Fst, horizon: int) -> list:
    la = {n: {w for w in language_upto(a, horizon) if len(w) == n} for n in range(horizon + 1)}
    lb = {n: {w for w in language_upto(b, horizon) if len(w) == n} for n in range(horizon + 1)}
    return sorted(
        (w for n in range(horizon + 1) for w in la[n] ^ lb[n]),
        key=lambda w: (len(w), w),
    )


class TestSynthesize:
    def test_golden_supervisor(self, demo_mk, identity_sensor, demo_attacker, golden_supervisor):
        s = synthesize(demo_mk, identity_sensor, demo_attacker)
        assert equivalent(s, golden_supervisor)
        assert len(minimize(s).states) == 2

    def test_identity_attackers_give_the_inverted_specification(self, demo_mk, identity_sensor):
        s = synthesize(demo_mk, identity_sensor, identity_fst(("a1", "a2")))
        assert equivalent(s, invert(demo_mk))

    def test_non_prefix_closed_specification_warns(self, identity_sensor, demo_attacker):
        gapped = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "a1", "s2", "1")}),
            finals=frozenset({"1"}),
        )
        with pytest.warns(UserWarning):
            synthesize(gapped, identity_sensor, demo_attacker)

    def test_prefix_closed_specification_does_not_warn(
        self, demo_mk, identity_sensor, demo_attacker
    ):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            synthesize(demo_mk, identity_sensor, demo_attacker)


class TestSupervisedLanguage:
    def test_golden_loop_achieves_the_specification(
        self, demo_plant, demo_mk, identity_sensor, demo_attacker, golden_supervisor
    ):
        lang = supervised_language(demo_plant, golden_supervisor, identity_sensor, demo_attacker)
        assert equivalent(lang, demo_mk)

    def test_no_attack_naive_supervisor_achieves_the_specification(
        self, demo_plant, demo_mk, identity_sensor
    ):
        lang = supervised_language(
            demo_plant, invert(demo_mk), identity_sensor, identity_fst(("a1", "a2"))
        )
        assert equivalent(lang, demo_mk)

    def test_empty_supervisor_gives_empty_language(
        self, demo_plant, identity_sensor, demo_attacker
    ):
        dead = Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset())
        lang = supervised_language(demo_plant, dead, identity_sensor, demo_attacker)
        assert language_upto(lang, 4) == set()

    def test_removing_supervisor_arcs_never_enlarges_the_language(
        self, demo_plant, identity_sensor, demo_attacker, golden_supervisor
    ):
        full = language_upto(
            supervised_language(demo_plant, golden_supervisor, identity_sensor, demo_attacker),
            6,
        )
        for arc in sorted(golden_supervisor.transitions):
            sub = Fst(
                states=golden_supervisor.states,
                initial=golden_supervisor.initial,
                transitions=golden_supervisor.transitions - {arc},
                finals=golden_supervisor.finals,
            )
            shrunk = language_upto(
                supervised_language(demo_plant, sub, identity_sensor, demo_attacker), 6
            )
            assert shrunk <= full


class TestVerifyResilient:
    def test_golden_configuration_is_resilient(
        self, demo_plant, demo_mk, identity_sensor, demo_attacker, golden_supervisor
    ):
        res = verify_resilient(
            demo_plant, golden_supervisor, identity_sensor, demo_attacker, demo_mk
        )
        assert res.resilient
        assert res.witness is None
        assert res.supervisor is golden_supervisor

    def test_naive_supervisor_fails_under_attack_with_shortest_witness(
        self, demo_plant, demo_mk, identity_sensor, demo_attacker
    ):
        # The naive supervisor commands a1 first; the attacker turns it
        # into a3, which the plant cannot execute, so nothing beyond the
        # empty word is achieved and the shortest missing desired word
        # is the single letter a1:s2.
        res = verify_resilient(
            demo_plant, invert(demo_mk), identity_sensor, demo_attacker, demo_mk
        )
        assert not res.resilient
        assert res.witness == (A1S2,)

    def test_witness_is_shortest_and_one_sided(
        self, demo_plant, demo_mk, identity_sensor, golden_supervisor
    ):
        # Cripple the attacker model the supervisor was built for.
        res = verify_resilient(
            demo_plant, golden_supervisor, identity_sensor, CRIPPLED, demo_mk
        )
        assert not res.resilient
        lang = supervised_language(demo_plant, golden_supervisor, identity_sensor, CRIPPLED)
        in_lang, in_spec = accepts(lang, res.witness), accepts(demo_mk, res.witness)
        assert in_lang != in_spec
        expected = shortest_difference(lang, demo_mk, len(res.witness) + 1)
        assert len(res.witness) == len(expected[0])

    def test_builds_no_machine(self, monkeypatch):
        def build(*args):
            raise AssertionError("verify_resilient built a machine")

        for name in ("compose", "intersect", "invert"):
            monkeypatch.setattr(fstlearn.supervisor, name, build)
        assert verify_resilient(PLANT, GOLDEN, SENSOR, ATTACKER, MK).resilient
        assert verify_resilient(PLANT, GOLDEN, SENSOR, CRIPPLED, MK).witness == (A1S2,)

    def test_walk_past_the_state_bound_is_an_equivalence_check(self, monkeypatch):
        # The golden loop's walk numbers two pairs of subsets over two loop nodes.
        monkeypatch.setattr(fst_module, "MAX_STATES", 2)
        assert verify_resilient(PLANT, GOLDEN, SENSOR, ATTACKER, MK).resilient
        monkeypatch.setattr(fst_module, "MAX_STATES", 1)
        with pytest.raises(ResourceLimitError, match="^equivalence check exceeded the 1-state bound$"):
            verify_resilient(PLANT, GOLDEN, SENSOR, ATTACKER, MK)

    def test_result_invariant_enforced(self, golden_supervisor):
        # The verdict is read off the witness, so no record can state both and disagree.
        assert [f.name for f in dataclasses.fields(SynthesisResult)] == ["supervisor", "witness"]
        assert SynthesisResult(supervisor=golden_supervisor, witness=None).resilient
        failed = SynthesisResult(supervisor=golden_supervisor, witness=(A1S2,))
        assert not failed.resilient
        with pytest.raises(AttributeError):
            failed.resilient = True
        with pytest.raises(TypeError):
            SynthesisResult(supervisor=golden_supervisor, resilient=True, witness=(A1S2,))


# Every letter over two symbols and eps but the stay letter, so that
# channels insert and delete messages and inner steps can be silent.
SYMBOLS = ("a", "b", EPS)
LETTERS = tuple((i, o) for i in SYMBOLS for o in SYMBOLS if (i, o) != (EPS, EPS))


@st.composite
def small_machines(draw) -> Fst:
    states = tuple(str(k) for k in range(draw(st.integers(1, 3))))
    state = st.sampled_from(states)
    arcs = draw(st.sets(st.tuples(state, st.sampled_from(LETTERS), state), max_size=6))
    return Fst(
        states, "0", frozenset((s, i, o, d) for s, (i, o), d in arcs), frozenset(draw(st.sets(state)))
    )


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the reference must fail the same way
        return type(exc), str(exc)


class TestAgainstTheSupervisedLanguage:
    """The on-the-fly walk gives the verdicts of the built supervised language."""

    @settings(deadline=None, max_examples=300)
    @given(small_machines(), small_machines(), small_machines(), small_machines(), small_machines())
    @example(PLANT, GOLDEN, SENSOR, ATTACKER, MK)
    @example(PLANT, invert(MK), SENSOR, ATTACKER, MK)
    @example(PLANT, GOLDEN, SENSOR, CRIPPLED, MK)
    @example(PLANT, DELETES_X, INSERTS_X, ATTACKER, MK)
    @example(PLANT, DEAD, SENSOR, ATTACKER, MK)
    def test_same_result(self, p, s, a_s, a_a, m_k):
        assert outcome(verify_resilient, p, s, a_s, a_a, m_k) == outcome(
            ref_verify_resilient, p, s, a_s, a_a, m_k
        )

    def test_dead_supervisor_misses_the_empty_word(self):
        assert verify_resilient(PLANT, DEAD, SENSOR, ATTACKER, MK).witness == ()

    def test_inserted_symbols_the_supervisor_deletes_are_silent(self):
        # Each x the sensor attacker inserts meets the supervisor's deletion
        # in one silent step, so the loop is the golden one.
        assert verify_resilient(PLANT, DELETES_X, INSERTS_X, ATTACKER, MK).resilient


# Token strings over the pattern syntax, most of them malformed.
PATTERN_TOKENS = st.lists(st.sampled_from(["(", ")", "*", ":", "x", "u", "<eps>", " "]), max_size=16).map("".join)


class TestPatternToFst:
    def test_golden_specification(self, demo_mk):
        assert len(demo_mk.states) == 2
        assert demo_mk.finals == frozenset(demo_mk.states)
        want = {(), (A1S2,), (A1S2, A2S2), (A1S2, A2S2, A1S2), (A1S2, A2S2, A1S2, A2S2)}
        assert language_upto(demo_mk, 4) == want

    def test_single_letter(self):
        m = pattern_to_fst("(x:u)")
        assert language_upto(m, 3) == {(), (("x", "u"),)}

    def test_starred_letter(self):
        m = pattern_to_fst("(x:u)*")
        xu = ("x", "u")
        assert language_upto(m, 3) == {(), (xu,), (xu, xu), (xu, xu, xu)}

    def test_juxtaposition(self):
        m = pattern_to_fst("(x:u)(y:v)")
        assert language_upto(m, 3) == {(), (("x", "u"),), (("x", "u"), ("y", "v"))}

    def test_empty_pattern_and_empty_group(self):
        for text in ("", "()", "()*"):
            m = pattern_to_fst(text)
            assert language_upto(m, 2) == {()}

    def test_nested_star_covers_all_words(self):
        # Every word is a prefix of some ((x:u)* (y:v)) repetition, and
        # all states are final, so the language is everything over the
        # two letters.
        m = pattern_to_fst("((x:u)*(y:v))*")
        letters = (("x", "u"), ("y", "v"))
        want = {w for n in range(4) for w in product(letters, repeat=n)}
        assert language_upto(m, 3) == want

    def test_one_sided_empty_letters_allowed(self):
        m = pattern_to_fst("(x:<eps>)(<eps>:u)")
        assert (("x", ""), ("", "u")) in language_upto(m, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "((x:u)",  # unbalanced
            "x:u",  # letters must be parenthesized
            "(x:u)**",  # dangling star
            "(x:)",  # missing right symbol
            "(x u)",  # missing colon
            "(x:u) )",  # trailing token
            "(<eps>:<eps>)",  # the silent letter is reserved
            "(a#b:u)",  # '#' starts a comment in the text format
            "(<empty>:u)",  # the empty-word token is not a symbol
            "(*:u)",  # a pattern token is no symbol
            "(x:*)",
        ],
    )
    def test_malformed_patterns_rejected(self, bad):
        with pytest.raises(FormatError):
            pattern_to_fst(bad)

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(PATTERN_TOKENS, PATTERNS))
    @example("((()*(x:v)((<eps>:v)(y:<eps>)*)*))*(y:v)(y:<eps>)")
    def test_same_machine_or_rejection_as_the_recursive_reader(self, text):
        # The example needs each group's own end node: a starred group whose
        # skip link ended on its last item's end could reach that starred
        # item without the items before it.
        def read(parse):
            try:
                return fst_to_text(parse(text))
            except FormatError:
                return None

        assert read(pattern_to_fst) == read(ref_pattern_to_fst)

    def test_a_pattern_is_read_in_one_subset_walk(self, monkeypatch):
        # The walk over closed subsets of token nodes is refined as it is:
        # no machine is built from it to be trimmed and walked again.
        calls = []
        for name in ("explore", "trim"):
            real = getattr(fst_module, name)
            monkeypatch.setattr(fst_module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        made = pattern_to_fst("((a1:s2)(a2:s2))*")
        assert calls == ["explore"]
        assert fst_to_text(made) == fst_to_text(ref_pattern_to_fst("((a1:s2)(a2:s2))*"))

    def test_nesting_depth_is_not_bounded_by_recursion(self):
        depth = sys.getrecursionlimit()
        deep = pattern_to_fst("(" * depth + "(x:u)" + ")" * depth)
        assert fst_to_text(deep) == fst_to_text(pattern_to_fst("(x:u)"))

    @pytest.mark.parametrize(
        "text, like",
        [("(x:u)*" * 2000, "(x:u)*"),
         ("(" * 2000 + "(x:u)" + ")*" * 2000, "(x:u)*"),
         ("(" * 2000 + "(x:u)" + ")" * 2000, "(x:u)")],
        ids=["starred letters", "starred groups nested", "groups nested"],
    )
    def test_long_patterns_are_read_in_one_subset_walk(self, text, like):
        # Closing every token node on its own took 2-15 s on these at n = 2000.
        # One walk over closed subsets takes a few hundredths of a second.
        t0 = time.perf_counter()
        made = pattern_to_fst(text)
        assert time.perf_counter() - t0 < 1.0
        assert fst_to_text(made) == fst_to_text(pattern_to_fst(like))

    def test_a_long_silent_cycle_is_closed_once(self):
        # A ring of n (eps, m) moves fed to one state that deletes m: every
        # product node lies on one silent cycle. Closing each node on its own
        # took 1.3-1.9 s at n = 2000; closing the cycle once takes under 0.01 s.
        def ring(n):
            states = tuple(map(str, range(n)))
            moves = {(s, EPS, "m", str((k + 1) % n)) for k, s in enumerate(states)} | {("0", "x", "u", "0")}
            return Fst(states, "0", frozenset(moves), frozenset(states))

        drop = Fst(("0",), "0", frozenset({("0", "m", EPS, "0"), ("0", "u", "u", "0")}), frozenset({"0"}))
        t0 = time.perf_counter()
        made = compose(ring(2000), drop)
        assert time.perf_counter() - t0 < 0.5
        assert fst_to_text(made) == fst_to_text(compose(ring(3), drop))

    def test_a_long_all_final_silent_chain_is_closed_in_linear_time(self):
        # A chain of n (eps, m) moves into a state that reads x:u, every state
        # final, fed to one state that deletes m: each product node is its own
        # silent component. Closures that keep every node they reach grow with
        # the chain (1.2-1.3 s at n = 4000); keeping only the nodes with a
        # letter move, finality as a flag, takes about 0.02 s.
        def chain(n):
            states = tuple(map(str, range(n + 1)))
            moves = {(str(k), EPS, "m", str(k + 1)) for k in range(n)} | {(str(n), "x", "u", str(n))}
            return Fst(states, "0", frozenset(moves), frozenset(states))

        drop = Fst(("0",), "0", frozenset({("0", "m", EPS, "0"), ("0", "u", "u", "0")}), frozenset({"0"}))
        long_chain = chain(4000)
        t0 = time.perf_counter()
        made = compose(long_chain, drop)
        assert time.perf_counter() - t0 < 0.25
        assert len(made.states) == 2
        assert fst_to_text(made) == fst_to_text(compose(chain(3), drop))
