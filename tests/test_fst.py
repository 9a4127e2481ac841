"""Core machine algebra: membership, inversion, composition,
intersection, trim, minimization, equivalence, bounded enumeration."""

from __future__ import annotations

import copy
import gc
import pickle
import re
import time
import tracemalloc
import warnings
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstlearn import (
    EPS,
    FormatError,
    Fst,
    LoopConfig,
    ResourceLimitError,
    SampleSet,
    accepts,
    compose,
    counterexample,
    equivalent,
    fst_from_text,
    fst_to_text,
    identity_fst,
    intersect,
    invert,
    is_prefix_closed,
    language_upto,
    minimize,
    pattern_to_fst,
    synthesize,
    trim,
    verify_resilient,
)
from fstlearn import fst as fst_module
from oracles import (
    PAIR_LETTERS,
    ref_accepts,
    ref_close_silent,
    ref_compose_language,
    ref_counterexample,
    ref_is_prefix_closed,
    ref_language_upto,
    ref_machine,
    ref_minimize,
    ref_pattern_to_fst,
)

EPS_LETTERS = (("x", EPS), (EPS, "u"))


def assert_well_formed(m: Fst) -> None:
    state_set = set(m.states)
    assert m.initial in state_set
    assert set(m.finals) <= state_set
    for (src, i, o, dst) in m.transitions:
        assert src in state_set and dst in state_set
        assert (i, o) != (EPS, EPS)


def assert_built_as_checked(m: Fst) -> None:
    """The trusted build gives what Fst's checks, its index and trim would."""
    rebuilt = Fst(m.states, m.initial, m.transitions, m.finals)
    assert rebuilt == m
    assert rebuilt.arcs == m.arcs
    assert trim(rebuilt) == m


@st.composite
def machines(draw, max_states: int = 4, letters=PAIR_LETTERS, require_final: bool = False):
    n = draw(st.integers(1, max_states))
    states = tuple(str(k) for k in range(n))
    arcs = draw(
        st.sets(
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(letters),
                st.sampled_from(states),
            ),
            max_size=3 * n,
        )
    )
    finals = draw(st.sets(st.sampled_from(states), min_size=1 if require_final else 0))
    return Fst(
        states=states,
        initial="0",
        transitions=frozenset((s, l[0], l[1], d) for (s, l, d) in arcs),
        finals=frozenset(finals),
    )


@st.composite
def machine_and_word(draw):
    m = draw(machines())
    w = tuple(draw(st.lists(st.sampled_from(PAIR_LETTERS), max_size=5)))
    return m, w


class TestConstruction:
    def test_duplicate_states_collapse(self):
        m = Fst(states=("0", "0", "1"), initial="0", transitions=frozenset(), finals=frozenset({"1"}))
        assert m.states == ("0", "1")

    def test_no_states_rejected(self):
        with pytest.raises(FormatError, match="at least one state"):
            Fst(states=(), initial="0", transitions=frozenset(), finals=frozenset())

    def test_transition_to_an_unknown_state_rejected(self):
        with pytest.raises(FormatError, match="unknown state"):
            Fst(states=("0",), initial="0", transitions=frozenset({("0", "x", "u", "9")}), finals=frozenset())

    def test_unknown_initial_rejected(self):
        with pytest.raises(FormatError):
            Fst(states=("0",), initial="9", transitions=frozenset(), finals=frozenset())

    def test_unknown_final_rejected(self):
        with pytest.raises(FormatError):
            Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset({"9"}))

    def test_explicit_stay_letter_rejected(self):
        with pytest.raises(FormatError):
            Fst(
                states=("0",),
                initial="0",
                transitions=frozenset({("0", EPS, EPS, "0")}),
                finals=frozenset({"0"}),
            )

    def test_reserved_symbol_rejected(self):
        with pytest.raises(FormatError):
            Fst(
                states=("0",),
                initial="0",
                transitions=frozenset({("0", "<eps>", "u", "0")}),
                finals=frozenset(),
            )

    def test_whitespace_symbol_rejected(self):
        # Every character str.isspace() accepts, not only ASCII blanks.
        for bad in ("a b", "a\xa0b", "a\u2003b", "a\x1cb"):
            with pytest.raises(FormatError):
                Fst(
                    states=("0",),
                    initial="0",
                    transitions=frozenset({("0", bad, "u", "0")}),
                    finals=frozenset(),
                )
            with pytest.raises(FormatError, match="bad state name"):
                Fst(states=("0", bad), initial="0", transitions=frozenset(), finals=frozenset())

    def test_state_names_follow_the_symbol_rules_but_may_hold_a_colon(self):
        for bad in ("", "a#b", "<empty>"):
            with pytest.raises(FormatError, match="bad state name"):
                Fst(states=("0", bad), initial="0", transitions=frozenset(), finals=frozenset())
        m = Fst(states=("q:1",), initial="q:1", transitions=frozenset(), finals=frozenset())
        assert m.states == ("q:1",)


    def test_pickle_and_copy_keep_working_once_the_index_is_built(self):
        m = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "x", "u", "1"), ("0", "y", EPS, "0")}),
            finals=frozenset({"1"}),
        )
        assert m.arcs["0"] == (("x", "u", "1"), ("y", EPS, "0"))
        # A builder-made machine and an untrimmed one that trim has read
        # both pickle and copy with their four fields alone.
        built = compose(m, identity_fst(["u"]))
        untrimmed = Fst(m.states + ("2",), m.initial, m.transitions, m.finals)
        assert trim(untrimmed) != untrimmed
        for machine in (m, built, untrimmed):
            for twin in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
                assert twin == machine
                assert twin.arcs == machine.arcs
                assert trim(twin) == trim(machine)

    def test_least_transition_with_an_unknown_state_is_reported(self):
        # Independent of set iteration order, hence of PYTHONHASHSEED.
        moves = {("0", "a", "b", "x"), ("0", "a", "b", "y"), ("0", "c", "d", "z")}
        with pytest.raises(FormatError, match=re.escape("transition (0,a,b,x) references unknown state")):
            Fst(("0",), "0", moves, ())

    @pytest.mark.parametrize(
        "states, initial, finals, message",
        [
            ((["0"],), "0", (), "bad state name ['0']"),
            (("0",), ["0"], (), "bad state name ['0']"),
            (("0",), "0", [["0"]], "bad state name ['0']"),
            # Refused before the unknown finals are sorted, where 1 and "x" do not compare.
            (("0",), "0", {1, "x"}, "bad state name 1"),
            # The least offender by repr, whatever the set's iteration order.
            (("0",), "0", {2, None, "0"}, "bad state name 2"),
        ],
        ids=["list state", "list initial", "list final", "int final beside a string", "least by repr"],
    )
    def test_name_that_is_not_hashable_or_not_comparable_rejected(self, states, initial, finals, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            Fst(states, initial, frozenset(), finals)

    def test_first_bad_symbol_in_sorted_order_is_reported(self):
        # Independent of set iteration order, hence of PYTHONHASHSEED: the
        # letters are checked in sorted order, as SampleSet checks them.
        with pytest.raises(FormatError, match="'c d'"):
            Fst(
                states=("0",),
                initial="0",
                transitions=frozenset({("0", "c d", "u", "0"), ("0", "x", "a b", "0")}),
                finals=frozenset(),
            )

    @pytest.mark.parametrize(
        "states, initial, moves, message",
        [
            ((0,), 0, (), "bad state name 0"),
            (("0", 1), "0", (), "bad state name 1"),
            (("0",), "0", [("0", 1, "u", "0")], "bad letter (1, 'u'): symbols must be strings"),
            # Refused before the letters are sorted, where None and a string do not compare.
            (("0",), "0", [("0", None, "u", "0"), ("0", "x", "u", "0")], "bad letter (None, 'u'): symbols"),
            # The least offender by repr, whatever the set's iteration order.
            (("0",), "0", [("0", None, "u", "0"), ("0", "y", 2, "0")], "bad letter ('y', 2): symbols"),
        ],
        ids=["int state", "int state beside a string", "int symbol", "None beside a string", "least by repr"],
    )
    def test_name_or_symbol_that_is_not_a_string_rejected(self, states, initial, moves, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            Fst(states, initial, frozenset(moves), frozenset())

    @pytest.mark.parametrize(
        "moves, message",
        [
            ([["0", "a", "b", "0"]], "malformed transition ['0', 'a', 'b', '0']"),
            ([("0", "a", "b")], "malformed transition ('0', 'a', 'b')"),
            ([("0", "a", "b", "0", "0")], "malformed transition ('0', 'a', 'b', '0', '0')"),
            ("abcd", "malformed transition 'a'"),
            # A string of four characters is not four state and symbol names.
            (["0abc"], "malformed transition '0abc'"),
            ([("0", ["a"], "b", "0")], "bad letter (['a'], 'b'): symbols must be strings"),
            ([("0", "a", "b", ["0"])], "bad state name ['0']"),
            # State "0" exists, but the int 0 is not its name.
            ([("0", "a", "b", 0)], "bad state name 0"),
            # The least offender by repr, whatever the order it comes in.
            ([["0", "a", "b", "0"], ("0", "a")], "malformed transition ('0', 'a')"),
        ],
        ids=["list", "3-tuple", "5-tuple", "a string of transitions", "string transition",
             "list symbol", "list state", "int state", "least by repr"],
    )
    def test_malformed_transition_rejected(self, moves, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            Fst(("0",), "0", moves, ("0",))


class TestSampleSet:
    def test_stay_letter_rejected(self):
        with pytest.raises(FormatError, match="eps,eps"):
            SampleSet.from_words([(("x", "u"), (EPS, EPS))])

    def test_letter_that_is_not_a_pair_rejected(self):
        for letter in (("a", "b", "c"), ("a",)):
            with pytest.raises(FormatError, match=re.escape(repr(letter))):
                SampleSet.from_words([[letter]])

    def test_first_bad_symbol_in_sorted_order_is_reported(self):
        # Independent of set iteration order, hence of PYTHONHASHSEED.
        words = [(("x", "u"), ("x", "<eps>")), (("b c", "u"),), (("a", "<empty>"), ("y", "d#e"))]
        with pytest.raises(FormatError, match="'<empty>'"):
            SampleSet.from_words(words)
        with pytest.raises(FormatError, match="'b c'"):
            SampleSet.from_words(words[:2])

    def test_string_letter_rejected_rather_than_split(self):
        # "ab" would otherwise be recorded as the letter ("a", "b").
        with pytest.raises(FormatError, match="bad letter of type str"):
            SampleSet.from_words([["ab"]])
        with pytest.raises(FormatError, match="bad letter of type str"):
            SampleSet.from_words(w for w in [[("x", "u")], [("x", "u"), "ab"]])

    @pytest.mark.parametrize(
        "letter, kind",
        [
            (frozenset({"a1", "s2"}), "frozenset"),
            ({"a1", "s2"}, "set"),
            ({"a1": "s2", "s2": "a1"}, "dict"),
            (iter(("x", "u")), "tuple_iterator"),
        ],
        ids=["frozenset", "set", "dict", "iterator"],
    )
    def test_unordered_or_one_pass_letter_rejected(self, letter, kind):
        # A set's order depends on PYTHONHASHSEED, a dict would be read as
        # its keys, and an iterator is spent by the first read.
        message = f"^bad letter of type {kind}: expected an \\(in, out\\) pair$"
        with pytest.raises(FormatError, match=message):
            SampleSet.from_words([[("x", "u"), letter]])

    @pytest.mark.parametrize(
        "word, kind",
        [
            (frozenset({("x", "u"), ("y", "v")}), "frozenset"),
            ({("x", "u"), ("y", "v")}, "set"),
            ({("x", "u"): 0, ("y", "v"): 1}, "dict"),
        ],
        ids=["frozenset", "set", "dict"],
    )
    def test_unordered_word_rejected(self, word, kind):
        message = f"^bad word of type {kind}: expected a sequence of letters$"
        with pytest.raises(FormatError, match=message):
            SampleSet.from_words([(("x", "u"),), word])

    def test_letter_that_is_not_iterable_rejected(self):
        with pytest.raises(FormatError, match="bad letter of type int"):
            SampleSet.from_words([[1]])
        with pytest.raises(FormatError, match="bad letter of type int"):
            SampleSet.from_words(w for w in [[("x", "u")], [("x", "u"), 1]])

    def test_letter_with_a_symbol_that_is_not_a_string_rejected(self):
        with pytest.raises(FormatError, match=re.escape("bad letter (1, 2)")):
            SampleSet.from_words([[(1, 2)]])
        # Rejected before the alphabet is sorted, where str and int do not compare.
        with pytest.raises(FormatError, match=re.escape("bad letter (1, 'c')")):
            SampleSet.from_words([[("a", "b"), (1, "c")]])

    def test_first_letter_with_a_non_string_symbol_by_repr_is_reported(self):
        # Independent of set iteration order, hence of PYTHONHASHSEED.
        words = [[("y", 1), ("x", "u")], [("b", 2.0), ("a", None)]]
        with pytest.raises(FormatError, match=re.escape("bad letter ('a', None)")):
            SampleSet.from_words(words)

    def test_word_that_is_not_iterable_rejected(self):
        with pytest.raises(FormatError, match="^bad word of type int: expected a sequence of letters$"):
            SampleSet.from_words([1])
        # A generator can be read only once, yet the bad word is still named.
        with pytest.raises(FormatError, match="^bad word of type NoneType: expected"):
            SampleSet.from_words(w for w in [[("x", "u")], None])

    def test_word_set_that_is_not_iterable_rejected(self):
        for words, kind in ((5, "int"), (None, "NoneType")):
            message = f"^bad word set of type {kind}: expected an iterable of words$"
            with pytest.raises(FormatError, match=message):
                SampleSet.from_words(words)

    def test_unhashable_symbol_rejected(self):
        with pytest.raises(FormatError, match=re.escape("bad letter (['a'], 'b'): symbols must be strings")):
            SampleSet.from_words([[(["a"], "b")]])
        with pytest.raises(FormatError, match=re.escape("bad letter ('x', ['u'])")):
            SampleSet.from_words(w for w in [[("x", "u")], [("y", "v"), ("x", ["u"])]])

    def test_each_distinct_letter_is_checked_once(self, monkeypatch):
        checked = []
        monkeypatch.setattr(fst_module, "_check_symbol", checked.append)
        d = SampleSet.from_words([(("x", "u"), ("x", "u")), (("x", "u"), ("y", EPS)), (("y", EPS),)])
        assert checked == ["x", "u", "y", EPS]
        assert d.alphabet == (("x", "u"), ("y", EPS))

    def test_from_words_accepts_any_iterable_of_letter_sequences(self):
        words = [(("x", "u"), ("y", EPS)), (), (("x", "u"),)]
        expected = SampleSet.from_words(words)
        assert expected.words == frozenset(words)
        assert SampleSet.from_words([[list(l) for l in w] for w in words]) == expected
        assert SampleSet.from_words(w for w in words) == expected
        assert SampleSet.from_words(tuple(words)) == expected
        assert SampleSet(words) == expected

    def test_alphabet_is_sorted_and_distinct(self):
        d = SampleSet.from_words([(("y", "v"), ("x", "u")), (("x", "u"), (EPS, "u")), (("y", EPS),)])
        assert d.alphabet == ((EPS, "u"), ("x", "u"), ("y", EPS), ("y", "v"))


class TestAccepts:
    @settings(deadline=None)
    @given(machine_and_word())
    def test_matches_recursive_oracle(self, pair):
        m, w = pair
        assert accepts(m, w) == ref_accepts(m, w)

    def test_empty_word_iff_initial_final(self):
        final = Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset({"0"}))
        bare = Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset())
        assert accepts(final, ())
        assert not accepts(bare, ())

    def test_implicit_stay_letters_are_skipped(self, demo_attacker):
        w = ((EPS, EPS), ("a3", "a1"), (EPS, EPS))
        assert accepts(demo_attacker, w) == accepts(demo_attacker, (("a3", "a1"),))


class TestInvert:
    @settings(deadline=None)
    @given(machines())
    def test_involution_is_exact(self, m):
        assert invert(invert(m)) == m

    @settings(deadline=None, max_examples=50)
    @given(machines())
    def test_language_swaps(self, m):
        inv = invert(m)
        assert_well_formed(inv)
        swapped = {tuple((o, i) for (i, o) in w) for w in ref_language_upto(m, 3)}
        assert ref_language_upto(inv, 3) == swapped


class TestTrim:
    @settings(deadline=None, max_examples=50)
    @given(machines())
    def test_language_preserved(self, m):
        t = trim(m)
        assert_well_formed(t)
        assert ref_language_upto(t, 3) == ref_language_upto(m, 3)

    @settings(deadline=None)
    @given(machines())
    def test_idempotent(self, m):
        assert trim(trim(m)) == trim(m)

    def test_empty_language_collapses_to_one_state(self):
        m = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "x", "u", "1")}),
            finals=frozenset(),
        )
        t = trim(m)
        assert len(t.states) == 1 and not t.finals and not t.transitions

    def test_unreachable_and_dead_states_dropped(self):
        assert trim(_unreachable()).states == ("0", "1")
        assert trim(_dead_end()).states == ("0", "1")


class TestCompose:
    @settings(deadline=None, max_examples=40)
    @given(machines(max_states=3), machines(max_states=3))
    def test_matches_mediated_join_oracle(self, a, b):
        c = compose(a, b)
        assert_well_formed(c)
        assert ref_language_upto(c, 3) == ref_compose_language(a, b, 3)

    def test_identity_is_neutral(self, demo_attacker):
        ident = identity_fst(("a1", "a2", "a3"))
        assert equivalent(compose(demo_attacker, ident), demo_attacker)
        assert equivalent(compose(ident, demo_attacker), demo_attacker)

    def test_empty_message_forwarding(self):
        # a drops x (emits the empty message); b can consume an empty
        # message and emit u. One tick can carry both moves at once, or
        # either machine can act alone while the other stays.
        a = Fst(states=("0", "1"), initial="0", transitions=frozenset({("0", "x", EPS, "1")}), finals=frozenset({"1"}))
        b = Fst(states=("0", "1"), initial="0", transitions=frozenset({("0", EPS, "u", "1")}), finals=frozenset({"1"}))
        c = compose(a, b)
        lang = set(language_upto(c, 3))
        assert lang == {
            (("x", "u"),),
            (("x", EPS), (EPS, "u")),
            ((EPS, "u"), ("x", EPS)),
        }

    def test_cancellation_gives_silent_step(self):
        # a turns an empty input into m, b swallows m: the product move
        # is invisible, so only the empty word remains.
        a = Fst(states=("0", "1"), initial="0", transitions=frozenset({("0", EPS, "m", "1")}), finals=frozenset({"1"}))
        b = Fst(states=("0", "1"), initial="0", transitions=frozenset({("0", "m", EPS, "1")}), finals=frozenset({"1"}))
        c = compose(a, b)
        assert set(language_upto(c, 2)) == {()}

    def test_cancellation_before_visible_step(self):
        a = Fst(
            states=("0", "1", "2"),
            initial="0",
            transitions=frozenset({("0", EPS, "m", "1"), ("1", "x", "n", "2")}),
            finals=frozenset({"2"}),
        )
        b = Fst(
            states=("0", "1", "2"),
            initial="0",
            transitions=frozenset({("0", "m", EPS, "1"), ("1", "n", "u", "2")}),
            finals=frozenset({"2"}),
        )
        assert set(language_upto(compose(a, b), 2)) == {(("x", "u"),)}

    def test_state_guard_trips(self, monkeypatch):
        monkeypatch.setattr(fst_module, "MAX_STATES", 2)
        cycle = Fst(
            states=("0", "1", "2"),
            initial="0",
            transitions=frozenset({("0", "x", "u", "1"), ("1", "x", "u", "2"), ("2", "y", "v", "0")}),
            finals=frozenset({"0", "1", "2"}),
        )
        with pytest.raises(ResourceLimitError):
            compose(identity_fst(("x", "y")), cycle)


class TestIntersect:
    @settings(deadline=None, max_examples=40)
    @given(machines(max_states=3), machines(max_states=3))
    def test_matches_language_intersection(self, a, b):
        c = intersect(a, b)
        assert_well_formed(c)
        assert ref_language_upto(c, 3) == ref_language_upto(a, 3) & ref_language_upto(b, 3)

    def test_result_equals_its_text_round_trip(self):
        # A machine is its states, initial, transitions and finals: the
        # symbols only a's dropped step used leave no trace in the result.
        a = _machine({("0", "x", "u", "1"), ("0", "y", "v", "1")}, {"1"})
        b = _machine({("0", "x", "u", "1")}, {"1"})
        c = intersect(a, b)
        assert c == b
        assert c == fst_from_text(fst_to_text(c))


class TestMinimize:
    @settings(deadline=None, max_examples=50)
    @given(machines())
    def test_membership_preserved_past_both_sizes(self, m):
        small = minimize(m)
        assert_well_formed(small)
        bound = 2 * max(len(m.states), len(small.states)) + 2
        horizon = min(bound, 5)
        assert ref_language_upto(small, horizon) == ref_language_upto(m, horizon)

    @settings(deadline=None)
    @given(machines())
    def test_idempotent_and_canonical(self, m):
        small = minimize(m)
        assert minimize(small) == small
        renamed = Fst(
            states=tuple(f"s{k}" for k in m.states),
            initial=f"s{m.initial}",
            transitions=frozenset((f"s{s}", i, o, f"s{d}") for (s, i, o, d) in m.transitions),
            finals=frozenset(f"s{k}" for k in m.finals),
        )
        assert minimize(renamed) == small

    @settings(deadline=None)
    @given(machines())
    def test_deterministic_inputs_never_grow(self, m):
        arcs = [(s, i, o) for (s, i, o, _) in m.transitions]
        if len(arcs) != len(set(arcs)):
            return  # nondeterministic: the minimal DFA may be larger
        assert len(minimize(m).states) <= max(len(trim(m).states), 1)

    @settings(deadline=None, max_examples=50)
    @given(machines())
    def test_equivalent_to_input(self, m):
        assert equivalent(minimize(m), m)


class TestEquivalence:
    @settings(deadline=None, max_examples=30)
    @given(machines(max_states=3), machines(max_states=3), machines(max_states=3))
    def test_is_an_equivalence_relation(self, a, b, c):
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)

    @settings(deadline=None, max_examples=50)
    @given(machines(max_states=3), machines(max_states=3))
    def test_counterexample_is_a_shortest_difference(self, a, b):
        w = counterexample(a, b)
        if w is None:
            assert ref_language_upto(a, 4) == ref_language_upto(b, 4)
            return
        assert ref_accepts(a, w) != ref_accepts(b, w)
        if len(w) <= 4:
            for shorter in ref_language_upto(a, len(w) - 1) ^ ref_language_upto(b, len(w) - 1):
                assert len(shorter) >= len(w)

    def test_renaming_is_invisible(self, demo_attacker):
        renamed = Fst(
            states=("p", "q"),
            initial="p",
            transitions=frozenset({("p", "a3", "a1", "q"), ("p", "a1", "a3", "q"), ("q", "a1", "a2", "p")}),
            finals=frozenset({"p", "q"}),
        )
        assert equivalent(demo_attacker, renamed)
        assert counterexample(demo_attacker, renamed) is None


class TestBoundedLanguage:
    @settings(deadline=None, max_examples=50)
    @given(machines(max_states=3))
    def test_matches_brute_force(self, m):
        assert set(language_upto(m, 3)) == ref_language_upto(m, 3)

    def test_demo_attacker_exact(self, demo_attacker):
        got = set(language_upto(demo_attacker, 2))
        assert got == {
            (),
            (("a3", "a1"),),
            (("a1", "a3"),),
            (("a3", "a1"), ("a1", "a2")),
            (("a1", "a3"), ("a1", "a2")),
        }

    def test_word_bound_is_checked_before_the_frontier_is_built(self, monkeypatch):
        # One state and 300 letters: the words of length 2 would be 90 000
        # (about 60 MB); the bound stops the frontier at its 1 001st word.
        m = Fst(("0",), "0", frozenset(("0", f"a{k}", "u", "0") for k in range(300)), frozenset({"0"}))
        monkeypatch.setattr(fst_module, "MAX_WORDS", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^language enumeration exceeded 1000 words$"):
                language_upto(m, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_word_bound_admits_exactly_the_words_kept(self, monkeypatch, demo_attacker):
        monkeypatch.setattr(fst_module, "MAX_WORDS", 5)
        assert len(language_upto(demo_attacker, 2)) == 5
        monkeypatch.setattr(fst_module, "MAX_WORDS", 4)
        with pytest.raises(ResourceLimitError, match="^language enumeration exceeded 4 words$"):
            language_upto(demo_attacker, 2)


class TestPrefixClosed:
    @settings(deadline=None, max_examples=50)
    @given(machines(require_final=True))
    def test_all_final_after_trim_means_closed(self, m):
        t = trim(m)
        if set(t.finals) == set(t.states) and t.finals:
            assert is_prefix_closed(m)

    @settings(deadline=None, max_examples=50)
    @given(machines())
    def test_bounded_refutation_agrees(self, m):
        lang = ref_language_upto(m, 4)
        refuted = any(w[:k] not in lang for w in lang for k in range(len(w)))
        if refuted:
            assert not is_prefix_closed(m)

    def test_all_final_machine_needs_no_subset_walk(self, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("walked the subsets of an all-final machine")

        monkeypatch.setattr(fst_module, "_subsets", walk)
        assert is_prefix_closed(_ring(1000))

    def test_empty_language_is_closed(self):
        m = Fst(states=("0",), initial="0", transitions=frozenset(), finals=frozenset())
        assert is_prefix_closed(m)

    def test_star_language_without_prefixes_is_not_closed(self):
        m = Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "x", "u", "1"), ("1", "y", "v", "0")}),
            finals=frozenset({"0"}),
        )
        assert not is_prefix_closed(m)


def _machine(transitions, finals) -> Fst:
    states = sorted({t[0] for t in transitions} | {t[3] for t in transitions} | {"0"})
    return Fst(tuple(states), "0", frozenset(transitions), frozenset(finals))


# Nondeterministic machines with eps on one side of some letters. Several
# states have two arcs on the same letter, so the order in which arcs are
# visited decides how the results' states are numbered.
TIE_A = _machine(
    {("0", "x", "m", "1"), ("0", "x", "m", "2"), ("0", "y", EPS, "2"), ("1", "y", "n", "3"),
     ("2", "x", "n", "3"), ("2", "y", "m", "0"), ("3", "x", "m", "1")},
    {"0", "3"},
)
TIE_B = _machine(
    {("0", "m", "p", "1"), ("0", "m", "q", "0"), ("0", EPS, "r", "1"), ("1", "n", "p", "0"),
     ("1", "m", "q", "1"), ("1", "n", "q", "2"), ("2", "m", "p", "0")},
    {"0", "2"},
)
TIE_C = _machine(
    {("0", "x", "m", "1"), ("0", "x", "m", "0"), ("0", "y", EPS, "1"), ("1", "y", "n", "0"),
     ("1", "x", "n", "1"), ("1", "y", "m", "0")},
    {"0", "1"},
)


class TestByteStableOutput:
    """Exact text of constructed machines, so state numbering cannot drift."""

    def test_compose(self):
        assert fst_to_text(compose(TIE_A, TIE_B)) == (
            "fst v1\ninitial 0\nfinal 0 6 7\n"
            "trans 0 <eps> r 1\ntrans 0 x p 2\ntrans 0 x p 3\ntrans 0 x q 4\n"
            "trans 0 x q 5\ntrans 0 y <eps> 5\ntrans 0 y r 3\ntrans 1 x q 2\n"
            "trans 1 x q 3\ntrans 1 y <eps> 3\ntrans 2 y p 6\ntrans 2 y q 7\n"
            "trans 3 x p 6\ntrans 3 x q 7\ntrans 3 y q 1\ntrans 4 <eps> r 2\n"
            "trans 5 <eps> r 3\ntrans 5 y p 1\ntrans 5 y q 0\ntrans 6 <eps> r 8\n"
            "trans 6 x p 2\ntrans 6 x q 4\ntrans 7 x p 4\ntrans 8 x q 2\n"
        )

    def test_intersect(self):
        assert fst_to_text(intersect(TIE_A, TIE_C)) == (
            "fst v1\ninitial 0\nfinal 0 3 4\n"
            "trans 0 x m 1\ntrans 0 x m 2\ntrans 0 y <eps> 2\ntrans 1 y n 3\n"
            "trans 2 x n 4\ntrans 2 y m 0\ntrans 3 x m 1\n"
        )

    def test_minimize(self):
        assert fst_to_text(minimize(TIE_A)) == (
            "fst v1\ninitial 0\nfinal 0 3\n"
            "trans 0 x m 1\ntrans 0 y <eps> 2\ntrans 1 x n 3\ntrans 1 y m 0\n"
            "trans 1 y n 3\ntrans 2 x n 3\ntrans 2 y m 0\ntrans 3 x m 4\n"
            "trans 4 y n 3\n"
        )

    def test_pattern_to_fst(self):
        assert fst_to_text(pattern_to_fst("((x:u)*(y:<eps>)(<eps>:v))*")) == (
            "fst v1\ninitial 0\nfinal 0 1\n"
            "trans 0 x u 0\ntrans 0 y <eps> 1\ntrans 1 <eps> v 0\n"
        )

    def test_counterexample(self):
        # Each pair has two shortest differences; the witness is the first
        # in BFS order over sorted letters.
        assert counterexample(TIE_A, TIE_C) == (("x", "m"),)
        assert counterexample(intersect(TIE_A, TIE_C), TIE_A) == (
            ("x", "m"), ("x", "n"), ("x", "m"), ("y", "n"),
        )


def _ring(n: int, finals=None) -> Fst:
    """A one-letter cycle of n states, all of them final unless finals is given."""
    if finals is None:
        finals = {str(k) for k in range(n)}
    return _machine({(str(k), "a", "a", str((k + 1) % n)) for k in range(n)}, finals)


def _ring_with_detour(n: int) -> Fst:
    """_ring(n) plus a non-final state x on a second path from 0 to 2.

    Every subset still holds a ring state, so the language is prefix
    closed, but only a walk over the n subsets shows it.
    """
    ring = _ring(n)
    detour = {("0", "a", "a", "x"), ("x", "a", "a", "2")}
    return _machine(ring.transitions | detour, ring.finals)


def _ring_loop():
    """A plant 4-ring and a supervisor 3-ring between identity attackers: a loop of 12 nodes."""
    return _ring(4), _ring(3), _ring(1), _ring(1)


class TestStateBound:
    @pytest.mark.parametrize(
        "build, needed, what",
        [
            (lambda: compose(_ring(3), _ring(4)), 12, "composition"),
            (lambda: intersect(_ring(3), _ring(4)), 12, "intersection"),
            (lambda: minimize(_ring(5)), 5, "determinization"),
            (lambda: is_prefix_closed(_ring_with_detour(5)), 5, "determinization"),
            (lambda: counterexample(_ring(3), _ring(4)), 12, "equivalence check"),
            (lambda: verify_resilient(*_ring_loop(), _ring(1)), 12, "equivalence check"),
            # Three subsets of token nodes, each closed under silent links: {0, 1}, {2, 3}, {4}.
            (lambda: pattern_to_fst("(x:u)(y:v)"), 3, "determinization"),
        ],
        ids=["compose", "intersect", "minimize", "is_prefix_closed", "counterexample", "verify_resilient",
             "pattern_to_fst"],
    )
    def test_bound_admits_exactly_the_nodes_needed(self, monkeypatch, build, needed, what):
        monkeypatch.setattr(fst_module, "MAX_STATES", needed)
        build()
        monkeypatch.setattr(fst_module, "MAX_STATES", needed - 1)
        with pytest.raises(ResourceLimitError, match=f"^{what} exceeded the {needed - 1}-state bound$"):
            build()

    def test_counterexample_stops_at_the_first_difference(self, monkeypatch):
        # The product of these rings is one cycle of 10 100 nodes, but they
        # first differ at a^100, the 101st node the walk numbers.
        a, b = _ring(100, {"0"}), _ring(101, {"0"})
        assert counterexample(a, b) == (("a", "a"),) * 100
        monkeypatch.setattr(fst_module, "MAX_STATES", 101)
        assert counterexample(a, b) == (("a", "a"),) * 100

    def test_counterexample_needs_only_the_nodes_up_to_the_difference(self, monkeypatch):
        # The ring alone has 5 subsets; the difference lies at the second pair.
        monkeypatch.setattr(fst_module, "MAX_STATES", 3)
        empty_word_only = Fst(("0",), "0", frozenset(), frozenset({"0"}))
        assert counterexample(_ring(5), empty_word_only) == (("a", "a"),)

    def test_verify_numbers_every_loop_node_before_it_compares(self, monkeypatch):
        # The loop differs from the empty word's language at its first
        # letter, but all 12 of its nodes are numbered first.
        empty_word_only = Fst(("0",), "0", frozenset(), frozenset({"0"}))
        monkeypatch.setattr(fst_module, "MAX_STATES", 12)
        assert verify_resilient(*_ring_loop(), empty_word_only).witness == (("a", "a"),)
        monkeypatch.setattr(fst_module, "MAX_STATES", 11)
        with pytest.raises(ResourceLimitError, match="^equivalence check exceeded the 11-state bound$"):
            verify_resilient(*_ring_loop(), empty_word_only)

    def test_prefix_closure_needs_only_the_subsets_up_to_a_rejecting_one(self, monkeypatch):
        monkeypatch.setattr(fst_module, "MAX_STATES", 3)
        assert not is_prefix_closed(_ring(5, {"0"}))


def _dead_end() -> Fst:
    """A machine with a state that reaches no final one, so trim drops it."""
    return Fst(("0", "1", "2"), "0", frozenset({("0", "x", "u", "1"), ("0", "y", "v", "2")}), frozenset({"1"}))


def _unreachable() -> Fst:
    """A machine with a final state that no path from the initial one enters."""
    return Fst(("0", "1", "2"), "0", frozenset({("0", "x", "u", "1"), ("2", "y", "v", "1")}), frozenset({"0", "1", "2"}))


class TestAgainstDeterminizedTables:
    """The on-the-fly subset walks give the outputs of a full determinized table."""

    @settings(deadline=None, max_examples=100)
    @given(machines(max_states=5, letters=PAIR_LETTERS + EPS_LETTERS))
    @example(_unreachable())
    def test_minimize_text(self, m):
        closed = Fst(m.states, m.initial, m.transitions, frozenset(m.states))
        for machine in (m, closed):
            small = minimize(machine)
            assert fst_to_text(small) == fst_to_text(ref_minimize(machine))
            assert_built_as_checked(small)

    @settings(deadline=None, max_examples=100)
    @given(
        machines(max_states=4, letters=PAIR_LETTERS[:2] + EPS_LETTERS),
        machines(max_states=4, letters=PAIR_LETTERS[:2] + EPS_LETTERS),
    )
    @example(_unreachable(), _dead_end())
    def test_counterexample_witness(self, a, b):
        assert counterexample(a, b) == ref_counterexample(a, b)
        both = intersect(a, b)
        assert counterexample(both, a) == ref_counterexample(both, a)
        closed = Fst(a.states, a.initial, a.transitions, frozenset(a.states))
        assert counterexample(closed, b) == ref_counterexample(closed, b)
        assert counterexample(b, closed) == ref_counterexample(b, closed)

    @settings(deadline=None, max_examples=100)
    @given(machines(max_states=5, letters=PAIR_LETTERS + EPS_LETTERS))
    @example(_unreachable())
    def test_prefix_closed_verdict(self, m):
        assert is_prefix_closed(m) == ref_is_prefix_closed(m)
        # Random finals rarely give a closed language; all-final machines always do.
        closed = Fst(m.states, m.initial, m.transitions, frozenset(m.states))
        assert is_prefix_closed(closed) == ref_is_prefix_closed(closed)


LETTER_TEXTS = ("(x:u)", "(y:v)", "(x:<eps>)", "(<eps>:u)")


def _starred(items):
    return st.tuples(items, st.booleans()).map(lambda p: p[0] + "*" * p[1])


# Patterns over letters with eps on either side: letters and groups, each
# possibly starred, nested.
PATTERNS = st.lists(
    _starred(
        st.recursive(
            st.sampled_from(LETTER_TEXTS),
            lambda inner: st.lists(_starred(inner), min_size=1, max_size=3).map(lambda xs: "(" + "".join(xs) + ")"),
            max_leaves=6,
        )
    ),
    max_size=4,
).map("".join)


def _on_the_reference_path(build, *args):
    """build(*args) with machines named as before the one builder: a raw
    machine, trimmed by the reference's own walks, then a renaming, each
    built through Fst's checks, and silent steps closed node by node. A
    pattern is read by ref_pattern_to_fst, which builds on that path."""
    machine = fst_module._machine
    build = {pattern_to_fst: ref_pattern_to_fst}.get(build, build)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # synthesize on a language that is not prefix-closed
        # trim's empty-language machine, _machine([], ()), is let through: ref_machine trims.
        mp.setattr(fst_module, "_machine", lambda arcs, finals: (ref_machine if arcs else machine)(arcs, finals))
        mp.setattr(fst_module, "close_silent", ref_close_silent)
        return build(*args)


def _all_final(n: int) -> Fst:
    """An all-final ring that also inserts and deletes u, so its products have silent steps."""
    states = tuple(str(k) for k in range(n))
    moves = {(s, "x", "u", str((k + 1) % n)) for k, s in enumerate(states)}
    moves |= {(s, i, o, s) for s in states for (i, o) in ((EPS, "u"), ("u", EPS))}
    return Fst(states, "0", frozenset(moves), frozenset(states))


class TestOneBuilder:
    """compose, intersect and pattern_to_fst name and build their machines
    once, on node numbers, with the text of the reference path; minimize's
    text is checked against ref_minimize above."""

    @settings(deadline=None, max_examples=100)
    @given(
        machines(max_states=4, letters=PAIR_LETTERS[:2] + EPS_LETTERS),
        machines(max_states=4, letters=PAIR_LETTERS[:2] + EPS_LETTERS),
        machines(max_states=3, letters=PAIR_LETTERS[:2] + EPS_LETTERS),
    )
    # Every product node final, so the builder skips the walk back from the
    # finals; then a dead state and an unreachable one, which need both walks.
    @example(_all_final(3), _all_final(2), _all_final(1))
    @example(_dead_end(), _all_final(2), _unreachable())
    @example(_unreachable(), _unreachable(), _dead_end())
    def test_products_match_the_reference_path(self, a, b, c):
        for build, args in ((compose, (a, b)), (intersect, (a, b)), (synthesize, (a, b, c))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                made = build(*args)
            assert fst_to_text(made) == fst_to_text(_on_the_reference_path(build, *args))
            assert_built_as_checked(made)

    @settings(deadline=None, max_examples=100)
    @given(PATTERNS)
    def test_pattern_to_fst_matches_the_reference_path(self, text):
        made = pattern_to_fst(text)
        assert fst_to_text(made) == fst_to_text(_on_the_reference_path(pattern_to_fst, text))
        assert_built_as_checked(made)

    @pytest.mark.parametrize("text", ["(a#b:u)", "(x:<empty>)", "(x:u)((<empty>:v)(y:a#))*"])
    def test_pattern_letters_are_checked_as_on_the_reference_path(self, text):
        with pytest.raises(FormatError) as made:
            pattern_to_fst(text)
        with pytest.raises(FormatError) as ref:
            _on_the_reference_path(pattern_to_fst, text)
        assert str(made.value) == str(ref.value)

    def test_ties_are_broken_on_the_node_number_as_a_string(self):
        # Node 1 reaches nodes 9 and 10 on one letter: "10" sorts first, so
        # node 10 is named 2 and node 9, which moves on to it, 3.
        edges = [[("x", "u", 1)]] + [[] for _ in range(10)]
        edges[1] = [("y", "v", 9), ("y", "v", 10)]
        edges[9] = [("x", "v", 10)]
        made = fst_module._machine(edges, {10})
        assert made == ref_machine(edges, {10})
        assert made.arcs["3"] == (("x", "v", "2"),)


@st.composite
def numbered_graphs(draw, max_nodes: int = 7):
    """A numbered graph as explore gives it, silent (EPS, EPS) moves common, and its finals."""
    n = draw(st.integers(1, max_nodes))
    letters = st.sampled_from(((EPS, EPS), (EPS, EPS)) + PAIR_LETTERS[:2] + EPS_LETTERS[:1])
    moves = st.lists(st.tuples(letters, st.integers(0, n - 1)), max_size=4)
    edges = [[(i, o, t) for ((i, o), t) in draw(moves)] for _ in range(n)]
    return edges, draw(st.sets(st.integers(0, n - 1)))


# Reads PAIR_LETTERS[:2] and EPS_LETTERS[0]; a closed graph is compared with it.
_SILENT_SIDE = Fst(
    ("0", "1"),
    "0",
    frozenset({("0", *PAIR_LETTERS[0], "1"), ("1", *PAIR_LETTERS[1], "0"), ("1", *EPS_LETTERS[0], "1")}),
    frozenset({"0"}),
)


def _ring_into_ring(n: int, m: int):
    """A silent ring of n nodes, each with one more silent move into a silent
    ring of m nodes that each have a letter move; the last node is final."""
    edges = [[(EPS, EPS, (k + 1) % n), (EPS, EPS, n + k % m)] for k in range(n)]
    edges += [[(EPS, EPS, n + (j + 1) % m), (*PAIR_LETTERS[0], n + j)] for j in range(m)]
    return edges, {n + m - 1}


class TestSilentClosure:
    """close_silent closes each strongly connected component of the silent
    moves once; the reference closes each node on its own."""

    @settings(deadline=None, max_examples=300)
    @given(numbered_graphs())
    @example(([[(EPS, EPS, 1)], [(EPS, EPS, 2), ("x", "u", 0)], [(EPS, EPS, 0)]], {2}))  # one silent cycle
    @example(([[(EPS, EPS, 0), (EPS, EPS, 1)], [(EPS, EPS, 2)], [("y", "v", 2)]], set()))  # a chain into a loop
    @example(([[(EPS, EPS, 1)], [(EPS, EPS, 2), ("y", "v", 0)], [(EPS, EPS, 3)], [("x", "u", 3)]], {0, 1, 2, 3}))  # an all-final chain
    @example(_ring_into_ring(3, 2))  # a silent ring with many silent moves into one below
    @example(_ring_into_ring(2, 5))
    def test_same_closure_as_node_by_node(self, graph):
        edges, finals = graph
        closed, ref = fst_module.close_silent(edges, finals), ref_close_silent(edges, finals)
        assert closed.finals == ref.finals
        assert [sorted(out) for out in closed.arcs] == [sorted(out) for out in ref.arcs]
        made = fst_module._machine(closed.arcs, closed.finals)
        assert fst_to_text(made) == fst_to_text(fst_module._machine(ref.arcs, ref.finals))
        assert counterexample(closed, _SILENT_SIDE) == counterexample(ref, _SILENT_SIDE)

    def test_a_component_below_is_merged_once_per_component(self):
        # The upper ring has n silent moves into the lower ring's component.
        # Merging its closure once per component takes 0.06-0.12 s at
        # n = m = 20,000; once per edge, 3.7-5.6 s (0.6-1.1 s at 10,000).
        edges, finals = _ring_into_ring(20_000, 20_000)
        t0 = time.perf_counter()
        closed = fst_module.close_silent(edges, finals)
        assert time.perf_counter() - t0 < 0.5
        assert closed.arcs[0] is closed.arcs[19_999] and len(closed.arcs[0]) == 20_000
        assert closed.finals == set(range(40_000))


class TestNoReferenceCycles:
    """Machines are freed by reference counting alone: no machine, whether
    built, trimmed or returned by trim as it is, refers to itself."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (compose(_ring(3), _ring(2)),),
            lambda: (minimize(_dead_end()),),
            lambda: (lambda m: (m, trim(m)))(_ring(3)),
            lambda: (lambda m: (m, trim(m)))(_dead_end()),
        ],
        ids=["compose", "minimize", "trim of a trim machine", "trim of an untrimmed machine"],
    )
    def test_results_die_with_their_last_reference(self, build):
        gc.disable()
        try:
            refs = [weakref.ref(m) for m in build()]
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


_INSTANCE_KEYS = {"states", "initial", "transitions", "finals", "arcs"}


class TestNothingIsRememberedOnAMachine:
    """A machine keeps its four fields and, once read, its transition index;
    no operation leaves anything else on it."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda a, b: trim(a),
            lambda a, b: compose(a, b),
            lambda a, b: minimize(a),
            lambda a, b: counterexample(a, b),
            lambda a, b: is_prefix_closed(a),
        ],
        ids=["trim", "compose", "minimize", "counterexample", "is_prefix_closed"],
    )
    @pytest.mark.parametrize(
        "pair",
        [
            lambda: (_dead_end(), _ring(2)),
            lambda: (_unreachable(), _dead_end()),
            lambda: (_ring(3, finals={"0"}), compose(_ring(2), _all_final(2))),
            lambda: (_all_final(2), _unreachable()),
        ],
        ids=["dead end", "unreachable", "built", "all final"],
    )
    def test_only_fields_and_index(self, run, pair):
        a, b = pair()
        result = run(a, b)
        for machine in (a, b, result, trim(a), trim(b)):
            if isinstance(machine, Fst):
                assert vars(machine).keys() <= _INSTANCE_KEYS

    def test_loop_config_leaves_only_fields_and_index(self):
        machines = (_ring(3), compose(_ring(2), _ring(1)), _ring(1), _ring(2))
        with pytest.raises(ValueError, match="actuator_attacker must be trim"):
            LoopConfig(*machines[:3], _dead_end(), max_steps=3, seed=0)
        config = LoopConfig(*machines, max_steps=3, seed=0)
        assert config._moves
        for machine in machines:
            assert vars(machine).keys() <= _INSTANCE_KEYS
