"""Text round-trips for machines, datasets, words, and the grid dump."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstlearn import (
    EPS,
    FormatError,
    Fst,
    SampleSet,
    fst_from_text,
    fst_to_text,
    load_dataset,
    load_fst,
    sample_attacker,
    save_dataset,
    sampleset_from_text,
    sampleset_to_text,
    word_from_text,
    word_to_text,
)
import fstlearn.formats as formats
from fstlearn.formats import grid, letter_from_text, letter_to_text
from oracles import PAIR_LETTERS, ref_fst_from_text, ref_sampleset_from_text
from test_fst import machines

DEMO = Path(__file__).resolve().parent.parent / "demo"


# Dataset tokens: valid letters (<eps> on either side), the empty-word
# token, whitespace, comments, and malformed letters. "\x0c" and "\u2028"
# end a line for str.splitlines; they, "\x1f" and "\u00a0" separate tokens
# for str.split.
TOKENS = (
    "x:u", "y:v", "<eps>:u", "x:<eps>", "<empty>", "", " ", "\t",
    "# note", "#", "a:", ":b", "a:b:c", "<eps>:<eps>", "word",
    "\x0c", "\x1f", "\u00a0", "\u2028",
)
ENDS = ("\n", "\r\n", "  # end\n", "")
# What may stand between a line and the token that extends it.
SEPARATORS = (" ", "  ", "\t", "\x1f", " # c ")


@st.composite
def extending_lines(draw):
    """Lines that are mostly an earlier line, a separator and a token; sometimes shuffled.
    The valid letters, TOKENS[:4], are drawn more often so that extended lines stay valid."""
    lines = []
    for tok in draw(st.lists(st.one_of(st.sampled_from(TOKENS[:4]), st.sampled_from(TOKENS)), max_size=10)):
        if lines and draw(st.booleans()):
            sep = draw(st.one_of(st.just(" "), st.sampled_from(SEPARATORS)))
            tok = draw(st.sampled_from(lines)) + sep + tok
        lines.append(tok)
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "".join(line + "\n" for line in lines)


def _outcome(parse, text):
    try:
        d = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d.words, d.alphabet


class TestWords:
    def test_empty_word_token(self):
        assert word_to_text(()) == "<empty>"
        assert word_from_text("<empty>") == ()
        assert word_from_text("   ") == ()

    def test_eps_sides(self):
        assert letter_to_text(("x", EPS)) == "x:<eps>"
        assert letter_from_text("<eps>:u") == (EPS, "u")

    @given(st.lists(st.sampled_from(PAIR_LETTERS + (("x", EPS), (EPS, "u"))), max_size=6))
    def test_round_trip(self, letters):
        w = tuple(letters)
        assert word_from_text(word_to_text(w)) == w

    def test_stay_letter_rejected(self):
        with pytest.raises(FormatError):
            word_from_text("<eps>:<eps>")

    def test_malformed_letter_rejected(self):
        for bad in ("x", "x:", ":u", "x:u:v"):
            with pytest.raises(FormatError):
                word_from_text(bad)


# Machine-file lines over good and bad state names and symbols, with or
# without the header.
_STATE_TOKENS = st.sampled_from(["0", "1", "q", "<eps>", "<empty>"])
_SYMBOL_TOKENS = st.sampled_from(["x", "u", "<eps>", "a:b", "<empty>"])
MACHINE_TEXTS = st.tuples(
    st.sampled_from([["fst v1"], []]),
    st.lists(
        st.one_of(
            _STATE_TOKENS.map("initial {}".format),
            st.lists(_STATE_TOKENS, max_size=3).map(lambda names: " ".join(["final", *names])),
            st.tuples(_STATE_TOKENS, _SYMBOL_TOKENS, _SYMBOL_TOKENS, _STATE_TOKENS).map(
                lambda parts: "trans {} {} {} {}".format(*parts)
            ),
            st.sampled_from(["", "# note", "trans 0 x", "states 0"]),
        ),
        max_size=6,
    ),
).map(lambda parts: "\n".join(parts[0] + parts[1]))


class TestMachineFormat:
    @settings(deadline=None)
    @given(machines())
    def test_round_trip_is_byte_stable(self, m):
        text = fst_to_text(m)
        again = fst_from_text(text)
        assert fst_to_text(again) == text

    @settings(deadline=None)
    @given(machines())
    def test_round_trip_preserves_language_structure(self, m):
        again = fst_from_text(fst_to_text(m))
        assert again.initial == m.initial
        assert again.finals == m.finals
        assert again.transitions == m.transitions

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\nfst v1\n\ninitial 0  # the start\nfinal 0\n"
        m = fst_from_text(text)
        assert m.initial == "0" and m.finals == frozenset({"0"})

    def test_eps_token_in_transitions(self):
        text = "fst v1\ninitial 0\nfinal 1\ntrans 0 x <eps> 1\n"
        m = fst_from_text(text)
        assert ("0", "x", EPS, "1") in m.transitions

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            fst_from_text("initial 0\nfinal 0\n")

    def test_comment_only_file_rejected(self):
        with pytest.raises(FormatError, match="^empty machine file$"):
            fst_from_text("# nothing here\n\n")

    def test_missing_initial_rejected(self):
        with pytest.raises(FormatError):
            fst_from_text("fst v1\nfinal 0\n")

    def test_duplicate_initial_rejected(self):
        with pytest.raises(FormatError):
            fst_from_text("fst v1\ninitial 0\ninitial 1\nfinal 0\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(FormatError):
            fst_from_text("fst v1\ninitial 0\nstates 0 1\n")

    def test_bad_transition_arity_rejected(self):
        with pytest.raises(FormatError):
            fst_from_text("fst v1\ninitial 0\ntrans 0 x 1\n")

    @pytest.mark.parametrize(
        "line, problem",
        [("trans 0 a:b u 0", "bad symbol 'a:b': no whitespace, ':' or '#', and reserved tokens are not symbols"),
         ("final 0 <empty>", "bad state name '<empty>'"),
         ("trans 0 x u <eps>", "bad state name '<eps>'"),
         ("trans 0 <eps> <eps> 0", "the (eps,eps) letter is reserved for the implicit stay transition")],
        ids=["symbol", "final-state", "trans-state", "stay-letter"],
    )
    def test_bad_line_is_named(self, line, problem):
        with pytest.raises(FormatError) as exc:
            fst_from_text(f"fst v1\ninitial 0\n# a comment\n{line}\nfinal 0\n")
        assert str(exc.value) == f"line 4: {problem}"

    @settings(deadline=None, max_examples=300)
    @given(MACHINE_TEXTS)
    def test_same_machine_or_rejection_as_checking_at_the_end(self, text):
        # The parser builds without Fst's checks, so its own must leave
        # nothing for them to find.
        def read(parse):
            try:
                return parse(text)
            except FormatError:
                return None

        made = read(fst_from_text)
        assert made == read(ref_fst_from_text)
        if made is not None:
            assert Fst(made.states, made.initial, made.transitions, made.finals) == made


class TestDatasetFormat:
    def test_demo_dataset_round_trip(self, demo_dataset):
        text = sampleset_to_text(demo_dataset)
        assert sampleset_from_text(text).words == demo_dataset.words
        assert text.splitlines()[0] == "<empty>"

    @given(st.sets(st.lists(st.sampled_from(PAIR_LETTERS), max_size=4).map(tuple), max_size=12))
    def test_round_trip(self, words):
        d = SampleSet.from_words(words)
        assert sampleset_from_text(sampleset_to_text(d)).words == d.words

    def test_blank_line_is_the_empty_word(self):
        for text in ("x:u\n\n", "x:u\n \t \n"):
            d = sampleset_from_text(text)
            assert d.words == frozenset({(("x", "u"),), ()})

    def test_comment_only_line_is_skipped(self):
        for text in ("x:u\n# note\n", "x:u\n   # indented note\n"):
            d = sampleset_from_text(text)
            assert d.words == frozenset({(("x", "u"),)})

    def test_inline_comment_stripped(self):
        d = sampleset_from_text("x:u y:v # observed twice\n")
        assert d.words == frozenset({(("x", "u"), ("y", "v"))})

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(TOKENS), max_size=5), st.sampled_from(ENDS)), max_size=8))
    def test_same_result_as_parsing_every_token_afresh(self, lines):
        text = "".join(" ".join(toks) + end for toks, end in lines)
        want = _outcome(ref_sampleset_from_text, text)
        got = _outcome(sampleset_from_text, text)
        assert got == want

    @settings(max_examples=300)
    @given(extending_lines())
    @example("<empty>\n<empty> x:u\n")
    @example("x:u\n<empty>\n<empty> x:u\n")  # x:u is known when '<empty> x:u' is read
    @example("x:u # c\nx:u  y:v\n")
    @example("x:u\nx:u\ty:v\n")
    @example("x:u\nx:u\x1fy:v\n")
    @example("   \n    x:u\n")
    def test_a_line_read_as_an_earlier_line_plus_a_letter_reads_the_same(self, text):
        want = _outcome(ref_sampleset_from_text, text)
        got = _outcome(sampleset_from_text, text)
        assert got == want

    def test_a_line_that_extends_an_earlier_line_is_not_split(self, demo_attacker, monkeypatch, tmp_path):
        # A shortlex, prefix-closed file: each line is an earlier line plus one token,
        # so only the empty word and each token's first line take the line rule.
        path = tmp_path / "exhaustive.txt"
        save_dataset(sample_attacker(demo_attacker, 0, 9, exhaustive=True), path)
        calls, word_from_tokens = [], formats._word_from_tokens

        def counting(toks, letters):
            calls.append(toks)
            return word_from_tokens(toks, letters)

        monkeypatch.setattr(formats, "_word_from_tokens", counting)
        d = load_dataset(path)
        assert len(d.words) == 93
        assert len(calls) <= len(d.alphabet) + 1

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        calls, checks = [], []

        def counting(tok):
            calls.append(tok)
            return letter_from_text(tok)

        monkeypatch.setattr(formats, "letter_from_text", counting)
        monkeypatch.setattr(SampleSet, "__post_init__", lambda d: checks.append(d))
        d = sampleset_from_text("x:u <eps>:v x:u\n" * 3000 + "<eps>:v\n")
        assert sorted(calls) == ["<eps>:v", "x:u"]
        assert checks == []  # the read set is built from checked letters, not checked again
        assert d.words == frozenset({(("x", "u"), (EPS, "v"), ("x", "u")), ((EPS, "v"),)})
        assert d.alphabet == ((EPS, "v"), ("x", "u"))

    @pytest.mark.parametrize("path", sorted(DEMO.glob("*_samples.txt")), ids=lambda p: p.name)
    def test_read_set_equals_a_checked_one(self, path):
        d = load_dataset(str(path))
        assert SampleSet(d.words) == d

    def test_bad_token_is_reported_at_its_first_occurrence(self):
        with pytest.raises(FormatError, match="'bad1'"):
            sampleset_from_text("x:u bad1\nbad2\n")

    def test_word_order_is_shortlex(self):
        d = SampleSet.from_words({(("y", "v"),), (("x", "u"), ("x", "u")), ()})
        assert sampleset_to_text(d) == "<empty>\ny:v\nx:u x:u\n"


class TestByteOrderMark:
    """One leading U+FEFF is not text: it neither joins the first token nor hides the header."""

    @pytest.mark.parametrize("name, load", [("attacker_samples.txt", load_dataset), ("mk.fst", load_fst)])
    def test_demo_files_with_a_bom_load_as_without(self, name, load, tmp_path):
        bom = tmp_path / name
        bom.write_bytes(b"\xef\xbb\xbf" + (DEMO / name).read_bytes())
        assert load(str(bom)) == load(str(DEMO / name))


class TestGrid:
    def test_alignment_and_labels(self):
        out = grid([(1, 0), (0, 1)], [(), (("x", "u"),)], [(), (("y", "v"),)], "H_theta")
        assert out == "H_theta\n        <empty> y:v\n<empty>       1   0\nx:u           0   1\n"

    def test_each_column_is_as_wide_as_its_label(self):
        xu, yv = ("x", "u"), ("y", "v")
        out = grid([(0, 1, 1)], [(xu, yv)], [(), (xu,), (xu, yv)], "m")
        assert out == "m\n        <empty> x:u x:u y:v\nx:u y:v       0   1       1\n"
