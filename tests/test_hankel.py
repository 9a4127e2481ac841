"""Binary Hankel blocks, mask discovery, and the closedness check."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fstlearn.hankel
from fstlearn import (
    AnalysisError,
    EPS,
    Fst,
    HankelSet,
    Mask,
    NaturalityError,
    ResourceLimitError,
    SampleSet,
    accepts,
    build_h_chi,
    build_h_theta,
    build_hankel_set,
    check_closed,
    extract_tuple,
    find_basis,
    full_rank_decompose,
    language_upto,
    learn_fst,
    minimize,
    naturalize,
    numeric_rank,
    trim,
    tuple_to_fst,
)
from fstlearn.hankel import block_rows, eliminate
from conftest import (
    CHI1,
    CHI2,
    CHI3,
    DEMO_WORDS,
    GOLDEN_H_CHI1,
    GOLDEN_H_CHI2,
    GOLDEN_H_CHI3,
    GOLDEN_H_THETA,
    GOLDEN_MASK,
    STRAY_IN_SPAN_WORDS,
    STRAY_OUT_OF_SPAN_WORDS,
    XU,
    YV,
)
from oracles import (
    PAIR_LETTERS,
    _first_of_each as ref_first_of_each,
    default_mask_len,
    full_candidate_rank,
    random_attacker,
    ref_check_closed,
    ref_eliminate,
    ref_find_basis_full_block,
    ref_hankel,
    spectral_ground_truth,
)


def words_strategy(max_words: int = 6, max_len: int = 3, letters=PAIR_LETTERS):
    letter = st.sampled_from(letters)
    word = st.lists(letter, max_size=max_len).map(tuple)
    return st.frozensets(word, max_size=max_words)


class TestMask:
    def test_empty_word_must_lead_both_sides(self):
        with pytest.raises(ValueError):
            Mask(prefixes=((CHI1,), ()), suffixes=((),))
        with pytest.raises(ValueError):
            Mask(prefixes=((),), suffixes=((CHI1,),))
        with pytest.raises(ValueError):
            Mask(prefixes=(), suffixes=((),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Mask(prefixes=((), (CHI1,), (CHI1,)), suffixes=((),))
        with pytest.raises(ValueError):
            Mask(prefixes=((),), suffixes=((), (CHI2,), (CHI2,)))

    def test_valid_mask_keeps_given_order(self):
        m = Mask(prefixes=((), (CHI2,)), suffixes=((), (CHI3,), (CHI1,)))
        assert m.prefixes == ((), (CHI2,))
        assert m.suffixes == ((), (CHI3,), (CHI1,))


class TestBuilders:
    def test_golden_h_theta(self, demo_dataset):
        assert np.array_equal(build_h_theta(demo_dataset, GOLDEN_MASK), GOLDEN_H_THETA)

    def test_golden_h_chi_blocks(self, demo_dataset):
        assert np.array_equal(
            build_h_chi(demo_dataset, GOLDEN_MASK, CHI1), GOLDEN_H_CHI1
        )
        assert np.array_equal(
            build_h_chi(demo_dataset, GOLDEN_MASK, CHI2), GOLDEN_H_CHI2
        )
        assert np.array_equal(
            build_h_chi(demo_dataset, GOLDEN_MASK, CHI3), GOLDEN_H_CHI3
        )

    def test_empty_dataset_gives_zero_block(self):
        d = SampleSet.from_words([])
        m = Mask(prefixes=((),), suffixes=((),))
        assert np.array_equal(build_h_theta(d, m), np.zeros((1, 1)))

    def test_singleton_empty_word(self):
        d = SampleSet.from_words([()])
        m = Mask(prefixes=((),), suffixes=((),))
        assert np.array_equal(build_h_theta(d, m), np.ones((1, 1)))

    def test_hankel_set_has_one_block_per_letter(self, demo_dataset):
        hz = build_hankel_set(demo_dataset, GOLDEN_MASK)
        assert set(hz.h_chi) == {CHI1, CHI2, CHI3}
        assert hz.alphabet == demo_dataset.alphabet
        assert np.array_equal(hz.h_theta, GOLDEN_H_THETA)

    def test_hankel_set_rejects_shape_mismatch(self, demo_dataset):
        with pytest.raises(ValueError):
            HankelSet(
                mask=GOLDEN_MASK,
                h_theta=np.zeros((2, 2)),
                h_chi={c: np.zeros((3, 4)) for c in (CHI1, CHI2, CHI3)},
            )

    def test_hankel_set_rejects_non_binary_entries(self):
        m = Mask(prefixes=((),), suffixes=((),))
        with pytest.raises(ValueError):
            HankelSet(mask=m, h_theta=np.array([[0.5]]), h_chi={})

    def test_hankel_set_alphabet_is_read_off_h_chi(self, demo_dataset):
        hz = build_hankel_set(demo_dataset, GOLDEN_MASK)
        assert [f.name for f in dataclasses.fields(hz)] == ["mask", "h_theta", "h_chi"]
        assert hz.alphabet == tuple(hz.h_chi) == demo_dataset.alphabet
        with pytest.raises(AttributeError):
            hz.alphabet = ()
        m = Mask(prefixes=((),), suffixes=((),))
        with pytest.raises(TypeError):
            HankelSet(mask=m, h_theta=np.ones((1, 1)), h_chi={CHI1: np.ones((1, 1))}, alphabet=(CHI2,))

    @given(words=words_strategy())
    def test_builder_matches_split_enumeration_oracle(self, words):
        d = SampleSet.from_words(words)
        pset, sset = {()}, {()}
        for w in words:
            for k in range(len(w) + 1):
                pset.add(w[:k])
                sset.add(w[k:])
        mask = Mask(prefixes=tuple(sorted(pset)), suffixes=tuple(sorted(sset)))
        assert np.array_equal(
            build_h_theta(d, mask), ref_hankel(set(words), mask.prefixes, mask.suffixes)
        )

    def test_submask_rows_and_columns_agree_with_full_block(self, demo_dataset):
        pset, sset = {()}, {()}
        for w in DEMO_WORDS:
            for k in range(len(w) + 1):
                pset.add(w[:k])
                sset.add(w[k:])
        full = Mask(prefixes=tuple(sorted(pset)), suffixes=tuple(sorted(sset)))
        big = build_h_theta(demo_dataset, full)
        rows = [full.prefixes.index(p) for p in GOLDEN_MASK.prefixes]
        cols = [full.suffixes.index(s) for s in GOLDEN_MASK.suffixes]
        assert np.array_equal(big[np.ix_(rows, cols)], GOLDEN_H_THETA)


class TestNumericRank:
    def test_golden_block_has_rank_two(self):
        assert numeric_rank(GOLDEN_H_THETA) == 2

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_empty_matrix(self):
        assert numeric_rank(np.zeros((0, 4))) == 0

    def test_tiny_magnitudes_fall_below_the_absolute_floor(self):
        # The tolerance is relative to max(largest singular value, 1), so
        # a uniformly tiny matrix counts as zero rather than full rank.
        assert numeric_rank(1e-12 * np.eye(2)) == 0


class TestFindBasis:
    def test_demo_minimal_mask(self, demo_dataset):
        mask = find_basis(demo_dataset, 1)
        assert mask == Mask(prefixes=((), (CHI2,)), suffixes=((), (CHI3,)))
        assert numeric_rank(build_h_theta(demo_dataset, mask)) == 2

    def test_demo_rank_matches_full_candidate_block(self, demo_dataset):
        assert full_candidate_rank(set(DEMO_WORDS), 1) == 2

    def test_singleton_empty_word(self):
        d = SampleSet.from_words([()])
        assert find_basis(d, 2) == Mask(prefixes=((),), suffixes=((),))

    def test_deterministic(self, demo_dataset):
        assert find_basis(demo_dataset, 1) == find_basis(demo_dataset, 1)

    @given(words=words_strategy(), max_len=st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_mask_rank_equals_full_candidate_rank(self, words, max_len):
        d = SampleSet.from_words(words)
        mask = find_basis(d, max_len)
        got = numeric_rank(build_h_theta(d, mask))
        assert got == full_candidate_rank(set(words), max_len)

    @given(
        words=words_strategy(max_words=8, max_len=5, letters=PAIR_LETTERS + (("x", EPS), (EPS, "u"))),
        prefix_closed=st.booleans(),
        max_len=st.integers(min_value=0, max_value=5),
    )
    @example(words=DEMO_WORDS, prefix_closed=False, max_len=1)
    @example(words=STRAY_OUT_OF_SPAN_WORDS, prefix_closed=False, max_len=1)  # no eps word: eps row zero
    @example(words=STRAY_IN_SPAN_WORDS, prefix_closed=False, max_len=1)
    @settings(max_examples=200, deadline=None)
    def test_nonzero_mask_rows_are_distinct_and_independent(self, words, prefix_closed, max_len):
        # The nonzero H_Theta rows of find_basis's mask are a basis without a second
        # elimination, because each row find_basis adds holds a pivot, at any mask
        # length and at the one learn_pipeline uses.
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        d = SampleSet.from_words(words)
        for n in (max_len, fstlearn.hankel.default_mask_len(d)) if words else (max_len,):
            theta = block_rows(d, find_basis(d, n), ())
            nonzero = [row for row in theta if any(row)]
            assert len(eliminate(theta)) == len(nonzero) == len(set(nonzero))

    @given(
        words=words_strategy(max_words=8, max_len=5, letters=PAIR_LETTERS + (("x", EPS), (EPS, "u"))),
        prefix_closed=st.booleans(),
        max_len=st.integers(min_value=0, max_value=5),
    )
    @example(words=STRAY_IN_SPAN_WORDS, prefix_closed=False, max_len=1)
    @example(words=STRAY_OUT_OF_SPAN_WORDS, prefix_closed=False, max_len=1)
    @settings(max_examples=200, deadline=None)
    def test_with_eps_in_d_h_theta_over_the_mask_is_square_and_nonsingular(self, words, prefix_closed, max_len):
        # learn_pipeline learns only when eps is in D, and then takes every mask row as a
        # state with no closedness test: the H_Theta rows span every row of their width,
        # so no H_chi row can leave their row space.
        words = {(), *words}
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        d = SampleSet.from_words(words)
        for n in (max_len, fstlearn.hankel.default_mask_len(d)):
            theta = block_rows(d, find_basis(d, n), ())
            assert len(theta) == len(theta[0])
            assert sorted(i for i, _ in ref_eliminate(theta)) == list(range(len(theta)))

    def test_traced_peak_stays_small_on_an_exhaustive_sample(self):
        # 6,061 words, all those up to length 13 of a minimal six-state machine.
        # With one list of suffix numbers per prefix the peak is 193-204 kB on
        # Python 3.10-3.13. A set per prefix takes it to 611-631 kB, and a
        # suffix tuple kept per split instead of one number per distinct
        # suffix to 712-733 kB.
        machine = random_attacker(random.Random(41), max_states=9)
        words = set(language_upto(machine, 2 * len(minimize(machine).states) + 1))
        assert len(words) == 6061
        d = SampleSet.from_words(words)
        tracemalloc.start()
        try:
            find_basis(d, default_mask_len(words))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000

    @given(words=words_strategy(), max_len=st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_mask_entries_are_bounded_candidates(self, words, max_len):
        d = SampleSet.from_words(words)
        mask = find_basis(d, max_len)
        prefixes = {w[:k] for w in words for k in range(min(len(w), max_len) + 1)}
        suffixes = {w[k:] for w in words for k in range(len(w) + 1)
                    if len(w) - k <= max_len}
        assert set(mask.prefixes) <= prefixes | {()}
        assert set(mask.suffixes) <= suffixes | {()}
        assert mask.prefixes[0] == () and mask.suffixes[0] == ()


# Cell orders for eliminate, as functions of the row and column ranges.
CELL_ORDERS = {
    "row-major": lambda rr, cc: None,
    # find_basis's: the eps column, then the eps row, then row-major.
    "find_basis": lambda rr, cc: chain(product(rr, [0]), product([0], cc), product(rr, cc)),
    "row-major twice": lambda rr, cc: [*product(rr, cc)] * 2,
    "column-major": lambda rr, cc: ((i, j) for j in cc for i in rr),
}


@st.composite
def int_matrices(draw):
    """Small 0/1 or signed-int matrices, some of whose rows are zeroed."""
    entries = draw(st.sampled_from([st.integers(0, 1), st.integers(-3, 3)]))
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=7))
    for i in draw(st.sets(st.integers(0, len(rows) - 1))):
        rows[i] = [0] * width
    return rows


class TestEliminate:
    """eliminate updates only the rows a pivot changes and divides each by its gcd;
    oracles.ref_eliminate is the Bareiss elimination it replaced. The pivots must agree."""

    @given(rows=int_matrices(), order=st.sampled_from(sorted(CELL_ORDERS)))
    @example(rows=[[0], [1], [1], [0]], order="row-major")  # a single column
    @example(rows=[[0], [2], [-3]], order="find_basis")
    @example(rows=[[0, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 0], [1, 0, 1]], order="find_basis")
    @example(rows=[[1, 1], [1, 1], [2, -2]], order="row-major twice")
    @example(rows=[[0, 0], [0, 0]], order="column-major")  # all zero
    @settings(max_examples=300, deadline=None)
    def test_same_pivots_as_bareiss(self, rows, order):
        rr, cc = range(len(rows)), range(len(rows[0]))
        cells = CELL_ORDERS[order]
        assert eliminate(rows, cells(rr, cc)) == ref_eliminate(rows, cells(rr, cc))


class TestFirstOfEach:
    """find_basis's row and column picks keep the shortlex-first word of each
    key in one pass and sort only those; the reference sorts every word first."""

    @given(
        words=st.lists(st.lists(st.sampled_from(PAIR_LETTERS[:3]), max_size=5).map(tuple), max_size=40),
        keys=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_representatives_as_sort_then_first(self, words, keys):
        def key(w):  # at most four keys, so most words share theirs
            return sum(map(PAIR_LETTERS.index, w)) % keys

        assert fstlearn.hankel._first_of_each((key(w), w) for w in words) == ref_first_of_each(words, key)


class TestFindBasisAgainstFullBlock:
    """find_basis works on distinct nonzero rows and columns only; the
    reference builds the full candidate block. The masks must agree."""

    @given(
        words=words_strategy(max_words=8, max_len=5),
        prefix_closed=st.booleans(),
        drop_empty_word=st.booleans(),
    )
    # The three ways the elimination starts (at max_len 1): eps in D
    # pivots on (eps, eps); without eps, a word no longer than max_len
    # pivots down the eps column, then along the eps row; with no such
    # word the eps row and column stay empty.
    @example(words={(), (XU,), (XU, YV)}, prefix_closed=False, drop_empty_word=False)
    @example(words={(XU,), (XU, YV)}, prefix_closed=False, drop_empty_word=False)
    @example(words={(XU, YV)}, prefix_closed=False, drop_empty_word=False)
    @settings(max_examples=150, deadline=None)
    def test_same_mask_as_the_full_candidate_block(self, words, prefix_closed, drop_empty_word):
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        if drop_empty_word:
            words = set(words) - {()}
        d = SampleSet.from_words(words)
        for max_len in (*range(4), 7, 10**6):  # 7 and 10**6 lie past every word length
            assert find_basis(d, max_len) == ref_find_basis_full_block(d, max_len)

    @given(
        words=words_strategy(max_words=8, max_len=5),
        prefix_closed=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    @example(words=DEMO_WORDS, prefix_closed=False, rng=random.Random(0))
    @settings(max_examples=100, deadline=None)
    def test_same_mask_in_any_order_within_a_length(self, words, prefix_closed, rng):
        # find_basis numbers suffixes in the order it reads them; the mask must not show it.
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        d = SampleSet.from_words(words)
        reordered = []
        for reorder in (lambda ws: rng.sample(ws, len(ws)), lambda ws: ws[::-1]):
            other = SampleSet.from_words(words)
            other.__dict__["by_length"] = tuple(tuple(reorder(ws)) for ws in d.by_length)
            reordered.append(other)
        for max_len in (*range(4), 7, 10**6):  # 7 and 10**6 lie past every word length
            mask = find_basis(d, max_len)
            assert mask == ref_find_basis_full_block(d, max_len)
            assert all(find_basis(other, max_len) == mask for other in reordered)

    def test_same_mask_on_an_exhaustive_six_state_sample(self):
        machine, words = spectral_ground_truth(84, max_states=6)
        assert len(minimize(machine).states) == 6
        d = SampleSet.from_words(words)
        max_len = default_mask_len(words)
        mask = find_basis(d, max_len)
        assert mask == ref_find_basis_full_block(d, max_len)
        assert numeric_rank(build_h_theta(d, mask)) == 6

    def test_block_bound_counts_distinct_rows_times_columns(self, demo_dataset, monkeypatch):
        # The demo block at mask length 1 has 2 distinct rows x 3 distinct columns.
        monkeypatch.setattr(fstlearn.hankel, "MAX_BLOCK_CELLS", 6)
        assert find_basis(demo_dataset, 1) == Mask(prefixes=((), (CHI2,)), suffixes=((), (CHI3,)))
        monkeypatch.setattr(fstlearn.hankel, "MAX_BLOCK_CELLS", 5)
        with pytest.raises(ResourceLimitError) as err:
            find_basis(demo_dataset, 1)
        assert str(err.value) == "Hankel block of 2 distinct rows x 3 distinct columns exceeds the 5-cell bound"


class TestLengthIndex:
    """SampleSet.by_length, through which default_mask_len and find_basis read D."""

    @given(words=words_strategy(max_words=8, max_len=5), trusted=st.booleans())
    @example(words=frozenset(), trusted=False)
    @example(words=frozenset(), trusted=True)
    @example(words=frozenset({()}), trusted=True)
    @settings(max_examples=100, deadline=None)
    def test_each_word_once_in_the_slot_of_its_length(self, words, trusted):
        # The dataset reader builds its sets through SampleSet._trusted.
        if trusted:
            d = SampleSet._trusted(frozenset(words), tuple(sorted({l for w in words for l in w})))
        else:
            d = SampleSet.from_words(words)
        index = d.by_length
        assert d.by_length is index
        assert sorted(w for ws in index for w in ws) == sorted(words)
        assert all(len(w) == n for n, ws in enumerate(index) for w in ws)
        assert len(index) == max(map(len, words), default=-1) + 1
        if words:
            assert fstlearn.hankel.default_mask_len(d) == default_mask_len(words)
        else:
            with pytest.raises(AnalysisError) as err:
                fstlearn.hankel.default_mask_len(d)
            assert (err.value.stage, err.value.message) == ("learn", "dataset is empty")


class TestCheckClosed:
    def test_demo_is_closed(self, demo_dataset):
        assert check_closed(build_hankel_set(demo_dataset, GOLDEN_MASK))

    def test_demo_closed_on_found_basis(self, demo_dataset):
        mask = find_basis(demo_dataset, 1)
        assert check_closed(build_hankel_set(demo_dataset, mask))

    def test_shifted_rows_outside_row_space_fail(self):
        # With only the one-letter word in the sample, the empty word is
        # missing, so h_theta is all-zero while h_chi1 is not: the shifted
        # block cannot lie in the row space and the check must say no.
        d = SampleSet([(CHI1,)])
        hz = build_hankel_set(d, Mask(prefixes=((),), suffixes=((),)))
        assert np.array_equal(hz.h_theta, np.zeros((1, 1)))
        assert np.array_equal(hz.h_chi[CHI1], np.ones((1, 1)))
        assert not check_closed(hz)

    def test_trivially_closed_single_cell(self):
        d = SampleSet([(), (CHI1,)])
        hz = build_hankel_set(d, Mask(prefixes=((),), suffixes=((),)))
        assert check_closed(hz)

    def test_closed_on_growing_masks(self, demo_dataset):
        for prefixes in (((), (CHI1,)), ((), (CHI1,), (CHI2,))):
            mask = Mask(prefixes=prefixes, suffixes=GOLDEN_MASK.suffixes)
            assert check_closed(build_hankel_set(demo_dataset, mask))

    @given(words=words_strategy(max_words=8, max_len=5), max_len=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_as_the_pinv_projector(self, words, max_len):
        # On the found mask and on that mask with its prefixes halved, so
        # that not-closed cases come up too (about a quarter of them).
        d = SampleSet.from_words(words)
        found = find_basis(d, max_len)
        halved = Mask(found.prefixes[: max(1, len(found.prefixes) // 2)], found.suffixes)
        for mask in (found, halved):
            hz = build_hankel_set(d, mask)
            assert check_closed(hz) == ref_check_closed(hz)


class TestRankDeficientMachine:
    """A deterministic all-final machine whose Hankel rank undershoots
    its minimal state count.

    The c-state's residual row equals row(a) + row(b) - row(root), so the
    full candidate block has rank 4 against 5 minimal states. Machines
    like this sit outside the population the learner guarantees recovery
    on; the rank filter detects them, and running the learner's stages on
    the deficient mask fails loudly instead of emitting a wrong machine.
    """

    @pytest.fixture
    def machine(self) -> Fst:
        return Fst(
            states=("s0", "sa", "sb", "sc", "f"),
            initial="s0",
            transitions=frozenset(
                {
                    ("s0", "x", "u", "sa"),
                    ("s0", "y", "u", "sb"),
                    ("s0", "x", "v", "sc"),
                    ("sa", "x", "u", "f"),
                    ("sb", "y", "u", "f"),
                    ("sc", "x", "u", "f"),
                    ("sc", "y", "u", "f"),
                }
            ),
            finals=frozenset({"s0", "sa", "sb", "sc", "f"}),
        )

    def test_machine_is_trim_and_minimal_with_five_states(self, machine):
        assert trim(machine) == machine
        assert len(minimize(machine).states) == 5

    def test_rank_undershoots_minimal_state_count(self, machine):
        words = set(language_upto(machine, 11))
        assert len(words) == 8
        assert full_candidate_rank(words, 2) == 4
        # The exhaustive-sample filter therefore rejects this machine at
        # its own default mask length too.
        assert full_candidate_rank(words, default_mask_len(words)) < 5

    def test_learning_on_the_deficient_mask_fails_loudly(self, machine):
        # The learner always uses the default mask; run its stages on the
        # longer, deficient one by hand.
        d = SampleSet.from_words(set(language_upto(machine, 11)))
        hz = build_hankel_set(d, find_basis(d, 2))
        assert check_closed(hz)
        natural, _ = naturalize(full_rank_decompose(hz.h_theta))
        with pytest.raises(NaturalityError):
            tuple_to_fst(extract_tuple(hz, natural))

    def test_default_mask_yields_small_overapproximation(self, machine):
        # At the default mask length the block looks rank-one, so the
        # learner returns a one-state machine. It still reproduces every
        # sample word; it just cannot be (and does not claim to be) a
        # five-state recovery. Pinned as documented behavior.
        words = set(language_upto(machine, 11))
        learned = learn_fst(SampleSet.from_words(words))
        assert len(learned.states) == 1
        assert all(accepts(learned, w) for w in words)
