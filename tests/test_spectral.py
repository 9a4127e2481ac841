"""Rank factorization, naturalization, tuple extraction, and learning."""

from __future__ import annotations

import dataclasses
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstlearn import (
    AnalysisError,
    ClosednessError,
    Decomposition,
    DegenerateRankError,
    EPS,
    FstlearnError,
    Mask,
    NaturalityError,
    SampleSet,
    TransitionTuple,
    build_hankel_set,
    check_closed,
    equivalent,
    eval_tuple,
    extract_tuple,
    find_basis,
    fst_to_text,
    full_rank_decompose,
    is_natural,
    language_upto,
    learn_fst,
    learn_pipeline,
    load_dataset,
    naturalize,
    trim,
    tuple_to_fst,
)
import fstlearn.fst
import fstlearn.spectral
from fstlearn.hankel import default_mask_len
from conftest import (
    CHI1,
    CHI2,
    CHI3,
    DEMO_WORDS,
    GOLDEN_H_THETA,
    GOLDEN_MASK,
    STRAY_IN_SPAN_WORDS,
    STRAY_OUT_OF_SPAN_WORDS,
    XU,
    XV,
    YU,
    YV,
)
from oracles import PAIR_LETTERS, random_attacker, ref_find_basis, ref_learn_pipeline

import random

DEMO = Path(__file__).resolve().parent.parent / "demo"

GOLDEN_P_NEW = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
GOLDEN_S_NEW = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])


def golden_hankel_set(demo_dataset):
    return build_hankel_set(demo_dataset, GOLDEN_MASK)


def natural_tuple_of(machine):
    """Build the natural tuple an exact learner would produce, by hand.

    Coordinates are the machine's states in sorted order; t0 marks the
    initial state, t_inf the finals, and T_chi the arc pattern. Feeding
    it back through tuple_to_fst must reproduce the machine.
    """
    states = sorted(machine.states)
    idx = {s: k for k, s in enumerate(states)}
    r = len(states)
    t0 = np.zeros(r)
    t0[idx[machine.initial]] = 1.0
    t_inf = np.zeros(r)
    for s in machine.finals:
        t_inf[idx[s]] = 1.0
    trans = {}
    for (src, i, o, dst) in machine.transitions:
        trans.setdefault((i, o), np.zeros((r, r)))[idx[src], idx[dst]] = 1.0
    return TransitionTuple(t0=t0, t_inf=t_inf, trans=trans)


class TestFullRankDecompose:
    def test_golden_rank_and_reconstruction(self):
        d = full_rank_decompose(GOLDEN_H_THETA)
        assert d.r == 2
        assert np.max(np.abs(d.p @ d.s - GOLDEN_H_THETA)) < 1e-8

    def test_pseudo_inverses_invert_on_the_rank_space(self):
        d = full_rank_decompose(GOLDEN_H_THETA)
        assert np.allclose(d.p_pinv @ d.p, np.eye(2), atol=1e-10)
        assert np.allclose(d.s @ d.s_pinv, np.eye(2), atol=1e-10)

    def test_identity_input(self):
        d = full_rank_decompose(np.eye(3))
        assert d.r == 3
        assert np.max(np.abs(d.p @ d.s - np.eye(3))) < 1e-10

    def test_rank_one_input(self):
        d = full_rank_decompose(np.ones((3, 4)))
        assert d.r == 1
        assert np.max(np.abs(d.p @ d.s - np.ones((3, 4)))) < 1e-10

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateRankError):
            full_rank_decompose(np.zeros((2, 3)))

    def test_factor_shape_validation(self):
        with pytest.raises(ValueError):
            Decomposition(
                p=np.ones((3, 2)),
                s=np.ones((3, 4)),
                p_pinv=np.ones((2, 3)),
                s_pinv=np.ones((4, 3)),
            )


class TestNaturalize:
    def test_golden_factors(self):
        nat, b = naturalize(full_rank_decompose(GOLDEN_H_THETA))
        assert np.array_equal(nat.p, GOLDEN_P_NEW)
        assert np.array_equal(nat.s, GOLDEN_S_NEW)
        assert b.shape == (2, 2)

    def test_golden_reconstruction_survives_rebasing(self):
        nat, _ = naturalize(full_rank_decompose(GOLDEN_H_THETA))
        assert np.max(np.abs(nat.p @ nat.s - GOLDEN_H_THETA)) < 1e-8

    def test_transported_pseudo_inverses_still_invert(self):
        nat, _ = naturalize(full_rank_decompose(GOLDEN_H_THETA))
        assert np.allclose(nat.p_pinv @ nat.p, np.eye(2), atol=1e-8)
        assert np.allclose(nat.s @ nat.s_pinv, np.eye(2), atol=1e-8)

    def test_already_natural_factors_pass_through(self):
        d = Decomposition.from_factors(GOLDEN_P_NEW, GOLDEN_S_NEW)
        nat, b = naturalize(d)
        assert np.array_equal(nat.p, GOLDEN_P_NEW)
        assert np.array_equal(nat.s, GOLDEN_S_NEW)
        assert np.array_equal(b, np.eye(2))

    def test_dependent_extra_row_fails_loudly(self):
        # Third row = first + second: rank 2 with a row that rebases to
        # [1, 1], which is not a basis vector, so no natural form exists.
        h = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        with pytest.raises(NaturalityError):
            naturalize(full_rank_decompose(h))

    def test_rank_deficient_left_factor_fails_loudly(self):
        # Both rows of p are [1, 0], so no two of them make an invertible B.
        d = Decomposition.from_factors(np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2))
        with pytest.raises(NaturalityError) as err:
            naturalize(d)
        assert err.value.stage == "naturalize"
        assert err.value.message == "left factor is rank-deficient; cannot build a change of basis"


class TestExtractTuple:
    def test_golden_tuple(self, demo_dataset):
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        tup = extract_tuple(hz, nat)
        assert tup.r == 2
        assert np.allclose(tup.t0, [1.0, 0.0], atol=1e-8)
        assert np.allclose(tup.t_inf, [1.0, 1.0], atol=1e-8)
        assert np.allclose(tup.trans[CHI1], [[0.0, 1.0], [0.0, 0.0]], atol=1e-8)
        assert np.allclose(tup.trans[CHI2], [[0.0, 1.0], [0.0, 0.0]], atol=1e-8)
        assert np.allclose(tup.trans[CHI3], [[0.0, 0.0], [1.0, 0.0]], atol=1e-8)

    def test_factorization_identity_on_the_mask(self, demo_dataset):
        # P[i, :] T_chi S[:, j] must reproduce every H_chi entry.
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        tup = extract_tuple(hz, nat)
        for chi, hc in hz.h_chi.items():
            pred = nat.p @ tup.trans[chi] @ nat.s
            assert np.max(np.abs(pred - hc)) < 1e-6

    def test_rank_deficient_factors_rejected(self, demo_dataset):
        hz = golden_hankel_set(demo_dataset)
        bad = Decomposition.from_factors(
            np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), GOLDEN_S_NEW
        )
        with pytest.raises(AnalysisError) as err:
            extract_tuple(hz, bad)
        assert err.value.stage == "extract"


class TestIsNatural:
    def test_golden_tuple_is_natural(self, demo_dataset):
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        assert is_natural(extract_tuple(hz, nat))

    def test_fractional_row_is_not(self):
        tup = TransitionTuple(
            t0=np.array([1.0, 0.0]),
            t_inf=np.array([1.0, 1.0]),
            trans={CHI1: np.array([[0.5, 0.5], [0.0, 0.0]])},
        )
        assert not is_natural(tup)

    def test_two_hot_initial_vector_is_not(self):
        tup = TransitionTuple(
            t0=np.array([1.0, 1.0]),
            t_inf=np.array([1.0, 0.0]),
            trans={},
        )
        assert not is_natural(tup)

    def test_all_zero_transition_matrices_are_fine(self):
        tup = TransitionTuple(
            t0=np.array([0.0, 1.0]),
            t_inf=np.array([0.0, 0.0]),
            trans={CHI1: np.zeros((2, 2))},
        )
        assert is_natural(tup)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransitionTuple(
                t0=np.array([1.0]),
                t_inf=np.array([1.0, 0.0]),
                trans={},
            )
        with pytest.raises(ValueError):
            TransitionTuple(
                t0=np.array([1.0, 0.0]),
                t_inf=np.array([1.0, 0.0]),
                trans={CHI1: np.zeros((1, 2))},
            )
        with pytest.raises(ValueError, match="^boundary vectors must have length r$"):
            TransitionTuple(t0=np.ones((1, 1)), t_inf=np.ones((1, 1)), trans={})

    def test_r_is_read_off_t0(self, demo_dataset):
        tup = TransitionTuple(t0=np.array([1.0, 0.0]), t_inf=np.array([1.0, 1.0]), trans={})
        assert [f.name for f in dataclasses.fields(tup)] == ["t0", "t_inf", "trans"]
        assert tup.r == 2
        with pytest.raises(AttributeError):
            tup.r = 3
        with pytest.raises(TypeError):
            TransitionTuple(t0=np.array([1.0]), t_inf=np.array([1.0]), trans={}, r=1)
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        assert extract_tuple(hz, nat).r == nat.r == 2


class TestEvalTuple:
    @pytest.fixture
    def golden_tuple(self, demo_dataset):
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        return extract_tuple(hz, nat)

    def test_members_and_non_members(self, golden_tuple):
        assert abs(eval_tuple(golden_tuple, (CHI1, CHI3)) - 1.0) < 1e-8
        assert abs(eval_tuple(golden_tuple, (CHI3,))) < 1e-8
        assert abs(eval_tuple(golden_tuple, (CHI1, CHI1))) < 1e-8
        assert abs(eval_tuple(golden_tuple, ()) - 1.0) < 1e-8

    def test_matches_dataset_membership_over_the_horizon(self, golden_tuple):
        # Over the sampled horizon the tuple's word function must agree
        # with membership exactly; beyond it (length 3) with the true
        # attacker language, since the learned model generalizes.
        for n in range(4):
            for w in product((CHI1, CHI2, CHI3), repeat=n):
                want = 1.0 if w in DEMO_WORDS else 0.0
                assert abs(eval_tuple(golden_tuple, w) - want) < 1e-6

    def test_unknown_letter_rejected(self, golden_tuple):
        with pytest.raises(ValueError):
            eval_tuple(golden_tuple, ((("zz", "zz")),))


class TestTupleToFst:
    def test_golden_machine(self, demo_dataset, demo_attacker):
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        machine = tuple_to_fst(extract_tuple(hz, nat))
        assert len(machine.states) == 2
        assert equivalent(machine, demo_attacker)

    def test_non_natural_tuple_rejected(self):
        tup = TransitionTuple(
            t0=np.array([0.5, 0.5]),
            t_inf=np.array([1.0, 1.0]),
            trans={},
        )
        with pytest.raises(NaturalityError):
            tuple_to_fst(tup)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_from_hand_built_natural_tuples(self, seed):
        machine = random_attacker(random.Random(seed))
        rebuilt = tuple_to_fst(natural_tuple_of(machine))
        assert equivalent(rebuilt, trim(machine))


class TestLinearTransformInvariance:
    def test_rebased_factors_evaluate_identically(self, demo_dataset):
        hz = golden_hankel_set(demo_dataset)
        nat, _ = naturalize(full_rank_decompose(hz.h_theta))
        base = extract_tuple(hz, nat)
        rng = np.random.default_rng(7)
        words = [w for n in range(4) for w in product((CHI1, CHI2, CHI3), repeat=n)]
        for _ in range(5):
            b = rng.normal(size=(2, 2))
            while abs(np.linalg.det(b)) < 1e-2:
                b = rng.normal(size=(2, 2))
            other = extract_tuple(
                hz, Decomposition.from_factors(nat.p @ np.linalg.inv(b), b @ nat.s)
            )
            for w in words:
                assert abs(eval_tuple(base, w) - eval_tuple(other, w)) < 1e-6


class TestLearnPipeline:
    def test_empty_sample_rejected(self):
        with pytest.raises(AnalysisError) as err:
            learn_pipeline(SampleSet.from_words([]))
        assert err.value.stage == "learn"
        assert err.value.message == "dataset is empty"

    def test_single_empty_word(self):
        machine = learn_fst(SampleSet.from_words([()]))
        assert len(machine.states) == 1
        assert set(language_upto(machine, 3)) == {()}

    def test_demo_learns_the_attacker(self, demo_dataset, demo_attacker):
        machine = learn_fst(demo_dataset)
        assert len(machine.states) == 2
        assert equivalent(machine, demo_attacker)

    def test_intermediates_are_consistent(self, demo_dataset):
        res = learn_pipeline(demo_dataset)
        assert res.mask == Mask(prefixes=((), (CHI2,)), suffixes=((), (CHI3,)))
        assert res.tup.r == 2
        assert res.b.shape == (2, 2)
        assert np.max(np.abs(res.natural.p @ res.natural.s - res.hankel.h_theta)) < 1e-8
        assert is_natural(res.tup)
        assert res.sample is demo_dataset

    def test_deterministic(self, demo_dataset):
        assert learn_pipeline(demo_dataset).fst == learn_pipeline(demo_dataset).fst

    def test_learning_checks_no_letter_again(self, monkeypatch):
        # Each letter is checked once, where the recordings are read; the learned
        # machine's letters are among them, so building it checks none.
        d = load_dataset(DEMO / "attacker_samples.txt")
        calls = []
        check = fstlearn.fst._check_letter
        monkeypatch.setattr(fstlearn.fst, "_check_letter", lambda letter: calls.append(letter) or check(letter))
        assert fst_to_text(learn_pipeline(d).fst) == (DEMO / "attacker.fst").read_text()
        assert calls == []

    def test_model_without_a_recorded_letter_fails_loudly(self):
        # The demo recordings cut to length 2 give mask length 0, which
        # learns one state that drops a1:a2, so it would reject the
        # recording a1:a3 a1:a2.
        with pytest.raises(AnalysisError) as err:
            learn_fst(SampleSet.from_words(w for w in DEMO_WORDS if len(w) <= 2))
        assert err.value.stage == "consistency"
        assert "a1:a2" in err.value.message

    def test_unclosed_sample_fails_loudly(self):
        # A sample containing only the one-letter word lacks eps, so it is
        # not prefix-closed and is refused before any block is built. The
        # float reference still finds it not closed: the shifted block
        # leaves the (all-zero) row space of H_Theta.
        d = SampleSet.from_words([(CHI1,)])
        with pytest.raises(AnalysisError) as err:
            learn_fst(d)
        assert err.value.stage == "prefix-closure"
        assert "<empty>" in err.value.message
        assert not check_closed(build_hankel_set(d, find_basis(d, default_mask_len(d))))
        with pytest.raises(ClosednessError) as err:
            ref_learn_pipeline(d)
        assert err.value.stage == "closedness"


# All words of the five-state machine of test_hankel.TestRankDeficientMachine.
RANK_DEFICIENT_WORDS = frozenset(
    {(), (XU,), (XU, XU), (XV,), (XV, XU), (XV, YU), (YU,), (YU, YU)}
)

# No word is within the mask length, so the eps row of H_Theta is zero: not natural.
EPS_ROW_ZERO_WORDS = frozenset(
    {(YV, XU, XU, ("x", EPS)), (XU, XU, YV, XU, (EPS, "u"), (EPS, "u"))}
)


# Up to 8 words of up to 6 letters, over two pair letters and one half-silent letter per side.
SMALL_SETS = st.frozensets(
    st.lists(st.sampled_from(PAIR_LETTERS[:2] + (("x", EPS), (EPS, "u"))), max_size=6).map(tuple),
    max_size=8,
)


class TestSpanTest:
    """Three sets and the gate each stops at: the demo set learns; a set with eps whose stray
    shifted row lies in H_Theta's span is closed but not natural; a set without eps is refused."""

    @pytest.mark.parametrize(
        "words, error, stage",
        [
            (DEMO_WORDS, None, None),  # every H_chi row is zero or an H_Theta row
            (STRAY_IN_SPAN_WORDS, NaturalityError, "naturality"),  # closed, not natural
            (STRAY_OUT_OF_SPAN_WORDS, AnalysisError, "prefix-closure"),  # no eps word
        ],
        ids=["no-stray-row", "stray-row-in-span", "stray-row-out-of-span"],
    )
    def test_each_end_of_the_span_test(self, words, error, stage):
        d = SampleSet.from_words(words)
        if error is None:
            assert len(learn_fst(d).states) == 2
        else:
            with pytest.raises(error) as err:
                learn_fst(d)
            assert err.value.stage == stage


class TestPrefixClosureGate:
    """learn_pipeline learns only from recordings that hold eps, as a prefix-closed history does."""

    @given(words=SMALL_SETS, prefix_closed=st.booleans())
    @example(words=STRAY_OUT_OF_SPAN_WORDS, prefix_closed=False)
    @example(words=EPS_ROW_ZERO_WORDS, prefix_closed=False)
    @example(words=frozenset({(CHI1,)}), prefix_closed=True)
    @settings(max_examples=300, deadline=None)
    def test_only_a_set_with_eps_is_learned_and_it_is_always_closed(self, words, prefix_closed):
        # Without eps, learn_pipeline stops at [prefix-closure] before find_basis runs.
        # With eps, H_Theta over the mask is square and nonsingular, so no set reaches a
        # closedness or rank-0 failure: the only gates left are naturality and consistency.
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        without = {*words} - {()}
        if without:
            def fail(*args):
                raise AssertionError("find_basis ran on a set without eps")

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fstlearn.spectral, "find_basis", fail)
                with pytest.raises(AnalysisError) as err:
                    learn_pipeline(SampleSet.from_words(without))
            assert err.value.stage == "prefix-closure"
            assert "<empty>" in err.value.message
        try:
            learn_pipeline(SampleSet.from_words({(), *words}))
        except AnalysisError as exc:
            assert not isinstance(exc, (ClosednessError, DegenerateRankError))
            assert exc.stage in ("naturality", "consistency")


def learn_outcome(learn, d: SampleSet) -> tuple:
    """The mask and .fst text a learner returns, or the error it raises."""
    try:
        res = learn(d)
    except FstlearnError as exc:
        return type(exc).__name__, getattr(exc, "stage", None), str(exc)
    return res.mask, fst_to_text(res.fst)


class TestExactAgainstFloat:
    """learn_pipeline decides rank, basis and tuple by exact row matching;
    oracles.ref_learn_pipeline is the float SVD/pinv path it replaced.
    On a set that holds eps both must give the same mask and machine, or the same error."""

    @given(words=SMALL_SETS, prefix_closed=st.booleans())
    @example(words=DEMO_WORDS, prefix_closed=False)
    @example(words=RANK_DEFICIENT_WORDS, prefix_closed=False)
    @example(words=EPS_ROW_ZERO_WORDS, prefix_closed=False)
    @example(words=STRAY_IN_SPAN_WORDS, prefix_closed=False)
    @example(words=STRAY_OUT_OF_SPAN_WORDS, prefix_closed=False)
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_the_float_path(self, words, prefix_closed):
        # learn_pipeline refuses a nonempty set without eps; the float path is
        # compared on the draw with eps added.
        if prefix_closed:
            words = {w[:k] for w in words for k in range(len(w) + 1)}
        d = SampleSet.from_words(words)
        if words and () not in words:
            with pytest.raises(AnalysisError) as err:
                learn_pipeline(d)
            assert err.value.stage == "prefix-closure"
        with_eps = SampleSet.from_words({(), *words})
        assert learn_outcome(learn_pipeline, with_eps) == learn_outcome(ref_learn_pipeline, with_eps)
        for max_len in (*range(4), 7, 10**6):  # 7 and 10**6 lie past every word length
            assert find_basis(d, max_len) == ref_find_basis(d, max_len)

    @pytest.mark.parametrize("words", [DEMO_WORDS, RANK_DEFICIENT_WORDS], ids=["demo", "rank-deficient"])
    def test_lazy_float_stages_are_the_float_paths(self, words):
        d = SampleSet.from_words(words)
        res, ref = learn_pipeline(d), ref_learn_pipeline(d)
        assert np.array_equal(res.hankel.h_theta, ref.hankel.h_theta)
        assert np.array_equal(res.raw.p, ref.raw.p)
        assert np.array_equal(res.b, ref.b)
        assert np.array_equal(res.natural.s, ref.natural.s)
        for chi, mat in ref.tup.trans.items():
            assert np.array_equal(res.tup.trans[chi], mat)
        assert tuple_to_fst(res.tup) == res.fst
