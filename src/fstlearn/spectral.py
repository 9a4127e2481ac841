"""Spectral recovery of an FST from its binary Hankel matrices.

The pipeline factors H_Theta = P S by truncated SVD, rebases the factors
with a change-of-basis matrix B (stacked from linearly independent rows
of P, empty-word row first) so that P's rows become standard basis
vectors or zero and S becomes binary, then reads the machine off the
per-letter matrices T_chi = P+ H_chi S+. The rebased factors are only
snapped to {0,1} when every entry is within tolerance; anything else is
a hard error, because a non-natural result means the mask was not a
basis or the sample set violates the model assumptions.

All steps are deterministic: no randomness, ties broken by row order.
learn_pipeline takes the same steps exactly, by matching 0/1 rows, without numpy;
its states, the basis rows, are the H_Theta rows of find_basis's mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import AnalysisError, DegenerateRankError, NaturalityError
from .formats import letter_to_text
from .fst import EMPTY_TOKEN, Fst, Letter, SampleSet, Word, trim
from .hankel import (
    TOL_BINARY,
    HankelSet,
    Mask,
    block_rows,
    build_hankel_set,
    check_closed,  # noqa: F401  stays importable as spectral.check_closed, which tracers wrap
    default_mask_len,
    find_basis,
    numeric_rank,
    singular_value_rank,
)

if TYPE_CHECKING:
    import numpy as np

# The messages of the float stages' gates; learn_pipeline raises the last one as [naturality].
_RANK_ZERO = "Hankel block has numeric rank 0; nothing to learn"
_NOT_NATURAL = ("data does not admit a natural decomposition; the mask is not a basis "
                "or the samples violate the deterministic-acceptor assumption")
_NOT_NATURAL_TUPLE = "transition tuple is not natural; no FST to read off"


def _snap_binary(arr: np.ndarray) -> np.ndarray | None:
    """Round entries to {0,1} when all are within TOL_BINARY, else None."""
    near0, near1 = abs(arr) <= TOL_BINARY, abs(arr - 1.0) <= TOL_BINARY
    return near1 * 1.0 if (near0 | near1).all() else None


def _rows_unit_or_zero(binary: np.ndarray) -> bool:
    return bool((binary.sum(axis=-1) <= 1.0).all())


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Rank factorization H_Theta = p s with matched pseudo-inverses.

    p_pinv is a left inverse of p and s_pinv a right inverse of s,
    carried along so tuple extraction reuses the numerics that produced
    the factors instead of re-decomposing.
    """

    p: np.ndarray
    s: np.ndarray
    p_pinv: np.ndarray
    s_pinv: np.ndarray

    def __post_init__(self) -> None:
        r = self.p.shape[1]
        if self.s.shape[0] != r or self.p_pinv.shape != self.p.T.shape or self.s_pinv.shape != self.s.T.shape:
            raise ValueError("decomposition factor shapes disagree")

    @property
    def r(self) -> int:
        return int(self.p.shape[1])

    @classmethod
    def from_factors(cls, p: np.ndarray, s: np.ndarray) -> "Decomposition":
        import numpy as np
        return cls(p=p, s=s, p_pinv=np.linalg.pinv(p), s_pinv=np.linalg.pinv(s))


@dataclass(frozen=True, eq=False)
class TransitionTuple:
    """Matrix realization (t0, t_inf, {T_chi}) of a word function on r = len(t0) states.

    eval_tuple multiplies t0 through the letter matrices into t_inf; a
    natural tuple additionally has basis-vector rows and binary t_inf,
    so its nonzero pattern is an FST transition graph.
    """

    t0: np.ndarray
    t_inf: np.ndarray
    trans: dict[Letter, np.ndarray]

    def __post_init__(self) -> None:
        if self.t0.ndim != 1 or self.t_inf.shape != self.t0.shape:
            raise ValueError("boundary vectors must have length r")
        for chi, mat in self.trans.items():
            if mat.shape != (self.r, self.r):
                raise ValueError(f"transition matrix for {chi!r} must be r x r")

    r = property(lambda self: len(self.t0))


@dataclass(frozen=True, eq=False)
class LearnResult:
    """The mask and machine of one learn_pipeline run; the float stages over
    that mask (hankel, raw, natural and b, tup) run on first access."""

    sample: SampleSet
    mask: Mask
    fst: Fst

    hankel = cached_property(lambda self: build_hankel_set(self.sample, self.mask))
    raw = cached_property(lambda self: full_rank_decompose(self.hankel.h_theta))
    _naturalized = cached_property(lambda self: naturalize(self.raw))
    natural = property(lambda self: self._naturalized[0])
    b = property(lambda self: self._naturalized[1])
    tup = cached_property(lambda self: extract_tuple(self.hankel, self.natural))


def full_rank_decompose(h_theta: np.ndarray) -> Decomposition:
    """Truncated-SVD rank factorization P = U_r Sigma_r, S = V_r^T."""
    import numpy as np
    u, sv, vt = np.linalg.svd(h_theta)
    r = singular_value_rank(sv)
    if r == 0:
        raise DegenerateRankError("decompose", _RANK_ZERO)
    return Decomposition(
        p=u[:, :r] * sv[:r],
        s=vt[:r, :],
        p_pinv=(u[:, :r] / sv[:r]).T,
        s_pinv=vt[:r, :].T,
    )


def naturalize(d: Decomposition) -> tuple[Decomposition, np.ndarray]:
    """Rebase (P, S) so P has basis-vector rows and S is binary.

    Scans P top-down (empty-word row first, so state 0 is always the
    initial state) collecting rows that raise the rank, stacks them into
    B, and returns (P B^-1, B S) snapped to {0,1}. Raises NaturalityError
    when the rebased factors do not snap or a P row is neither zero nor
    a basis vector.
    """
    import numpy as np
    p = d.p
    r = d.r
    chosen: list[int] = []
    for i in range(p.shape[0]):
        if numeric_rank(p[chosen + [i], :]) > len(chosen):
            chosen.append(i)
            if len(chosen) == r:
                break
    if len(chosen) < r:
        raise NaturalityError("naturalize", "left factor is rank-deficient; cannot build a change of basis")
    b = p[chosen, :]
    b_inv = np.linalg.inv(b)
    p_new = _snap_binary(p @ b_inv)
    s_new = _snap_binary(b @ d.s)
    if p_new is None or s_new is None or not _rows_unit_or_zero(p_new):
        raise NaturalityError("naturalize", _NOT_NATURAL)
    rebased = Decomposition(p=p_new, s=s_new, p_pinv=b @ d.p_pinv, s_pinv=d.s_pinv @ b_inv)
    return rebased, b


def extract_tuple(hz: HankelSet, d: Decomposition) -> TransitionTuple:
    """T_chi = P+ H_chi S+ with t0 = P[0, :] and t_inf = S[:, 0]."""
    if numeric_rank(d.p) < d.r or numeric_rank(d.s) < d.r:
        raise AnalysisError("extract", "decomposition factors are rank-deficient")
    return TransitionTuple(
        t0=d.p[0, :].copy(),
        t_inf=d.s[:, 0].copy(),
        trans={chi: d.p_pinv @ hc @ d.s_pinv for chi, hc in hz.h_chi.items()},
    )


def _natural_parts(t: TransitionTuple) -> tuple[np.ndarray, np.ndarray, dict] | None:
    """(t0, t_inf, trans) snapped to {0,1}, or None when t is not natural."""
    t0, t_inf = _snap_binary(t.t0), _snap_binary(t.t_inf)
    if t0 is None or t_inf is None or t0.sum() != 1.0:
        return None
    trans = {chi: _snap_binary(mat) for chi, mat in t.trans.items()}
    if any(mat is None or not _rows_unit_or_zero(mat) for mat in trans.values()):
        return None
    return t0, t_inf, trans


def is_natural(t: TransitionTuple) -> bool:
    return _natural_parts(t) is not None


def eval_tuple(t: TransitionTuple, w: Word) -> float:
    vec = t.t0
    for chi in w:
        mat = t.trans.get(chi)
        if mat is None:
            raise ValueError(f"letter {chi!r} is not in the tuple's alphabet")
        vec = vec @ mat
    return float(vec @ t.t_inf)


def tuple_to_fst(t: TransitionTuple) -> Fst:
    """Read the FST graph off a natural tuple: arcs where T_chi is 1.

    State names are the tuple coordinates, preserved so callers can line
    states up with rows of the natural decomposition. The result is
    trimmed but not renamed.
    """
    parts = _natural_parts(t)
    if parts is None:
        raise NaturalityError("naturality", _NOT_NATURAL_TUPLE)
    t0, t_inf, trans = parts
    transitions = {
        (str(int(src)), chi[0], chi[1], str(int(dst)))
        for chi, mat in trans.items()
        for src, dst in zip(*(mat == 1.0).nonzero())
    }
    machine = Fst(
        states=tuple(str(k) for k in range(t.r)),
        initial=str(int(t0.argmax())),
        transitions=frozenset(transitions),
        finals=frozenset(str(int(k)) for k in (t_inf == 1.0).nonzero()[0]),
    )
    return trim(machine)


def learn_pipeline(d: SampleSet) -> LearnResult:
    """prefix-closure gate -> find_basis -> states -> naturality gate -> FST -> letter gate,
    exactly, on the 0/1 rows of H_Theta and H_chi.

    Recordings are a history, so they hold eps; a set without it is refused before any block
    is built. With eps in D, (eps, eps) is a pivot, so H_Theta over find_basis's mask is square
    and nonsingular: its rows, eps first, are the states, and they span every H_chi row, so
    the data is closed. The data is natural iff each state's H_chi rows are zero or a state's:
    its arcs. The machine is built unchecked: its names are "0".."k-1" and its letters d's.
    The mask length is hankel.default_mask_len(d), which rejects an empty d."""
    max_len = default_mask_len(d)
    if () not in d.words:
        raise AnalysisError(
            "prefix-closure",
            f"the recordings lack the empty word {EMPTY_TOKEN}; recordings must be prefix-closed",
        )
    mask = find_basis(d, max_len)
    theta = block_rows(d, mask, ())
    zero = (0,) * len(mask.suffixes)
    state = {row: str(k) for k, row in enumerate(theta)}
    moves = [(state[src], chi, row)
             for chi in d.alphabet for src, row in zip(theta, block_rows(d, mask, (chi,)))]
    if any(row != zero and row not in state for _, _, row in moves):
        raise NaturalityError("naturality", _NOT_NATURAL_TUPLE)
    arcs = frozenset((src, *chi, state[row]) for src, chi, row in moves if row != zero)
    fst = trim(Fst._trusted(tuple(state.values()), "0", arcs, frozenset(state[row] for row in state if row[0])))
    # A recorded letter that no arc carries makes some recording rejected.
    carried = fst.letters()
    lost = next((chi for chi in d.alphabet if chi not in carried), None)
    if lost is not None:
        raise AnalysisError(
            "consistency",
            f"the learned model has no arc for the recorded letter {letter_to_text(lost)}, "
            "so it rejects a recording; record more or longer attack words",
        )
    return LearnResult(sample=d, mask=mask, fst=fst)


def learn_fst(d: SampleSet) -> Fst:
    return learn_pipeline(d).fst
