"""Binary Hankel matrices over prefix/suffix masks.

A mask Theta = (Psi, Gamma) picks finitely many prefix words and suffix
words, with the empty word first in both. Against a sample set D it
induces the binary matrices

    H_Theta(psi, gamma) = 1  iff  psi gamma in D
    H_chi(psi, gamma)   = 1  iff  psi chi gamma in D   (one per letter chi)

find_basis greedily grows a mask until its H_Theta reaches the rank of
the full candidate Hankel block, which for exhaustively sampled
deterministic ground truth equals the minimal state count; it works on
that block's distinct nonzero rows and columns only. check_closed
tests that every H_chi row lies in the row space of H_Theta; when it
fails, the data or the mask is too small to support learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .fst import SampleSet, Letter, Word, shortlex

TOL_RANK = 1e-9
TOL_BINARY = 1e-6

# Residual threshold for the greedy span tests in find_basis. Entries are
# 0/1 and masks stay tiny, so true nonzero residuals are far above this.
_RESIDUAL_TOL = 1e-8

# Bound on find_basis's block, distinct rows x distinct columns.
MAX_BLOCK_CELLS = 10**7


@dataclass(frozen=True)
class Mask:
    """Ordered prefix/suffix index sets; the empty word leads both."""

    prefixes: tuple[Word, ...]
    suffixes: tuple[Word, ...]

    def __post_init__(self) -> None:
        for name, side in (("prefixes", self.prefixes), ("suffixes", self.suffixes)):
            if not side or side[0] != ():
                raise ValueError(f"mask {name} must start with the empty word")
            if len(set(side)) != len(side):
                raise ValueError(f"mask {name} contains duplicates")


@dataclass(frozen=True, eq=False)
class HankelSet:
    """H_Theta plus one H_chi per observed letter, all over one mask."""

    mask: Mask
    h_theta: np.ndarray
    h_chi: dict[Letter, np.ndarray]
    alphabet: tuple[Letter, ...]

    def __post_init__(self) -> None:
        shape = (len(self.mask.prefixes), len(self.mask.suffixes))
        if set(self.h_chi) != set(self.alphabet):
            raise ValueError("h_chi keys must match the alphabet")
        for mat in (self.h_theta, *self.h_chi.values()):
            if mat.shape != shape:
                raise ValueError(f"matrix shape {mat.shape} does not match mask {shape}")
            if not np.isin(mat, (0.0, 1.0)).all():
                raise ValueError("Hankel entries must be 0 or 1")


def _block(d: SampleSet, m: Mask, middle: Word) -> np.ndarray:
    """Entry (psi, gamma) is 1 iff psi middle gamma is in D."""
    h = np.zeros((len(m.prefixes), len(m.suffixes)))
    for r, psi in enumerate(m.prefixes):
        head = psi + middle
        for c, gamma in enumerate(m.suffixes):
            if head + gamma in d.words:
                h[r, c] = 1.0
    return h


def build_h_theta(d: SampleSet, m: Mask) -> np.ndarray:
    return _block(d, m, ())


def build_h_chi(d: SampleSet, m: Mask, chi: Letter) -> np.ndarray:
    return _block(d, m, (chi,))


def build_hankel_set(d: SampleSet, m: Mask) -> HankelSet:
    return HankelSet(
        mask=m,
        h_theta=build_h_theta(d, m),
        h_chi={chi: build_h_chi(d, m, chi) for chi in d.alphabet},
        alphabet=d.alphabet,
    )


def singular_value_rank(sv: np.ndarray) -> int:
    """How many of the descending singular values sv exceed TOL_RANK * max(sv[0], 1)."""
    top = sv[0] if sv.size else 0.0
    return int(np.sum(sv > TOL_RANK * max(top, 1.0)))


def numeric_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(mat, compute_uv=False))


def default_mask_len(d: SampleSet) -> int:
    """floor((L - 1) / 2) for the longest sampled word length L, so every
    membership query psi chi gamma stays within the sampled horizon."""
    return max(0, (max(len(w) for w in d.words) - 1) // 2)


def _first_of_each(words, key) -> list[Word]:
    """The shortlex-first word of each distinct key(word), in shortlex order."""
    first: dict = {}
    for w in shortlex(words):
        first.setdefault(key(w), w)
    return list(first.values())


def find_basis(d: SampleSet, max_len: int) -> Mask:
    """Greedy rank-maximizing mask over prefixes/suffixes of D.

    Candidates are the halves of the in-range splits w = psi gamma of
    words in D (max(0, |w| - max_len) <= |psi| <= min(|w|, max_len)),
    cut down to the shortlex-first of each distinct nonzero row, then
    column; eps leads both. Starting from ([eps],[eps]) the loop admits
    the first candidate row, column, or row/column pair that strictly
    raises the rank of H_Theta, until the block's rank is reached.
    Deterministic for a fixed D. The cut keeps the full block's mask: a
    zero line never gains or mismatches, a repeat acts as its first twin.
    Raises ResourceLimitError before allocating over MAX_BLOCK_CELLS cells.
    """
    after: dict[Word, set[Word]] = {(): set()}  # prefix -> the suffixes completing it in D
    for w in d.words:
        for k in range(max(0, len(w) - max_len), min(len(w), max_len) + 1):
            after.setdefault(w[:k], set()).add(w[k:])
    pcand = _first_of_each(after, lambda p: frozenset(after[p]))
    rows_of: dict[Word, list[int]] = {(): []}  # suffix -> the kept rows holding it
    for i, p in enumerate(pcand):
        for s in after[p]:
            rows_of.setdefault(s, []).append(i)
    scand = _first_of_each(rows_of, lambda s: tuple(rows_of[s]))
    if len(pcand) * len(scand) > MAX_BLOCK_CELLS:
        raise ResourceLimitError(
            f"Hankel block of {len(pcand)} distinct rows x {len(scand)} distinct columns "
            f"exceeds the {MAX_BLOCK_CELLS}-cell bound"
        )
    h = np.zeros((len(pcand), len(scand)))
    for j, s in enumerate(scand):
        h[rows_of[s], j] = 1.0

    target = numeric_rank(h)
    rows, cols = [0], [0]
    while True:
        m = h[np.ix_(rows, cols)]
        if numeric_rank(m) >= target:
            break
        m_pinv = np.linalg.pinv(m)

        # Candidate row outside the current row space.
        r_all = h[:, cols]
        gain = np.max(np.abs(r_all - r_all @ m_pinv @ m), axis=1) > _RESIDUAL_TOL
        new_rows = [i for i in np.flatnonzero(gain) if i not in rows]
        if new_rows:
            rows.append(int(new_rows[0]))
            continue

        # Candidate column outside the current column space.
        c_all = h[rows, :]
        gain = np.max(np.abs(c_all - m @ m_pinv @ c_all), axis=0) > _RESIDUAL_TOL
        new_cols = [j for j in np.flatnonzero(gain) if j not in cols]
        if new_cols:
            cols.append(int(new_cols[0]))
            continue

        # Every single row/column is spanned, so a joint addition raises
        # the rank exactly where the Schur-style prediction
        # h[p, cols] m+ h[rows, s] disagrees with the actual entry.
        pred = r_all @ m_pinv @ c_all
        mismatch = np.abs(pred - h) > TOL_BINARY
        mismatch[rows, :] = False
        mismatch[:, cols] = False
        hits = np.argwhere(mismatch)
        if len(hits) == 0:
            break
        rows.append(int(hits[0][0]))
        cols.append(int(hits[0][1]))

    return Mask(
        prefixes=tuple(pcand[i] for i in rows),
        suffixes=tuple(scand[j] for j in cols),
    )


def check_closed(hz: HankelSet) -> bool:
    """True iff every H_chi row lies in the row space of H_Theta."""
    ht = hz.h_theta
    row_proj = np.linalg.pinv(ht) @ ht
    for hc in hz.h_chi.values():
        if np.max(np.abs(hc - hc @ row_proj), initial=0.0) > TOL_BINARY:
            return False
    return True
