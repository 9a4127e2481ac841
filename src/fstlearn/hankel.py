"""Binary Hankel matrices over prefix/suffix masks.

A mask Theta = (Psi, Gamma) picks finitely many prefix words and suffix
words, with the empty word first in both. Against a sample set D it
induces the binary matrices

    H_Theta(psi, gamma) = 1  iff  psi gamma in D
    H_chi(psi, gamma)   = 1  iff  psi chi gamma in D   (one per letter chi)

find_basis grows a mask by Gaussian elimination until its H_Theta reaches
the rank of the full candidate Hankel block, which for exhaustively
sampled deterministic ground truth equals the minimal state count; it
works on that block's distinct nonzero rows and columns only, reads D once,
by length (SampleSet.by_length), and keeps one number per distinct suffix,
in a plain list per prefix: no split of D is met twice.
check_closed tests that the H_chi rows do not raise the rank of H_Theta.
It belongs to the float reference only: no learner gate calls it, since
with the empty word in D, H_Theta over find_basis's mask is square and
nonsingular.
Both decide rank exactly by eliminate, on Python ints, which updates only
the rows a pivot changes; only the float matrices import numpy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, product
from math import gcd
from typing import TYPE_CHECKING

from .errors import AnalysisError, ResourceLimitError
from .fst import SampleSet, Letter, Word, shortlex

if TYPE_CHECKING:
    import numpy as np

TOL_RANK = 1e-9
TOL_BINARY = 1e-6

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
    """H_Theta plus one H_chi per observed letter, all over one mask; alphabet is h_chi's letters, in order."""

    mask: Mask
    h_theta: np.ndarray
    h_chi: dict[Letter, np.ndarray]

    def __post_init__(self) -> None:
        shape = (len(self.mask.prefixes), len(self.mask.suffixes))
        for mat in (self.h_theta, *self.h_chi.values()):
            if mat.shape != shape:
                raise ValueError(f"matrix shape {mat.shape} does not match mask {shape}")
            if not {*mat.flat} <= {0.0, 1.0}:
                raise ValueError("Hankel entries must be 0 or 1")

    alphabet = property(lambda self: tuple(self.h_chi))


def block_rows(d: SampleSet, m: Mask, middle: Word) -> list[tuple[int, ...]]:
    """Row psi, entry gamma, is 1 iff psi middle gamma is in D."""
    return [tuple(int(psi + middle + gamma in d.words) for gamma in m.suffixes) for psi in m.prefixes]


def _block(d: SampleSet, m: Mask, middle: Word) -> np.ndarray:
    import numpy as np
    return np.array(block_rows(d, m, middle), dtype=float)


def build_h_theta(d: SampleSet, m: Mask) -> np.ndarray:
    return _block(d, m, ())


def build_h_chi(d: SampleSet, m: Mask, chi: Letter) -> np.ndarray:
    return _block(d, m, (chi,))


def build_hankel_set(d: SampleSet, m: Mask) -> HankelSet:
    return HankelSet(
        mask=m,
        h_theta=build_h_theta(d, m),
        h_chi={chi: build_h_chi(d, m, chi) for chi in d.alphabet},
    )


def singular_value_rank(sv: np.ndarray) -> int:
    """How many of the descending singular values sv exceed TOL_RANK * max(sv[0], 1)."""
    top = sv[0] if sv.size else 0.0
    return int((sv > TOL_RANK * max(top, 1.0)).sum())


def numeric_rank(mat: np.ndarray) -> int:
    import numpy as np
    if mat.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(mat, compute_uv=False))


def eliminate(rows, cells=None) -> list[tuple[int, int]]:
    """Gaussian elimination of the integer matrix rows, on Python ints; returns the pivots.

    It pivots on each nonzero entry met along cells, (row, column) pairs read once, row-major
    by default: a passed cell must stay zero. A pivot (i, j) with entry p clears column j:
    the pivot row becomes zero, a row with entry f != 0 there becomes p*row - f*(pivot row)
    divided by the gcd of its entries, and a row with a zero there is left as it is. Each row
    so stays a nonzero multiple of its fraction-free (Bareiss) counterpart, so the zeros and
    the pivots are Bareiss's. Row-major, the pivot rows are the rows outside the span of the
    rows above them.
    """
    h = [list(map(int, row)) for row in rows]
    pivots = []
    for i, j in cells or product(range(len(h)), range(len(h[0]))):
        if p := h[i][j]:
            top, h[i] = h[i], [0] * len(h[i])
            for k, row in enumerate(h):
                if f := row[j]:
                    row = [p * x - f * y for x, y in zip(row, top)]
                    g = gcd(*row)  # 0 when row was a multiple of the pivot row
                    h[k] = [x // g for x in row] if g > 1 else row
            pivots.append((i, j))
    return pivots


def default_mask_len(d: SampleSet) -> int:
    """floor((L - 1) / 2) for the longest sampled word length L, so every membership query
    psi chi gamma stays within the sampled horizon; empty recordings are an analysis error."""
    if not d.words:
        raise AnalysisError("learn", "dataset is empty")
    return max(0, (len(d.by_length) - 2) // 2)  # the length index has L + 1 slots


def _first_of_each(pairs) -> list[Word]:
    """The shortlex-first word of each distinct key, in shortlex order, from (key, word) pairs."""
    first: dict = {}
    for key, w in pairs:
        f = first.setdefault(key, w)
        if len(w) < len(f) or len(w) == len(f) and w < f:
            first[key] = w
    return shortlex(first.values())


def find_basis(d: SampleSet, max_len: int) -> Mask:
    """Rank-maximizing mask over prefixes/suffixes of D.

    Candidates are the halves of the in-range splits w = psi gamma of
    words in D (max(0, |w| - max_len) <= |psi| <= min(|w|, max_len)),
    cut down to the shortlex-first of each distinct nonzero row, then
    column; eps leads both. Starting from ([eps],[eps]), exact
    elimination on that block (eliminate) pivots on the first nonzero
    entry down the eps column, then along the eps row, then in row-major
    order, adding each pivot's row and column to the mask if new, until
    none is left (then the mask's H_Theta has the block's rank).
    Deterministic for a fixed D. The cut keeps the full block's mask: a
    zero line never holds a pivot, a repeat acts as its first twin.
    D is read once, by length (d.by_length), up to length 2 * max_len; the
    order of reading numbers the suffixes but reaches no output. A row is
    a list: each split (w, |psi|) is met once and gives its own (psi, gamma).
    Raises ResourceLimitError before allocating over MAX_BLOCK_CELLS cells.
    """
    ids: dict[Word, int] = defaultdict(count().__next__)  # suffix -> its number, in order of first sight
    ids[()]  # eps is 0
    after: dict[Word, list[int]] = defaultdict(list, {(): []})  # prefix -> the suffix numbers completing it in D
    for n, words in enumerate(d.by_length[: 2 * max_len + 1]):  # a longer word has no in-range split
        for k in range(max(0, n - max_len), min(n, max_len) + 1):
            for w in words:
                after[w[:k]].append(ids[w[k:]])
    pcand = _first_of_each((frozenset(row), p) for p, row in after.items())
    rows_of: dict[int, list[int]] = {0: []}  # suffix number -> the kept rows holding it
    for i, p in enumerate(pcand):
        for s in after[p]:
            rows_of.setdefault(s, []).append(i)
    suffix = list(ids)
    scand = _first_of_each((tuple(rows), suffix[s]) for s, rows in rows_of.items())
    if len(pcand) * len(scand) > MAX_BLOCK_CELLS:
        raise ResourceLimitError(
            f"Hankel block of {len(pcand)} distinct rows x {len(scand)} distinct columns "
            f"exceeds the {MAX_BLOCK_CELLS}-cell bound"
        )

    # Pivot on the first entry left down the eps column, the eps row, then row-major.
    numbers = [ids[s] for s in scand]
    block = ([s in row for s in numbers] for row in (set(after[p]) for p in pcand))
    rr, cc = range(len(pcand)), range(len(scand))
    pivots = [(0, 0)] + eliminate(block, chain(product(rr, [0]), product([0], cc), product(rr, cc)))
    rows, cols = (dict.fromkeys(ix) for ix in zip(*pivots))  # ordered sets of block indices
    return Mask(tuple(pcand[i] for i in rows), tuple(scand[j] for j in cols))


def check_closed(hz: HankelSet) -> bool:
    """True iff the H_chi rows lie in the row space of H_Theta, i.e. do not raise its rank."""
    mats = (hz.h_theta, *hz.h_chi.values())
    return all(i < len(hz.h_theta) for i, _ in eliminate(r for m in mats for r in m.tolist()))
