"""Independent reference implementations used as test oracles.

Everything here recomputes answers by a different mechanism than the
package (top-down recursion instead of frontier simulation, language
enumeration instead of product constructions, numpy's own rank instead
of the package's), so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import numpy as np

from fstlearn.errors import FormatError
from fstlearn.formats import letter_from_text
from fstlearn.fst import EMPTY_TOKEN, EPS, Fst, SampleSet, language_upto, minimize, trim
from fstlearn.hankel import TOL_BINARY, HankelSet, Mask, numeric_rank


def ref_accepts(fst: Fst, word) -> bool:
    """Membership by memoized top-down recursion over (state, position)."""
    trans = tuple(sorted(fst.transitions))

    @lru_cache(maxsize=None)
    def ok(state: str, k: int) -> bool:
        if k == len(word):
            return state in fst.finals
        return any(
            ok(dst, k + 1)
            for (src, i, o, dst) in trans
            if src == state and (i, o) == word[k]
        )

    return ok(fst.initial, 0)


def ref_language_upto(fst: Fst, max_len: int) -> set:
    """Bounded language by brute-force enumeration over the letter set."""
    letters = sorted(fst.letters())
    out = set()
    for n in range(max_len + 1):
        for combo in product(letters, repeat=n):
            if ref_accepts(fst, combo):
                out.add(combo)
    return out


def ref_compose_language(a: Fst, b: Fst, max_len: int) -> set:
    """Pipeline language by mediated join of the bounded languages.

    Valid only for machines without one-sided-empty letters: there every
    step of a must be consumed by a step of b, so composite words are
    same-length joins on the mediating symbol sequence.
    """
    la = ref_language_upto(a, max_len)
    lb = ref_language_upto(b, max_len)
    by_input: dict = {}
    for wb in lb:
        by_input.setdefault(tuple(i for (i, _) in wb), set()).add(wb)
    out = set()
    for wa in la:
        mids = tuple(o for (_, o) in wa)
        for wb in by_input.get(mids, ()):
            out.add(tuple(zip((i for (i, _) in wa), (o for (_, o) in wb))))
    return out


def ref_hankel(words: set, prefixes, suffixes) -> np.ndarray:
    """Hankel block by enumerating the splits of each sample word."""
    h = np.zeros((len(prefixes), len(suffixes)))
    pidx = {w: k for k, w in enumerate(prefixes)}
    sidx = {w: k for k, w in enumerate(suffixes)}
    for w in words:
        for k in range(len(w) + 1):
            if w[:k] in pidx and w[k:] in sidx:
                h[pidx[w[:k]], sidx[w[k:]]] = 1.0
    return h


def full_candidate_rank(words: set, max_len: int) -> int:
    """Rank of the Hankel block over all candidate prefixes/suffixes."""
    pset, sset = {()}, {()}
    for w in words:
        for k in range(len(w) + 1):
            if k <= max_len:
                pset.add(w[:k])
            if len(w) - k <= max_len:
                sset.add(w[k:])
    h = ref_hankel(words, sorted(pset), sorted(sset))
    return int(np.linalg.matrix_rank(h))


# Residual threshold of the greedy span tests, as in the previous fstlearn.hankel.
_RESIDUAL_TOL = 1e-8


def _shortlex(words) -> list:
    return sorted(words, key=lambda w: (len(w), w))


def ref_find_basis(d: SampleSet, max_len: int) -> Mask:
    """find_basis on the full candidate block: every split, no dedupe.

    Greedy rank-maximizing mask over prefixes/suffixes of D.

    Candidates are all prefixes and suffixes of words in D no longer
    than max_len, scanned in shortlex order. Starting from ([eps],[eps])
    the loop admits the first candidate row, column, or row/column pair
    that strictly raises the rank of H_Theta, until the full candidate
    block's rank is reached. Deterministic for a fixed D.
    """
    pset, sset = {()}, {()}
    for w in d.words:
        for k in range(len(w) + 1):
            if k <= max_len:
                pset.add(w[:k])
            if len(w) - k <= max_len:
                sset.add(w[k:])
    pcand, scand = _shortlex(pset), _shortlex(sset)
    pidx = {w: i for i, w in enumerate(pcand)}
    sidx = {w: i for i, w in enumerate(scand)}

    # Fill the full candidate block by splitting each sample word once,
    # instead of testing |Psi|x|Gamma| concatenations for membership.
    h = np.zeros((len(pcand), len(scand)))
    for w in d.words:
        for k in range(len(w) + 1):
            r, c = pidx.get(w[:k]), sidx.get(w[k:])
            if r is not None and c is not None:
                h[r, c] = 1.0

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


def ref_check_closed(hz: HankelSet) -> bool:
    """check_closed by a pinv projector onto the row space of H_Theta.

    True iff every H_chi row lies in the row space of H_Theta.
    """
    ht = hz.h_theta
    row_proj = np.linalg.pinv(ht) @ ht
    for hc in hz.h_chi.values():
        if np.max(np.abs(hc - hc @ row_proj), initial=0.0) > TOL_BINARY:
            return False
    return True


def _ref_word_from_text(text: str):
    text = text.strip()
    if not text or text == EMPTY_TOKEN:
        return ()
    return tuple(letter_from_text(tok) for tok in text.split())


def ref_sampleset_from_text(text: str) -> SampleSet:
    """Dataset parsing that parses every token occurrence afresh (no memo)."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content, comment, _ = raw.partition("#")
        if comment and not content.strip():
            continue  # comment-only line, not an empty word
        try:
            words.append(_ref_word_from_text(content))  # a blank line is the empty word
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return SampleSet(words)


# Ground-truth generators for the learning suite. The spectral method
# matches minimal state counts only when the candidate Hankel rank does,
# so the generator rejects machines whose binary Hankel rank falls below
# the minimal state count (they exist: residual rows of distinct states
# can be linearly dependent even on deterministic all-final machines).

_INPUTS = ("x", "y")
_OUTPUTS = ("u", "v")
PAIR_LETTERS = tuple((i, o) for i in _INPUTS for o in _OUTPUTS)


def random_attacker(rng: random.Random, max_states: int = 5, max_letters: int = 4) -> Fst:
    """Random trim deterministic all-final machine, out-degree <= 2."""
    n = rng.randint(1, max_states)
    letters = rng.sample(PAIR_LETTERS, rng.randint(1, max_letters))
    states = tuple(str(k) for k in range(n))
    transitions = set()
    for s in states:
        for letter in rng.sample(letters, min(rng.randint(0, 2), len(letters))):
            transitions.add((s, letter[0], letter[1], states[rng.randrange(n)]))
    machine = Fst(
        states=states,
        initial="0",
        transitions=frozenset(transitions),
        finals=frozenset(states),
    )
    return trim(machine)


def default_mask_len(words: set) -> int:
    longest = max(len(w) for w in words)
    return max(0, (longest - 1) // 2)


def spectral_ground_truth(seed: int, max_states: int = 5) -> tuple[Fst, set]:
    """(machine, exhaustive sample) pair on which recovery must be exact.

    Rejects candidates until the full candidate Hankel rank at the
    learner's default mask length equals the minimal state count.
    """
    rng = random.Random(seed)
    while True:
        machine = random_attacker(rng, max_states=max_states)
        words = set(language_upto(machine, 2 * len(machine.states) + 1))
        rank = full_candidate_rank(words, default_mask_len(words))
        if rank == len(minimize(machine).states):
            return machine, words
