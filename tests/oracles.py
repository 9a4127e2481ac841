"""Independent reference implementations used as test oracles.

Everything here recomputes answers by a different mechanism than the
package (top-down recursion instead of frontier simulation, language
enumeration instead of product constructions, numpy's own rank instead
of the package's), so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np

from fstlearn.errors import FormatError
from fstlearn.formats import letter_from_text, symbol_from_text
from fstlearn.fst import (
    EMPTY_TOKEN,
    EPS,
    Fst,
    Letter,
    SampleSet,
    Word,
    _check_symbol,
    language_upto,
    minimize,
    trim,
)
import fstlearn.hankel
from fstlearn.errors import AnalysisError, ClosednessError, ResourceLimitError
from fstlearn.formats import letter_to_text
from fstlearn.hankel import (
    TOL_BINARY,
    HankelSet,
    Mask,
    build_hankel_set,
    default_mask_len as _default_mask_len,
    numeric_rank,
)
from fstlearn.spectral import extract_tuple, full_rank_decompose, naturalize, tuple_to_fst
from fstlearn.loop import (
    TERMINATED_ALARM,
    TERMINATED_DEADLOCK,
    TERMINATED_MAX_STEPS,
    LoopConfig,
    LoopState,
    LoopTrace,
    StepRecord,
    initial_state,
)
from fstlearn.supervisor import SynthesisResult, counterexample, supervised_language


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


def ref_eliminate(rows, cells=None) -> list[tuple[int, int]]:
    """Fraction-free (Bareiss) Gaussian elimination of the integer matrix rows; returns the pivots.

    It pivots on each nonzero entry met along cells, (row, column) pairs read once, row-major
    by default: a passed cell must stay zero. Every division is exact. Row-major, the pivot
    rows are the rows outside the span of the rows above them.
    """
    h = [list(map(int, row)) for row in rows]
    pivots, prev = [], 1
    for i, j in cells or product(range(len(h)), range(len(h[0]))):
        if p := h[i][j]:
            top = h[i][:]
            for row in h:
                f = row[j]
                row[:] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            prev = p
            pivots.append((i, j))
    return pivots


# Residual threshold of the greedy span tests, as in the previous fstlearn.hankel.
_RESIDUAL_TOL = 1e-8


def _shortlex(words) -> list:
    return sorted(words, key=lambda w: (len(w), w))


def ref_find_basis_full_block(d: SampleSet, max_len: int) -> Mask:
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


# The learner's float path as it was before rank and row matching became
# exact: find_basis eliminating on floats against TOL_BINARY, check_closed
# comparing numeric ranks, and learn_pipeline through the SVD,
# naturalize, extract_tuple and tuple_to_fst stages.


def _first_of_each(words, key) -> list[Word]:
    """The shortlex-first word of each distinct key(word), in shortlex order."""
    first: dict = {}
    for w in _shortlex(words):
        first.setdefault(key(w), w)
    return list(first.values())


def ref_find_basis(d: SampleSet, max_len: int) -> Mask:
    """find_basis by float Gaussian elimination on the distinct block."""
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
    if len(pcand) * len(scand) > fstlearn.hankel.MAX_BLOCK_CELLS:
        raise ResourceLimitError(
            f"Hankel block of {len(pcand)} distinct rows x {len(scand)} distinct columns "
            f"exceeds the {fstlearn.hankel.MAX_BLOCK_CELLS}-cell bound"
        )
    h = np.zeros((len(pcand), len(scand)))
    for j, s in enumerate(scand):
        h[rows_of[s], j] = 1.0

    # Eliminate in place: h becomes the Schur complement of the chosen block.
    rows, cols = {0: None}, {0: None}  # ordered sets of block indices
    while True:
        # Pivot on the first entry left down the eps column, the eps row, then row-major.
        for part in (h[:, :1], h[:1], h):
            hits = np.argwhere(np.abs(part) > TOL_BINARY)
            if len(hits):
                break
        else:
            break  # nothing left: the chosen block has the block's rank
        i, j = map(int, hits[0])
        rows.setdefault(i)
        cols.setdefault(j)
        h -= np.outer(h[:, j], h[i] / h[i, j])

    return Mask(tuple(pcand[i] for i in rows), tuple(scand[j] for j in cols))


def ref_check_closed_by_rank(hz: HankelSet) -> bool:
    """True iff the H_chi rows do not raise the numeric rank of H_Theta."""
    return numeric_rank(np.vstack([hz.h_theta, *hz.h_chi.values()])) == numeric_rank(hz.h_theta)


def ref_learn_pipeline(d: SampleSet) -> SimpleNamespace:
    """learn_pipeline through the float stages; returns every intermediate."""
    if not d.words:
        raise AnalysisError("learn", "dataset is empty")
    mask = ref_find_basis(d, _default_mask_len(d))
    hz = build_hankel_set(d, mask)
    if not ref_check_closed_by_rank(hz):
        raise ClosednessError(
            "closedness",
            "an H_chi row leaves the row space of H_Theta: the recordings are too sparse; "
            "record more or longer attack words",
        )
    raw = full_rank_decompose(hz.h_theta)
    natural, b = naturalize(raw)
    tup = extract_tuple(hz, natural)
    fst = tuple_to_fst(tup)
    # A recorded letter that no arc carries makes some recording rejected.
    carried = fst.letters()
    lost = next((chi for chi in d.alphabet if chi not in carried), None)
    if lost is not None:
        raise AnalysisError(
            "consistency",
            f"the learned model has no arc for the recorded letter {letter_to_text(lost)}, "
            "so it rejects a recording; record more or longer attack words",
        )
    return SimpleNamespace(sample=d, mask=mask, hankel=hz, raw=raw, b=b, natural=natural, tup=tup, fst=fst)


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


def ref_fst_from_text(text: str) -> Fst:
    """Machine-file parsing as it was before each line's states and letter
    were checked as read: Fst's own checks run on the whole machine at the end."""
    initial = None
    finals: list[str] = []
    trans: list[tuple[str, str, str, str]] = []
    states: dict[str, None] = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "fst v1":
                raise FormatError(f"line {lineno}: expected header 'fst v1'")
            saw_header = True
            continue
        toks = line.split()
        if toks[0] == "initial":
            if len(toks) != 2 or initial is not None:
                raise FormatError(f"line {lineno}: bad or duplicate initial line")
            initial = toks[1]
            states.setdefault(initial)
        elif toks[0] == "final":
            for s in toks[1:]:
                finals.append(s)
                states.setdefault(s)
        elif toks[0] == "trans":
            if len(toks) != 5:
                raise FormatError(f"line {lineno}: expected 'trans src in out dst'")
            _, s, i, o, d = toks
            states.setdefault(s)
            states.setdefault(d)
            trans.append((s, symbol_from_text(i), symbol_from_text(o), d))
        else:
            raise FormatError(f"line {lineno}: unknown directive {toks[0]!r}")
    if not saw_header:
        raise FormatError("empty machine file")
    if initial is None:
        raise FormatError("machine file has no initial line")
    return Fst(
        states=tuple(states),
        initial=initial,
        transitions=frozenset(trans),
        finals=frozenset(finals),
    )


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


# Machine naming as it was before one builder trimmed and named on node
# numbers: a raw machine with a state per node, trimmed, then renamed in
# BFS order by a second construction, every one through Fst's checks.


def ref_canonical(fst: Fst) -> Fst:
    """Rename states 0..n-1 in BFS discovery order for byte-stable output.

    It walks each state's moves sorted by (in, out, dst) itself, not
    through the package's trim walk.

    Every state must be reachable, as in trim's and minimize's results.
    """
    moves: dict[str, list[str]] = {}
    for (s, _, _, d) in sorted(fst.transitions, key=lambda tr: tr[1:]):
        moves.setdefault(s, []).append(d)
    order = [fst.initial]
    for s in order:
        for d in moves.get(s, ()):
            if d not in order:
                order.append(d)
    name = {s: str(k) for k, s in enumerate(order)}
    return Fst(
        states=tuple(name[s] for s in order),
        initial=name[fst.initial],
        transitions=frozenset((name[s], i, o, name[d]) for (s, i, o, d) in fst.transitions),
        finals=frozenset(name[s] for s in fst.finals),
    )


def ref_trim(fst: Fst) -> Fst:
    """The states reachable from the initial one that reach a final one.

    Both sets grow to a fixpoint by sweeps over the transition set, not by
    the package's trim walk. State names are kept; the empty language
    gives the single-state machine with no finals, as trim does.
    """
    reach, live = {fst.initial}, set(fst.finals)
    grown = True
    while grown:
        grown = False
        for (s, _, _, d) in fst.transitions:
            if s in reach and d not in reach:
                reach.add(d)
                grown = True
            if d in live and s not in live:
                live.add(s)
                grown = True
    keep = reach & live
    if fst.initial not in keep:
        return Fst(("0",), "0", frozenset(), frozenset())
    return Fst(
        tuple(s for s in fst.states if s in keep),
        fst.initial,
        frozenset(tr for tr in fst.transitions if tr[0] in keep and tr[3] in keep),
        fst.finals & keep,
    )


def ref_machine(arcs, finals) -> Fst:
    """The trimmed, canonically named machine of a numbered graph.

    arcs[k] lists node k's (in, out, target) moves and node 0 is initial.
    """
    names = [str(k) for k in range(len(arcs))]
    transitions = frozenset(
        (names[k], i, o, names[t]) for k, moves in enumerate(arcs) for (i, o, t) in moves
    )
    raw = Fst(tuple(names), "0", transitions, frozenset(names[k] for k in finals))
    return ref_canonical(ref_trim(raw))


def _ref_silent_reach(edges, k, seen) -> set:
    """seen plus every node k reaches by silent moves, k included: recursive depth-first search."""
    seen.add(k)
    for i, o, t in edges[k]:
        if i == o == EPS and t not in seen:
            _ref_silent_reach(edges, t, seen)
    return seen


def ref_close_silent(edges, finals) -> SimpleNamespace:
    """close_silent as it was: each node with a silent move closed on its own."""
    arcs = []
    final = set()
    for k, out in enumerate(edges):
        if any(i == o == EPS for i, o, _ in out):
            members = _ref_silent_reach(edges, k, set())
            out = [m for n in members for m in edges[n] if not m[0] == m[1] == EPS]
            if not finals.isdisjoint(members):
                final.add(k)
        elif k in finals:
            final.add(k)
        arcs.append(out)
    return SimpleNamespace(initial=0, arcs=arcs, finals=final)


def ref_remove_silent(edges, finals) -> Fst:
    """The trimmed, canonically named machine of ref_close_silent(edges, finals)."""
    closed = ref_close_silent(edges, finals)
    return ref_machine(closed.arcs, closed.finals)


# The subset-construction consumers as they were before they walked the
# subsets on the fly: a full determinized table first, then a second walk
# over it (minimize over a total table with an explicit sink row,
# counterexample over the product of two tables with a None sink).


def ref_determinize(fst: Fst):
    """Partial subset construction over pair letters.

    Returns (dtrans, finals): dtrans[k] maps letter -> state index, state 0
    is the initial subset, finals is the set of accepting indices. The
    empty subset is never created (missing letters simply have no entry).
    Its own breadth-first loop over fst.transitions, letters in sorted
    order, numbers each subset when it is first found.
    """
    moves: dict[str, list[tuple[Letter, str]]] = {}
    for (s, i, o, d) in fst.transitions:
        moves.setdefault(s, []).append(((i, o), d))
    order = [frozenset([fst.initial])]
    index = {order[0]: 0}
    dtrans = []
    for sub in order:  # order grows as new subsets are found
        step: dict[Letter, set[str]] = {}
        for s in sub:
            for letter, d in moves.get(s, ()):
                step.setdefault(letter, set()).add(d)
        row = {}
        for letter in sorted(step):
            target = frozenset(step[letter])
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row[letter] = index[target]
        dtrans.append(row)
    finals = {k for k, sub in enumerate(order) if sub & fst.finals}
    return dtrans, finals


def ref_minimize(fst: Fst) -> Fst:
    """Minimal deterministic pair-alphabet acceptor for L(fst).

    Subset construction followed by partition refinement; the result is
    trim and canonically named. The empty language minimizes to the
    single-state machine with no finals.
    """
    t = ref_trim(fst)
    if not t.finals:
        return Fst(("0",), "0", frozenset(), frozenset())
    dtrans, dfinals = ref_determinize(t)
    letters = sorted({l for row in dtrans for l in row})
    n = len(dtrans)
    sink = n
    total = [[row.get(l, sink) for l in letters] for row in dtrans]
    total.append([sink] * len(letters))
    cls = [1 if k in dfinals else 0 for k in range(n)] + [0]
    while True:
        sig: dict[tuple, int] = {}
        new = []
        for k in range(n + 1):
            key = (cls[k], tuple(cls[t2] for t2 in total[k]))
            new.append(sig.setdefault(key, len(sig)))
        if new == cls:
            break
        cls = new
    states = tuple(str(c) for c in sorted(set(cls)))
    transitions = set()
    for k in range(n + 1):
        for li, l in enumerate(letters):
            transitions.add((str(cls[k]), l[0], l[1], str(cls[total[k][li]])))
    finals = frozenset(str(cls[k]) for k in dfinals)
    raw = Fst(states, str(cls[0]), frozenset(transitions), finals)
    return ref_canonical(ref_trim(raw))


def ref_counterexample(a: Fst, b: Fst) -> Word | None:
    """Shortest word accepted by exactly one of the two machines, or None.

    BFS over the product of the two determinized partial acceptors, with
    an implicit rejecting sink (None) on missing letters, stopping at the
    first node where they differ. The witness follows the edge that first
    reached each node on its way.
    """
    da, fa = ref_determinize(ref_trim(a))
    db, fb = ref_determinize(ref_trim(b))
    letters = sorted(
        {l for row in da for l in row} | {l for row in db for l in row}
    )

    # Its own breadth-first loop over pairs; first[k] is the number of the
    # pair that first found pair k, and the letter it found it on.
    order = [(0, 0)]
    index = {order[0]: 0}
    first: dict[int, tuple[int, Letter]] = {}
    for k, (sa, sb) in enumerate(order):  # order grows as new pairs are found
        if (sa in fa) != (sb in fb):
            w = []
            while k:
                k, letter = first[k]
                w.append(letter)
            return tuple(reversed(w))
        for letter in letters:
            ta = da[sa].get(letter) if sa is not None else None
            tb = db[sb].get(letter) if sb is not None else None
            if (ta is not None or tb is not None) and (ta, tb) not in index:
                index[ta, tb] = len(order)
                first[len(order)] = (k, letter)
                order.append((ta, tb))
    return None


def ref_is_prefix_closed(fst: Fst) -> bool:
    """True iff every prefix of every accepted word is accepted.

    Decided on the trimmed, determinized acceptor: prefix-closed iff every
    reachable subset state is accepting. The empty language is vacuously
    prefix closed.
    """
    t = ref_trim(fst)
    if not t.finals:
        return True
    dtrans, finals = ref_determinize(t)
    return all(k in finals for k in range(len(dtrans)))


def ref_verify_resilient(p: Fst, s: Fst, a_s: Fst, a_a: Fst, m_k: Fst) -> SynthesisResult:
    """verify_resilient as it was before it walked the loop on the fly.

    The supervised language is built as a machine by composition,
    inversion and intersection, and then compared with m_k.
    """
    lang = supervised_language(p, s, a_s, a_a)
    witness = counterexample(lang, m_k)
    return SynthesisResult(supervisor=s, witness=witness)


def _ref_relay(machine: Fst, state: str, symbol: str, rng: random.Random) -> tuple[str, str]:
    """Feed one symbol through a mid-loop machine; returns (state, output).

    Eligible moves are the explicit transitions consuming the symbol,
    plus the implicit stay when the symbol is the empty message. With no
    eligible move the machine stalls in place and emits nothing.
    """
    options = [(o, dst) for (i, o, dst) in machine.arcs[state] if i == symbol]
    if symbol == EPS:
        options.append((EPS, state))
    if not options:
        return state, EPS
    out, dst = options[rng.randrange(len(options))]
    return dst, out


def _ref_step(cfg: LoopConfig, states: LoopState, rng: random.Random) -> tuple[str, StepRecord | None, LoopState]:
    """One tick; returns ("ok" | "alarm" | "deadlock", record, new states)."""
    sup_moves = cfg.supervisor.arcs[states.supervisor]
    if not sup_moves:
        return TERMINATED_DEADLOCK, None, states
    alpha = sup_moves[rng.randrange(len(sup_moves))][1]

    act_state, alpha_c = _ref_relay(cfg.actuator_attacker, states.actuator, alpha, rng)
    plant_state, sigma = _ref_relay(cfg.plant, states.plant, alpha_c, rng)
    sensor_state, sigma_c = _ref_relay(cfg.sensor_attacker, states.sensor, sigma, rng)

    # The supervisor committed alpha before seeing sigma_c; it now moves
    # by any transition matching the observed pair, not necessarily the
    # arc it drew alpha from.
    matches = [dst for (i, o, dst) in sup_moves if i == sigma_c and o == alpha]
    if (sigma_c, alpha) == (EPS, EPS):
        matches.append(states.supervisor)
    alarmed = not matches
    sup_state = states.supervisor if alarmed else matches[rng.randrange(len(matches))]

    new_states = LoopState(supervisor=sup_state, actuator=act_state, plant=plant_state, sensor=sensor_state)
    record = StepRecord(alpha=alpha, alpha_c=alpha_c, sigma=sigma, sigma_c=sigma_c, states=new_states)
    return (TERMINATED_ALARM if alarmed else "ok"), record, new_states


def ref_run(cfg: LoopConfig) -> LoopTrace:
    """loop.run as it was before the move index and the bit-level draw.

    Each tick rebuilds every option list from `arcs` by comprehension,
    draws with `randrange` and builds fresh records, so equal traces pin
    the option order, the random stream and the shared records' values.
    """
    rng = random.Random(cfg.seed)
    states = initial_state(cfg)
    steps: list[StepRecord] = []
    for _ in range(cfg.max_steps):
        kind, record, states = _ref_step(cfg, states, rng)
        if kind == TERMINATED_DEADLOCK:
            return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_DEADLOCK)
        steps.append(record)
        if kind == TERMINATED_ALARM:
            return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_ALARM)
    return LoopTrace(steps=tuple(steps), terminated_by=TERMINATED_MAX_STEPS)


# The pattern reader as it was before the one token loop, kept verbatim
# apart from its name, its docstring, the (in, out, target) move shape and
# the reference builders it ends with: a differential oracle for the loop.

_TOKEN = re.compile(r"[()*:]|[^()*:\s]+")


def ref_pattern_to_fst(text: str) -> Fst:
    """pattern_to_fst as it was: recursive descent, one call per nested group."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise FormatError(f"unrecognized characters in pattern {text!r}")

    # edges[k] lists node k's (in, out, target) moves; an (EPS, EPS) move is
    # a silent scaffolding link, closed away by ref_close_silent.
    edges: list[list[tuple[str, str, int]]] = []

    def fresh() -> int:
        edges.append([])
        return len(edges) - 1

    pos = [0]

    def peek(offset: int = 0) -> str | None:
        i = pos[0] + offset
        return tokens[i] if i < len(tokens) else None

    def take(expected: str | None = None) -> str:
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise FormatError(f"bad pattern {text!r}: expected {expected or 'a token'} at token {pos[0]}")
        pos[0] += 1
        return tok

    def parse_seq() -> tuple[int, int]:
        start = fresh()
        end = start
        while peek() == "(":
            s, e = parse_item()
            edges[end].append((EPS, EPS, s))
            end = e
        return start, end

    def parse_item() -> tuple[int, int]:
        take("(")
        if peek() not in ("(", ")") and peek(1) == ":":
            left = take()
            take(":")
            right = take()
            take(")")
            if left in "()*:" or right in "()*:":
                raise FormatError(f"bad pattern {text!r}: malformed letter")
            letter = (symbol_from_text(left), symbol_from_text(right))
            if letter == (EPS, EPS):
                raise FormatError("the (eps,eps) letter cannot appear in a pattern")
            s, e = fresh(), fresh()
            edges[s].append((*letter, e))
        else:
            s, e = parse_seq()
            take(")")
        if peek() == "*":
            take("*")
            outer_s, outer_e = fresh(), fresh()
            edges[outer_s] += [(EPS, EPS, s), (EPS, EPS, outer_e)]
            edges[e] += [(EPS, EPS, s), (EPS, EPS, outer_e)]
            return outer_s, outer_e
        return s, e

    parse_seq()  # its start node is node 0
    if pos[0] != len(tokens):
        raise FormatError(f"bad pattern {text!r}: trailing tokens")
    # The letters come from user text, and the machines built from them skip Fst's checks.
    for sym in sorted({sym for out in edges for move in out for sym in move[:2]}):
        _check_symbol(sym)
    return ref_minimize(ref_remove_silent(edges, set(range(len(edges)))))
