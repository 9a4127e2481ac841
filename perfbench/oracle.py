"""Independent automaton helpers for the benchmark's generators and checks.

Nothing here calls into fstlearn: machines are plain adjacency maps,
languages are enumerated path by path, and composition is checked as a
join of bounded languages on the mediating symbol sequence. Agreement
with the program is therefore evidence, not a restatement of it.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np

EPS = ""


class Machine(NamedTuple):
    """Pair-letter acceptor: arcs[state] lists (letter, destination)."""

    initial: str
    finals: frozenset
    arcs: dict

    @classmethod
    def from_transitions(cls, initial, finals, transitions) -> "Machine":
        arcs: dict = {}
        for (src, i, o, dst) in sorted(transitions):
            arcs.setdefault(src, []).append(((i, o), dst))
        return cls(initial, frozenset(finals), arcs)

    @classmethod
    def from_fst(cls, fst) -> "Machine":
        return cls.from_transitions(fst.initial, fst.finals, fst.transitions)

    def transitions(self) -> list:
        return sorted(
            (src, letter[0], letter[1], dst)
            for src, outs in self.arcs.items()
            for letter, dst in outs
        )


def parse_fst_text(text: str) -> Machine:
    """Read the `fst v1` text format (header, initial, final, trans lines)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["fst", "v1"]:
        raise ValueError("missing 'fst v1' header")
    initial, finals, trans = None, [], []
    for toks in lines[1:]:
        if toks[0] == "initial":
            initial = toks[1]
        elif toks[0] == "final":
            finals.extend(toks[1:])
        elif toks[0] == "trans" and len(toks) == 5:
            i, o = (EPS if tok == "<eps>" else tok for tok in toks[2:4])
            trans.append((toks[1], i, o, toks[4]))
        else:
            raise ValueError(f"bad line {' '.join(toks)!r}")
    if initial is None:
        raise ValueError("no initial line")
    return Machine.from_transitions(initial, finals, trans)


def accepts(m: Machine, word) -> bool:
    cur = {m.initial}
    for letter in word:
        cur = {d for s in cur for (l2, d) in m.arcs.get(s, ()) if l2 == letter}
        if not cur:
            return False
    return bool(cur & m.finals)


def language(m: Machine, max_len: int) -> set:
    """Accepted words of length <= max_len, by depth-first path search."""
    out = set()
    stack = [(m.initial, ())]
    while stack:
        state, word = stack.pop()
        if state in m.finals:
            out.add(word)
        if len(word) < max_len:
            for letter, dst in m.arcs.get(state, ()):
                stack.append((dst, word + (letter,)))
    return out


def count_words(m: Machine, max_len: int) -> int:
    """|language(m, max_len)| for a deterministic all-final machine, by DP."""
    cur = {m.initial: 1}
    total = 1
    for _ in range(max_len):
        nxt: dict = {}
        for state, c in cur.items():
            for _, dst in m.arcs.get(state, ()):
                nxt[dst] = nxt.get(dst, 0) + c
        cur = nxt
        total += sum(cur.values())
    return total


def _join(left: set, right: set) -> set:
    """Same-length composition: left's outputs feed right's inputs."""
    by_input: dict = {}
    for w in right:
        by_input.setdefault(tuple(i for i, _ in w), []).append(w)
    out = set()
    for w in left:
        for v in by_input.get(tuple(o for _, o in w), ()):
            out.add(tuple(zip((i for i, _ in w), (o for _, o in v))))
    return out


def supervised_words(plant, sup, a_s, a_a, max_len: int) -> set:
    """Bounded L(invert(a_s . sup . a_a)) n L(plant), by language joins.

    Valid only for machines without one-sided-empty letters, where every
    composed step is one step of each machine.
    """
    for m in (plant, sup, a_s, a_a):
        if any(EPS in letter for outs in m.arcs.values() for letter, _ in outs):
            raise ValueError("join oracle needs machines without empty-symbol letters")
    relation = _join(_join(language(a_s, max_len), language(sup, max_len)), language(a_a, max_len))
    plant_words = {tuple((o, i) for i, o in w) for w in relation}
    return {w for w in plant_words if accepts(plant, w)}


def verdict_problem(plant, sup, a_s, a_a, m_k, resilient: bool, witness, max_len: int = 5):
    """Cross-check a resilience verdict; returns None or what is wrong.

    RESILIENT needs equal bounded languages; NOT_RESILIENT needs the
    witness in their symmetric difference.
    """
    n = max(max_len, len(witness or ()))
    got = supervised_words(plant, sup, a_s, a_a, n)
    want = language(m_k, n)
    if resilient:
        return None if got == want else f"bounded languages differ: {sorted(got ^ want)[:1]}"
    if (witness in got) == (witness in want):
        return f"witness {witness} is not in the symmetric difference"
    return None


def candidate_block(words, max_len: int) -> tuple[int, int]:
    """(cells, distinct cells) of the full candidate Hankel block of D.

    Candidates are the prefixes and suffixes of D no longer than max_len;
    the distinct block keeps one copy of each repeated row and column.
    """
    pidx, sidx = {(): 0}, {(): 0}
    rows, cols = array("q"), array("q")
    for w in words:
        for k in range(len(w) + 1):
            r = pidx.setdefault(w[:k], len(pidx)) if k <= max_len else None
            c = sidx.setdefault(w[k:], len(sidx)) if len(w) - k <= max_len else None
            if r is not None and c is not None:
                rows.append(r)
                cols.append(c)
    block = np.zeros((len(pidx), len(sidx)), dtype=bool)
    block[np.frombuffer(rows, dtype=np.int64), np.frombuffer(cols, dtype=np.int64)] = True
    distinct = len(np.unique(block, axis=0)) * np.unique(block, axis=1).shape[1]
    return block.size, int(distinct)
