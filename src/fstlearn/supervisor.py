"""Supervisor synthesis and resilience checking.

Against attacker models A_s (sensor channel) and A_a (actuator channel)
and a desired-language machine M_K, the candidate supervisor is

    S = invert(A_s) . invert(M_K) . invert(A_a)

where . is left-to-right composition. The supervised plant language is
what the plant can actually do inside the loop,

    L(P | S, A_s, A_a) = L(invert(A_s . S . A_a)) n L(P)

and S is resilient exactly when that language equals L(M_K). The
verdict is a value, not an exception: nonexistence of a resilient
supervisor is a legitimate analysis outcome, reported with the
shortlex-least witness word from the symmetric difference.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .errors import FormatError
from .formats import letter_from_text
from .fst import (
    EPS,
    Fst,
    Word,
    _closure,
    _refine,
    _subsets,
    close_silent,
    compose,
    compose_steps,
    counterexample,
    explore,
    intersect,
    invert,
    is_prefix_closed,
)


@dataclass(frozen=True)
class SynthesisResult:
    """A candidate supervisor and the shortlex-least word its attacked loop and M_K disagree on, or None."""

    supervisor: Fst
    witness: Word | None

    resilient = property(lambda self: self.witness is None)


def synthesize(m_k: Fst, a_s: Fst, a_a: Fst) -> Fst:
    """Candidate supervisor invert(a_s) . invert(m_k) . invert(a_a)."""
    if not is_prefix_closed(m_k):
        warnings.warn(
            "desired language is not prefix-closed; the control loop assumes it is",
            UserWarning,
            stacklevel=2,
        )
    return compose(compose(invert(a_s), invert(m_k)), invert(a_a))


def supervised_language(p: Fst, s: Fst, a_s: Fst, a_a: Fst) -> Fst:
    """Plant words possible in the loop: L(invert(a_s . s . a_a)) n L(p).

    The language as a machine; verify_resilient walks it without building it.
    """
    return intersect(invert(compose(compose(a_s, s), a_a)), p)


def verify_resilient(p: Fst, s: Fst, a_s: Fst, a_a: Fst, m_k: Fst) -> SynthesisResult:
    """Whether supervised_language(p, s, a_s, a_a) equals L(m_k).

    The loop is numbered once, its silent steps are closed, and
    counterexample compares it with m_k, so no machine is built. A loop
    node is ((a_s state, s state), a_a state, p state). Its moves are those
    of compose(compose(a_s, s), a_a), silent ones included, taken together
    with a plant step on the inverted letter; a silent move leaves the
    plant where it is. A node accepts when all four states are final.
    Every reachable node counts against the bound of the equivalence check.
    """

    as_arcs, s_arcs, aa_arcs, p_arcs = a_s.arcs, s.arcs, a_a.arcs, p.arcs

    def moves(node):
        xy, z, w = node
        inner = compose_steps(as_arcs[xy[0]], s_arcs[xy[1]], *xy)
        for (i, o, (xy2, z2)) in compose_steps(inner, aa_arcs[z], xy, z):
            if i == o == EPS:
                yield EPS, EPS, (xy2, z2, w)
                continue
            for (pi, po, w2) in p_arcs[w]:
                if pi == o and po == i:
                    yield o, i, (xy2, z2, w2)

    start = ((a_s.initial, s.initial), a_a.initial, p.initial)
    order, edges = explore(start, moves, "equivalence check")
    finals = {
        k for k, ((x, y), z, w) in enumerate(order)
        if x in a_s.finals and y in s.finals and z in a_a.finals and w in p.finals
    }
    witness = counterexample(close_silent(edges, finals), m_k)
    return SynthesisResult(supervisor=s, witness=witness)


# Pattern syntax for desired languages: a sequence of letters `(in:out)`
# and parenthesized groups, either starrable, e.g. `((a1:s2)(a2:s2))*`.
# All states of the built machine are final, so the language is the
# prefix closure of the pattern's words. No alternation.

_TOKEN = re.compile(r"[()*:]|[^()*:\s]+")


def pattern_to_fst(text: str) -> Fst:
    """The machine of a pattern, read token by token with a stack of open groups. Its one walk over
    subsets of token nodes closed under silent links is refined in place, every token node final."""
    tokens = _TOKEN.findall(text)
    # edges[k] lists node k's (in, out, target) moves, (EPS, EPS) for a silent
    # scaffolding link. Node 0 starts the pattern and the last node ends what is
    # read so far. `item` is the (start, end) of the item just closed, the one a
    # star may follow, and `groups` holds the start of each open group.
    edges: list[list[tuple[str, str, int]]] = [[]]
    item, groups, i = None, [], 0
    while i < len(tokens):
        match tokens[i : i + 5]:
            case ["(", left, ":", right, ")"] if left not in "()":
                if left in "()*:" or right in "()*:":
                    raise FormatError(f"bad pattern {text!r}: malformed letter at token {i}")
                letter = letter_from_text(f"{left}:{right}")  # the machines built from it skip Fst's checks
                item = (len(edges), len(edges) + 1)
                edges[-1].append((EPS, EPS, item[0]))
                edges += [[(*letter, item[1])], []]
                i += 4  # and 1 below: past the letter's five tokens
            case ["(", *_]:
                groups.append(len(edges))
                edges[-1].append((EPS, EPS, len(edges)))
                edges.append([])
                item = None
            case [")", *_] if groups:
                # A fresh end node: a star's links must not touch an inner item's nodes.
                item = (groups.pop(), len(edges))
                edges[-1].append((EPS, EPS, item[1]))
                edges.append([])
            case ["*", *_] if item:
                edges[item[0]].append((EPS, EPS, item[1]))
                edges[item[1]].append((EPS, EPS, item[0]))
                item = None
            case [tok, *_]:
                raise FormatError(f"bad pattern {text!r}: unexpected {tok!r} at token {i}")
        i += 1
    if groups:
        raise FormatError(f"bad pattern {text!r}: {len(groups)} unclosed group(s)")
    return _refine(*_subsets(edges, [0], close=lambda nodes: _closure(edges, nodes)), set(range(len(edges))))
