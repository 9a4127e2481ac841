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
from .formats import symbol_from_text
from .fst import (
    EPS,
    Fst,
    Letter,
    Word,
    _check_symbol,
    close_silent,
    compose,
    compose_steps,
    counterexample,
    explore,
    intersect,
    invert,
    is_prefix_closed,
    minimize,
    remove_silent,
)


@dataclass(frozen=True)
class SynthesisResult:
    supervisor: Fst
    resilient: bool
    witness: Word | None

    def __post_init__(self) -> None:
        if self.resilient != (self.witness is None):
            raise ValueError("resilient verdict must match witness absence")


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
    node is (a_s state, s state, a_a state, p state). Its moves are those
    of compose(compose(a_s, s), a_a), silent ones included, taken together
    with a plant step on the inverted letter; a silent move leaves the
    plant where it is. A node accepts when all four states are final.
    Every reachable node counts against the bound of the equivalence check.
    """

    def moves(node):
        x, y, z, w = node
        inner = ((i, m, (x2, y2)) for (i, m, x2, y2) in compose_steps(a_s.arcs[x], s.arcs[y], x, y))
        for (i, o, (x2, y2), z2) in compose_steps(inner, a_a.arcs[z], (x, y), z):
            if i == EPS and o == EPS:
                yield None, (x2, y2, z2, w)
                continue
            for (pi, po, w2) in p.arcs[w]:
                if pi == o and po == i:
                    yield (o, i), (x2, y2, z2, w2)

    start = (a_s.initial, s.initial, a_a.initial, p.initial)
    order, edges = explore(start, moves, "equivalence check")
    finals = {
        k for k, (x, y, z, w) in enumerate(order)
        if x in a_s.finals and y in s.finals and z in a_a.finals and w in p.finals
    }
    witness = counterexample(close_silent(edges, finals), m_k)
    return SynthesisResult(supervisor=s, resilient=witness is None, witness=witness)


# Pattern syntax for desired languages: a sequence of letters `(in:out)`
# and parenthesized groups, either starrable, e.g. `((a1:s2)(a2:s2))*`.
# All states of the built machine are final, so the language is the
# prefix closure of the pattern's words. No alternation.

_TOKEN = re.compile(r"[()*:]|[^()*:\s]+")


def pattern_to_fst(text: str) -> Fst:
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise FormatError(f"unrecognized characters in pattern {text!r}")

    # edges[k] lists node k's (letter, target) pairs; a None letter is a
    # silent scaffolding link, closed away by remove_silent.
    edges: list[list[tuple[Letter | None, int]]] = []

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
            edges[end].append((None, s))
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
            edges[s].append((letter, e))
        else:
            s, e = parse_seq()
            take(")")
        if peek() == "*":
            take("*")
            outer_s, outer_e = fresh(), fresh()
            edges[outer_s] += [(None, s), (None, outer_e)]
            edges[e] += [(None, s), (None, outer_e)]
            return outer_s, outer_e
        return s, e

    parse_seq()  # its start node is node 0
    if pos[0] != len(tokens):
        raise FormatError(f"bad pattern {text!r}: trailing tokens")
    # The letters come from user text, and the machines built from them skip Fst's checks.
    for sym in sorted({sym for out in edges for letter, _ in out if letter for sym in letter}):
        _check_symbol(sym)
    return minimize(remove_silent(edges, range(len(edges))))
