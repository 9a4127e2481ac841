"""Finite-state transducers treated as acceptors over the pair alphabet.

A machine reads one (input, output) letter per clock tick. Every state
additionally carries an implicit stay transition (eps, eps) that consumes
and emits the empty message; it is never stored, serialized, or counted
in alphabets. Stored words therefore never contain the (eps, eps) letter,
and language operations (composition, intersection, minimization,
equivalence) are ordinary regular-language operations over pair letters.

A letter may carry eps on one side, e.g. (a, eps): that is a normal
letter recording an empty message on one channel.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterator, Mapping, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType, SimpleNamespace

from .errors import FormatError, ResourceLimitError

EPS = ""

Letter = tuple[str, str]
Word = tuple[Letter, ...]

# Guards against pathological blowup, read where each is checked; exceeding
# a bound raises, never truncates.
MAX_STATES = 10_000
MAX_WORDS = 1_000_000

# Text-format tokens for the empty symbol and the empty word; never names.
EPS_TOKEN = "<eps>"
EMPTY_TOKEN = "<empty>"
_RESERVED = (EPS_TOKEN, EMPTY_TOKEN)
# In a str pattern, \s matches exactly the characters str.isspace() accepts.
_SYMBOL = re.compile(r"[^\s#:]+")
_STATE = re.compile(r"[^\s#]+")


def _check_symbol(sym: str) -> None:
    if sym == EPS:
        return
    if not _SYMBOL.fullmatch(sym) or sym in _RESERVED:
        raise FormatError(
            f"bad symbol {sym!r}: no whitespace, ':' or '#', and reserved tokens are not symbols"
        )


def _check_letter(letter) -> None:
    """A letter is an (in, out) pair of valid symbols, other than the implicit stay (eps, eps)."""
    if len(letter) != 2:
        raise FormatError(f"bad letter {letter!r}: expected an (in, out) pair")
    if letter == (EPS, EPS):
        raise FormatError("the (eps,eps) letter is reserved for the implicit stay transition")
    for sym in letter:
        _check_symbol(sym)


def _refuse_loose_symbols(letters) -> None:
    """Refuse a letter with a symbol that is not a string, before any letter is hashed or sorted."""
    odd = [repr(l) for l in letters if not all(isinstance(sym, str) for sym in l)]
    if odd:  # the least by repr, so that the letter named does not depend on hash order
        raise FormatError(f"bad letter {min(odd)}: symbols must be strings")


def _alphabet(letters) -> tuple[Letter, ...]:
    """The distinct letters, of string symbols, sorted and checked."""
    alphabet = tuple(sorted(set(letters)))
    for letter in alphabet:
        _check_letter(letter)
    return alphabet


def _check_state(name: str) -> None:
    if not _STATE.fullmatch(name) or name in _RESERVED:
        raise FormatError(f"bad state name {name!r}")


@dataclass(frozen=True)
class Fst:
    """Immutable transducer (states, initial, transitions, finals).

    Transitions are (src, in, out, dst) quadruples. Explicit (eps, eps)
    transitions are rejected: the stay transition is implicit at every
    state. `arcs` is the machine's transition index.

    `states`, `transitions` and `finals` may each be any iterable but a
    string or a mapping; each is read once. The first fault is refused with
    FormatError, in this order: a field's type, no states, a malformed
    transition, a name and then a symbol that is not a string, a bad state
    name, an unknown initial state, final state and then transition end,
    and a bad letter. Which offender is named never depends on set order.
    """

    states: tuple[str, ...]
    initial: str
    transitions: frozenset[tuple[str, str, str, str]]
    finals: frozenset[str]

    def __post_init__(self):
        states = _field(self.states, "states", "state names")
        trans = _field(self.transitions, "transitions", "(src, in, out, dst) tuples")
        finals = _field(self.finals, "finals", "state names")
        if not states:
            raise FormatError("a machine needs at least one state")
        # Shapes and types before anything is hashed, unpacked or sorted, each offender the least by repr.
        odd = [repr(t) for t in trans if not isinstance(t, tuple) or len(t) != 4]
        if odd:
            raise FormatError(f"malformed transition {min(odd)}: expected a (src, in, out, dst) tuple")
        ends = chain.from_iterable((s, d) for (s, _, _, d) in trans)
        odd = [repr(s) for s in chain(states, (self.initial,), finals, ends) if not isinstance(s, str)]
        if odd:
            raise FormatError(f"bad state name {min(odd)}")
        letters = [(i, o) for (_, i, o, _) in trans]
        _refuse_loose_symbols(letters)
        states, trans, finals = tuple(dict.fromkeys(states)), frozenset(trans), frozenset(finals)
        for s in states:
            _check_state(s)
        known = set(states)
        if self.initial not in known:
            raise FormatError(f"initial state {self.initial!r} not among states")
        if not finals <= known:
            raise FormatError(f"final states {sorted(finals - known)} not among states")
        stray = [(s, i, o, d) for (s, i, o, d) in trans if s not in known or d not in known]
        if stray:
            raise FormatError("transition ({},{},{},{}) references unknown state".format(*min(stray, key=repr)))
        _alphabet(letters)
        self.__dict__.update(states=states, transitions=trans, finals=finals)  # frozen: set as _trusted sets them

    @cached_property
    def arcs(self) -> MappingProxyType[str, tuple[tuple[str, str, str], ...]]:
        """Each state's explicit (in, out, dst) moves, sorted; built once, read-only."""
        adj: dict[str, list[tuple[str, str, str]]] = {s: [] for s in self.states}
        for (s, i, o, d) in self.transitions:
            adj[s].append((i, o, d))
        return MappingProxyType({s: tuple(sorted(moves)) for s, moves in adj.items()})

    @classmethod
    def _trusted(cls, states, initial, transitions, finals) -> "Fst":
        """A machine from parts already valid, unchecked."""
        m = object.__new__(cls)
        m.__dict__.update(states=states, initial=initial, transitions=transitions, finals=finals)
        return m

    def __getstate__(self):
        # A mappingproxy cannot be pickled; the index is rebuilt on first use.
        return {k: v for k, v in self.__dict__.items() if k != "arcs"}

    def letters(self) -> set[Letter]:
        """Distinct pair letters appearing on explicit transitions."""
        return {(i, o) for (_, i, o, _) in self.transitions}


def _refuse_types(kinds, what: str, expected: str, refused=()) -> None:
    """Name the first, by name, of the types in kinds that is not iterable or subclasses refused."""
    odd = sorted(t.__name__ for t in kinds if issubclass(t, refused) or not hasattr(t, "__iter__"))
    if odd:
        raise FormatError(f"bad {what} of type {odd[0]}: expected {expected}")


def _field(value, what: str, items: str) -> tuple:
    """The items of a collection field, read once; a string, a mapping or a value that is not iterable is refused."""
    _refuse_types({type(value)}, what, f"an iterable of {items}", (str, Mapping))
    return tuple(value)


@dataclass(frozen=True)
class SampleSet:
    """Deduplicated positive sample words plus their observed letter alphabet.

    Every word is assumed to be a true member of the target language; the
    toolkit validates shape only, never veracity. `words` is read once, as
    `Fst` reads a field: any iterable of words but a string or a mapping.
    Each distinct letter is checked once, in sorted order. A word is a
    sequence of letters and a letter an (in, out) sequence of strings;
    anything else, a set, mapping or iterator among them, raises
    FormatError. `by_length[n]` holds the words of length n, for n up to
    the longest; built on first use.
    """

    words: frozenset[Word]
    alphabet: tuple[Letter, ...] = field(init=False)

    def __post_init__(self):
        words = _field(self.words, "word set", "words")
        _refuse_types(set(map(type, words)), "word", "a sequence of letters", (Set, Mapping))
        words = list(map(tuple, words))  # a tuple is not copied
        try:  # the distinct letters, so that each type below is read once
            letters = set(chain.from_iterable(words))
        except TypeError:  # an unhashable letter or symbol: read every occurrence
            letters = list(chain.from_iterable(words))
        kinds = set(map(type, letters))
        if not kinds <= {tuple}:  # refuse a string, an unordered or one-pass letter or a scalar
            _refuse_types(kinds, "letter", "an (in, out) pair", (str, Set, Mapping, Iterator))
            words = [tuple(map(tuple, w)) for w in words]
            letters = list(map(tuple, letters))
        _refuse_loose_symbols(letters)
        alphabet = _alphabet(letters)
        object.__setattr__(self, "words", frozenset(words))  # every symbol is a string, so every word is hashable
        object.__setattr__(self, "alphabet", alphabet)

    @cached_property
    def by_length(self) -> tuple[tuple[Word, ...], ...]:
        """The words of each length, shortest first; () for an empty set."""
        slots: dict[int, list[Word]] = defaultdict(list)
        for w in self.words:
            slots[len(w)].append(w)
        return tuple(tuple(slots[n]) for n in range(max(slots, default=-1) + 1))

    @classmethod
    def _trusted(cls, words, alphabet) -> "SampleSet":
        """A sample set from a frozenset of tuple words and its sorted, checked alphabet, unchecked."""
        d = object.__new__(cls)
        d.__dict__.update(words=words, alphabet=alphabet)
        return d

    @classmethod
    def from_words(cls, words) -> "SampleSet":
        return cls(words)

    def __len__(self) -> int:
        return len(self.words)


def shortlex(items) -> list:
    """Items (words or state names) sorted by length, then lexicographically."""
    return sorted(items, key=lambda x: (len(x), x))


def _successors(arcs, subset) -> dict[Letter, set]:
    """The states reached from a subset of states, per pair letter.

    arcs maps each state to its (in, out, dst) moves, as Fst.arcs does.
    """
    moves: dict[Letter, set] = {}
    for s in subset:
        for (i, o, d) in arcs[s]:
            moves.setdefault((i, o), set()).add(d)
    return moves


def accepts(fst: Fst, w: Word) -> bool:
    """True iff some path labeled by w from the initial state ends final.

    The machine is a nondeterministic acceptor over pair letters. A
    (eps, eps) letter in the input, if one slips in, is a no-op: the
    implicit stay absorbs it at every state.
    """
    cur = {fst.initial}
    for letter in w:
        if letter == (EPS, EPS):
            continue
        cur = _successors(fst.arcs, cur).get(tuple(letter))
        if not cur:
            return False
    return bool(cur & fst.finals)


def invert(fst: Fst) -> Fst:
    """Swap input and output on every transition; state set unchanged."""
    return Fst._trusted(
        fst.states, fst.initial, frozenset((s, o, i, d) for (s, i, o, d) in fst.transitions), fst.finals
    )


def _trim_order(arcs, nodes, finals, initial) -> list:
    """The nodes reachable from initial that reach one in finals, in BFS order.

    arcs[k] lists node k's (in, out, target) moves, for every k in nodes, in
    the walk's order: sorted by (in, out, str(target)), as in Fst.arcs. The
    list is empty when initial reaches no node in finals. The walk back
    from finals runs only when some node is not final; otherwise every
    node reaches one.
    """
    live = set(finals)
    if not live.issuperset(nodes):
        back = {k: [] for k in nodes}
        for k in nodes:
            for (_, _, t) in arcs[k]:
                back[t].append(k)
        stack = list(live)
        while stack:
            for p in back[stack.pop()]:
                if p not in live:
                    live.add(p)
                    stack.append(p)
    if initial not in live:
        return []
    order = [initial]
    seen = {initial}
    for k in order:
        for (_, _, t) in arcs[k]:
            if t in live and t not in seen:
                seen.add(t)
                order.append(t)
    return order


def trim(fst: Fst) -> Fst:
    """Drop states not reachable from the initial or not co-reachable to a final.

    State names are preserved, and a machine that loses no state is
    returned as it is. If the language is empty the canonical single-state
    machine with no finals is returned.
    """
    keep = set(_trim_order(fst.arcs, fst.states, fst.finals, fst.initial))
    if len(keep) == len(fst.states):
        return fst
    if not keep:
        return _machine([], ())  # the graph with no node has the empty language
    kept = frozenset(tr for tr in fst.transitions if tr[0] in keep and tr[3] in keep)
    states = tuple(s for s in fst.states if s in keep)
    return Fst._trusted(states, fst.initial, kept, fst.finals & keep)


def _machine(arcs, finals) -> Fst:
    """The trim machine of a numbered graph, built once.

    arcs[k] lists node k's (in, out, target) moves, as explore gives
    them, and node 0 is initial. The nodes _trim_order keeps, given moves
    sorted as it needs (a list of one move is sorted already), are named
    "0".."n-1" in its order.
    """
    key = lambda m: (m[0], m[1], str(m[2]))
    arcs = [sorted(moves, key=key) if len(moves) > 1 else moves for moves in arcs]
    order = _trim_order(arcs, range(len(arcs)), finals, 0)
    if not order:
        return Fst._trusted(("0",), "0", frozenset(), frozenset())
    name = {k: str(n) for n, k in enumerate(order)}
    return Fst._trusted(
        tuple(name.values()),
        "0",
        frozenset((name[k], i, o, name[t]) for k in order for (i, o, t) in arcs[k] if t in name),
        frozenset(name[k] for k in finals if k in name),
    )


def explore(start, moves, what: str, stop=None):
    """Breadth-first walk from start, numbering nodes in discovery order.

    moves(node) yields (in, out, target node) moves, (EPS, EPS) for a silent
    step. Returns (order, edges): order[k] is node k and edges[k] lists its
    (in, out, target number) moves in the order moves gave them. If
    stop(node) holds for a node as it is taken up, the walk ends there,
    before expanding it; that node is order[len(edges)]. A walk that would
    number more than MAX_STATES nodes raises ResourceLimitError naming `what`.
    """
    index = {start: 0}
    order = [start]
    edges = []
    for node in order:
        if stop is not None and stop(node):
            break
        out = []
        for i, o, tgt in moves(node):
            k = index.get(tgt)
            if k is None:
                if len(order) >= MAX_STATES:
                    raise ResourceLimitError(f"{what} exceeded the {MAX_STATES}-state bound")
                k = index[tgt] = len(order)
                order.append(tgt)
            out.append((i, o, k))
        edges.append(out)
    return order, edges


def _closure(edges, nodes) -> frozenset:
    """The nodes reached from nodes by silent (EPS, EPS) moves, nodes included."""
    seen = set(nodes)
    stack = list(seen)
    while stack:
        for (i, o, t) in edges[stack.pop()]:
            if i == o == EPS and t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def close_silent(edges, finals) -> SimpleNamespace:
    """A numbered graph with its silent steps closed: (initial, arcs, finals).

    Node 0 is initial; edges[k] lists node k's (in, out, target) moves, as
    explore gives them. Node k takes the letter moves of every node its
    silent moves reach, itself included, and is final when any of those
    nodes is in finals. A node with no silent move keeps its moves; any
    other starts Tarjan's walk (an explicit stack in place of recursion)
    unless the walk has numbered it. Each strongly connected component of
    the silent moves is closed once, successors first, and its members
    share one list of moves (Mohri, "Generic epsilon-removal", 2002). Its
    (moving, final) pair holds the nodes with a letter move that the
    members reach, so a long silent chain keeps small sets, and whether
    any node so reached is in finals; it merges each component below
    once. counterexample reads the result as a side and _machine builds it.
    """
    arcs = list(edges)
    final = set()
    number: dict[int, int] = {}
    low: dict[int, int] = {}
    closed: dict[int, tuple[set, bool]] = {}  # node -> its component's (moving, final)
    stack = []
    for root, out in enumerate(edges):
        for (i, o, _) in out:
            if i == o == EPS:
                break
        else:
            if root in finals:
                final.add(root)
            continue
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        walk = [(root, iter(edges[root]))]
        while walk:
            v, moves = walk[-1]
            for (i, o, t) in moves:
                if not i == o == EPS:
                    continue
                if t not in number:
                    number[t] = low[t] = len(number)
                    stack.append(t)
                    walk.append((t, iter(edges[t])))
                    break
                if t not in closed:  # still on the stack, so in v's component
                    low[v] = min(low[v], number[t])
            else:
                walk.pop()
                if walk:
                    u = walk[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == number[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    moving, is_final, below = set(), not finals.isdisjoint(members), {}
                    for n in members:
                        for (i, o, t) in edges[n]:
                            if not i == o == EPS:
                                moving.add(n)
                            elif t in closed:  # closed before, so in a component below
                                below[id(closed[t])] = closed[t]
                    for (moving_below, final_below) in below.values():
                        moving |= moving_below
                        is_final = is_final or final_below
                    pair = (moving, is_final)
                    out = [m for n in moving for m in edges[n] if not m[0] == m[1] == EPS]
                    for n in members:
                        closed[n] = pair
                        arcs[n] = out
                    if is_final:
                        final.update(members)
    return SimpleNamespace(initial=0, arcs=arcs, finals=final)


def compose_steps(a_arcs, b_arcs, p, q):
    """compose's product moves from the state pair (p, q).

    a_arcs and b_arcs are the (in, out, dst) moves of p and q. Yields
    (in, out, (p2, q2)) moves; (EPS, EPS) marks a silent one. a_arcs may
    hold such silent moves of an inner composition: b meets each with
    its implicit stay, like any empty message.
    """
    for (i, m, p2) in a_arcs:
        if m == EPS:
            # b consumes the empty message with its implicit stay
            yield i, EPS, (p2, q)
        for (m2, o, q2) in b_arcs:
            if m2 == m:
                yield i, o, (p2, q2)
    for (m2, o, q2) in b_arcs:
        if m2 == EPS:
            # a emits the empty message with its implicit stay
            yield EPS, o, (p, q2)


def _product(a: Fst, b: Fst, steps, what: str) -> Fst:
    """The trim machine of the pair walk from (a.initial, b.initial), its silent moves closed.

    steps(a's moves of p, b's moves of q, p, q) yields the pair (p, q)'s (in, out, (p2, q2))
    moves, (EPS, EPS) for a silent one. A pair is final when both of its states are.
    """
    a_arcs, b_arcs = a.arcs, b.arcs

    def moves(node):
        p, q = node
        return steps(a_arcs[p], b_arcs[q], p, q)

    order, edges = explore((a.initial, b.initial), moves, what)
    closed = close_silent(edges, {k for k, (p, q) in enumerate(order) if p in a.finals and q in b.finals})
    return _machine(closed.arcs, closed.finals)


def compose(a: Fst, b: Fst) -> Fst:
    """Pipeline composition: a's output feeds b's input.

    A product step pairs an explicit step of a with an explicit step of b
    sharing the mediating symbol, or an explicit step whose mediating
    symbol is eps with the other machine's implicit stay. When a inserts
    a symbol that b deletes, the product step is silent (eps, eps); such
    steps are removed by closure so the result never stores them.
    """
    return _product(a, b, compose_steps, "composition")


def intersect(a: Fst, b: Fst) -> Fst:
    """Product acceptor over identical pair letters; L = L(a) and L(b). It has no silent move to close."""

    def steps(a_arcs, b_arcs, p, q):  # a move of each on one letter, by a table of q's moves
        moves_b: dict[Letter, list[str]] = {}
        for (i, o, q2) in b_arcs:
            moves_b.setdefault((i, o), []).append(q2)
        for (i, o, p2) in a_arcs:
            for q2 in moves_b.get((i, o), ()):
                yield i, o, (p2, q2)

    return _product(a, b, steps, "intersection")


def _subsets(arcs, start, stop=None, close=frozenset):
    """Partial subset construction over pair letters, one walk.

    arcs maps each state to its (in, out, dst) moves, as Fst.arcs does, and
    close a set of states to its subset; a silent (EPS, EPS) move is left
    to close. Returns explore's (order, edges): order[0] is close(start) and
    edges[k] lists order[k]'s moves in sorted letter order. The empty subset
    is never created (a missing letter simply has no move). stop is passed
    on to explore.
    """

    def moves(sub):
        succ = _successors(arcs, sub)
        succ.pop((EPS, EPS), None)
        return [(i, o, close(succ[i, o])) for (i, o) in sorted(succ)]

    return explore(close(start), moves, "determinization", stop)


def _refine(order, edges, finals) -> Fst:
    """The minimal machine of a subset walk from _subsets with no dead subset, by Moore refinement:
    a subset is final when it meets finals, and a missing letter is its own signature entry.
    _machine names the class graph from class 0, which every round gives the initial subset."""
    cls = [1 if sub & finals else 0 for sub in order]
    while True:
        sig: dict[tuple, int] = {}
        new = [
            sig.setdefault((cls[k], tuple((i, o, cls[d]) for i, o, d in out)), len(sig))
            for k, out in enumerate(edges)
        ]
        if new == cls:
            break
        cls = new
    member = {c: k for k, c in enumerate(cls)}  # the subsets of a class share their moves
    arcs = [[(i, o, cls[d]) for i, o, d in edges[member[c]]] for c in range(len(member))]
    return _machine(arcs, {c for c, sub in zip(cls, order) if sub & finals})


def minimize(fst: Fst) -> Fst:
    """Minimal deterministic pair-alphabet acceptor for L(fst): the trimmed machine's subset walk,
    refined. The empty language minimizes to the single-state machine with no finals."""
    t = trim(fst)
    return _refine(*_subsets(t.arcs, [t.initial]), t.finals)


def counterexample(a, b) -> Word | None:
    """Shortlex-least word accepted by exactly one of two machines, or None.

    Each side is anything with initial, arcs and finals: an Fst, which is
    trimmed first, or a graph closed by close_silent. One BFS over
    pairs of subsets, letters in sorted order, stopping at the first pair
    where the sides differ; a side with no move on a letter goes to the
    empty subset, which rejects everything. The witness follows the edge
    that first reached each node on its way, so it does not depend on
    which machine represents either language.
    """
    a, b = (trim(m) if isinstance(m, Fst) else m for m in (a, b))
    a_arcs, b_arcs = a.arcs, b.arcs

    def moves(node):
        ma, mb = _successors(a_arcs, node[0]), _successors(b_arcs, node[1])
        for letter in sorted(ma.keys() | mb.keys()):
            yield *letter, (frozenset(ma.get(letter, ())), frozenset(mb.get(letter, ())))

    def differ(node):
        return a.finals.isdisjoint(node[0]) != b.finals.isdisjoint(node[1])

    start = (frozenset([a.initial]), frozenset([b.initial]))
    order, edges = explore(start, moves, "equivalence check", differ)
    k = len(edges)
    if k == len(order):
        return None
    first: dict[int, tuple[int, Letter]] = {}
    for src, out in enumerate(edges):
        for i, o, t in out:
            first.setdefault(t, (src, (i, o)))
    w = []
    while k:
        k, letter = first[k]
        w.append(letter)
    return tuple(reversed(w))


def equivalent(a: Fst, b: Fst) -> bool:
    """True iff L(a) = L(b) as pair-letter languages."""
    return counterexample(a, b) is None


def language_upto(fst: Fst, n: int) -> set[Word]:
    """Exactly the accepted words of length at most n; keeping over MAX_WORDS raises."""
    result: set[Word] = set()
    frontier: dict[Word, frozenset[str]] = {(): frozenset([fst.initial])}
    for length in range(n + 1):
        for w, cur in frontier.items():
            if cur & fst.finals:
                result.add(w)
        if len(result) > MAX_WORDS:
            raise ResourceLimitError(f"language enumeration exceeded {MAX_WORDS} words")
        if length == n:
            break
        nxt: dict[Word, frozenset[str]] = {}
        for w, cur in frontier.items():
            for letter, tgts in _successors(fst.arcs, cur).items():
                if len(nxt) >= MAX_WORDS:  # checked before the next word is kept
                    raise ResourceLimitError(f"language enumeration exceeded {MAX_WORDS} words")
                nxt[w + (letter,)] = frozenset(tgts)
        frontier = nxt
    return result


def is_prefix_closed(fst: Fst) -> bool:
    """True iff every prefix of every accepted word is accepted.

    Decided on the trimmed machine: prefix-closed iff every reachable
    subset is accepting, so the walk stops at the first one that is not.
    No walk is needed when every state is final, since each reachable
    subset is nonempty, nor for the empty language, which is vacuously
    prefix closed.
    """
    t = trim(fst)
    if not t.finals or len(t.finals) == len(t.states):
        return True
    order, edges = _subsets(t.arcs, [t.initial], stop=lambda sub: not sub & t.finals)
    return len(edges) == len(order)


def identity_fst(symbols) -> Fst:
    """Single-state transducer copying each given symbol to itself; symbols is read as Fst reads a field."""
    moves = [("0", x, x, "0") for x in _field(symbols, "symbols", "symbols") if x != EPS]
    return Fst(states=("0",), initial="0", transitions=moves, finals=("0",))
