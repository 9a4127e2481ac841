"""Text formats: machine files, sample datasets, words, and matrix grids.

Machine format (one item per line, '#' starts a comment):

    fst v1
    initial 0
    final 0 1
    trans 0 a3 a1 1

'<eps>' stands for the empty symbol. Transitions are sorted on serialize
and finals are listed in shortlex order, so parse -> serialize is
byte-stable.

Dataset format: one word per line, letters space-separated as 'in:out'
with '<eps>' allowed on either side. The literal '<empty>' or a pure
whitespace line denotes the empty word; comment-only lines are skipped.
"""

from __future__ import annotations

from .errors import FormatError
from .fst import EMPTY_TOKEN, EPS, EPS_TOKEN, Fst, Letter, SampleSet, Word, _check_letter, _check_state, shortlex


def symbol_to_text(sym: str) -> str:
    return EPS_TOKEN if sym == EPS else sym


def symbol_from_text(tok: str) -> str:
    return EPS if tok == EPS_TOKEN else tok


def letter_to_text(letter: Letter) -> str:
    i, o = letter
    return f"{symbol_to_text(i)}:{symbol_to_text(o)}"


def letter_from_text(tok: str) -> Letter:
    parts = tok.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise FormatError(f"bad letter {tok!r}: expected in:out")
    letter = (symbol_from_text(parts[0]), symbol_from_text(parts[1]))
    _check_letter(letter)
    return letter


def word_to_text(w: Word) -> str:
    if not w:
        return EMPTY_TOKEN
    return " ".join(letter_to_text(l) for l in w)


class _Letters(dict):
    """Token -> letter; a missing token is parsed, checked and stored on its first lookup."""

    def __missing__(self, tok: str) -> Letter:
        letter = self[tok] = letter_from_text(tok)
        return letter


def _word_from_tokens(toks: list[str], letters: _Letters) -> Word:
    """The line rule: no token, or the one token '<empty>', is the empty word."""
    if toks == [EMPTY_TOKEN]:
        return ()
    return tuple(map(letters.__getitem__, toks))


def word_from_text(text: str) -> Word:
    return _word_from_tokens(text.split(), _Letters())


def fst_to_text(f: Fst) -> str:
    lines = ["fst v1", f"initial {f.initial}"]
    lines.append(" ".join(["final", *shortlex(f.finals)]).rstrip())
    for (s, i, o, d) in sorted(f.transitions):
        lines.append(f"trans {s} {symbol_to_text(i)} {symbol_to_text(o)} {d}")
    return "\n".join(lines) + "\n"


def fst_from_text(text: str) -> Fst:
    """Each distinct state name and letter is checked on the line it first appears on, which a
    bad one names; the machine is built from parts so checked, without Fst's checks."""
    initial = None
    finals: list[str] = []
    trans: list[tuple[str, str, str, str]] = []
    states: dict[str, None] = {}
    letters: set[Letter] = set()
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if not saw_header:
                if line != "fst v1":
                    raise FormatError("expected header 'fst v1'")
                saw_header = True
                continue
            if toks[0] == "initial":
                if len(toks) != 2 or initial is not None:
                    raise FormatError("bad or duplicate initial line")
                initial = toks[1]
                named = [initial]
            elif toks[0] == "final":
                finals += toks[1:]
                named = toks[1:]
            elif toks[0] == "trans":
                if len(toks) != 5:
                    raise FormatError("expected 'trans src in out dst'")
                _, s, i, o, d = toks
                letter = (symbol_from_text(i), symbol_from_text(o))
                if letter not in letters:
                    _check_letter(letter)
                    letters.add(letter)
                trans.append((s, *letter, d))
                named = [s, d]
            else:
                raise FormatError(f"unknown directive {toks[0]!r}")
            for name in named:
                if name not in states:
                    _check_state(name)
                    states[name] = None
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if not saw_header:
        raise FormatError("empty machine file")
    if initial is None:
        raise FormatError("machine file has no initial line")
    return Fst._trusted(tuple(states), initial, frozenset(trans), frozenset(finals))


def _load(path, parse):
    """parse(the file's text, less one leading byte-order mark); every FormatError, not-UTF-8
    included, names the path, and a bad byte's offset counts the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8").removeprefix("\ufeff"))  # a byte-order mark is not text
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_fst(path) -> Fst:
    return _load(path, fst_from_text)


def save_fst(f: Fst, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fst_to_text(f))


def sampleset_to_text(d: SampleSet) -> str:
    lines = [word_to_text(w) for w in shortlex(d.words)]
    return "\n".join(lines) + ("\n" if lines else "")


def sampleset_from_text(text: str) -> SampleSet:
    """Each distinct token is parsed once; a bad one raises at its first use, naming its line.
    A line that is an earlier line, a space and a known token is that line's word plus one
    letter: known maps '#'-free line texts to the words their split() tokens spell, so the line
    rule would give the same word. The set is built from the words and letters so checked,
    without SampleSet's checks."""
    letters, words, known = _Letters(), [], {"": ()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        head, _, tok = raw.rpartition(" ")
        if head in known and (letter := letters.get(tok)):  # dict.get: no __missing__
            word = known[raw] = known[head] + (letter,)
        else:
            content, comment, _ = raw.partition("#")
            toks = content.split()
            if comment and not toks:
                continue  # comment-only line, not an empty word
            try:
                word = _word_from_tokens(toks, letters)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            if word:  # never '<empty>': '<empty> x:u' must still raise
                known[content] = word
        words.append(word)
    return SampleSet._trusted(frozenset(words), tuple(sorted(set(letters.values()))))


def load_dataset(path) -> SampleSet:
    return _load(path, sampleset_from_text)


def save_dataset(d: SampleSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sampleset_to_text(d))


def grid(rows, row_labels, col_labels, title: str) -> str:
    """Aligned ASCII dump of a 0/1 matrix, given as int rows, with word labels;
    each column is as wide as its label."""
    col_txt = [word_to_text(w) for w in col_labels]
    row_txt = [word_to_text(w) for w in row_labels]
    left = max(map(len, row_txt))
    lines = [title, " ".join([" " * left, *col_txt]).rstrip()]
    for label, row in zip(row_txt, rows):
        cells = (str(v).rjust(len(c)) for v, c in zip(row, col_txt))
        lines.append(" ".join([label.ljust(left), *cells]).rstrip())
    return "\n".join(lines) + "\n"
