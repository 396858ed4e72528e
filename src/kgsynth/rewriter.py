"""Multi-pattern replacement of surface names inside descriptions.

Matching rules, shared with the leakage analysis so the two can never
diverge:

- a key matches only at token boundaries: the characters immediately before
  and after the span must not be letters or digits (text edges count);
- matching is case-sensitive;
- rewriting is a single greedy left-to-right pass taking the longest key at
  each position, and replacement text is never rescanned.

``scan`` is the one matcher: it returns every boundary match, nested and
overlapping ones included. It finds the places where a key may start in C:
a compiled split cuts the text into its first spans (a key's first
character at a token boundary, plus the run of letters and digits after it)
and the plain text between them, and only the spans that begin some key go
on to a walk along the token boundaries. ``select`` is the one greedy rule:
it flags the matches it takes, of one text or of many at once. ``join`` puts
a replacement in each span ``select`` takes; ``find_keys`` is the set of
matched keys. Matches depend only on the keys, so a graph's descriptions are
scanned once, into its mention table (``KnowledgeGraph.mentions``), whose
greedy selection every renaming rewrites from and whose matches
``analysis.description_leakage`` reads. ``rewrite_text`` and
``rewrite_descriptions`` are a scan plus a join.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Callable, Mapping, Sequence
from itertools import accumulate, chain, compress, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kg import KnowledgeGraph

# Original surface name -> replacement, insertion-ordered.
NameMap = dict[str, str]

_ABSENT = object()
_skip_alnum = re.compile(r"[^\W_]*").match  # ``[^\W_]`` is exactly ``str.isalnum``


def _split_pattern(first_chars: list[str]) -> re.Pattern[str]:
    """Capture, as ``re.split`` pieces, the first spans that begin with one
    of ``first_chars`` at a token boundary.

    The character class leads, so ``re`` skips in C to the next position
    holding one of ``first_chars``; the lookbehind then checks the character
    before it (DOTALL, so ``.`` takes a newline too).
    """
    chars = "".join(map(re.escape, sorted(first_chars)))
    return re.compile(r"([" + chars + r"](?<![^\W_].)[^\W_]*)", re.DOTALL)


class PatternIndex(dict[str, object]):
    """The keys of a NameMap, each mapped to its replacement (or of any map
    of keys to values other than None, such as name ids), plus every proper
    key prefix that ends just before a non-alphanumeric character of its
    key, mapped to None.

    A key matches only at token boundaries, so a scan needs to look a span
    up only where it ends at a boundary, and it can stop at the first such
    span that is absent: no key extends it. The first span it looks up is a
    first span: a key's first character plus the run of letters and digits
    after it. ``firsts`` holds every key's first span, and ``splits`` cut a
    text into first spans and the text between them: one split for keys led
    by a letter or digit, one for the others, since a span led by
    punctuation takes in the word after it, where a letter-led key may start.
    """

    splits: tuple[re.Pattern[str], ...] = ()
    firsts: frozenset[str] = frozenset()
    # when an int array, each scan appends to it the value of each match it returns
    record: array[int] | None = None

    def lookup(self, key: str) -> str | None:
        """Replacement for an exact key, or None when the key is not indexed."""
        return self.get(key)


def build_index(name_map: Mapping[str, object]) -> PatternIndex:
    """Build a PatternIndex holding exactly the keys of ``name_map``, each
    mapped to its value."""
    index = PatternIndex()
    for key, replacement in name_map.items():
        if not key:
            raise ValueError("cannot index an empty key")
        for j in range(1, len(key)):
            if not key[j].isalnum():
                index.setdefault(key[:j], None)
        index[key] = replacement
    heads = {key[0] for key in name_map}
    index.splits = tuple(_split_pattern(chars) for chars in (
        [c for c in heads if c.isalnum()], [c for c in heads if not c.isalnum()]) if chars)
    index.firsts = frozenset(key[:_skip_alnum(key, 1).end()] for key in name_map)
    return index


def scan(index: PatternIndex, text: str) -> array[int]:
    """Every boundary occurrence of an indexed key, nested and overlapping
    ones included.

    Returned as one flat int32 array ``start, end, start, end, ...`` (no
    object per match, so a cache of them stays small), in text order and, at
    one start, shorter key first; empty when ``text`` mentions no key. Each
    match's value in the index goes to ``index.record`` if that is set.

    Each split leaves the text as ``gap, span, gap, span, ..., gap``; the
    spans in ``index.firsts`` are kept with their offsets, all in C, and
    only from those starts does a walk look longer spans up, one token
    boundary at a time, until the index holds no entry for one.
    """
    starts: list[int] = []
    for split in index.splits:
        pieces = split.split(text)
        offsets = accumulate(map(len, pieces))  # where each piece after the first starts
        starts += compress(islice(offsets, 0, None, 2),
                           map(index.firsts.__contains__, islice(pieces, 1, None, 2)))
    if len(index.splits) > 1:
        starts.sort()  # the two splits' starts interleave in the text
    get, record = index.get, index.record
    n = len(text)
    matches = array("i")
    for i in starts:
        j = i
        while j < n:
            j = _skip_alnum(text, j + 1).end()  # the next token boundary
            found = get(text[i:j], _ABSENT)
            if found is _ABSENT:
                break
            if found is not None:
                matches.append(i)
                matches.append(j)
                if record is not None:
                    record.append(found)
    return matches


def select(starts: Sequence[int], ends: Sequence[int]) -> bytearray:
    """One flag per match, 1 for each the greedy rule takes.

    ``starts`` ascend and, at one start, the shorter key comes first, as
    ``scan`` returns them. At each start the longest key is taken, and a
    match that starts inside a key already taken is skipped, so replacement
    text is never rescanned. Matches of several texts are selected at once
    when each text's positions lie above the previous text's.
    """
    taken = bytearray(len(starts))
    plain_start = 0
    for k, (start, after) in enumerate(zip(starts, chain(islice(starts, 1, None), (None,)))):
        if start < plain_start or after == start:
            continue  # inside a taken key, or a longer key starts here
        taken[k] = 1
        plain_start = ends[k]
    return taken


def join(text: str, matches: Sequence[int], replace: Callable[[str], str]) -> str:
    """``text`` with the greedy selection (``select``) of ``scan`` matches
    replaced by ``replace(key)``. Spans that already are a greedy selection
    pass through unchanged.
    """
    starts, ends = matches[0::2], matches[1::2]
    out: list[str] = []
    plain_start = 0
    for start, end in compress(zip(starts, ends), select(starts, ends)):
        out.append(text[plain_start:start])
        out.append(replace(text[start:end]))
        plain_start = end
    out.append(text[plain_start:])
    return "".join(out)


def rewrite_text(index: PatternIndex, text: str) -> str:
    """Replace every boundary occurrence of an indexed key, longest key first.

    Scanning resumes after each replacement, so replacement text cannot
    trigger further matches within the same pass.
    """
    return join(text, scan(index, text), index.lookup)


def find_keys(index: PatternIndex, text: str) -> set[str]:
    """All indexed keys occurring in ``text`` at token boundaries, nested and
    overlapping ones included; the keys of ``scan``'s matches."""
    bounds = iter(scan(index, text))
    return {text[start:end] for start, end in zip(bounds, bounds)}


def rewrite_descriptions(kg: KnowledgeGraph, name_map: NameMap) -> dict[str, str]:
    """Apply rewrite_text to every description; ids and order are untouched."""
    if not name_map:
        return dict(kg.descriptions)
    index = build_index(name_map)
    replace = name_map.__getitem__
    return {eid: join(text, scan(index, text), replace)
            for eid, text in kg.descriptions.items()}
