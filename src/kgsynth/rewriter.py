"""Multi-pattern replacement of surface names inside descriptions.

Matching rules, shared with the leakage analysis so the two can never
diverge:

- a key matches only at token boundaries: the characters immediately before
  and after the span must not be letters or digits (text edges count);
- matching is case-sensitive;
- rewriting is a single greedy left-to-right pass taking the longest key at
  each position, and replacement text is never rescanned.

``scan`` is the one matcher: it returns every boundary match, nested and
overlapping ones included. ``join`` applies the greedy rule to those matches
and puts a replacement in each span it takes; ``find_keys`` is the set of
matched keys. Matches depend only on the keys, so a graph's descriptions are
scanned once (``KnowledgeGraph.mention_spans``), joined for every renaming
and read by ``analysis.description_leakage``. ``rewrite_text`` and
``rewrite_descriptions`` are a scan plus a join.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kg import KnowledgeGraph

# Original surface name -> replacement, insertion-ordered.
NameMap = dict[str, str]

_NO_KEYS = re.compile(r"(?!)")
_ABSENT = object()
_skip_alnum = re.compile(r"[^\W_]*").match


def _start_pattern(first_chars: Iterable[str]) -> re.Pattern[str]:
    """Positions where a key may start: a token boundary followed by the
    first character of some key (``[^\\W_]`` is exactly ``str.isalnum``)."""
    return re.compile(r"(?<![^\W_])[" + "".join(map(re.escape, first_chars)) + "]")


class PatternIndex(dict[str, str | None]):
    """The keys of a NameMap, each mapped to its replacement, plus every
    proper key prefix that ends just before a non-alphanumeric character of
    its key, mapped to None.

    A key matches only at token boundaries, so a scan needs to look a span
    up only where it ends at a boundary, and it can stop at the first such
    span that is absent: no key extends it. ``starts`` finds the positions
    where a scan may begin.
    """

    starts: re.Pattern[str] = _NO_KEYS

    def lookup(self, key: str) -> str | None:
        """Replacement for an exact key, or None when the key is not indexed."""
        return self.get(key)


def build_index(name_map: NameMap) -> PatternIndex:
    """Build a PatternIndex holding exactly the keys of ``name_map``."""
    index = PatternIndex()
    for key, replacement in name_map.items():
        if not key:
            raise ValueError("cannot index an empty key")
        for j in range(1, len(key)):
            if not key[j].isalnum():
                index.setdefault(key[:j], None)
        index[key] = replacement
    if name_map:
        index.starts = _start_pattern({key[0] for key in name_map})
    return index


def scan(index: PatternIndex, text: str) -> array[int]:
    """Every boundary occurrence of an indexed key, nested and overlapping
    ones included.

    Returned as one flat int32 array ``start, end, start, end, ...`` (no
    object per match, so a cache of them stays small), in text order and, at
    one start, shorter key first; empty when ``text`` mentions no key.
    """
    get = index.get
    n = len(text)
    matches = array("i")
    for start in index.starts.finditer(text):
        i = j = start.start()
        while j < n:
            j = _skip_alnum(text, j + 1).end()  # the next token boundary
            found = get(text[i:j], _ABSENT)
            if found is _ABSENT:
                break
            if found is not None:
                matches.append(i)
                matches.append(j)
    return matches


def join(text: str, matches: Sequence[int], replace: Callable[[str], str]) -> str:
    """``text`` with the greedy selection of ``scan`` matches replaced by
    ``replace(key)``.

    At each start the longest key is taken, and a match that starts inside a
    key already replaced is skipped, so replacement text is never rescanned.
    Spans that already are a greedy selection pass through unchanged.
    """
    out: list[str] = []
    plain_start = 0
    last = len(matches) - 2
    for k in range(0, last + 2, 2):
        start = matches[k]
        if start < plain_start or (k < last and matches[k + 2] == start):
            continue  # inside a replaced key, or a longer key starts here
        end = matches[k + 1]
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
