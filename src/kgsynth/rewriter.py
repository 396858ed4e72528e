"""Trie-backed multi-pattern replacement of surface names inside descriptions.

Matching rules, shared with the leakage analysis so the two can never
diverge:

- a key matches only at token boundaries: the characters immediately before
  and after the span must not be letters or digits (text edges count);
- matching is case-sensitive;
- rewriting is a single greedy left-to-right pass taking the longest key at
  each position, and replacement text is never rescanned.

``segment`` is the single greedy scanner: it returns the spans that pass
takes, and ``join`` puts a replacement in each. The greedy spans depend only
on the keys, so a graph's descriptions can be segmented once
(``KnowledgeGraph.mention_spans``) and joined for every renaming.
``rewrite_text`` and ``rewrite_descriptions`` are a segment plus a join.
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

_ROOT = 0
_NO_KEYS = re.compile(r"(?!)")


def _start_pattern(first_chars: Iterable[str]) -> re.Pattern[str]:
    """Positions where a key may start: a token boundary followed by the
    first character of some key (``[^\\W_]`` is exactly ``str.isalnum``)."""
    return re.compile(r"(?<![^\W_])[" + "".join(map(re.escape, first_chars)) + "]")


class PatternIndex:
    """Prefix tree over the keys of a NameMap; accepting nodes carry the replacement.

    States are array indices: ``children[s]`` maps a character to the next
    state, ``payload[s]`` holds the replacement when ``s`` accepts a key.
    ``starts`` finds the positions where a scan may enter the tree.
    """

    __slots__ = ("children", "payload", "size", "starts")

    def __init__(self) -> None:
        self.children: list[dict[str, int]] = [{}]
        self.payload: list[str | None] = [None]
        self.size = 0
        self.starts = _NO_KEYS

    def _insert(self, key: str, replacement: str) -> None:
        node = _ROOT
        for char in key:
            nxt = self.children[node].get(char)
            if nxt is None:
                nxt = len(self.children)
                self.children[node][char] = nxt
                self.children.append({})
                self.payload.append(None)
            node = nxt
        if self.payload[node] is None:
            self.size += 1
        self.payload[node] = replacement

    def lookup(self, key: str) -> str | None:
        """Replacement for an exact key, or None when the key is not indexed."""
        node = _ROOT
        for char in key:
            nxt = self.children[node].get(char)
            if nxt is None:
                return None
            node = nxt
        return self.payload[node]


def build_index(name_map: NameMap) -> PatternIndex:
    """Build a PatternIndex holding exactly the keys of ``name_map``."""
    index = PatternIndex()
    for key, replacement in name_map.items():
        if not key:
            raise ValueError("cannot index an empty key")
        index._insert(key, replacement)
    if index.size:
        index.starts = _start_pattern(index.children[_ROOT])
    return index


def _is_word_char(char: str) -> bool:
    return char.isalnum()


def segment(index: PatternIndex, text: str) -> array[int]:
    """Spans of every boundary occurrence of an indexed key, longest key first.

    The one greedy scanner: a single left-to-right pass that takes the
    longest key at each boundary position and resumes after it. Returned as
    one flat int32 array ``start, end, start, end, ...`` in text order (no
    object per span, so a cache of them stays small); the spans never
    overlap, and the array is empty when ``text`` mentions no key.
    """
    children = index.children
    payload = index.payload
    n = len(text)
    spans = array("i")
    resume = 0
    for start in index.starts.finditer(text):
        i = start.start()
        if i < resume:
            continue
        node = _ROOT
        j = i
        best_end = -1
        while j < n:
            node = children[node].get(text[j], -1)
            if node < 0:
                break
            j += 1
            if payload[node] is not None and (j == n or not _is_word_char(text[j])):
                best_end = j
        if best_end >= 0:
            spans.append(i)
            spans.append(best_end)
            resume = best_end
    return spans


def join(text: str, spans: Sequence[int], replace: Callable[[str], str]) -> str:
    """``text`` with each ``segment`` span's key replaced by ``replace(key)``.

    Replacement text is never rescanned.
    """
    out: list[str] = []
    plain_start = 0
    bounds = iter(spans)
    for start, end in zip(bounds, bounds):
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
    return join(text, segment(index, text), index.lookup)


def find_keys(index: PatternIndex, text: str) -> set[str]:
    """All indexed keys occurring in ``text`` at token boundaries.

    Unlike rewrite_text this reports every match, including overlapping and
    nested ones; it backs the description-leakage statistic and residual-name
    audits.
    """
    children = index.children
    payload = index.payload
    n = len(text)
    found: set[str] = set()
    for start in index.starts.finditer(text):
        i = start.start()
        node = _ROOT
        j = i
        while j < n:
            node = children[node].get(text[j], -1)
            if node < 0:
                break
            j += 1
            if payload[node] is not None and (j == n or not _is_word_char(text[j])):
                found.add(text[i:j])
    return found


def rewrite_descriptions(kg: KnowledgeGraph, name_map: NameMap) -> dict[str, str]:
    """Apply rewrite_text to every description; ids and order are untouched."""
    if not name_map:
        return dict(kg.descriptions)
    index = build_index(name_map)
    replace = name_map.__getitem__
    return {eid: join(text, segment(index, text), replace)
            for eid, text in kg.descriptions.items()}
