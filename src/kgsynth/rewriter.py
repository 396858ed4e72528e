"""Multi-pattern replacement of surface names inside descriptions.

Matching rules, shared with the leakage analysis so the two can never
diverge:

- a key matches only at token boundaries: the characters immediately before
  and after the span must not be letters or digits (text edges count);
- matching is case-sensitive;
- rewriting is a single greedy left-to-right pass taking the longest key at
  each position, and replacement text is never rescanned.

``scan`` is the one matcher: it returns every boundary match, nested and
overlapping ones included, found by numpy passes over the text's code
points. Token boundaries come from ``str.isalnum`` of the code points
present; a match may start only at a boundary on one of the keys' first
characters, and may end only at a later boundary. From each start the
candidate ends are walked level by level, one boundary further per level,
and each span's uint64 polynomial hash (base ``_HASH_BASE``, modulo 2^64) is
looked up among the hashes of the keys and of the key prefixes a longer key
continues from; a start drops out at the first span that is neither. Every
span whose hash is a key's is compared with that key's text before it is
reported, so a hash collision costs time, never a match. ``select`` is the
one greedy rule: it flags the matches it takes, of one text or of many at
once. ``join`` puts a replacement in each span ``select`` takes;
``find_keys`` is the set of matched keys. Matches depend only on the keys,
so a graph's descriptions are scanned once, a block of them at a time
(``spans``), into its mention table (``KnowledgeGraph.mentions``), whose
greedy selection every renaming rewrites from and whose matches
``analysis.description_leakage`` reads. ``rewrite_text`` and
``rewrite_descriptions`` are a scan plus a join.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Mapping, Sequence
from itertools import chain, compress, islice
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kg import KnowledgeGraph

# Original surface name -> replacement, insertion-ordered.
NameMap = dict[str, str]

# The base of the span hashes: odd, so it has an inverse modulo 2^64.
_HASH_BASE = 0x9E3779B97F4A7C15
# A scan takes the power of the base at a text position from two tables, one
# indexed by the position modulo _ROW (``_row_powers``).
_ROW = 256


def _code_points(text: str) -> np.ndarray:
    """``text`` as one uint32 code point per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _powers(base: int, n: int) -> np.ndarray:
    """``base ** k`` modulo 2^64 for k < n, as uint64 (numpy's integer
    products wrap)."""
    powers = np.full(n, np.uint64(base), dtype=np.uint64)
    powers[:1] = 1
    return np.cumprod(powers, out=powers)


def _row_powers(base: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``base ** m`` modulo 2^64 for ``m < rows * _ROW`` as the product of
    ``low[m % _ROW]`` and ``high[m // _ROW]``: two short tables, so no power
    table has an entry per character."""
    return _powers(base, _ROW), _powers(pow(base, _ROW, 1 << 64), rows)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])] if len(values) else values


def _boundaries(points: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two bool tables over the code points up to the largest of ``points``
    (at most 1.1 MB, for non-BMP text): which are not ``str.isalnum``, a
    token boundary, and which are one of ``heads``. ``str.isalnum`` is called
    once per distinct code point of ``points``."""
    top = int(points.max(initial=0)) + 1
    stop = np.zeros(top, dtype=bool)
    stop[points.astype(np.intp)] = True
    present = np.flatnonzero(stop)
    stop[present] = [not chr(c).isalnum() for c in present.tolist()]
    head = np.zeros(top, dtype=bool)
    head[heads[heads < top]] = True
    return stop, head


class PatternIndex(dict[str, object]):
    """The keys of a NameMap, each mapped to its replacement (or of any map
    of keys to values, such as name ids), plus the hash tables ``spans``
    looks spans up in.

    ``codes`` holds the keys' code points one after another, key ``k`` at
    ``bounds[k]:bounds[k + 1]`` (keys number in insertion order), and
    ``heads`` their distinct first code points. ``table`` holds, ascending
    and distinct, the hashes of the keys and of every proper key prefix that
    ends just before a non-alphanumeric character of its key, then a copy of
    its last hash, at which nothing is flagged, so that a span hashed above
    all of them is looked up there. At ``table[p]``, ``continues[p]`` says
    whether it is such a prefix's hash, and ``by_hash[first[p]:last[p]]``
    are the keys that hash to it (``keyed[p]``: some do).
    """

    codes: np.ndarray
    bounds: np.ndarray
    heads: np.ndarray
    table: np.ndarray
    continues: np.ndarray
    keyed: np.ndarray
    first: np.ndarray
    last: np.ndarray
    by_hash: np.ndarray
    # when an int array, each scan appends to it the value of each match it returns
    record: array[int] | None = None

    def lookup(self, key: str) -> object | None:
        """Replacement for an exact key, or None when the key is not indexed."""
        return self.get(key)


def build_index(name_map: Mapping[str, object]) -> PatternIndex:
    """Build a PatternIndex holding exactly the keys of ``name_map``, each
    mapped to its value."""
    index = PatternIndex(name_map)
    if "" in index:
        raise ValueError("cannot index an empty key")
    index.codes = _code_points("".join(index))
    lengths = np.fromiter(map(len, index), dtype=np.int64, count=len(index))
    index.bounds = np.concatenate(([0], np.cumsum(lengths)))
    starts = index.bounds[:-1]
    index.heads = _distinct(index.codes[starts])
    stop = _boundaries(index.codes, index.heads)[0]
    # the hash of a key or prefix is ``sum(codes[m] * B**t)``, ``t`` the
    # position of ``m`` in its key, summed one position at a time over the
    # keys that long, longest key first; a prefix ends at each
    # non-alphanumeric character but a key's first
    longest = np.argsort(-lengths, kind="stable")
    first_codes = starts[longest]
    alive = np.searchsorted(-lengths[longest], -np.arange(int(lengths.max(initial=0))),
                            side="left")
    hashes = np.zeros(len(index), dtype=np.uint64)
    prefixes: list[np.ndarray] = []
    power = 1
    for t, n in enumerate(alive.tolist()):
        codes = index.codes[first_codes[:n] + t]
        if t:
            prefixes.append(hashes[:n][stop.take(codes)])
        hashes[:n] += np.multiply(codes, np.uint64(power), dtype=np.uint64)
        power = power * _HASH_BASE % (1 << 64)
    del first_codes, stop
    keys = np.empty_like(hashes)
    keys[longest] = hashes
    prefixes = np.concatenate([np.empty(0, dtype=np.uint64), *prefixes])
    index.by_hash = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[index.by_hash]
    table = _distinct(np.concatenate([keys, prefixes]))
    index.table = np.append(table, table[-1:])
    index.continues = np.zeros(len(index.table), dtype=bool)
    index.continues[np.searchsorted(table, prefixes)] = True
    index.first = np.searchsorted(keys, index.table, side="left")
    index.last = np.searchsorted(keys, index.table, side="right")
    index.keyed = index.last > index.first
    index.keyed[-1:] = False
    return index


def spans(index: PatternIndex, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every boundary occurrence of an indexed key in ``text``: int64 starts
    and ends, in text order and, at one start, shorter key first, and the
    number of each match's key.

    A block of many texts joined by a non-alphanumeric character is scanned
    as they are one at a time, but for the matches that take in a joining
    character.
    """
    codes = _code_points(text)
    n = len(codes)
    empty = np.empty(0, dtype=np.int64)
    if not len(index) or not n:
        return empty, empty, empty
    stop, head = _boundaries(codes, index.heads)
    stops = np.flatnonzero(stop.take(codes))
    del stop
    # the places a key may start: the text's start and each place after a
    # boundary, ``after[k]`` the one after the ``k``-th boundary (``after[0]`` = 0)
    after = np.append(0, stops + 1)
    ends = np.append(stops, n)  # the places a key may end
    # prefix sums of ``codes[m] * B**m`` at each boundary, from sums of the
    # terms between boundaries; ``terms[m + 1]`` is ``codes[m]``'s term, zero
    # past the text, made a row of _ROW characters at a time
    rows = -(-n // _ROW)
    low, high = _row_powers(_HASH_BASE, rows)
    terms = np.zeros(rows * _ROW + 1, dtype=np.uint64)
    terms[1:n + 1] = codes
    block = terms[1:].reshape(rows, _ROW)
    block *= low
    block *= high[:, None]
    del block
    sums = np.cumsum(np.add.reduceat(terms, after))
    starts = np.flatnonzero(head.take(codes[after[after < n]]))
    at = after[starts]
    # the hash of ``codes[at:ends[k]]`` is ``(sums[k] - base) * shift``
    base = np.append(np.uint64(0), sums[:-1])[starts] + terms[at]
    del terms
    low, high = _row_powers(pow(_HASH_BASE, -1, 1 << 64), rows)
    shift = low[at % _ROW] * high[at // _ROW]
    level = np.searchsorted(ends, at + 1)  # each start's first candidate end
    table, keyed, continues = index.table, index.keyed, index.continues
    last_end = len(ends) - 1
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [(empty, empty, empty)]
    while len(at):
        hashed = (sums[level] - base) * shift
        p = np.searchsorted(table[:-1], hashed)
        hit = table[p] == hashed
        take = np.flatnonzero(hit & keyed[p])
        found.append((at[take], level[take], p[take]))
        more = np.flatnonzero(hit & continues[p] & (level < last_end))
        at, level, base, shift = at[more], level[more] + 1, base[more], shift[more]
    at, level, p = (np.concatenate(part) for part in zip(*found))
    del sums, base, shift, found
    # every key that hashes to a span, checked against its text
    counts = index.last[p] - index.first[p]
    span = np.repeat(np.arange(len(p)), counts)
    key = index.by_hash[np.repeat(index.first[p] - np.cumsum(counts) + counts, counts)
                        + np.arange(len(span))]
    lengths = index.bounds[key + 1] - index.bounds[key]
    same = lengths == ends[level[span]] - at[span]
    span, key, lengths = span[same], key[same], lengths[same]
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    differ = (codes[np.repeat(at[span], lengths) + within]
              != index.codes[np.repeat(index.bounds[key], lengths) + within])
    exact = np.bincount(np.repeat(np.arange(len(key)), lengths)[differ],
                        minlength=len(key)) == 0
    span, key = span[exact], key[exact]
    # levels were found in turn, so a stable sort by start keeps the shorter key first
    order = np.argsort(at[span], kind="stable")
    span = span[order]
    return at[span], ends[level[span]], key[order].astype(np.int64)


def scan(index: PatternIndex, text: str) -> array[int]:
    """Every boundary occurrence of an indexed key, nested and overlapping
    ones included.

    Returned as one flat int32 array ``start, end, start, end, ...`` (no
    object per match, so a cache of them stays small), in text order and, at
    one start, shorter key first; empty when ``text`` mentions no key. Each
    match's value in the index goes to ``index.record`` if that is set.
    """
    starts, ends, keys = spans(index, text)
    matches = array("i", np.stack([starts, ends], axis=1).astype(np.int32).tobytes())
    if index.record is not None:
        values = list(index.values())
        index.record.extend(map(values.__getitem__, keys.tolist()))
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
