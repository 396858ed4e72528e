"""Knowledge-graph data model and bit-exact TSV I/O.

``read_rows`` and ``write_rows`` are the one row codec of the toolkit: every
row file it reads or writes (datasets, mappings, recipes, manifests,
checkpoints, predictions; not the source text files ``convert`` reads) is
UTF-8, one LF-terminated row per line, cells joined by tabs. Readers skip
blank lines and reject a row with the wrong number of cells as
``<file>:<line>: expected N tab-separated fields``. Every reader parses
through ``_row_blocks``, which splits whole blocks of lines into cells in C;
``read_rows`` yields its rows one at a time, and ``read_graph`` maps a
split's cells to rows as they are read.

A dataset directory holds six such files:

    train.tsv / valid.tsv / test.tsv   head_id<TAB>relation_id<TAB>tail_id
    entities.tsv                       entity_id<TAB>name
    relations.tsv                      relation_id<TAB>name
    descriptions.tsv                   entity_id<TAB>description

Ids, names and descriptions must not contain tabs or newlines; such values
are rejected rather than escaped so files stay greppable and round-trips stay
byte-exact. A split must not list the same triple twice, since evaluation
would rank and weight it twice. ``descriptions.tsv`` may omit entities
(missing means empty). Entity and relation iteration order is file order;
every seeded algorithm downstream indexes against this order, which is what
makes runs reproducible.

A graph holds each split as int32 ``(n, 3)`` rows of (head, relation, tail)
into ``entity_ids`` and ``relation_ids`` (``split_rows``), 12 bytes a
triple. One builder maps a split's cells to rows a block at a time:
``read_graph`` (``load_dataset`` and both converters call it) feeds it split
files, ``from_triples`` in-memory ``(h, r, t)`` id tuples; given no id
tables, it grows them from the splits. A graph's ``train``, ``valid``,
``test`` and ``all_triples`` are ``Triples``: read-only sequences that build
each id tuple on demand. Split files are written from the rows.

The builder checks ids and splits once per graph structure (a graph
``KnowledgeGraph.renamed`` derives shares its source's rows), and
``KnowledgeGraph.validate`` names and descriptions at every load, conversion
and write; ``file_lines`` gives a breach on one row its file line.

Memory contract: row files are read ``_BLOCK_CHARS`` characters at a time,
split files are formatted ``_BLOCK_ROWS`` rows at a time, and names, ids and
descriptions are checked ``_CHECK_CELLS`` cells at a time, so none of these
passes allocates more than one block beyond what it returns; no reader
builds a tuple per triple. Three passes over the triples still allocate over
all of them: the builder joins a split's blocks (the split's rows twice, for
a moment), the repeat check sorts one int64 key per triple in place, and
``relation_pairs`` keys every triple. The mention table (``mentions``) holds
about 12 bytes per entity and 13 per name match, in int arrays: no text piece
and no joined copy of the descriptions. Its build joins about
``_SCAN_CHARS`` characters of them at a time and scans each such block in
about 20 bytes per character of the block beside its text (code points,
boundary flags and positions, and one uint64 hash term per character: 1.2 MB
at 64 Ki characters, under tracemalloc), plus up to 2.2 MB of code point
tables for non-BMP text; no power table outlives a scan. It grows the match
arrays it returns in place and holds one int64 per description beside them.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, cycle, filterfalse, islice, repeat
from operator import eq, itemgetter
from pathlib import Path

import numpy as np

from . import rewriter, textgen
from .errors import LoadError, ValidationError

Triple = tuple[str, str, str]

DATASET_FILES = (
    "train.tsv",
    "valid.tsv",
    "test.tsv",
    "entities.tsv",
    "relations.tsv",
    "descriptions.tsv",
)

SPLITS = ("train", "valid", "test")

# characters of a row file read at once (whole lines, so a few more), and
# rows of a split turned into tuples or file bytes at once
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 14
# names, ids or descriptions joined at once to look for a tab or newline
_CHECK_CELLS = 1 << 10
# characters of the descriptions, joined by newlines, scanned for mentions at once
_SCAN_CHARS = 1 << 16

_UNKNOWN = ("unknown head entity", "unknown relation", "unknown tail entity")


class Triples(Sequence):
    """A split's ``(h, r, t)`` id tuples, built on demand from its int32 rows
    and the id tables. Equal to a ``Triples`` of the same triples; a slice is
    their tuple."""

    __slots__ = ("rows", "entity_ids", "relation_ids")

    def __init__(self, rows: np.ndarray, entity_ids: Sequence[str],
                 relation_ids: Sequence[str]) -> None:
        self.rows, self.entity_ids, self.relation_ids = rows, entity_ids, relation_ids

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(Triples(self.rows[index], self.entity_ids, self.relation_ids))
        h, r, t = self.rows[index].tolist()
        return self.entity_ids[h], self.relation_ids[r], self.entity_ids[t]

    def __iter__(self) -> Iterator[Triple]:
        entity, relation = self.entity_ids.__getitem__, self.relation_ids.__getitem__
        for start in range(0, len(self.rows), _BLOCK_ROWS):
            h, r, t = self.rows[start:start + _BLOCK_ROWS].T.tolist()
            yield from zip(map(entity, h), map(relation, r), map(entity, t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triples):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class MentionTable:
    """Every boundary match of an entity name in the descriptions, as flat
    int arrays (``KnowledgeGraph.mentions``).

    Each distinct non-empty name has an id, counted in order of the first
    entity row that holds it. Row ``e``'s matches are
    ``offsets[e]:offsets[e + 1]``, in ``rewriter.scan`` order: by start, at
    one start the shorter name first, nested and overlapping ones included.
    """

    names: np.ndarray  # int32 per entity row: its name's id, -1 for an empty name
    n_names: int
    offsets: np.ndarray  # int64, one more than the entity rows
    starts: np.ndarray  # int32 per match
    ends: np.ndarray  # int32 per match
    ids: np.ndarray  # int32 per match: the id of the name it spells
    taken: np.ndarray  # bool per match: in the greedy selection (``rewriter.select``)

    @classmethod
    def build(cls, names: Sequence[str], texts: Sequence[str]) -> MentionTable:
        """The table of the entity rows named ``names`` and described by
        ``texts``: ``rewriter.spans`` with an index of the names, whose key
        numbers are the name ids, and the greedy selection
        (``rewriter.select``) of the matches.

        Each scan takes a block of texts joined by a newline, which bounds
        matches as a text's edges do: the texts that end within
        ``_SCAN_CHARS`` characters of the block's start, and at least one.
        Each match goes back to its text by its start. A match that takes in
        a joining newline, of a name holding one, belongs to no text and is
        dropped; a graph that validates has no such name.
        """
        name_id: dict[str, int] = {}
        row_names = np.fromiter((name_id.setdefault(name, len(name_id)) if name else -1
                                 for name in names), dtype=np.int32, count=len(names))
        index = rewriter.build_index(name_id)
        # where each text ends in the descriptions joined by newlines: at the newline after it
        text_ends = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        text_ends += 1
        np.cumsum(text_ends, out=text_ends)
        text_ends -= 1
        # the match arrays grow a block at a time in place (realloc), to their
        # exact size, so no copy of them is made
        table = [np.empty(0, dtype=np.int32) for _ in range(3)] + [np.empty(0, dtype=bool)]
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        start = 0
        while start < len(texts):
            # the texts that end within _SCAN_CHARS of the block's first character, at least one
            base = text_ends[start - 1] + 1 if start else 0
            stop = max(int(np.searchsorted(text_ends, base + _SCAN_CHARS, side="right")),
                       start + 1)
            found_starts, found_ends, found_ids = rewriter.spans(
                index, "\n".join(texts[start:stop]))
            block_ends = text_ends[start:stop] - base
            text = np.searchsorted(block_ends, found_starts, side="right")
            first = np.append(0, block_ends[:-1] + 1)[text]
            inside = np.flatnonzero((found_starts >= first) & (found_ends <= block_ends[text]))
            found_starts, found_ends, text = found_starts[inside], found_ends[inside], text[inside]
            first = first[inside]
            # the block's texts lie one after another, so one pass selects them all;
            # memoryviews, so no list holds an int per match
            taken = rewriter.select(memoryview(found_starts), memoryview(found_ends))
            for whole, part in zip(table, (found_starts - first, found_ends - first,
                                           found_ids[inside], np.frombuffer(taken, dtype=bool))):
                whole.resize(len(whole) + len(part), refcheck=False)
                whole[len(whole) - len(part):] = part
            offsets[start + 1:stop + 1] = np.bincount(text, minlength=stop - start)
            start = stop
        np.cumsum(offsets, out=offsets)
        return cls(row_names, len(name_id), offsets, *table)

    @property
    def rows(self) -> np.ndarray:
        """Each match's entity row, int64."""
        return np.repeat(np.arange(len(self.names), dtype=np.int64), np.diff(self.offsets))


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable knowledge graph with per-entity descriptions.

    ``entities`` and ``relations`` are (id, name) pairs in file order;
    ``descriptions`` maps every entity id to a (possibly empty) string, the
    rows of ``descriptions.tsv`` in file order first, then the entities it omits.
    Each split is ``Triples`` over its rows. Build one with ``read_graph`` or
    ``from_triples``; two are equal if their tables, descriptions and triples are.
    """

    entities: tuple[tuple[str, str], ...]
    relations: tuple[tuple[str, str], ...]
    descriptions: dict[str, str]
    _splits: _Splits

    @property
    def entity_ids(self) -> tuple[str, ...]:
        return self._splits.entity_ids

    @property
    def relation_ids(self) -> tuple[str, ...]:
        return self._splits.relation_ids

    @cached_property
    def entity_names(self) -> dict[str, str]:
        return dict(self.entities)

    @cached_property
    def relation_names(self) -> dict[str, str]:
        return dict(self.relations)

    @property
    def entity_row(self) -> dict[str, int]:
        return self._splits.entity_row

    @property
    def relation_row(self) -> dict[str, int]:
        return self._splits.relation_row

    @property
    def split_rows(self) -> dict[str, np.ndarray]:
        """Each split as a read-only int32 ``(n, 3)`` array of (head, relation,
        tail) rows into ``entity_ids`` / ``relation_ids``."""
        return self._splits.rows

    def renamed(self, entities: tuple[tuple[str, str], ...],
                relations: tuple[tuple[str, str], ...],
                descriptions: dict[str, str]) -> KnowledgeGraph:
        """This graph with new (id, name) tables and descriptions over the same
        ids, in the same order. It shares the source's split rows and what is
        built from ids and splits alone, so that is built once per source."""
        if (tuple(map(itemgetter(0), entities)) != self.entity_ids
                or tuple(map(itemgetter(0), relations)) != self.relation_ids):
            raise ValueError("a renamed graph must keep the entity and relation ids in order")
        return KnowledgeGraph(entities, relations, descriptions, self._splits)

    @property
    def relation_pairs(self) -> np.ndarray:
        """The relation rows ``a < b`` that some (head, tail) pair carries
        both of, in any split: an int64 ``(k, 2)`` array in ascending order,
        built on first use once per graph structure (``_Splits``)."""
        return self._splits.relation_pairs

    @cached_property
    def mentions(self) -> MentionTable:
        """Every boundary match of a non-empty entity name in each entity's
        description, as one table of flat arrays (``MentionTable``); built on
        first use.

        This is the graph's one name index and one description scan, one
        ``rewriter.spans`` call per block of descriptions: every renaming of the
        entities rewrites from the table's greedy selection, and
        ``analysis.description_leakage`` reads the (entity row, name id)
        pairs of all its matches.
        """
        return MentionTable.build([name for _, name in self.entities],
                                 list(map(self.descriptions.__getitem__, self.entity_ids)))

    @cached_property
    def unigram_model(self) -> textgen.UnigramModel:
        """The character unigram model fitted on the entity names, then the
        relation names, from which sampled names and descriptions are drawn;
        fitted on first use, so every sampling variant of one graph shares it."""
        return textgen.fit_unigram([name for _, name in self.entities]
                                   + [name for _, name in self.relations])

    def split(self, name: str) -> Triples:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}, expected one of {SPLITS}")
        return Triples(self._splits.rows[name], self.entity_ids, self.relation_ids)

    train = property(lambda self: self.split("train"))
    valid = property(lambda self: self.split("valid"))
    test = property(lambda self: self.split("test"))

    @cached_property
    def all_triples(self) -> Triples:
        """Train, then valid, then test, as one ``Triples``."""
        return Triples(np.concatenate(list(self.split_rows.values())),
                       self.entity_ids, self.relation_ids)

    @cached_property
    def answer_index(self) -> dict[tuple[str, str, str], frozenset[str]]:
        """Known-true answers per partial query, over train+valid+test.

        Keyed by (direction, known_entity, relation): for "tail" the known
        entity is the head and answers are tails, for "head" the reverse.
        """
        index: dict[tuple[str, str, str], set[str]] = {}
        for h, r, t in self.all_triples:
            index.setdefault(("tail", h, r), set()).add(t)
            index.setdefault(("head", t, r), set()).add(h)
        return {key: frozenset(vals) for key, vals in index.items()}

    def validate(self) -> None:
        """Check the names and descriptions; raise ValidationError on the first breach,
        at its table and row if it has one. The builder has checked the ids and splits."""
        _check_cells("entities", map(itemgetter(1), self.entities), "name")
        _check_cells("relations", map(itemgetter(1), self.relations), "name")
        if self.descriptions.keys() != self.entity_row.keys():
            extra = sorted(self.descriptions.keys() - self.entity_row.keys())
            missing = sorted(self.entity_row.keys() - self.descriptions.keys())
            raise ValidationError(
                f"descriptions out of sync with entities "
                f"(unknown ids: {extra[:3]}, missing ids: {missing[:3]})"
            )
        _check_cells("descriptions", self.descriptions.values(), "description")


class _Splits:
    """A graph's ids and split rows, checked as ``_build`` maps them and here
    for repeats, and what is built from them alone; every graph ``renamed``
    derives from one source shares the source's. Equal if ids and rows are."""

    def __init__(self, ids: tuple[tuple[str, ...], tuple[str, ...]],
                 tables: tuple[dict[str, int], dict[str, int]],
                 rows: dict[str, np.ndarray]) -> None:
        self.entity_ids, self.relation_ids = ids
        self.entity_row, self.relation_row = tables
        self.rows = rows
        self._check_repeats()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Splits):
            return NotImplemented
        return ((self.entity_ids, self.relation_ids) == (other.entity_ids, other.relation_ids)
                and all(np.array_equal(self.rows[split], other.rows[split]) for split in SPLITS))

    def _check_repeats(self) -> None:
        """A triple listed twice is an error at its second row, in split order."""
        n_entities, n_relations = len(self.entity_ids), len(self.relation_ids)
        keys, at = np.empty(sum(map(len, self.rows.values())), dtype=np.int64), 0
        for rows in self.rows.values():  # each split's keys in place, so no copy of them all
            key = keys[at:at + len(rows)]
            np.multiply(rows[:, 0], n_relations, out=key, dtype=np.int64)
            key += rows[:, 1]
            key *= n_entities
            key += rows[:, 2]
            at += len(rows)
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            return
        # name the first triple, in split order, that its own split or an earlier one holds
        seen: dict[Triple, str] = {}
        for split, rows in self.rows.items():
            for row, triple in enumerate(Triples(rows, self.entity_ids, self.relation_ids)):
                if triple in seen:
                    raise ValidationError(f"duplicate triple {triple!r}", split, row,
                                          None if seen[triple] == split else seen[triple])
                seen[triple] = split

    @cached_property
    def relation_pairs(self) -> np.ndarray:
        n_entities, n_relations = len(self.entity_row), len(self.relation_row)
        # sorted (head, tail, relation) keys put each (head, tail) pair's relations
        # in one run: pair the entries d apart in a run, for d = 1, 2, ... while any are
        pair, rel = np.divmod(_sorted_distinct(np.concatenate([
            (rows[:, 0].astype(np.int64) * n_entities + rows[:, 2]) * n_relations + rows[:, 1]
            for rows in self.rows.values()])), n_relations)
        shared = [np.empty(0, dtype=np.int64)]
        at, d = np.flatnonzero(pair[1:] == pair[:-1]), 1
        while len(at):
            shared.append(rel[at] * n_relations + rel[at + d])
            d += 1
            at = at[at + d < len(pair)]
            at = at[pair[at + d] == pair[at]]
        return np.stack(np.divmod(_sorted_distinct(np.concatenate(shared)), n_relations), axis=1)

    def write(self, root: Path) -> None:
        """Write each split file under ``root`` from the rows, laid out as
        ``write_rows`` writes triples, a block of rows at a time."""
        # one table of every cell text, a row's cells at its ids shifted per column
        cells = np.array([eid + "\t" for eid in self.entity_ids]
                         + [rid + "\t" for rid in self.relation_ids]
                         + [eid + "\n" for eid in self.entity_ids], dtype=object)
        shift = np.array([0, len(self.entity_ids), len(self.entity_ids) + len(self.relation_ids)],
                         dtype=np.int32)
        for split, rows in self.rows.items():
            with open(root / f"{split}.tsv", "wb") as fh:
                for start in range(0, len(rows), _BLOCK_ROWS):
                    block = cells[(rows[start:start + _BLOCK_ROWS] + shift).ravel()]
                    fh.write("".join(block.tolist()).encode("utf-8"))


@dataclass(frozen=True)
class DatasetStats:
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n_entities, self.n_relations, self.n_train, self.n_valid, self.n_test)

    def to_text(self) -> str:
        """One ``name<TAB>count`` line per field."""
        return "".join(f"{f.name}\t{getattr(self, f.name)}\n" for f in fields(self))


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D array, as a sort and a mask of repeats:
    20-27x faster than ``unique`` on int64 keys under numpy 2.4."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _has_tab_or_newline(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


def _check_cells(table: str, cells: Iterable[str], what: str) -> None:
    """A tab or newline in one of ``cells`` is an error at the first row that holds one.

    The cells are joined and searched ``_CHECK_CELLS`` at a time, so no copy
    of them all is made."""
    cells = iter(cells)
    start = 0
    while chunk := list(islice(cells, _CHECK_CELLS)):
        if _has_tab_or_newline("".join(chunk)):
            row = next(i for i, text in enumerate(chunk) if _has_tab_or_newline(text))
            raise ValidationError(f"{what} contains a tab or newline: {chunk[row]!r}",
                                  table, start + row)
        start += len(chunk)


def _check_ids(table: str, ids: Sequence[str], rows: dict[str, int], what: str) -> None:
    """A tab or newline in one of ``ids``, then a repeat, is an error at its first row."""
    _check_cells(table, ids, what)
    if len(rows) != len(ids):
        seen: set[str] = set()
        row = next(row for row, key in enumerate(ids) if key in seen or seen.add(key))
        raise ValidationError(f"duplicate {what} {ids[row]!r}", table, row)


def _line_blocks(path: Path) -> Iterator[tuple[Sequence[int], list[str]]]:
    """Yield the non-blank lines of the row file at ``path`` in blocks, with
    their line numbers: UTF-8 lines that end at LF (a CR is text)."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        end = 0
        while lines := fh.readlines(_BLOCK_CHARS):
            linenos: Sequence[int] = range(end + 1, end + 1 + len(lines))
            end += len(lines)
            if "\n" in lines:
                linenos = [lineno for lineno, line in zip(linenos, lines) if line != "\n"]
                lines = [line for line in lines if line != "\n"]
            if lines:
                yield linenos, lines


def _row_blocks(path: str | os.PathLike,
                width: int | None = None) -> Iterator[tuple[Sequence[int], list[str]]]:
    """Yield the rows of the row file at ``path`` in blocks, as their line
    numbers and their cells, flat (``width`` a row).

    Every row must have ``width`` cells (with ``width=None``, as many as the
    first row); the rows before one that does not are yielded, then it raises
    ValidationError at ``<file>:<line>``.
    """
    path = Path(path)
    for linenos, lines in _line_blocks(path):
        if width is None:
            width = lines[0].count("\t") + 1
        tabs = list(map(str.count, lines, repeat("\t")))
        if tabs.count(width - 1) != len(tabs):
            bad = next(i for i, n in enumerate(tabs) if n != width - 1)
            if bad:
                yield linenos[:bad], _cells(lines[:bad])
            raise ValidationError(
                f"{path.name}:{linenos[bad]}: expected {width} tab-separated fields"
            )
        yield linenos, _cells(lines)


def _cells(lines: list[str]) -> list[str]:
    """The cells of whole lines, in order: each line split at its tabs, without its LF."""
    cells = "".join(lines).replace("\n", "\t").split("\t")
    if lines[-1].endswith("\n"):
        cells.pop()
    return cells


def read_rows(path: str | os.PathLike, width: int | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cells)`` for each non-empty line of the row file at ``path``.

    Every row must have ``width`` cells (with ``width=None``, as many as the
    first row); one that does not raises ValidationError at ``<file>:<line>``.
    """
    for linenos, cells in _row_blocks(path, width):
        width = len(cells) // len(linenos)
        for start, lineno in zip(range(0, len(cells), width), linenos):
            yield lineno, cells[start:start + width]


def write_rows(path: str | os.PathLike, rows: Iterable[Sequence[str]]) -> None:
    """Write each row as its tab-joined cells plus LF, the layout ``read_rows``
    reads: one write per block of rows, a block ending at the first row that
    brings it to ``_BLOCK_CHARS`` characters."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        block: list[str] = []
        size = 0
        for line in map("\t".join, rows):
            block.append(line)
            size += len(line) + 1
            if size >= _BLOCK_CHARS:
                block.append("")
                fh.write("\n".join(block))
                block, size = [], 0
        if block:
            block.append("")
            fh.write("\n".join(block))


def float_cells(path: str | os.PathLike, lineno: int, cells: Iterable[str]) -> list[float]:
    """``cells`` as floats; a cell that is no number, or is not finite, is a
    ValidationError at ``<file>:<line>``."""
    cells = list(cells)
    try:
        values = [float(cell) for cell in cells]
    except ValueError as exc:
        raise ValidationError(f"{Path(path).name}:{lineno}: {exc}") from exc
    for cell, value in zip(cells, values):
        if not math.isfinite(value):
            raise ValidationError(f"{Path(path).name}:{lineno}: non-finite value {cell!r}")
    return values


def _read_pairs(path: Path) -> tuple[tuple[str, str], ...]:
    """The (id, text) rows of a two-column row file, in file order."""
    return tuple(chain.from_iterable(zip(cells[0::2], cells[1::2])
                                     for _, cells in _row_blocks(path, 2)))


@contextmanager
def file_lines(files: Mapping[str, Path]) -> Iterator[None]:
    """Reraise a ValidationError on a row of a table read from ``files[table]``
    as ``<file>:<line>: <detail>``, an earlier split named by its file too.
    Rows are non-blank lines, as ``read_rows`` counts them; the file is read
    up to that row's block only."""
    try:
        yield
    except ValidationError as exc:
        path = files.get(exc.table)
        if path is None:
            raise
        lineno, _ = next(islice(read_rows(path), exc.row, None))
        earlier = files[exc.earlier].name if exc.earlier else None
        raise ValidationError(exc.at(f"{path.name}:{lineno}", earlier)) from exc


def _build(entities: tuple[tuple[str, str], ...] | None,
           relations: tuple[tuple[str, str], ...] | None,
           description_rows: Sequence[tuple[str, str]],
           split_cells: Mapping[str, Iterable[list[str]]]) -> KnowledgeGraph:
    """The graph of the (id, name) tables, the (entity id, description) rows
    (an entity they omit gets an empty one) and each split's cells, three a
    triple, in blocks mapped to int32 rows one at a time; with no tables
    (None), each id a block first uses takes the next row (a head before its
    tail), named by itself. The first breach raises ValidationError at its
    table and row: a bad description row, a fault a split's blocks raise, a
    bad or repeated id (a grown one at its first split row), an id in no table
    (in split order), a repeated triple; names and descriptions are left to
    ``validate``."""
    ids = tuple(map(itemgetter(0), entities or ())), tuple(map(itemgetter(0), relations or ()))
    # each id's row (a repeated id's last; _check_ids rejects repeats)
    tables = entity_row, relation_row = tuple(dict(zip(keys, range(len(keys)))) for keys in ids)
    descriptions = dict(description_rows)  # row order, so a description's row is its position
    if len(descriptions) != len(description_rows) or descriptions.keys() - entity_row.keys():
        described: set[str] = set()  # name the first unknown or repeated entity
        for row, (eid, _) in enumerate(description_rows):
            if eid not in entity_row or eid in described:
                what = "unknown" if eid not in entity_row else "duplicate"
                raise ValidationError(f"{what} entity {eid!r}", "descriptions", row)
            described.add(eid)
    rows, faults = {}, dict.fromkeys(("entity id", "relation id", "unknown"))  # raised in order
    for split in SPLITS:
        blocks = [np.empty((0, 3), dtype=np.int32)]
        for cells in split_cells[split]:
            if entities is None:  # each new id takes the next row, checked where first used
                heads_tails = cells.copy()
                del heads_tails[1::3]
                for table, keys, what, per_row in ((entity_row, heads_tails, "entity id", 2),
                                                   (relation_row, cells[1::3], "relation id", 1)):
                    new = list(dict.fromkeys(filterfalse(table.__contains__, keys)))
                    table.update(zip(new, range(len(table), len(table) + len(new))))
                    if faults[what] is None and _has_tab_or_newline("".join(new)):
                        bad = next(filter(_has_tab_or_newline, new))
                        row = sum(map(len, blocks)) + keys.index(bad) // per_row
                        faults[what] = ValidationError(
                            f"{what} contains a tab or newline: {bad!r}", split, row)
            # each id's row, -1 for one in no table
            block = np.fromiter(map(dict.get, cycle((entity_row, relation_row, entity_row)),
                                    cells, repeat(-1)), dtype=np.int32, count=len(cells))
            if faults["unknown"] is None and block.size and block.min() < 0:
                cell = int(np.argmax(block < 0))  # the first row with one, its first such cell
                faults["unknown"] = ValidationError(f"{_UNKNOWN[cell % 3]} {cells[cell]!r}",
                                                    split, sum(map(len, blocks)) + cell // 3)
            blocks.append(block.reshape(-1, 3))
        rows[split] = np.concatenate(blocks)
        rows[split].flags.writeable = False  # shared by every graph renamed from one source
    del blocks  # the last split's blocks, before the repeat check sorts every triple's key
    if entities is None:  # grown ids are distinct by construction
        ids = tuple(entity_row), tuple(relation_row)
        entities, relations = (tuple(zip(keys, keys)) for keys in ids)
    else:
        _check_ids("entities", ids[0], entity_row, "entity id")
        _check_ids("relations", ids[1], relation_row, "relation id")
    for fault in filter(None, faults.values()):
        raise fault
    if len(descriptions) != len(entity_row):
        descriptions.update((eid, "") for eid in ids[0] if eid not in descriptions)
    return KnowledgeGraph(entities, relations, descriptions, _Splits(ids, tables, rows))


def read_graph(entities: tuple[tuple[str, str], ...] | None,
               relations: tuple[tuple[str, str], ...] | None,
               description_rows: Sequence[tuple[str, str]],
               files: Mapping[str, Path]) -> KnowledgeGraph:
    """The validated graph of the (id, name) tables (grown as ``_build`` says
    if None), the (entity id, description) rows (an entity they omit gets an
    empty one) and the split files ``files[split]``, read a block at a time
    into int32 rows; a breach on a row of a table read from ``files[table]``
    names its file line."""
    with file_lines(files):
        kg = _build(entities, relations, description_rows, {
            split: (cells for _, cells in _row_blocks(files[split], 3)) for split in SPLITS})
        kg.validate()
    return kg


def from_triples(entities: Iterable[tuple[str, str]], relations: Iterable[tuple[str, str]],
                 train: Iterable[Triple], valid: Iterable[Triple], test: Iterable[Triple],
                 descriptions: Mapping[str, str]) -> KnowledgeGraph:
    """The graph of the (id, name) tables, each split's ``(h, r, t)`` id
    triples and the descriptions by entity id (an entity they omit gets an
    empty one); the ids and splits are checked here, names and descriptions at
    ``validate``."""
    return _build(tuple(entities), tuple(relations), tuple(descriptions.items()), {
        split: [[cell for h, r, t in triples for cell in (h, r, t)]]  # three ids a triple
        for split, triples in zip(SPLITS, (train, valid, test))})


def load_dataset(directory: str | os.PathLike) -> KnowledgeGraph:
    """Load and validate a dataset directory through ``read_graph``.

    Raises LoadError when a file is missing, ValidationError (with a line
    number where possible) when the contents are malformed.
    """
    root = Path(directory)
    for name in DATASET_FILES:
        if name == "descriptions.tsv":
            continue  # optional: omitted entries mean empty descriptions
        if not (root / name).is_file():
            raise LoadError(f"missing dataset file: {root / name}")

    files = {table: root / f"{table}.tsv"
             for table in ("entities", "relations", "descriptions", *SPLITS)}
    rows = _read_pairs(files["descriptions"]) if files["descriptions"].is_file() else ()
    return read_graph(_read_pairs(files["entities"]), _read_pairs(files["relations"]), rows,
                      files)


def write_dataset(kg: KnowledgeGraph, directory: str | os.PathLike) -> None:
    """Write ``kg`` into ``directory``; repeated writes are byte-identical."""
    kg.validate()
    root = Path(directory)
    try:
        root.mkdir(parents=True, exist_ok=True)
        write_rows(root / "entities.tsv", kg.entities)
        write_rows(root / "relations.tsv", kg.relations)
        write_rows(root / "descriptions.tsv",
                   ((eid, kg.descriptions[eid]) for eid, _ in kg.entities))
        kg._splits.write(root)
    except OSError as exc:
        raise LoadError(f"cannot write dataset under {root}: {exc}") from exc


def compute_stats(kg: KnowledgeGraph) -> DatasetStats:
    return DatasetStats(
        n_entities=len(kg.entities),
        n_relations=len(kg.relations),
        n_train=len(kg.train),
        n_valid=len(kg.valid),
        n_test=len(kg.test),
    )


def stream_stats(directory: str | os.PathLike) -> DatasetStats:
    """Count entities/relations/triples without materializing the graph.

    Row-counting only (no width or id checks), so it stays fast on
    multi-million-triple dumps; use load_dataset when validation matters.
    """
    root = Path(directory)
    counts = {}
    for name, key in [
        ("entities.tsv", "n_entities"),
        ("relations.tsv", "n_relations"),
        ("train.tsv", "n_train"),
        ("valid.tsv", "n_valid"),
        ("test.tsv", "n_test"),
    ]:
        path = root / name
        if not path.is_file():
            raise LoadError(f"missing dataset file: {path}")
        counts[key] = sum(len(linenos) for linenos, _ in _line_blocks(path))
    return DatasetStats(**counts)
