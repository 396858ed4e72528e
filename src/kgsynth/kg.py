"""Knowledge-graph data model and bit-exact TSV I/O.

``read_rows`` and ``write_rows`` are the one row codec of the toolkit: every
row file it reads or writes (datasets, mappings, recipes, manifests,
checkpoints, predictions; not the source text files ``convert`` reads) is
UTF-8, one LF-terminated row per line, cells joined by tabs. Readers skip
blank lines and reject a row with the wrong number of cells as
``<file>:<line>: expected N tab-separated fields``.

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

``KnowledgeGraph.validate`` holds these rules for loading, conversion and
every write; ``file_lines`` gives a breach on one row its file line. Ids and
splits are checked once per graph structure, as its ``_Splits`` is built (a
graph ``KnowledgeGraph.renamed`` derives shares its source's); names and
descriptions at every ``validate``.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
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


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable knowledge graph with per-entity descriptions.

    ``entities`` and ``relations`` are (id, name) pairs in file order;
    ``descriptions`` maps every entity id to a (possibly empty) string, the
    rows of ``descriptions.tsv`` in file order first, then the entities it omits.
    """

    entities: tuple[tuple[str, str], ...]
    relations: tuple[tuple[str, str], ...]
    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]
    descriptions: dict[str, str]

    @cached_property
    def entity_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.entities)

    @cached_property
    def relation_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.relations)

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
        """Each split as an int32 ``(n, 3)`` array of (head, relation, tail)
        rows into ``entity_ids`` / ``relation_ids``, built on first use."""
        return self._splits.rows

    @cached_property
    def _splits(self) -> _Splits:
        return _Splits(self)

    def renamed(self, entities: tuple[tuple[str, str], ...],
                relations: tuple[tuple[str, str], ...],
                descriptions: dict[str, str]) -> KnowledgeGraph:
        """This graph with new (id, name) tables and descriptions over the same
        ids, in the same order, and the same splits. The two graphs share what
        is built from ids and splits alone, so the split checks and split file
        bytes are built once for every graph renamed from one source."""
        out = KnowledgeGraph(entities, relations, self.train, self.valid, self.test, descriptions)
        if out.entity_ids != self.entity_ids or out.relation_ids != self.relation_ids:
            raise ValueError("a renamed graph must keep the entity and relation ids in order")
        out.__dict__["_splits"] = self._splits  # stored as cached_property stores it
        return out

    @property
    def relation_pairs(self) -> np.ndarray:
        """The relation rows ``a < b`` that some (head, tail) pair carries
        both of, in any split: an int64 ``(k, 2)`` array in ascending order,
        built on first use once per graph structure (``_Splits``)."""
        return self._splits.relation_pairs

    @cached_property
    def mention_spans(self) -> dict[str, array[int]]:
        """Per entity id whose description mentions an entity name, the
        ``rewriter.scan`` matches of the distinct non-empty entity names
        (flat int32 ``start, end, ...``, nested matches included); built on
        first use.

        This is the graph's one name index and one description scan: every
        renaming of the entities rewrites from these matches with one
        ``rewriter.join``, and ``analysis.description_leakage`` reads the
        mentioned names from them. The scan filters where a name may start
        in C, so the walk along token boundaries runs only from spans that
        begin some name.
        """
        index = rewriter.build_index({name: name for _, name in self.entities if name})
        spans = {}
        for eid, text in self.descriptions.items():
            found = rewriter.scan(index, text)
            if found:
                spans[eid] = found
        return spans

    @cached_property
    def unigram_model(self) -> textgen.UnigramModel:
        """The character unigram model fitted on the entity names, then the
        relation names, from which sampled names and descriptions are drawn;
        fitted on first use, so every sampling variant of one graph shares it."""
        return textgen.fit_unigram([name for _, name in self.entities]
                                   + [name for _, name in self.relations])

    def split(self, name: str) -> tuple[Triple, ...]:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}, expected one of {SPLITS}")
        return getattr(self, name)

    @cached_property
    def all_triples(self) -> tuple[Triple, ...]:
        return self.train + self.valid + self.test

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
        """Check every invariant; raise ValidationError on the first breach, at its
        table and row if it has one. The ids and splits are checked once per graph
        structure, as ``_splits`` is built; the names and descriptions every time."""
        entity_row = self._splits.entity_row
        _check_cells("entities", [name for _, name in self.entities], "name")
        _check_cells("relations", [name for _, name in self.relations], "name")
        if self.descriptions.keys() != entity_row.keys():
            extra = sorted(self.descriptions.keys() - entity_row.keys())
            missing = sorted(entity_row.keys() - self.descriptions.keys())
            raise ValidationError(
                f"descriptions out of sync with entities "
                f"(unknown ids: {extra[:3]}, missing ids: {missing[:3]})"
            )
        _check_cells("descriptions", list(self.descriptions.values()), "description")


class _Splits:
    """A graph's ids and splits, checked as it is built, and what is built from
    them alone. One that exists has passed (``cached_property`` caches no raise,
    so a bad graph raises at every access); every graph ``KnowledgeGraph.renamed``
    derives from one source shares the source's, so the checks run once."""

    def __init__(self, kg: KnowledgeGraph) -> None:
        self.entity_row = _row_of("entities", kg.entity_ids, "entity id")
        self.relation_row = _row_of("relations", kg.relation_ids, "relation id")
        self.triples = {split: kg.split(split) for split in SPLITS}
        for split, triples in self.triples.items():
            row_of = triples.index  # the first bad row holds its triple's first occurrence
            for h, r, t in triples:
                if h not in self.entity_row:
                    raise ValidationError(f"unknown head entity {h!r}", split, row_of((h, r, t)))
                if r not in self.relation_row:
                    raise ValidationError(f"unknown relation {r!r}", split, row_of((h, r, t)))
                if t not in self.entity_row:
                    raise ValidationError(f"unknown tail entity {t!r}", split, row_of((h, r, t)))
        splits = self.triples.values()
        if len(set(chain(*splits))) != sum(map(len, splits)):
            # name the first triple, in split order, that its own split or an earlier one holds
            split_of: dict[Triple, str] = {}
            for split, triples in self.triples.items():
                for row, triple in enumerate(triples):
                    earlier = split_of.get(triple)
                    if earlier is not None:
                        raise ValidationError(f"duplicate triple {triple!r}", split, row,
                                              None if earlier == split else earlier)
                    split_of[triple] = split

    @cached_property
    def rows(self) -> dict[str, np.ndarray]:
        columns = (self.entity_row, self.relation_row, self.entity_row)
        rows = {}
        for name, triples in self.triples.items():
            rows[name] = np.empty((len(triples), 3), dtype=np.int32)
            # one column at a time, so no tuple per triple is built
            for j, row in enumerate(columns):
                rows[name][:, j] = np.fromiter(map(row.__getitem__, map(itemgetter(j), triples)),
                                               dtype=np.int32, count=len(triples))
        return rows

    @cached_property
    def relation_pairs(self) -> np.ndarray:
        n_entities, n_relations = len(self.entity_row), len(self.relation_row)
        # sorted (head, tail, relation) keys put each (head, tail) pair's relations
        # in one run: pair the entries d apart in a run, for d = 1, 2, ... while any are
        pair, rel = np.divmod(np.unique(np.concatenate([
            (rows[:, 0].astype(np.int64) * n_entities + rows[:, 2]) * n_relations + rows[:, 1]
            for rows in self.rows.values()])), n_relations)
        shared = [np.empty(0, dtype=np.int64)]
        at, d = np.flatnonzero(pair[1:] == pair[:-1]), 1
        while len(at):
            shared.append(rel[at] * n_relations + rel[at + d])
            d += 1
            at = at[at + d < len(pair)]
            at = at[pair[at + d] == pair[at]]
        return np.stack(np.divmod(np.unique(np.concatenate(shared)), n_relations), axis=1)

    @cached_property
    def file_bytes(self) -> dict[str, bytes]:
        """Each split file's bytes, laid out as ``write_rows`` writes rows."""
        return {name: "".join(["\t".join(triple) + "\n" for triple in triples]).encode("utf-8")
                for name, triples in self.triples.items()}


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


def _has_tab_or_newline(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


def _check_cells(table: str, cells: Sequence[str], what: str) -> None:
    """A tab or newline in one of ``cells`` is an error at the first row that holds one."""
    if _has_tab_or_newline("".join(cells)):
        row = next(i for i, text in enumerate(cells) if _has_tab_or_newline(text))
        raise ValidationError(f"{what} contains a tab or newline: {cells[row]!r}", table, row)


def _row_of(table: str, ids: Sequence[str], what: str) -> dict[str, int]:
    """Each of ``ids``'s row; a tab or newline, then a repeat, is an error at its first row."""
    _check_cells(table, ids, what)
    rows = {key: row for row, key in enumerate(ids)}
    if len(rows) != len(ids):
        seen: set[str] = set()
        row = next(row for row, key in enumerate(ids) if key in seen or seen.add(key))
        raise ValidationError(f"duplicate {what} {ids[row]!r}", table, row)
    return rows


def read_rows(path: str | os.PathLike, width: int | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cells)`` for each non-empty line of the row file at ``path``.

    Every row must have ``width`` cells (with ``width=None``, as many as the
    first row); one that does not raises ValidationError at ``<file>:<line>``.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != width:
                if width is not None:
                    raise ValidationError(
                        f"{path.name}:{lineno}: expected {width} tab-separated fields"
                    )
                width = len(cells)
            yield lineno, cells


def write_rows(path: str | os.PathLike, rows: Iterable[Sequence[str]]) -> None:
    """Write each row as its tab-joined cells plus LF, the layout ``read_rows`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def float_cells(path: str | os.PathLike, lineno: int, cells: Iterable[str]) -> list[float]:
    """``cells`` as floats; a cell that is no number is a ValidationError at ``<file>:<line>``."""
    try:
        return [float(cell) for cell in cells]
    except ValueError as exc:
        raise ValidationError(f"{Path(path).name}:{lineno}: {exc}") from exc


def read_splits(files: Mapping[str, Path]) -> dict[str, tuple[Triple, ...]]:
    """Each split's triples in file order, read from ``files[split]``; ``validate`` checks them."""
    return {split: tuple([(h, r, t) for _, (h, r, t) in read_rows(path, 3)])
            for split, path in files.items()}


@contextmanager
def file_lines(files: Mapping[str, Path]) -> Iterator[None]:
    """Reraise a ValidationError on a row of a table read from ``files[table]``
    as ``<file>:<line>: <detail>``, an earlier split named by its file too.
    Rows are non-blank lines, as ``read_rows`` counts them; the file is read
    up to that row only."""
    try:
        yield
    except ValidationError as exc:
        path = files.get(exc.table)
        if path is None:
            raise
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = (lineno for lineno, line in enumerate(fh, start=1) if line.rstrip("\n"))
            lineno = next(islice(lines, exc.row, None))
        earlier = files[exc.earlier].name if exc.earlier else None
        raise ValidationError(exc.at(f"{path.name}:{lineno}", earlier)) from exc


def load_dataset(directory: str | os.PathLike) -> KnowledgeGraph:
    """Load and validate a dataset directory.

    Raises LoadError when a file is missing, ValidationError (with a line
    number where possible) when the contents are malformed.
    """
    root = Path(directory)
    for name in DATASET_FILES:
        if name == "descriptions.tsv":
            continue  # optional: omitted entries mean empty descriptions
        if not (root / name).is_file():
            raise LoadError(f"missing dataset file: {root / name}")

    entities = tuple([(eid, name) for _, (eid, name) in read_rows(root / "entities.tsv", 2)])
    relations = tuple([(rid, name) for _, (rid, name) in read_rows(root / "relations.tsv", 2)])
    desc_path = root / "descriptions.tsv"
    rows = [cells for _, cells in read_rows(desc_path, 2)] if desc_path.is_file() else []
    descriptions = dict(rows)  # file order, so a description's row is its file row
    entity_ids = {eid for eid, _ in entities}

    files = {table: root / f"{table}.tsv"
             for table in ("entities", "relations", "descriptions", *SPLITS)}
    with file_lines(files):
        if len(descriptions) != len(rows) or not descriptions.keys() <= entity_ids:
            described: set[str] = set()  # name the first unknown or repeated entity
            for row, (eid, _) in enumerate(rows):
                if eid not in entity_ids or eid in described:
                    what = "unknown" if eid not in entity_ids else "duplicate"
                    raise ValidationError(f"{what} entity {eid!r}", "descriptions", row)
                described.add(eid)
        if len(descriptions) != len(entity_ids):
            descriptions.update((eid, "") for eid, _ in entities if eid not in descriptions)
        kg = KnowledgeGraph(
            entities=entities,
            relations=relations,
            descriptions=descriptions,
            **read_splits({split: files[split] for split in SPLITS}),
        )
        kg.validate()
    return kg


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
        for split in SPLITS:
            (root / f"{split}.tsv").write_bytes(kg._splits.file_bytes[split])
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

    Line-counting only (no id checks), so it stays fast on multi-million-triple
    dumps; use load_dataset when validation matters.
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
        n = 0
        with open(path, encoding="utf-8", newline="\n") as fh:
            for line in fh:
                if line.rstrip("\n"):
                    n += 1
        counts[key] = n
    return DatasetStats(**counts)
