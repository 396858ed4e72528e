"""Adapters from public KGC distributions to the toolkit's dataset layout.

Two source layouts are understood:

- ``kgbert``: ``train/dev|valid/test`` triple files plus ``entity2text.txt``
  and ``relation2text.txt`` (optionally ``entity2textlong.txt`` for long
  descriptions). With ``gloss_split``, an entity text of the form
  "name, gloss..." is split at the first comma into name and description.
- ``wikidata5m``: ``wikidata5m_transductive_{train,valid,test}.txt`` triple
  files plus alias files (``wikidata5m_entity.txt``/``_relation.txt``, first
  alias wins) and ``wikidata5m_text.txt`` descriptions. Entities and
  relations are restricted to those appearing in the triples, in first
  appearance order, since the alias files cover a superset.

Conversion builds the graph with ``kg.read_graph``, as loading does, so each
split file is read once, straight into int32 rows: a kgbert source's after
its text files, a Wikidata5m dump's first, growing its id tables in order of
first use, and then its alias and text files, which name the graph through
``KnowledgeGraph.renamed``. A dump without an alias file fails before any
split is read. ``read_graph`` validates the graph before
``kg.write_dataset`` creates the output directory, so a rejected source
leaves no partial dataset behind. A triple with an id that has no text entry
(kgbert) or that is listed twice, in one split or in two, is reported with
the loader's message at its source file and line; so is a bad wikidata5m
entity or relation id, at the first split line that uses it. A text line
without a tab or with a repeated id is rejected too. Text and alias lines may
end in LF or CRLF; tabs and other CRs inside source text are replaced by
spaces to fit the strict TSV cell rules. ``descriptions.tsv`` holds one row
per entity, in entity order, as in every written dataset.
"""

from __future__ import annotations

from pathlib import Path

from .errors import LoadError, ValidationError
from .kg import DatasetStats, compute_stats, read_graph, write_dataset

FORMATS = ("kgbert", "wikidata5m")


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _strip_line_end(line: str) -> str:
    """``line`` without its LF or CRLF ending; a CR elsewhere is text."""
    return line.removesuffix("\n").removesuffix("\r")


def _find_file(root: Path, names: list[str]) -> Path:
    for name in names:
        path = root / name
        if path.is_file():
            return path
    raise LoadError(f"none of {names} found under {root}")


def _read_text_map(path: Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _strip_line_end(line)
            if not line:
                continue
            if "\t" not in line:
                raise ValidationError(f"{path.name}:{lineno}: expected id<TAB>text")
            key, text = line.split("\t", 1)
            if key in mapping:
                raise ValidationError(f"{path.name}:{lineno}: duplicate id {key!r}")
            mapping[key] = text
    return mapping


def convert_kgbert(
    input_dir: str | Path, output_dir: str | Path, gloss_split: bool = False
) -> DatasetStats:
    """Convert a kgbert-style directory; returns the converted stats."""
    src = Path(input_dir)

    entity_text = _read_text_map(_find_file(src, ["entity2text.txt", "entity2text.tsv"]))
    relation_text = _read_text_map(_find_file(src, ["relation2text.txt", "relation2text.tsv"]))
    long_path = src / "entity2textlong.txt"
    long_text = _read_text_map(long_path) if long_path.is_file() else {}

    entities, descriptions = [], []
    for eid, text in entity_text.items():
        name, gloss = text.split(", ", 1) if gloss_split and ", " in text else (text, "")
        entities.append((eid, _clean(name)))
        descriptions.append((eid, _clean(long_text.get(eid, gloss))))

    split_files = {
        "train": _find_file(src, ["train.tsv", "train.txt"]),
        "valid": _find_file(src, ["valid.tsv", "dev.tsv", "valid.txt", "dev.txt"]),
        "test": _find_file(src, ["test.tsv", "test.txt"]),
    }
    kg = read_graph(tuple(entities),
                    tuple((rid, _clean(text)) for rid, text in relation_text.items()),
                    descriptions, split_files)
    write_dataset(kg, output_dir)
    return compute_stats(kg)


def convert_wikidata5m(input_dir: str | Path, output_dir: str | Path) -> DatasetStats:
    """Convert a wikidata5m transductive dump; returns the converted stats."""
    src = Path(input_dir)

    split_files = {
        "train": _find_file(src, ["wikidata5m_transductive_train.txt", "train.txt"]),
        "valid": _find_file(src, ["wikidata5m_transductive_valid.txt", "valid.txt"]),
        "test": _find_file(src, ["wikidata5m_transductive_test.txt", "test.txt"]),
    }
    alias_files = (_find_file(src, ["wikidata5m_entity.txt"]),
                   _find_file(src, ["wikidata5m_relation.txt"]))
    kg = read_graph(None, None, (), split_files)  # the ids, in order of first use

    entity_alias, relation_alias = map(_read_first_alias, alias_files)
    text_path = src / "wikidata5m_text.txt"
    texts = _read_text_map(text_path) if text_path.is_file() else {}
    kg = kg.renamed(tuple((eid, _clean(entity_alias.get(eid, eid))) for eid in kg.entity_ids),
                    tuple((rid, _clean(relation_alias.get(rid, rid))) for rid in kg.relation_ids),
                    {eid: _clean(texts.get(eid, "")) for eid in kg.entity_ids})
    write_dataset(kg, output_dir)
    return compute_stats(kg)


def _read_first_alias(path: Path) -> dict[str, str]:
    aliases: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line in fh:
            cells = _strip_line_end(line).split("\t")
            if len(cells) >= 2 and cells[0] not in aliases:
                aliases[cells[0]] = cells[1]
    return aliases
