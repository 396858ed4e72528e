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

Conversion reads and checks every source file before it creates the output
directory or writes any file, so a rejected source leaves no partial
dataset behind. Triples are held in memory and checked by
``kg.read_triples``, the checker ``load_dataset`` reports with, so a triple
with an id that has no text entry (kgbert) or that is listed twice, in one
split or in two, is rejected with the loader's message and file line. A text
line without a tab or with a repeated id is rejected too. Tabs and newlines
inside source text are replaced by spaces to fit the strict TSV cell rules.
"""

from __future__ import annotations

from pathlib import Path

from .errors import LoadError, ValidationError
from .kg import DatasetStats, Triple, read_triples, write_rows

FORMATS = ("kgbert", "wikidata5m")


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _find_file(root: Path, names: list[str]) -> Path:
    for name in names:
        path = root / name
        if path.is_file():
            return path
    raise LoadError(f"none of {names} found under {root}")


def _read_text_map(path: Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
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
    long_text: dict[str, str] = {}
    long_path = src / "entity2textlong.txt"
    if long_path.is_file():
        long_text = _read_text_map(long_path)

    names: dict[str, str] = {}
    descriptions: dict[str, str] = {}
    for eid, text in entity_text.items():
        if gloss_split and ", " in text:
            name, gloss = text.split(", ", 1)
        else:
            name, gloss = text, ""
        names[eid] = _clean(name)
        descriptions[eid] = _clean(long_text.get(eid, gloss))

    split_files = {
        "train": _find_file(src, ["train.tsv", "train.txt"]),
        "valid": _find_file(src, ["valid.tsv", "dev.tsv", "valid.txt", "dev.txt"]),
        "test": _find_file(src, ["test.tsv", "test.txt"]),
    }
    triples = read_triples(split_files, entity_text, relation_text)

    relations = {rid: _clean(text) for rid, text in relation_text.items()}
    return _write(Path(output_dir), triples, names, relations, descriptions)


def convert_wikidata5m(input_dir: str | Path, output_dir: str | Path) -> DatasetStats:
    """Convert a wikidata5m transductive dump; returns the converted stats."""
    src = Path(input_dir)

    split_files = {
        "train": _find_file(src, ["wikidata5m_transductive_train.txt", "train.txt"]),
        "valid": _find_file(src, ["wikidata5m_transductive_valid.txt", "valid.txt"]),
        "test": _find_file(src, ["wikidata5m_transductive_test.txt", "test.txt"]),
    }
    triples = read_triples(split_files)
    seen_entities = dict.fromkeys(e for rows in triples.values()
                                  for h, _, t in rows for e in (h, t))
    seen_relations = dict.fromkeys(r for rows in triples.values() for _, r, _ in rows)

    entity_alias = _read_first_alias(_find_file(src, ["wikidata5m_entity.txt"]))
    relation_alias = _read_first_alias(_find_file(src, ["wikidata5m_relation.txt"]))
    text_path = src / "wikidata5m_text.txt"
    texts = _read_text_map(text_path) if text_path.is_file() else {}

    names = {eid: _clean(entity_alias.get(eid, eid)) for eid in seen_entities}
    relations = {rid: _clean(relation_alias.get(rid, rid)) for rid in seen_relations}
    descriptions = {eid: _clean(text) for eid, text in texts.items() if eid in seen_entities}
    return _write(Path(output_dir), triples, names, relations, descriptions)


def _write(
    out: Path,
    triples: dict[str, list[Triple]],
    names: dict[str, str],
    relations: dict[str, str],
    descriptions: dict[str, str],
) -> DatasetStats:
    """Create ``out`` and write the six dataset files from checked inputs."""
    out.mkdir(parents=True, exist_ok=True)
    for split, rows in triples.items():
        write_rows(out / f"{split}.tsv", rows)
    write_rows(out / "entities.tsv", names.items())
    write_rows(out / "relations.tsv", relations.items())
    write_rows(out / "descriptions.tsv", descriptions.items())
    return DatasetStats(
        n_entities=len(names), n_relations=len(relations),
        n_train=len(triples["train"]), n_valid=len(triples["valid"]), n_test=len(triples["test"]),
    )


def _read_first_alias(path: Path) -> dict[str, str]:
    aliases: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if len(cells) >= 2 and cells[0] not in aliases:
                aliases[cells[0]] = cells[1]
    return aliases
