"""Source-line reporting, a tuple reference and the memory bound of the converters."""

import gc
import random
import re
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

from kgsynth import kg as kg_module
from kgsynth.convert import (_clean, _find_file, _read_first_alias, _read_text_map,
                             convert_kgbert, convert_wikidata5m)
from kgsynth.errors import LoadError, ValidationError
from kgsynth.kg import compute_stats, file_lines, from_triples, load_dataset, write_dataset


@pytest.mark.parametrize("splits, message", [
    # a CRLF dump: every tail id ends in a carriage return
    ({"train": "Q2\tP1\tQ1\r\n", "valid": "Q1\tP1\tQ1\r\n", "test": "Q2\tP1\tQ2\r\n"},
     "wikidata5m_transductive_train.txt:1: entity id contains a tab or newline: 'Q1\\r'"),
    # one CRLF line, whose tail id is first used there, after a blank line
    ({"train": "Q2\tP1\tQ1\n\nQ1\tP1\tQ2\n", "valid": "Q1\tP1\tQ1\nQ2\tP1\tQ3\r\n",
      "test": "Q3\tP1\tQ2\n"},
     "wikidata5m_transductive_valid.txt:2: entity id contains a tab or newline: 'Q3\\r'"),
], ids=["crlf-dump", "crlf-line"])
def test_wikidata5m_bad_id_names_the_first_split_line_holding_it(tmp_path, splits, message):
    (tmp_path / "wikidata5m_entity.txt").write_text("Q1\tuniverse\nQ2\tEarth\n", encoding="utf-8")
    (tmp_path / "wikidata5m_relation.txt").write_text("P1\tpart of\n", encoding="utf-8")
    for split, text in splits.items():
        (tmp_path / f"wikidata5m_transductive_{split}.txt").write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        convert_wikidata5m(tmp_path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _wikidata5m(root, splits, text="Q1\tall of space\n"):
    """A Wikidata5m source under ``root`` with the given split texts."""
    files = {f"wikidata5m_transductive_{split}.txt": lines for split, lines in splits.items()}
    files.update({"wikidata5m_entity.txt": "Q1\tuniverse\nQ2\tEarth\n",
                  "wikidata5m_relation.txt": "P1\tpart of\n", "wikidata5m_text.txt": text})
    _write(root, files)
    return root


@pytest.mark.parametrize("block_chars", [1, kg_module._BLOCK_CHARS])
def test_wikidata5m_bad_entity_id_is_reported_before_a_bad_relation_id(tmp_path, monkeypatch,
                                                                      block_chars):
    # the relation id's line comes first, alone in its block when block_chars is 1
    monkeypatch.setattr(kg_module, "_BLOCK_CHARS", block_chars)
    src = _wikidata5m(tmp_path / "src", {"train": "Q1\tP1\tQ2\nQ2\tP2\r\tQ1\nQ1\tP1\tQ3\r\n",
                                         "valid": "Q1\tP1\tQ1\n", "test": "Q2\tP1\tQ2\n"})
    message = "wikidata5m_transductive_train.txt:3: entity id contains a tab or newline: 'Q3\\r'"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        convert_wikidata5m(src, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_wikidata5m_split_faults_are_reported_before_text_file_faults(tmp_path):
    # a text line without a tab, and a bad entity id in train: the split is read first
    splits = {"train": "Q1\tP1\tQ3\r\n", "valid": "Q1\tP1\tQ1\n", "test": "Q1\tP1\tQ2\n"}
    text = "Q1\tall of space\nQ2 third planet\n"
    src = _wikidata5m(tmp_path / "both", splits, text)
    message = "wikidata5m_transductive_train.txt:1: entity id contains a tab or newline: 'Q3\\r'"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        convert_wikidata5m(src, tmp_path / "out")
    # with the split mended, the text file's fault is the one reported
    src = _wikidata5m(tmp_path / "text", {**splits, "train": "Q1\tP1\tQ3\n"}, text)
    with pytest.raises(ValidationError, match="^wikidata5m_text.txt:2: expected id<TAB>text$"):
        convert_wikidata5m(src, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["wikidata5m_entity.txt", "wikidata5m_relation.txt"])
def test_wikidata5m_without_an_alias_file_fails_before_any_split_is_read(tmp_path, monkeypatch,
                                                                         missing):
    # a malformed train split, which a read would report first
    src = _wikidata5m(tmp_path / "src", {"train": "Q1\tP1\n", "valid": "Q1\tP1\tQ1\n",
                                         "test": "Q1\tP1\tQ2\n"})
    (src / missing).unlink()
    reads = []
    line_blocks = kg_module._line_blocks

    def counted(path):
        reads.append(path)
        return line_blocks(path)

    monkeypatch.setattr(kg_module, "_line_blocks", counted)
    with pytest.raises(LoadError, match=re.escape(f"none of ['{missing}'] found under {src}")):
        convert_wikidata5m(src, tmp_path / "out")
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_kgbert_text_files_with_crlf_lines_convert_without_the_cr(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    texts = {
        "entity2text.txt": "e1\tAlpha\r\ne2\tBeta\r\n\r\ne3\tGam\rma\r\n",
        "relation2text.txt": "r1\tprecedes\r\nr2\tfollows\r\n",
        "entity2textlong.txt": "e1\tthe first letter\r\ne3\tthe third\r\n",
        "train.tsv": "e1\tr1\te2\n", "dev.tsv": "e2\tr2\te1\n", "test.tsv": "e3\tr2\te2\n",
    }
    for name, text in texts.items():
        (src / name).write_bytes(text.encode("utf-8"))
    convert_kgbert(src, tmp_path / "out")
    kg = load_dataset(tmp_path / "out")
    # a CR inside the text is no line end: it becomes a space like a tab
    assert kg.entities == (("e1", "Alpha"), ("e2", "Beta"), ("e3", "Gam ma"))
    assert kg.relations == (("r1", "precedes"), ("r2", "follows"))
    assert kg.descriptions == {"e1": "the first letter", "e2": "", "e3": "the third"}


def test_wikidata5m_alias_and_text_files_with_crlf_lines_convert_without_the_cr(tmp_path):
    texts = {
        "wikidata5m_entity.txt": "Q1\tuniverse\r\nQ2\tEarth\r\n",
        "wikidata5m_relation.txt": "P1\tpart of\r\n",
        "wikidata5m_text.txt": "Q1\tall of space\r\nQ2\tthird planet\r\n",
        "wikidata5m_transductive_train.txt": "Q2\tP1\tQ1\n",
        "wikidata5m_transductive_valid.txt": "Q1\tP1\tQ1\n",
        "wikidata5m_transductive_test.txt": "Q2\tP1\tQ2\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    convert_wikidata5m(tmp_path, tmp_path / "out")
    kg = load_dataset(tmp_path / "out")
    assert kg.entities == (("Q2", "Earth"), ("Q1", "universe"))
    assert kg.relations == (("P1", "part of"),)
    assert kg.descriptions == {"Q2": "third planet", "Q1": "all of space"}


# --- the converters as tuples: the reference the row-native converters match -------------

def reference_triples(path):
    """A split file's triples, line by line: LF-ended lines, blank ones skipped."""
    triples = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != 3:
                raise ValidationError(f"{path.name}:{lineno}: expected 3 tab-separated fields")
            triples.append(tuple(cells))
    return tuple(triples)


def reference_kgbert(src, out, gloss_split=False):
    entity_text = _read_text_map(_find_file(src, ["entity2text.txt", "entity2text.tsv"]))
    relation_text = _read_text_map(_find_file(src, ["relation2text.txt", "relation2text.tsv"]))
    long_path = src / "entity2textlong.txt"
    long_text = _read_text_map(long_path) if long_path.is_file() else {}
    entities, descriptions = [], {}
    for eid, text in entity_text.items():
        name, gloss = text.split(", ", 1) if gloss_split and ", " in text else (text, "")
        entities.append((eid, _clean(name)))
        descriptions[eid] = _clean(long_text.get(eid, gloss))
    split_files = {
        "train": _find_file(src, ["train.tsv", "train.txt"]),
        "valid": _find_file(src, ["valid.tsv", "dev.tsv", "valid.txt", "dev.txt"]),
        "test": _find_file(src, ["test.tsv", "test.txt"]),
    }
    with file_lines(split_files):
        kg = from_triples(
            entities=tuple(entities),
            relations=tuple((rid, _clean(text)) for rid, text in relation_text.items()),
            descriptions=descriptions,
            **{split: reference_triples(path) for split, path in split_files.items()})
        write_dataset(kg, out)
    return compute_stats(kg)


def reference_wikidata5m(src, out):
    split_files = {split: _find_file(src, [f"wikidata5m_transductive_{split}.txt"])
                   for split in ("train", "valid", "test")}
    splits = {split: reference_triples(path) for split, path in split_files.items()}
    entity_ids = dict.fromkeys(e for triples in splits.values()
                               for h, _, t in triples for e in (h, t))
    relation_ids = dict.fromkeys(r for triples in splits.values() for _, r, _ in triples)
    entity_alias = _read_first_alias(src / "wikidata5m_entity.txt")
    relation_alias = _read_first_alias(src / "wikidata5m_relation.txt")
    text_path = src / "wikidata5m_text.txt"
    texts = _read_text_map(text_path) if text_path.is_file() else {}
    tables = {
        "entities": tuple((eid, _clean(entity_alias.get(eid, eid))) for eid in entity_ids),
        "relations": tuple((rid, _clean(relation_alias.get(rid, rid))) for rid in relation_ids),
    }
    with file_lines(split_files):
        try:
            kg = from_triples(descriptions={eid: _clean(texts.get(eid, "")) for eid in entity_ids},
                              **tables, **splits)
            write_dataset(kg, out)
        except ValidationError as exc:
            if exc.table not in ("entities", "relations"):
                raise
            key = tables[exc.table][exc.row][0]
            cells = (0, 2) if exc.table == "entities" else (1,)
            split, row = next((split, row) for split in ("train", "valid", "test")
                              for row, triple in enumerate(splits[split])
                              if any(triple[cell] == key for cell in cells))
            raise ValidationError(exc.detail, split, row) from exc
    return compute_stats(kg)


def _split_rows(splits, width):
    """The split rows, in split order, that have at least ``width`` cells."""
    return [row for split in ("train", "valid", "test") for row in splits[split]
            if len(row) >= width]


def _short(rng, splits):
    if rows := _split_rows(splits, 1):
        del rng.choice(rows)[-1]


def _long(rng, splits):
    if rows := _split_rows(splits, 1):
        rng.choice(rows).append("extra")


def _repeat(rng, splits):
    # a triple again, in its own split or in another, after or before it
    if rows := _split_rows(splits, 1):
        target = splits[rng.choice(("train", "valid", "test"))]
        target.insert(rng.randint(0, len(target)), list(rng.choice(rows)))


def _unknown(rng, splits):
    if rows := _split_rows(splits, 3):
        rng.choice(rows)[rng.randrange(3)] = "ghost"


def _carriage_return(rng, splits):
    # a bare CR in any id: in a relation or head id as well as a tail's
    if rows := _split_rows(splits, 3):
        row = rng.choice(rows)
        row[rng.randrange(3)] += "\r"


SPLIT_FAULTS = [_short, _long, _repeat, _repeat, _carriage_return]


def _split_text(rng, rows):
    """The lines of ``rows``: in one file of twenty some CRLF, blank lines
    between them, and sometimes no LF after the last."""
    crlf = 0.3 if rng.random() < 0.05 else 0
    lines = ["\t".join(row) + ("\r\n" if rng.random() < crlf else "\n") for row in rows]
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randint(0, len(lines)), "\n")
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].removesuffix("\n")
    return "".join(lines)


def _random_splits(rng, entities, relations, faults):
    every = [[h, r, t] for h in entities for r in relations for t in entities]
    triples = rng.sample(every, rng.randint(0, min(len(every), 20)))
    cut = sorted(rng.randint(0, len(triples)) for _ in range(2))
    splits = {"train": triples[:cut[0]], "valid": triples[cut[0]:cut[1]], "test": triples[cut[1]:]}
    for fault in rng.sample(faults, rng.choice([0, 0, 1, 1, 2])):
        fault(rng, splits)
    return splits


def _write(root, files):
    root.mkdir(parents=True)
    for name, text in files.items():
        (root / name).write_bytes(text.encode("utf-8"))


def _kgbert_source(rng, root):
    entities = [f"e{i}" for i in range(rng.randint(2, 7))]
    relations = [f"r{i}" for i in range(rng.randint(1, 3))]
    splits = _random_splits(rng, entities, relations, SPLIT_FAULTS + [_unknown, _unknown])
    valid = rng.choice(["valid.tsv", "dev.tsv"])
    files = {"train.tsv": _split_text(rng, splits["train"]),
             valid: _split_text(rng, splits["valid"]), "test.tsv": _split_text(rng, splits["test"]),
             "entity2text.txt": "".join(f"{eid}\tname {eid}, gloss of {eid}\n" for eid in entities),
             "relation2text.txt": "".join(f"{rid}\trelation {rid}\n" for rid in relations)}
    if rng.random() < 0.5:
        files["entity2textlong.txt"] = "".join(
            f"{eid}\tthe long text of {eid}\n"
            for eid in rng.sample(entities, rng.randint(0, len(entities))))
    _write(root, files)


def _wikidata5m_source(rng, root):
    entities = [f"Q{i}" for i in range(rng.randint(2, 7))]
    relations = [f"P{i}" for i in range(rng.randint(1, 3))]
    splits = _random_splits(rng, entities, relations, SPLIT_FAULTS)
    files = {f"wikidata5m_transductive_{split}.txt": _split_text(rng, rows)
             for split, rows in splits.items()}
    # aliases for most ids (first alias wins) and for one no triple uses
    files["wikidata5m_entity.txt"] = "".join(
        f"{eid}\talias {eid}\tother\n" for eid in entities + ["Q99"] if rng.random() < 0.8)
    files["wikidata5m_relation.txt"] = "".join(
        f"{rid}\tlabel {rid}\n" for rid in relations if rng.random() < 0.8)
    if rng.random() < 0.7:
        files["wikidata5m_text.txt"] = "".join(
            f"{eid}\tabout {eid}\n" for eid in rng.sample(entities, rng.randint(0, len(entities))))
    _write(root, files)


def _converted(convert, src, out):
    """The output files' bytes and the stats, or the error; a rejected source writes nothing."""
    try:
        stats = convert(src, out)
    except ValidationError as exc:
        assert not out.exists()
        return None, str(exc)
    return ({path.name: path.read_bytes() for path in out.iterdir()}, stats), None


FAULT_MESSAGES = ["expected 3 tab-separated fields", "duplicate triple", "splits share triples"]


KGBERT_MESSAGES = ["unknown head entity", "unknown relation", "unknown tail entity", "\\r'"]


@pytest.mark.parametrize("write_source, convert, reference, messages", [
    (_kgbert_source, convert_kgbert, reference_kgbert, KGBERT_MESSAGES),
    (_kgbert_source, partial(convert_kgbert, gloss_split=True),
     partial(reference_kgbert, gloss_split=True), KGBERT_MESSAGES),
    (_wikidata5m_source, convert_wikidata5m, reference_wikidata5m,
     ["entity id contains a tab or newline", "relation id contains a tab or newline"]),
], ids=["kgbert", "kgbert-gloss-split", "wikidata5m"])
def test_converters_match_a_tuple_reference_on_random_sources(tmp_path, write_source, convert,
                                                              reference, messages):
    rng = random.Random(20)
    converted, errors = 0, []
    for trial in range(300):
        root = tmp_path / str(trial)
        write_source(rng, root / "src")
        outcome = _converted(convert, root / "src", root / "out")
        assert outcome == _converted(reference, root / "src", root / "ref"), root
        if outcome[1] is None:
            converted += 1
        else:
            errors.append(outcome[1])
    assert converted > 60
    for message in FAULT_MESSAGES + messages:  # every fault is rejected somewhere
        assert any(message in error for error in errors), message


# --- one read per file, and memory ----------------------------------------------------------

N_ENTITIES, N_RELATIONS = 400, 8


@pytest.fixture(scope="module")
def triples():
    """50,100 distinct triples over N_ENTITIES entities, in random order."""
    keys = np.random.default_rng(20).choice(N_ENTITIES * N_RELATIONS * N_ENTITIES, 50_100,
                                            replace=False)
    h, r, t = np.unravel_index(keys, (N_ENTITIES, N_RELATIONS, N_ENTITIES))
    return [f"Q{a}\tP{b}\tQ{c}\n" for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())]


def _sources(root, n_train, triples):
    """The same N_ENTITIES-entity graph with ``n_train`` train triples (50
    valid and 50 test triples shared by every size), in both source layouts."""
    splits = {"train": triples[100:100 + n_train], "valid": triples[:50], "test": triples[50:100]}
    entities = "".join(f"Q{i}\tentity {i}\n" for i in range(N_ENTITIES))
    relations = "".join(f"P{i}\trelation {i}\n" for i in range(N_RELATIONS))
    texts = "".join(f"Q{i}\tabout entity {i}\n" for i in range(N_ENTITIES))
    kgbert = {f"{split}.tsv": "".join(lines) for split, lines in splits.items()}
    kgbert.update({"entity2text.txt": entities, "relation2text.txt": relations,
                   "entity2textlong.txt": texts})
    wikidata5m = {f"wikidata5m_transductive_{split}.txt": "".join(lines)
                  for split, lines in splits.items()}
    wikidata5m.update({"wikidata5m_entity.txt": entities, "wikidata5m_relation.txt": relations,
                       "wikidata5m_text.txt": texts})
    _write(root / "kgbert", kgbert)
    _write(root / "wikidata5m", wikidata5m)
    return root


def test_converting_and_loading_read_each_file_once(tmp_path, triples, monkeypatch):
    reads = Counter()
    line_blocks = kg_module._line_blocks

    def counted(path):
        reads[path] += 1
        return line_blocks(path)

    monkeypatch.setattr(kg_module, "_line_blocks", counted)
    root = _sources(tmp_path, 500, triples)
    source_splits = {"kgbert": ["train.tsv", "valid.tsv", "test.tsv"],
                     "wikidata5m": [f"wikidata5m_transductive_{split}.txt"
                                    for split in ("train", "valid", "test")]}
    for layout, convert in (("kgbert", convert_kgbert), ("wikidata5m", convert_wikidata5m)):
        reads.clear()
        convert(root / layout, tmp_path / layout)
        assert reads == {root / layout / name: 1 for name in source_splits[layout]}
        reads.clear()
        load_dataset(tmp_path / layout)
        assert reads == {tmp_path / layout / name: 1 for name in
                         ("train.tsv", "valid.tsv", "test.tsv", "entities.tsv", "relations.tsv",
                          "descriptions.tsv")}


def _peak(fn):
    """tracemalloc's peak while ``fn`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout, convert", [
    ("kgbert", convert_kgbert), ("wikidata5m", convert_wikidata5m),
])
def test_conversion_peak_grows_by_a_few_rows_per_triple(tmp_path, triples, layout, convert):
    # The same 400 entities with 5,000 and 50,000 train triples: converting
    # holds the triples as int32 rows and a sort key, never a tuple each.
    small, large = 5_000, 50_000
    roots = {n: _sources(tmp_path / str(n), n, triples) / layout for n in (small, large)}
    convert(roots[small], tmp_path / "warm")  # warm the first call's caches
    peaks = {n: _peak(lambda n=n: convert(roots[n], tmp_path / f"out{n}")) for n in roots}
    per_triple = (peaks[large] - peaks[small]) / (large - small)
    assert per_triple <= 64, per_triple
