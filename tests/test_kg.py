import random
import re
from functools import partial

import numpy as np
import pytest

from kgsynth.errors import LoadError, ValidationError
from kgsynth.evaluate import evaluate_predictions
from kgsynth.kg import (
    DATASET_FILES,
    compute_stats,
    load_dataset,
    read_rows,
    stream_stats,
    write_dataset,
    write_rows,
)
from kgsynth.transe import init_model, load_model, save_model

from conftest import make_kg, random_kg


def test_roundtrip_structural_equality(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    reloaded = load_dataset(tmp_path)
    assert reloaded == family_kg


def test_repeated_writes_are_byte_identical(family_kg, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_dataset(family_kg, a)
    write_dataset(family_kg, b)
    for name in DATASET_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_loader_matches_handwritten_kg(tmp_path):
    (tmp_path / "entities.tsv").write_text(
        "e1\tAlpha\ne2\tBeta\ne3\tGamma\ne4\tDelta\ne5\tEpsilon\n", encoding="utf-8"
    )
    (tmp_path / "relations.tsv").write_text("r1\tlikes\nr2\tknows\n", encoding="utf-8")
    (tmp_path / "train.tsv").write_text(
        "e1\tr1\te2\ne2\tr2\te3\ne3\tr1\te4\ne4\tr2\te5\n", encoding="utf-8"
    )
    (tmp_path / "valid.tsv").write_text("e5\tr1\te1\n", encoding="utf-8")
    (tmp_path / "test.tsv").write_text("e1\tr2\te5\n", encoding="utf-8")
    (tmp_path / "descriptions.tsv").write_text("e1\tAlpha heads the list\ne3\t\n", encoding="utf-8")

    expected = make_kg(
        entities=[("e1", "Alpha"), ("e2", "Beta"), ("e3", "Gamma"), ("e4", "Delta"), ("e5", "Epsilon")],
        relations=[("r1", "likes"), ("r2", "knows")],
        train=[("e1", "r1", "e2"), ("e2", "r2", "e3"), ("e3", "r1", "e4"), ("e4", "r2", "e5")],
        valid=[("e5", "r1", "e1")],
        test=[("e1", "r2", "e5")],
        descriptions={"e1": "Alpha heads the list"},
    )
    assert load_dataset(tmp_path) == expected


def test_empty_train_split_loads(tmp_path):
    (tmp_path / "entities.tsv").write_text("e1\tA\ne2\tB\n", encoding="utf-8")
    (tmp_path / "relations.tsv").write_text("r1\trel\n", encoding="utf-8")
    (tmp_path / "train.tsv").write_text("", encoding="utf-8")
    (tmp_path / "valid.tsv").write_text("e1\tr1\te2\n", encoding="utf-8")
    (tmp_path / "test.tsv").write_text("e2\tr1\te1\n", encoding="utf-8")
    kg = load_dataset(tmp_path)
    assert compute_stats(kg).n_train == 0


def test_missing_file_error_names_the_file(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    (tmp_path / "relations.tsv").unlink()
    with pytest.raises(LoadError, match="relations.tsv"):
        load_dataset(tmp_path)


def test_unknown_id_error_carries_line_number(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    with open(tmp_path / "train.tsv", "a", encoding="utf-8") as fh:
        fh.write("e1\tr1\tghost\n")
    with pytest.raises(ValidationError, match=r"train.tsv:6"):
        load_dataset(tmp_path)


def test_duplicate_entity_id_rejected(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    with open(tmp_path / "entities.tsv", "a", encoding="utf-8") as fh:
        fh.write("e1\tsecond copy\n")
    with pytest.raises(ValidationError, match="duplicate entity id"):
        load_dataset(tmp_path)


def test_tab_in_name_rejected_at_write_time(tmp_path):
    from kgsynth.kg import KnowledgeGraph

    bad = KnowledgeGraph(
        entities=(("e1", "has\ttab"), ("e2", "ok")),
        relations=(("r1", "r"),),
        train=(("e1", "r1", "e2"),),
        valid=(),
        test=(),
        descriptions={"e1": "", "e2": ""},
    )
    with pytest.raises(ValidationError, match="tab or newline"):
        write_dataset(bad, tmp_path)


@pytest.mark.parametrize("entity_id, relation_id, what", [
    ("a\tb", "r1", "entity id"),
    ("a", "r\r1", "relation id"),
    ("a", "r\n1", "relation id"),
])
def test_tab_or_newline_in_an_id_rejected_at_write_time(tmp_path, entity_id, relation_id, what):
    from kgsynth.kg import KnowledgeGraph

    bad = KnowledgeGraph(
        entities=((entity_id, "first"), ("e2", "second")),
        relations=((relation_id, "r"),),
        train=((entity_id, relation_id, "e2"),),
        valid=(),
        test=(),
        descriptions={entity_id: "", "e2": ""},
    )
    out = tmp_path / "out"
    table = {"entity id": "entities", "relation id": "relations"}[what]
    with pytest.raises(ValidationError, match=f"^{table}: {what} contains a tab or newline"):
        write_dataset(bad, out)
    assert not out.exists()


def test_omitted_description_defaults_to_empty(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    (tmp_path / "descriptions.tsv").unlink()
    kg = load_dataset(tmp_path)
    assert all(kg.descriptions[eid] == "" for eid in kg.entity_ids)


def test_split_overlap_rejected():
    with pytest.raises(ValidationError, match="share triples"):
        make_kg(
            entities=["e1", "e2"],
            relations=["r1"],
            train=[("e1", "r1", "e2")],
            valid=[("e1", "r1", "e2")],
        )


def test_compute_stats_counts(family_kg):
    assert compute_stats(family_kg).as_tuple() == (5, 4, 5, 1, 1)


def test_compute_stats_empty_kg():
    kg = make_kg(entities=[], relations=[], train=[])
    assert compute_stats(kg).as_tuple() == (0, 0, 0, 0, 0)


def test_split_rows_equal_a_per_triple_oracle():
    rng = random.Random(29)
    graphs = [make_kg(entities=[], relations=[], train=[])]
    for n_valid, n_test in ((3, 4), (0, 5), (4, 0), (0, 0)):
        for _ in range(5):
            graphs.append(random_kg(rng, n_entities=rng.randint(2, 30),
                                    n_relations=rng.randint(1, 5),
                                    n_train=rng.randint(0, 40), n_valid=n_valid, n_test=n_test))
    for kg in graphs:
        entity_row, relation_row = kg.entity_row, kg.relation_row
        for name in ("train", "valid", "test"):
            rows = kg.split_rows[name]
            expected = [[entity_row[h], relation_row[r], entity_row[t]]
                        for h, r, t in kg.split(name)]
            assert rows.dtype == np.int32
            assert rows.shape == (len(kg.split(name)), 3)
            assert rows.tolist() == expected


def test_stream_stats_agrees_with_full_load(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    assert stream_stats(tmp_path) == compute_stats(load_dataset(tmp_path))


def test_stream_stats_counts_a_row_with_a_bare_carriage_return_once(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    (tmp_path / "entities.tsv").write_text(
        "e1\tJohann\rBernoulli\ne2\tDaniel\r\ne3\tBasel\ne4\tG\ne5\tS\n", encoding="utf-8")
    assert stream_stats(tmp_path).n_entities == 5


def test_randomly_corrupted_fixtures_rejected(tmp_path):
    rng = random.Random(20240817)
    corruptions = [
        lambda lines: lines + ["e0\tr0\tnope"],            # unknown tail
        lambda lines: lines + ["nope\tr0\te0"],            # unknown head
        lambda lines: lines + ["e0\tzz\te1"],              # unknown relation
        lambda lines: lines + ["e0\tr0"],                  # short row
        lambda lines: lines + [lines[0]] if lines else lines,  # cross-split dup handled below
    ]
    for trial in range(25):
        kg = random_kg(rng)
        root = tmp_path / f"kg{trial}"
        write_dataset(kg, root)
        corrupt = rng.choice(corruptions[:4])
        target = root / "train.tsv"
        lines = target.read_text(encoding="utf-8").splitlines()
        target.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_dataset(root)


def test_duplicate_description_row_rejected(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    with open(tmp_path / "descriptions.tsv", "a", encoding="utf-8") as fh:
        fh.write("e1\tanother text\n")
    with pytest.raises(ValidationError, match=r"descriptions.tsv:6: duplicate"):
        load_dataset(tmp_path)


def test_duplicated_triple_across_splits_rejected(tmp_path):
    rng = random.Random(7)
    kg = random_kg(rng)
    write_dataset(kg, tmp_path)
    first_train = (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()[0]
    with open(tmp_path / "test.tsv", "a", encoding="utf-8") as fh:
        fh.write(first_train + "\n")
    with pytest.raises(ValidationError, match="share triples"):
        load_dataset(tmp_path)


def test_triple_in_two_splits_rejected_at_its_file_line(tmp_path):
    kg = make_kg(entities=["a", "b", "c"], relations=["r"],
                 train=[("a", "r", "b")], valid=[("b", "r", "c")], test=[("a", "r", "c")])
    write_dataset(kg, tmp_path)
    (tmp_path / "test.tsv").write_text("a\tr\tc\nb\tr\tc\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^test.tsv:2: duplicate triple \('b', 'r', 'c'\) "
                                              r"\(splits share triples: also in valid.tsv\)$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name, text, message", [
    # a repeated entity id, after a blank line
    ("entities.tsv", "e1\tJohann\n\ne2\tDaniel\ne3\tBasel\ne1\tagain\ne4\tG\ne5\tS\n",
     "entities.tsv:5: duplicate entity id 'e1'"),
    # a CRLF line: its name ends in a carriage return
    ("entities.tsv", "e1\tJohann\ne2\tDaniel\r\ne3\tBasel\ne4\tG\ne5\tS\n",
     "entities.tsv:2: name contains a tab or newline: 'Daniel\\r'"),
    ("relations.tsv", "r1\ta\nr2\tb\nr3\tc\nr4\td\nr2\tagain\n",
     "relations.tsv:5: duplicate relation id 'r2'"),
    # blank lines in a split before its bad row
    ("train.tsv", "e1\tr1\te3\n\n\ne1\tr1\tghost\n", "train.tsv:4: unknown tail entity 'ghost'"),
    # a CRLF line, after a blank line, in descriptions listed out of entity order
    ("descriptions.tsv", "e3\tc\ne1\ta\n\ne4\td\r\ne2\tb\n",
     "descriptions.tsv:4: description contains a tab or newline: 'd\\r'"),
    ("descriptions.tsv", "e1\ta\n\ne9\tz\n", "descriptions.tsv:3: unknown entity 'e9'"),
    # a bare carriage return inside a cell does not end its row
    ("descriptions.tsv", "e1\tfoo\rbar\n",
     "descriptions.tsv:1: description contains a tab or newline: 'foo\\rbar'"),
], ids=["entity-repeat", "entity-crlf", "relation-repeat", "split-blank-lines",
        "description-crlf", "description-unknown", "description-bare-cr"])
def test_a_bad_row_names_its_file_line(family_kg, tmp_path, name, text, message):
    write_dataset(family_kg, tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path)


def test_split_overlap_names_the_first_repeat_in_split_order():
    # train lists 200 triples; valid repeats them in reverse, test in order,
    # so the first repeat in split order is valid's first triple.
    entities = [f"e{i}" for i in range(201)]
    train = [(f"e{i}", "r", f"e{i + 1}") for i in range(200)]
    with pytest.raises(ValidationError,
                       match=r"^valid: duplicate triple \('e199', 'r', 'e200'\) "
                             r"\(splits share triples: also in train\)$"):
        make_kg(entities=entities, relations=["r"], train=train,
                valid=train[::-1], test=train)
    # no valid triple is in train; test's first triple held by valid is named
    valid = [(f"e{i + 1}", "r", f"e{i}") for i in range(200)]
    with pytest.raises(ValidationError,
                       match=r"^test: duplicate triple \('e51', 'r', 'e50'\) "
                             r"\(splits share triples: also in valid\)$"):
        make_kg(entities=entities, relations=["r"], train=train,
                valid=valid, test=[("e0", "r", "e2")] + valid[50:] + train)


def test_duplicate_triple_in_split_file_rejected(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    with open(tmp_path / "test.tsv", "a", encoding="utf-8") as fh:
        fh.write("e2\tr3\te1\n")
    with pytest.raises(ValidationError,
                       match=r"test.tsv:2: duplicate triple \('e2', 'r3', 'e1'\)"):
        load_dataset(tmp_path)


def test_duplicate_triple_in_memory_rejected():
    with pytest.raises(ValidationError, match=r"test: duplicate triple \('b', 'r', 'c'\)"):
        make_kg(
            entities=["a", "b", "c"],
            relations=["r"],
            train=[("a", "r", "b")],
            test=[("b", "r", "c"), ("b", "r", "c")],
        )


# --- the row codec ----------------------------------------------------------------------

def test_read_rows_skips_blank_lines_and_numbers_file_lines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\n\nc\t\n", encoding="utf-8")
    assert list(read_rows(path, 2)) == [(1, ["a", "b"]), (3, ["c", ""])]


def test_read_rows_without_width_takes_the_first_rows_width(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("x\ty\tz\n1\t2\t3\n4\t5\n", encoding="utf-8")
    rows = read_rows(path)
    assert next(rows) == (1, ["x", "y", "z"])
    assert next(rows) == (2, ["1", "2", "3"])
    with pytest.raises(ValidationError, match=r"^rows.tsv:3: expected 3 tab-separated fields$"):
        next(rows)


def test_write_rows_then_read_rows_round_trips_bytes(tmp_path):
    rows = [("e1", "Alpha beta"), ("e2", ""), ("é", "ünï ☃")]
    path = tmp_path / "rows.tsv"
    write_rows(path, rows)
    assert path.read_bytes() == "e1\tAlpha beta\ne2\t\né\tünï ☃\n".encode("utf-8")
    assert [tuple(cells) for _, cells in read_rows(path, 2)] == rows


def _dataset_file(name, root, kg):
    write_dataset(kg, root)
    return root / name, lambda: load_dataset(root)


def _predictions_file(root, kg):
    write_dataset(kg, root)
    path = root / "preds.tsv"
    write_rows(path, [(h, r, t, direction, t if direction == "tail" else h)
                      for h, r, t in kg.test for direction in ("tail", "head")])
    return path, lambda: evaluate_predictions(load_dataset(root), path)


def _checkpoint_file(root, kg):
    save_model(init_model(kg, dim=3, seed=0), root)
    return root / "entity_vectors.tsv", lambda: load_model(root)


# each writes a valid row file and returns it with the call that reads it
ROW_FILES = {
    "entities.tsv": partial(_dataset_file, "entities.tsv"),
    "descriptions.tsv": partial(_dataset_file, "descriptions.tsv"),
    "valid.tsv": partial(_dataset_file, "valid.tsv"),
    "preds.tsv": _predictions_file,
    "entity_vectors.tsv": _checkpoint_file,
}


@pytest.mark.parametrize("name", sorted(ROW_FILES))
@pytest.mark.parametrize("change", [1, -1])
def test_row_files_reject_a_row_of_the_wrong_width(name, change, family_kg, tmp_path):
    path, read = ROW_FILES[name](tmp_path, family_kg)
    read()  # the file as written is valid
    lines = path.read_text(encoding="utf-8").splitlines()
    width = len(lines[0].split("\t"))
    bad = lines[-1].split("\t")
    bad = bad + ["extra"] if change > 0 else bad[:-1]
    # a blank line (skipped, but counted) and then the bad row
    path.write_text("\n".join(lines + ["", "\t".join(bad)]) + "\n", encoding="utf-8")
    bad_line = len(lines) + 2
    with pytest.raises(ValidationError,
                       match=rf"^{name}:{bad_line}: expected {width} tab-separated fields$"):
        read()
