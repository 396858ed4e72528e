import gc
import os
import random
import re
import shutil
import tracemalloc
from functools import partial

import numpy as np
import pytest

from kgsynth import kg as kgmod, rewriter
from kgsynth.analysis import description_leakage
from kgsynth.errors import LoadError, ValidationError
from kgsynth.evaluate import evaluate_predictions
from kgsynth.kg import (
    DATASET_FILES,
    SPLITS,
    Triples,
    _sorted_distinct,
    compute_stats,
    file_lines,
    from_triples,
    load_dataset,
    read_rows,
    stream_stats,
    write_dataset,
    write_rows,
)
from kgsynth.transe import TrainConfig, init_model, load_model, save_model, train
from kgsynth.transform import SUITE_VARIANTS, generate_suite

from conftest import make_kg, random_kg
from test_transform import nested_homonym_kg


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
    bad = from_triples(
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
    # the graph is never built, so there is nothing to write
    def build():
        return from_triples(
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
        build()
    with pytest.raises(ValidationError, match=f"^{table}: {what} contains a tab or newline"):
        write_dataset(build(), out)
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


def test_sorted_distinct_and_relation_pairs_equal_their_set_oracles():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 7, 100):
        for high in (1, 5, 1 << 40):
            keys = rng.integers(-high, high, size=size)
            np.testing.assert_array_equal(_sorted_distinct(keys), np.unique(keys))
    # relation_pairs: each (a, b), a < b, of relations that link one (head, tail) pair
    pyrng = random.Random(31)
    found = 0
    for _ in range(20):
        kg = random_kg(pyrng, n_entities=pyrng.randint(2, 6), n_relations=pyrng.randint(1, 5),
                       n_train=pyrng.randint(1, 30), n_valid=2, n_test=2)
        linking: dict[tuple[int, int], set[int]] = {}
        for rows in kg.split_rows.values():
            for h, r, t in rows.tolist():
                linking.setdefault((h, t), set()).add(r)
        want = sorted({(a, b) for rels in linking.values() for a in rels for b in rels if a < b})
        assert kg.relation_pairs.tolist() == [list(pair) for pair in want]
        found += len(want)
    assert found > 20, found


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


# --- splits held as rows ----------------------------------------------------------------

def test_loaded_splits_are_triples_over_the_rows(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path)
    kg = load_dataset(tmp_path)
    for name in ("train", "valid", "test"):
        triples = kg.split(name)
        assert isinstance(triples, Triples) and triples.rows is kg.split_rows[name]
        assert triples == family_kg.split(name) and family_kg.split(name) == triples
        assert tuple(triples) == tuple(family_kg.split(name))
        assert len(triples) == len(family_kg.split(name))
    assert tuple(kg.train) == (("e1", "r1", "e3"), ("e1", "r2", "e3"), ("e1", "r3", "e2"),
                               ("e2", "r1", "e4"), ("e2", "r4", "e5"))
    assert kg.train[1] == kg.train[-4] == ("e1", "r2", "e3")
    assert kg.train[1:3] == (("e1", "r2", "e3"), ("e1", "r3", "e2"))
    assert isinstance(kg.train[1:3], tuple)
    # equal length, other order or other ids: unequal triple by triple
    rows = kg.split_rows["train"]
    assert kg.train != Triples(rows[::-1], kg.entity_ids, kg.relation_ids)
    assert kg.train != Triples(rows, kg.entity_ids[::-1], kg.relation_ids)
    # a Triples equals no tuple or list, not even of its own triples
    assert kg.train != tuple(kg.train) and kg.train != list(kg.train)
    assert ("e2", "r4", "e5") in kg.train and kg.train.index(("e2", "r4", "e5")) == 4
    assert kg.all_triples == family_kg.all_triples
    assert kg.answer_index == family_kg.answer_index
    assert repr(kg.valid) == repr(family_kg.valid)
    with pytest.raises(ValueError, match="read-only"):
        kg.split_rows["train"][0, 0] = 1
    # a renamed graph passes the rows through
    out = kg.renamed(kg.entities, kg.relations, kg.descriptions)
    assert all(out.split(name).rows is kg.split_rows[name] for name in ("train", "valid", "test"))


# --- one builder: from_triples and read_graph ------------------------------------------

def parts(kg):
    """``from_triples``'s arguments for ``kg``, as plain tuples and a dict."""
    return dict(entities=kg.entities, relations=kg.relations,
                descriptions=dict(kg.descriptions),
                **{name: tuple(kg.split(name)) for name in SPLITS})


def dict_rows(entities, relations, triples):
    """Each triple's (head, relation, tail) rows, looked up in dicts built by enumerate."""
    entity_row = {eid: row for row, (eid, _) in enumerate(entities)}
    relation_row = {rid: row for row, (rid, _) in enumerate(relations)}
    return [[entity_row[h], relation_row[r], entity_row[t]] for h, r, t in triples]


def test_from_triples_equals_the_load_of_its_own_write(tmp_path):
    rng = random.Random(31)
    graphs = [random_kg(rng, n_entities=rng.randint(2, 30), n_relations=rng.randint(1, 5),
                        n_train=rng.randint(0, 40), n_valid=rng.randint(0, 4),
                        n_test=rng.randint(0, 4)) for _ in range(12)]
    graphs += [nested_homonym_kg(rng) for _ in range(6)]
    for trial, kg in enumerate(graphs):
        given = parts(kg)
        # an entity the descriptions omit gets an empty one
        given["descriptions"] = {eid: text for eid, text in kg.descriptions.items() if text}
        built = from_triples(**given)
        assert built.descriptions == kg.descriptions
        write_dataset(built, tmp_path / str(trial))
        assert load_dataset(tmp_path / str(trial)) == built
        for name in SPLITS:
            rows = built.split_rows[name]
            assert rows.dtype == np.int32 and rows.shape == (len(given[name]), 3)
            assert rows.tolist() == dict_rows(kg.entities, kg.relations, given[name])
            assert tuple(built.split(name)) == given[name]
    assert any("" in kg.descriptions.values() for kg in graphs)


def test_graphs_are_equal_by_tables_descriptions_and_triples(family_kg):
    given = parts(family_kg)
    again = from_triples(**given)
    assert again == family_kg and again._splits is not family_kg._splits
    # one triple moved to another split, then the same triples in another order
    moved = {**given, "train": given["train"][:-1], "valid": given["valid"] + given["train"][-1:]}
    assert from_triples(**moved) != family_kg
    assert from_triples(**{**given, "train": given["train"][::-1]}) != family_kg
    assert from_triples(**{**given, "descriptions": {**given["descriptions"], "e3": ""}}) \
        != family_kg


def _with(given, **changes):
    return {**given, **changes}


# Two structure faults in one input: the build raises the first in the loader's
# precedence, at its table or split and row.
BUILD_FAULTS = {
    "description-row-before-repeated-id": (
        lambda g: _with(g, descriptions={**g["descriptions"], "e9": "z"},
                        entities=g["entities"] + (("e1", "again"),)),
        "descriptions: unknown entity 'e9'", "descriptions", 5),
    "repeated-entity-id-before-bad-relation-id": (
        lambda g: _with(g, entities=g["entities"] + (("e3", "again"),),
                        relations=g["relations"] + (("r\t5", "x"),)),
        "entities: duplicate entity id 'e3'", "entities", 5),
    "bad-relation-id-before-unknown-id": (
        lambda g: _with(g, relations=g["relations"] + (("r\n5", "x"),),
                        train=g["train"] + (("e1", "r1", "ghost"),)),
        "relations: relation id contains a tab or newline: 'r\\n5'", "relations", 4),
    "unknown-id-before-repeat-in-an-earlier-split": (
        lambda g: _with(g, train=g["train"] + g["train"][:1],
                        test=g["test"] + (("e1", "zz", "e2"),)),
        "test: unknown relation 'zz'", "test", 1),
    "first-unknown-in-split-order": (
        lambda g: _with(g, train=g["train"] + (("ghost", "r1", "e2"),),
                        valid=(("e1", "r1", "spook"),) + g["valid"]),
        "train: unknown head entity 'ghost'", "train", 5),
    "repeated-triple-before-bad-name": (
        lambda g: _with(g, valid=g["valid"] + g["train"][2:3],
                        entities=g["entities"][:1] + (("e2", "Daniel\tBernoulli"),)
                        + g["entities"][2:]),
        "valid: duplicate triple ('e1', 'r3', 'e2') (splits share triples: also in train)",
        "valid", 1),
}


@pytest.mark.parametrize("fault", sorted(BUILD_FAULTS))
def test_structure_errors_are_raised_at_build_in_the_loaders_precedence(family_kg, fault):
    change, message, table, row = BUILD_FAULTS[fault]
    with pytest.raises(ValidationError) as info:
        from_triples(**change(parts(family_kg)))
    assert (str(info.value), info.value.table, info.value.row) == (message, table, row)


@pytest.mark.parametrize("train", [(("e1", "r1"),), (("e1", "r1"), ("e2", "r1", "e1", "e3"))],
                         ids=["short", "short-then-long"])
def test_from_triples_rejects_a_triple_of_another_length(family_kg, train):
    with pytest.raises(ValueError, match="values to unpack"):
        from_triples(**_with(parts(family_kg), train=train))


def test_an_unknown_id_in_a_later_block_names_its_file_line(family_kg, tmp_path, monkeypatch):
    monkeypatch.setattr("kgsynth.kg._BLOCK_CHARS", 32)  # a few lines a block
    write_dataset(family_kg, tmp_path)
    train = (tmp_path / "train.tsv").read_text(encoding="utf-8")
    (tmp_path / "train.tsv").write_text(train + "\ne1\tr4\tghost\ne2\tzz\te1\n",
                                        encoding="utf-8")
    (tmp_path / "valid.tsv").write_text("spook\tr1\te1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^train.tsv:7: unknown tail entity 'ghost'$"):
        load_dataset(tmp_path)


def test_names_and_descriptions_are_checked_at_validate_and_write(family_kg, tmp_path):
    given = parts(family_kg)
    bad_name = given["entities"][:1] + (("e2", "Daniel\tBernoulli"),) + given["entities"][2:]
    bad_description = {**given["descriptions"], "e1": "Basel\n"}
    for changes, message in [
        # the name first, though the description comes first in entity order
        ({"entities": bad_name, "descriptions": bad_description},
         "entities: name contains a tab or newline: 'Daniel\\tBernoulli'"),
        ({"descriptions": bad_description},
         "descriptions: description contains a tab or newline: 'Basel\\n'"),
        ({"entities": (given["entities"][0], ("e2", "Bob\ud800"), *given["entities"][2:])},
         "entities: name is not encodable as UTF-8: 'Bob\\ud800'"),
        ({"relations": given["relations"][:3] + (("r4", "lived\udfffIn"),)},
         "relations: name is not encodable as UTF-8: 'lived\\udfffIn'"),
        ({"descriptions": {**given["descriptions"], "e3": "Basel \udc80 city"}},
         "descriptions: description is not encodable as UTF-8: 'Basel \\udc80 city'"),
    ]:
        kg = from_triples(**_with(given, **changes))  # the build checks neither
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            kg.validate()
        out = tmp_path / str(len(changes))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_dataset(kg, out)
        assert not out.exists()


def test_split_storage_is_per_row_not_per_object(tmp_path):
    # Two datasets with the same tables and descriptions, 2,000 and 20,000
    # train triples: the memory the larger holds beyond the smaller is its
    # rows (12 bytes a triple), after loading and after the suite, leakage
    # and training have run on it, so no step keeps a tuple per triple.
    rng = random.Random(3)
    n_entities, n_relations = 1000, 8
    entities = tuple((f"e{i}", f"entity {i}") for i in range(n_entities))
    relations = tuple((f"r{i}", f"relation {i}") for i in range(n_relations))
    descriptions = {f"e{i}": f"entity {i} is near entity {i * 7 % n_entities}"
                    for i in range(n_entities)}
    # one relation per (head, tail) pair, so every relation derangement is feasible
    pairs = rng.sample(range(n_entities * n_entities), 20100)
    triples = [(f"e{p // n_entities}", f"r{rng.randrange(n_relations)}", f"e{p % n_entities}")
               for p in pairs]
    for n in (2000, 20000):
        write_dataset(from_triples(entities, relations, tuple(triples[:n]),
                                   tuple(triples[20000:20050]), tuple(triples[20050:]),
                                   descriptions), tmp_path / str(n))

    def held(n, pipeline):
        gc.collect()
        tracemalloc.start()
        try:
            kg = load_dataset(tmp_path / str(n))
            if pipeline:
                assert all(result.ok for result in generate_suite(kg, 1, tmp_path / f"suite{n}"))
                description_leakage(kg)
                train(kg, TrainConfig(dim=4, epochs=1))
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held(2000, True)  # warm what the first calls cache beyond the graph
    for pipeline in (False, True):
        per_triple = (held(20000, pipeline) - held(2000, pipeline)) / 18000
        assert per_triple <= 16, (pipeline, per_triple)


# The row codec's reader, line by line: the reference the block reader matches.
def reference_read_rows(path, width):
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != width:
                raise ValidationError(
                    f"{path.name}:{lineno}: expected {width} tab-separated fields")
            yield lineno, cells


def reference_load(root):
    """The loader as tuples: the tables and splits read row by row, then
    ``from_triples(...).validate()`` under ``file_lines``."""
    files = {table: root / f"{table}.tsv"
             for table in ("entities", "relations", "descriptions", "train", "valid", "test")}
    entities = tuple((eid, name) for _, (eid, name) in reference_read_rows(files["entities"], 2))
    relations = tuple((rid, name) for _, (rid, name) in reference_read_rows(files["relations"], 2))
    rows = ([cells for _, cells in reference_read_rows(files["descriptions"], 2)]
            if files["descriptions"].is_file() else [])
    descriptions = dict(rows)
    entity_ids = {eid for eid, _ in entities}
    with file_lines(files):
        described = set()
        for row, (eid, _) in enumerate(rows):
            if eid not in entity_ids or eid in described:
                what = "unknown" if eid not in entity_ids else "duplicate"
                raise ValidationError(f"{what} entity {eid!r}", "descriptions", row)
            described.add(eid)
        descriptions.update((eid, "") for eid, _ in entities if eid not in descriptions)
        splits = {split: tuple(tuple(cells) for _, cells in reference_read_rows(files[split], 3))
                  for split in ("train", "valid", "test")}
        kg = from_triples(entities=entities, relations=relations, descriptions=descriptions,
                          **splits)
        kg.validate()
    return kg


# characters a reader that splits at str.splitlines would take for line ends
ODD = ["", "\x0c", "\x85", "\u2028", "\x1e"]


def _short(rng, tables):
    row = rng.choice([row for table in tables.values() for row in table] or [[]])
    del row[-1:]


def _long(rng, tables):
    rng.choice([row for table in tables.values() for row in table] or [[]]).append("extra")


def _unknown(rng, tables):
    rows = [row for split in ("train", "valid", "test") for row in tables[split] if len(row) == 3]
    if rows:
        rng.choice(rows)[rng.randrange(3)] = "ghost"


def _repeat(rng, tables):
    # a triple again, in its own split or in another, after or before it
    rows = [row for split in ("train", "valid", "test") for row in tables[split]]
    if rows:
        target = tables[rng.choice(("train", "valid", "test"))]
        target.insert(rng.randint(0, len(target)), list(rng.choice(rows)))


def _bad_description(rng, tables):
    rows = tables["descriptions"]
    extra = ["ghost", "text"] if rng.random() < 0.5 or not rows else list(rng.choice(rows))
    rows.insert(rng.randint(0, len(rows)), extra)


def _repeated_id(rng, tables):
    rows = tables[rng.choice(("entities", "relations"))]
    rows.insert(rng.randint(0, len(rows)), [rng.choice(rows)[0], "again"])


FAULTS = [_short, _long, _unknown, _repeat, _bad_description, _repeated_id]


def _write_random_dataset(rng, root):
    entities = [f"e{rng.choice(ODD)}{i}" for i in range(rng.randint(2, 9))]
    relations = [f"r{rng.choice(ODD)}{i}" for i in range(rng.randint(1, 3))]
    every = [[h, r, t] for h in entities for r in relations for t in entities]
    triples = rng.sample(every, rng.randint(0, min(len(every), 24)))
    cut = sorted(rng.randint(0, len(triples)) for _ in range(2))
    tables = {
        "entities": [[eid, f"name{rng.choice(ODD)}{eid}"] for eid in entities],
        "relations": [[rid, f"rel {rid}"] for rid in relations],
        "descriptions": [[eid, f"about{rng.choice(ODD)}{eid}"]
                         for eid in rng.sample(entities, rng.randint(0, len(entities)))],
        "train": triples[:cut[0]], "valid": triples[cut[0]:cut[1]], "test": triples[cut[1]:],
    }
    for fault in rng.sample(FAULTS, rng.choice([0, 0, 0, 1, 1, 2])):
        fault(rng, tables)
    root.mkdir()
    for table, rows in tables.items():
        if table == "descriptions" and rng.random() < 0.2:
            continue  # descriptions.tsv is optional
        lines = ["\t".join(row) + ("\r\n" if rng.random() < 0.01 else "\n") for row in rows]
        for _ in range(rng.choice([0, 0, 1, 3])):
            lines.insert(rng.randint(0, len(lines)), "\n")  # blank lines are skipped
        if lines and rng.random() < 0.3:
            lines[-1] = lines[-1].rstrip("\n")  # a last line without LF
        (root / f"{table}.tsv").write_bytes("".join(lines).encode("utf-8"))


def _outcome(load, root):
    try:
        return load(root), None
    except ValidationError as exc:
        return None, str(exc)


def test_loader_matches_a_tuple_reference_on_random_files(tmp_path):
    rng = random.Random(18)
    seen = {"loaded": 0, "rejected": 0}
    for trial in range(400):
        root = tmp_path / str(trial)
        _write_random_dataset(rng, root)
        kg, error = _outcome(load_dataset, root)
        expected, expected_error = _outcome(reference_load, root)
        assert error == expected_error, root
        if kg is None:
            seen["rejected"] += 1
            continue
        seen["loaded"] += 1
        assert kg == expected
        assert list(kg.descriptions.items()) == list(expected.descriptions.items())
        for name in ("train", "valid", "test"):
            assert tuple(kg.split(name)) == tuple(expected.split(name))
            assert np.array_equal(kg.split_rows[name], expected.split_rows[name])
        for table in ("entities", "relations", "descriptions", "train"):
            path = root / f"{table}.tsv"
            if path.is_file():
                width = 3 if table == "train" else 2
                assert list(read_rows(path, width)) == list(reference_read_rows(path, width))
    assert min(seen.values()) > 80, seen


@pytest.mark.parametrize("files, message", [
    # a bad descriptions.tsv row before an unknown split id
    ({"descriptions.tsv": "e1\ta\ne9\tz\n", "train.tsv": "e1\tr1\tghost\n"},
     "descriptions.tsv:2: unknown entity 'e9'"),
    # a short split row before a repeated entity id
    ({"entities.tsv": "e1\ta\ne2\tb\ne3\tc\ne4\td\ne5\te\ne1\tf\n", "test.tsv": "e1\tr1\n"},
     "test.tsv:1: expected 3 tab-separated fields"),
    # a repeated entity id before an unknown split id
    ({"entities.tsv": "e1\ta\ne2\tb\ne3\tc\ne4\td\ne5\te\ne1\tf\n", "valid.tsv": "x\tr1\te1\n"},
     "entities.tsv:6: duplicate entity id 'e1'"),
    # an unknown id in any split before a repeated triple in an earlier one
    ({"train.tsv": "e1\tr1\te3\ne1\tr1\te3\n", "valid.tsv": "e1\tzz\te2\n"},
     "valid.tsv:1: unknown relation 'zz'"),
    ({"train.tsv": "e1\tr1\te3\n\ne1\tzz\te3\n", "valid.tsv": "e1\tr1\te3\n"},
     "train.tsv:3: unknown relation 'zz'"),
    # an unknown id before a name with a carriage return
    ({"entities.tsv": "e1\ta\r\ne2\tb\ne3\tc\ne4\td\ne5\te\n", "test.tsv": "e9\tr1\te1\n"},
     "test.tsv:1: unknown head entity 'e9'"),
    # in one row, the head before the relation before the tail
    ({"test.tsv": "e1\tr1\te2\nq\tzz\tx\n"}, "test.tsv:2: unknown head entity 'q'"),
    ({"test.tsv": "e1\tzz\tx\n"}, "test.tsv:1: unknown relation 'zz'"),
])
def test_two_faults_keep_their_precedence(family_kg, tmp_path, files, message):
    write_dataset(family_kg, tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        reference_load(tmp_path)


def reference_mention_table(names, texts):
    """The table from one ``rewriter.spans`` per text, whose key numbers are
    the name ids, and one greedy selection per text, as plain lists."""
    name_id = {}
    row_names = [name_id.setdefault(name, len(name_id)) if name else -1 for name in names]
    index = rewriter.build_index(name_id)
    starts, ends, ids, offsets, taken = [], [], [], [0], []
    for text in texts:
        found_starts, found_ends, found_ids = (found.tolist()
                                               for found in rewriter.spans(index, text))
        starts += found_starts
        ends += found_ends
        ids += found_ids
        taken += rewriter.select(found_starts, found_ends)
        offsets.append(len(starts))
    return row_names, len(name_id), offsets, starts, ends, ids, taken


MENTION_KEYS = ["ab", "ab cd", "cd", "x-y", "x", "é", "Ab", "q\nr", "\nab", "-"]


def mention_texts(rng, n, names):
    """``n`` texts of keys, glue and names run into words; some are exactly a
    name, some empty, some start or end with a name."""
    pieces = MENTION_KEYS + [" ", " ", ", ", "z", "9", "(", ")", "\n"]
    texts = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            texts.append("")
        elif kind < 0.25:
            texts.append(rng.choice(names) or "ab")
        else:
            texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 9))))
    return texts


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, None])
def test_block_scanned_mention_table_equals_a_scan_per_text(monkeypatch, block):
    # Texts scanned a block of characters at a time, joined by newlines, give
    # the table of one scan per text: matches at both edges of a text and of
    # a block, in empty texts beside a block boundary, in texts longer than a
    # block, and no match of "q\nr" across two texts, though one inside a
    # text is kept.
    if block is not None:
        monkeypatch.setattr(kgmod, "_SCAN_CHARS", block)
    rng = random.Random(block or 0)
    n = 60
    for trial in range(40):
        names = [rng.choice(MENTION_KEYS + [""]) for _ in range(rng.randint(1, 12))]
        names += [rng.choice(MENTION_KEYS) for _ in range(n - len(names))]
        texts = mention_texts(rng, n if trial % 4 else rng.randint(1, n), names)
        if trial == 0:  # names at both sides of a text boundary, one across two texts
            texts[20:23] = ["ab q", "r cd", "x-y ab"]
            texts[0] = "q\nr"
            names[1] = "q\nr"
        table = kgmod.MentionTable.build(names[:len(texts)], texts)
        want = reference_mention_table(names[:len(texts)], texts)
        got = (table.names.tolist(), table.n_names, table.offsets.tolist(),
               table.starts.tolist(), table.ends.tolist(), table.ids.tolist(),
               table.taken.astype(int).tolist())
        assert got == want, (trial, texts)
        assert table.offsets.dtype == np.int64 and table.taken.dtype == bool
        assert all(a.dtype == np.int32 for a in (table.starts, table.ends, table.ids))


def test_mention_table_is_exact_when_distinct_spans_share_a_hash(monkeypatch):
    # With hash base 1 a span's hash is the sum of its code points, so keys
    # such as "ab cd" and "cd ab" collide, and so do unrelated spans; every
    # field of the table still equals the table built with the usual base.
    rng = random.Random(3)
    names = [rng.choice(MENTION_KEYS + ["cd ab", "ba", "dc", ""]) for _ in range(40)]
    texts = mention_texts(rng, 40, names)
    texts[:3] = ["ab cd cd ab ba ab", "dc cd x-y y-x", "ba ab cd ab"]
    want = kgmod.MentionTable.build(names, texts)
    monkeypatch.setattr(rewriter, "_HASH_BASE", 1)
    monkeypatch.setattr(kgmod, "_SCAN_CHARS", 64)
    got = kgmod.MentionTable.build(names, texts)
    for field in ("names", "offsets", "starts", "ends", "ids", "taken"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.n_names == want.n_names and len(got.starts) > 40


@pytest.fixture
def formats(monkeypatch):
    """Each split file written from its rows, as (split, directory name), in order."""
    made = []
    format_split = kgmod._Splits._format

    def counted(self, split, path, *args):
        made.append((split, os.path.basename(os.path.dirname(path))))
        return format_split(self, split, path, *args)

    monkeypatch.setattr(kgmod._Splits, "_format", counted)
    return made


def split_bytes(root):
    return {split: (root / f"{split}.tsv").read_bytes() for split in SPLITS}


def fresh_split_bytes(kg, root):
    """The split files a graph of ``kg``'s structure that has written nothing writes."""
    write_dataset(from_triples(kg.entities, kg.relations, kg.train, kg.valid, kg.test,
                               kg.descriptions), root)
    return split_bytes(root)


@pytest.mark.parametrize("per_variant", [False, True], ids=["one-call", "call-per-variant"])
def test_each_split_file_is_formatted_once_per_structure(family_kg, tmp_path, formats,
                                                         per_variant):
    # every variant keeps the input's rows, so the first one written formats
    # its split files and the other twelve copy them, across calls too
    if per_variant:
        results = [result for variant in SUITE_VARIANTS
                   for result in generate_suite(family_kg, 3, tmp_path / "suite",
                                                variants=(variant,))]
    else:
        results = generate_suite(family_kg, 3, tmp_path / "suite")
    assert len(results) == 13 and all(result.ok for result in results)
    assert formats == [(split, "base") for split in SPLITS]
    want = fresh_split_bytes(family_kg, tmp_path / "fresh")
    for result in results:
        assert split_bytes(result.path) == want, result.label


def _edit_in_place(path):
    """Other bytes of the same size, at the same modification time."""
    stat = path.stat()
    data = path.read_bytes()
    with open(path, "r+b") as fh:
        fh.write(data[::-1])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.read_bytes() != data and path.stat().st_size == stat.st_size


def _replace_by_rename(path):
    other = path.with_name("other.tsv")
    other.write_bytes(path.read_bytes()[::-1])
    os.replace(other, path)


RECORDED_FILE_CHANGES = {
    "same-size-in-place": _edit_in_place,
    "truncated": lambda path: os.truncate(path, path.stat().st_size // 2),
    "deleted": lambda path: path.unlink(),
    "replaced-by-rename": _replace_by_rename,
    "directory-removed": lambda path: shutil.rmtree(path.parent),
}


@pytest.mark.parametrize("change", RECORDED_FILE_CHANGES)
def test_a_changed_recorded_split_file_is_formatted_again(family_kg, tmp_path, formats, change):
    write_dataset(family_kg, tmp_path / "first")
    RECORDED_FILE_CHANGES[change](tmp_path / "first" / "train.tsv")
    del formats[:]
    write_dataset(family_kg, tmp_path / "second")
    # the second write formatted train.tsv again, and a third copies that file
    write_dataset(family_kg, tmp_path / "third")
    again = SPLITS if change == "directory-removed" else ("train",)
    assert formats == [(split, "second") for split in again]
    want = fresh_split_bytes(family_kg, tmp_path / "fresh")
    assert split_bytes(tmp_path / "second") == split_bytes(tmp_path / "third") == want


def test_writing_one_graph_twice_into_a_directory_reads_its_split_files_back(
        family_kg, tmp_path, formats):
    write_dataset(family_kg, tmp_path)
    first = split_bytes(tmp_path)
    inodes = [(tmp_path / f"{split}.tsv").stat().st_ino for split in SPLITS]
    write_dataset(family_kg, tmp_path)
    assert formats == [(split, tmp_path.name) for split in SPLITS]
    assert split_bytes(tmp_path) == first
    assert [(tmp_path / f"{split}.tsv").stat().st_ino for split in SPLITS] == inodes
    # a file changed under the record is written from the rows again
    _edit_in_place(tmp_path / "valid.tsv")
    write_dataset(family_kg, tmp_path)
    assert formats[3:] == [("valid", tmp_path.name)]
    assert split_bytes(tmp_path) == first


def test_variants_after_a_failed_one_write_whole_splits(family_kg, tmp_path, formats):
    # base writes its six dataset files, then fails at mapping.tsv, and its
    # directory, with the recorded split files, is removed
    (tmp_path / "base" / "mapping.tsv").mkdir(parents=True)
    results = {result.label: result for result in generate_suite(family_kg, 5, tmp_path)}
    assert "cannot write variant" in results["base"].error
    assert not (tmp_path / "base").exists()
    assert formats == [(split, label) for label in ("base", "vw-e") for split in SPLITS]
    for label, result in results.items():
        if label == "base":
            continue
        assert result.ok, label
        loaded = load_dataset(result.path)
        assert all(loaded.split(split) == family_kg.split(split) for split in SPLITS)


def test_an_id_utf8_cannot_encode_is_rejected_at_build():
    with pytest.raises(ValidationError,
                       match=r"^entities: entity id is not encodable as UTF-8: 'e\\udc802'$"):
        from_triples(entities=(("e1", "a"), ("e\udc802", "b")), relations=(("r1", "r"),),
                     train=(("e1", "r1", "e\udc802"),), valid=(), test=(), descriptions={})


def test_check_cells_names_the_first_cell_that_cannot_be_written():
    chunk = kgmod._CHECK_CELLS
    for at in (0, chunk - 1, chunk, 2 * chunk - 2):
        for first, second, fault in [("x\ud800", "y\tz", "is not encodable as UTF-8"),
                                     ("y\tz", "x\ud800", "contains a tab or newline")]:
            cells = [f"cell {i}" for i in range(2 * chunk)]
            cells[at:at + 2] = first, second
            with pytest.raises(ValidationError, match=f"^names: name {fault}: ") as info:
                kgmod._check_cells("names", cells, "name")
            assert info.value.row == at


def test_write_rows_names_the_line_utf8_cannot_encode(tmp_path, monkeypatch):
    monkeypatch.setattr(kgmod, "_BLOCK_CHARS", 16)
    rows = [("e1", "a b"), ("e2", "c"), ("e3", "d"), ("e4", "x\udc80y"), ("e5", "z")]
    path = tmp_path / "rows.tsv"
    with pytest.raises(ValidationError,
                       match=r"^rows\.tsv:4: row is not encodable as UTF-8: 'e4\\tx\\udc80y'$"):
        write_rows(path, rows)
    assert path.read_text(encoding="utf-8") == "e1\ta b\ne2\tc\ne3\td\n"  # the blocks before


def test_each_variant_of_text_utf8_cannot_encode_fails_alone(family_kg, tmp_path):
    given = parts(family_kg)
    kg = from_triples(**_with(given, descriptions={**given["descriptions"],
                                                   "e3": "Basel \udc80 city"}))
    results = generate_suite(kg, 7, tmp_path)
    # a variant that keeps the text fails at its validate; one that draws
    # every description anew writes the text into its mapping, and fails there
    assert len(results) == 13
    for result in results:
        fails_at = "mapping.tsv:" if result.kind == "fully_anonymized" else "descriptions:"
        assert result.error.startswith(fails_at), (result.label, result.error)
        assert "is not encodable as UTF-8" in result.error
        assert not (tmp_path / result.label).exists()
