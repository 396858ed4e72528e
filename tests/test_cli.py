from pathlib import Path

import pytest

from kgsynth.cli import main
from kgsynth.kg import compute_stats, from_triples, load_dataset, write_dataset
from kgsynth.transform import SUITE_VARIANTS

from conftest import make_kg


def emptied(kg, split):
    """``kg`` with ``split`` emptied, built again from its triples."""
    splits = {name: () if name == split else kg.split(name) for name in ("train", "valid", "test")}
    return from_triples(kg.entities, kg.relations, descriptions=kg.descriptions, **splits)


@pytest.fixture
def dataset_dir(family_kg, tmp_path):
    root = tmp_path / "data"
    write_dataset(family_kg, root)
    return root


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "kgsynth" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_stats_prints_counts(dataset_dir, capsys):
    assert main(["stats", "--input", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert "n_entities\t5" in out
    assert "n_train\t5" in out


def test_stats_stream_matches_full(dataset_dir, capsys):
    assert main(["stats", "--input", str(dataset_dir)]) == 0
    full = capsys.readouterr().out
    assert main(["stats", "--input", str(dataset_dir), "--stream"]) == 0
    assert capsys.readouterr().out == full


def test_stats_missing_directory_is_usage_error(tmp_path):
    assert main(["stats", "--input", str(tmp_path / "nope")]) == 1


def test_stats_malformed_dataset_is_data_error(dataset_dir, capsys):
    (dataset_dir / "train.tsv").write_text("e1\tr1\tghost\n", encoding="utf-8")
    assert main(["stats", "--input", str(dataset_dir)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_transform_writes_variant_and_manifest(dataset_dir, tmp_path, capsys):
    out = tmp_path / "variant"
    code = main([
        "transform", "--input", str(dataset_dir), "--output", str(out),
        "--recipe", "virtual-world", "--targets", "entities,relations", "--seed", "42",
    ])
    assert code == 0
    assert (out / "entities.tsv").is_file()
    assert (out / "mapping.tsv").is_file()
    assert (out / "recipe.tsv").is_file()
    assert (out / "manifest.tsv").is_file()
    manifest = (out / "manifest.tsv").read_text(encoding="utf-8")
    assert "command\ttransform" in manifest
    assert "seed\t42" in manifest


def test_transform_same_seed_regenerates_same_bytes(dataset_dir, tmp_path):
    args = lambda out: [
        "transform", "--input", str(dataset_dir), "--output", str(out),
        "--recipe", "anonymized-entities", "--targets", "entities", "--seed", "7",
    ]
    assert main(args(tmp_path / "one")) == 0
    assert main(args(tmp_path / "two")) == 0
    for name in ("entities.tsv", "descriptions.tsv", "mapping.tsv", "recipe.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_transform_infeasible_recipe_exit_code(tmp_path, capsys):
    kg = make_kg(
        entities=[("e1", "A"), ("e2", "B")],
        relations=[("r1", "one"), ("r2", "two")],
        train=[("e1", "r1", "e2"), ("e1", "r2", "e2")],
    )
    src = tmp_path / "src"
    write_dataset(kg, src)
    code = main([
        "transform", "--input", str(src), "--output", str(tmp_path / "out"),
        "--recipe", "virtual-world", "--targets", "relations", "--seed", "1",
    ])
    assert code == 3
    assert "derangement" in capsys.readouterr().err


def test_transform_bad_targets_is_usage_error(dataset_dir, tmp_path):
    code = main([
        "transform", "--input", str(dataset_dir), "--output", str(tmp_path / "o"),
        "--recipe", "virtual-world", "--targets", "colors", "--seed", "1",
    ])
    assert code == 1


def test_suite_emits_thirteen_directories(dataset_dir, tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["suite", "--input", str(dataset_dir), "--output", str(out), "--seed", "5"]) == 0
    labels = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(labels) == 13
    assert "base" in labels and "vw-er" in labels and "fullanon-erd" in labels
    assert (out / "manifest.tsv").is_file()


def test_suite_partial_failure_exit_code(tmp_path, capsys):
    kg = make_kg(
        entities=[("e1", "A"), ("e2", "B"), ("e3", "C")],
        relations=[("r1", "one"), ("r2", "two"), ("r3", "three")],
        train=[("e1", "r1", "e2"), ("e1", "r2", "e2"), ("e1", "r3", "e2")],
        descriptions={"e1": "a", "e2": "b", "e3": "c"},
    )
    src = tmp_path / "src"
    write_dataset(kg, src)
    code = main(["suite", "--input", str(src), "--output", str(tmp_path / "out"), "--seed", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert "vw-r: FAILED" in captured.err
    assert (tmp_path / "out" / "anon-er" / "entities.tsv").is_file()
    assert (tmp_path / "out" / "manifest.tsv").is_file()


def test_suite_variant_failing_on_io_is_a_data_error(dataset_dir, tmp_path, capsys):
    out = tmp_path / "suite"
    out.mkdir()
    (out / "vw-e").write_text("in the way\n", encoding="utf-8")  # blocks vw-e's directory
    code = main(["suite", "--input", str(dataset_dir), "--output", str(out), "--seed", "5"])
    assert code == 2
    assert "1 variant(s) failed: vw-e" in capsys.readouterr().err
    assert (out / "vw-e").read_text(encoding="utf-8") == "in the way\n"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(
        label for label, _, _ in SUITE_VARIANTS if label != "vw-e")
    assert (out / "manifest.tsv").is_file()


def test_suite_input_that_fails_to_load_writes_no_manifest(dataset_dir, tmp_path, capsys):
    (dataset_dir / "train.tsv").write_text("e1\tr1\tghost\n", encoding="utf-8")
    out = tmp_path / "suite"
    assert main(["suite", "--input", str(dataset_dir), "--output", str(out), "--seed", "5"]) == 2
    assert "ghost" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_gold_first_predictions(dataset_dir, family_kg, tmp_path, capsys):
    preds = tmp_path / "preds.tsv"
    with open(preds, "w", encoding="utf-8") as fh:
        for h, r, t in family_kg.test:
            fh.write(f"{h}\t{r}\t{t}\ttail\t{t}\n")
            fh.write(f"{h}\t{r}\t{t}\thead\t{h}\n")
    code = main(["evaluate", "--input", str(dataset_dir), "--predictions", str(preds),
                 "--filtered"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hits@10\t1.0" in out


def test_evaluate_incomplete_predictions_is_data_error(dataset_dir, tmp_path, capsys):
    preds = tmp_path / "preds.tsv"
    preds.write_text("", encoding="utf-8")
    assert main(["evaluate", "--input", str(dataset_dir), "--predictions", str(preds)]) == 2


def test_evaluate_line_for_a_non_test_query_is_data_error(dataset_dir, family_kg, tmp_path,
                                                         capsys):
    preds = tmp_path / "preds.tsv"
    with open(preds, "w", encoding="utf-8") as fh:
        for h, r, t in family_kg.test:
            fh.write(f"{h}\t{r}\t{t}\ttail\t{t}\n")
            fh.write(f"{h}\t{r}\t{t}\thead\t{h}\n")
        h, r, t = family_kg.train[0]
        fh.write(f"{h}\t{r}\t{t}\ttail\t{t}\n")
    assert main(["evaluate", "--input", str(dataset_dir), "--predictions", str(preds)]) == 2
    assert "preds.tsv:3:" in capsys.readouterr().err


def test_evaluate_empty_test_split_is_data_error(family_kg, tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(emptied(family_kg, "test"), data)
    preds = tmp_path / "preds.tsv"
    preds.write_text("", encoding="utf-8")
    assert main(["evaluate", "--input", str(data), "--predictions", str(preds)]) == 2
    assert "test split is empty" in capsys.readouterr().err


def test_relation_dist_and_leakage_print_tables(dataset_dir, capsys):
    assert main(["relation-dist", "--input", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#relation\tTrain")
    assert main(["leakage", "--input", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert "Total (%)" in out


def test_correlate_command(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\tb\n1\t2\n2\t4\n3\t6\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 0
    out = capsys.readouterr().out
    assert "1.000000" in out


def test_correlate_zero_variance_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\tb\n1\t5\n2\t5\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 2
    assert "b" in capsys.readouterr().err


def test_correlate_non_numeric_cell_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\tb\n1\t2\n2\tx\n3\t6\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 2
    assert "series.tsv:3: could not convert string to float: 'x'" in capsys.readouterr().err


def test_correlate_ragged_row_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\tb\n1\t2\n2\n3\t6\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 2
    assert "series.tsv:3: expected 2 tab-separated fields" in capsys.readouterr().err


def test_correlate_repeated_column_name_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\ta\n1\t2\n2\t4\n3\t7\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 2
    assert "series.tsv:1: repeated column name 'a'" in capsys.readouterr().err


def test_outliers_command(capsys):
    assert main(["outliers", "1", "2", "3", "4", "100"]) == 0
    out = capsys.readouterr().out
    assert "outliers\t100.0" in out


def test_outliers_too_few_values(capsys):
    assert main(["outliers", "1", "2"]) == 1


def test_outliers_input_file(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("1\n2\n\n3\n4\n", encoding="utf-8")
    assert main(["outliers", "100", "--input", str(values)]) == 0
    assert "outliers\t100.0" in capsys.readouterr().out


def test_outliers_non_numeric_input_is_data_error(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("1\n2\n\nx\n4\n", encoding="utf-8")
    assert main(["outliers", "--input", str(values)]) == 2
    assert "values.txt:4: could not convert string to float: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_outliers_non_finite_value_is_usage_error(value, capsys):
    # a NaN would hide the outlier 100 behind NaN quartiles
    assert main(["outliers", "1", "2", "3", "4", "--", value, "100"]) == 1
    assert f"non-finite value '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_outliers_non_finite_input_is_data_error(value, tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text(f"1\n2\n\n{value}\n4\n100\n", encoding="utf-8")
    assert main(["outliers", "--input", str(values)]) == 2
    assert capsys.readouterr().err == f"error: values.txt:4: non-finite value '{value}'\n"


def test_correlate_non_finite_cell_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.tsv"
    series.write_text("a\tb\n1\t2\n2\tnan\n3\t6\n", encoding="utf-8")
    assert main(["correlate", "--input", str(series)]) == 2
    assert capsys.readouterr().err == "error: series.tsv:3: non-finite value 'nan'\n"


def test_train_baseline_writes_checkpoint_and_metrics(dataset_dir, tmp_path, capsys):
    out = tmp_path / "model"
    code = main([
        "train-baseline", "--input", str(dataset_dir), "--output", str(out),
        "--dim", "4", "--epochs", "2", "--seed", "1",
        "--eval-split", "test",
    ])
    assert code == 0
    assert (out / "entity_vectors.tsv").is_file()
    assert (out / "model.tsv").is_file()
    assert (out / "metrics.tsv").is_file()
    assert (out / "manifest.tsv").is_file()
    assert "mrr\t" in capsys.readouterr().out


@pytest.mark.parametrize("split, eval_split", [
    ("train", "none"), ("test", "test"), ("valid", "valid"),
])
def test_train_baseline_empty_split_is_data_error_and_writes_nothing(
        family_kg, tmp_path, capsys, split, eval_split):
    data = tmp_path / "data"
    write_dataset(emptied(family_kg, split), data)
    out = tmp_path / "model"
    code = main([
        "train-baseline", "--input", str(data), "--output", str(out),
        "--dim", "4", "--epochs", "1", "--eval-split", eval_split,
    ])
    assert code == 2
    assert f"{split} split of {data} is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--margin", "nan", "non-finite value 'nan'"),
    ("--margin", "inf", "non-finite value 'inf'"),
    ("--learning-rate", "-0.5", "-0.5 is not in the range x>=0"),
    ("--learning-rate", "nan", "non-finite value 'nan'"),
    ("--learning-rate", "inf", "non-finite value 'inf'"),
])
def test_train_baseline_bad_margin_or_learning_rate_is_usage_error(dataset_dir, tmp_path, capsys,
                                                                   option, value, message):
    out = tmp_path / "model"
    code = main([
        "train-baseline", "--input", str(dataset_dir), "--output", str(out),
        "--dim", "4", "--epochs", "1", option, value,
    ])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_baseline_is_reproducible(dataset_dir, tmp_path):
    vectors = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([
            "train-baseline", "--input", str(dataset_dir), "--output", str(out),
            "--dim", "4", "--epochs", "3",
        ]) == 0
        vectors.append((out / "entity_vectors.tsv").read_bytes())
    assert vectors[0] == vectors[1]
    manifest = (tmp_path / "a" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    assert "batch_size\t1024" in manifest


@pytest.mark.parametrize("command", [
    ["suite", "--seed", "1"],
    ["stats"],
    ["train-baseline", "--dim", "4", "--epochs", "1"],
])
def test_unwritable_output_is_an_io_error(dataset_dir, tmp_path, capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    args = [*command, "--input", str(dataset_dir), "--output", str(blocker / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_output_file_gets_sibling_manifest(dataset_dir, tmp_path):
    target = tmp_path / "stats.tsv"
    assert main(["stats", "--input", str(dataset_dir), "--output", str(target)]) == 0
    assert target.is_file()
    assert (tmp_path / "stats.tsv.manifest.tsv").is_file()


# --- convert ---------------------------------------------------------------------------

def _kgbert_fixture(root: Path) -> None:
    root.mkdir()
    (root / "entity2text.txt").write_text(
        "e1\tAlpha, the first letter of the alphabet\n"
        "e2\tBeta, the second letter\n"
        "e3\tGamma, the third letter\n",
        encoding="utf-8",
    )
    (root / "relation2text.txt").write_text(
        "r1\tprecedes\nr2\tfollows\n", encoding="utf-8"
    )
    (root / "train.tsv").write_text("e1\tr1\te2\ne2\tr1\te3\n", encoding="utf-8")
    (root / "dev.tsv").write_text("e2\tr2\te1\n", encoding="utf-8")
    (root / "test.tsv").write_text("e3\tr2\te2\n", encoding="utf-8")


def test_convert_kgbert_with_gloss_split(tmp_path):
    src = tmp_path / "src"
    _kgbert_fixture(src)
    out = tmp_path / "out"
    code = main(["convert", "--format", "kgbert", "--input", str(src),
                 "--output", str(out), "--gloss-split"])
    assert code == 0
    kg = load_dataset(out)
    assert compute_stats(kg).as_tuple() == (3, 2, 2, 1, 1)
    assert kg.entity_names["e1"] == "Alpha"
    assert kg.descriptions["e1"] == "the first letter of the alphabet"


def test_convert_kgbert_rejects_a_triple_listed_twice(tmp_path, capsys):
    src = tmp_path / "src"
    _kgbert_fixture(src)
    (src / "train.tsv").write_text("e1\tr1\te2\ne1\tr1\te2\n", encoding="utf-8")
    assert main(["convert", "--format", "kgbert", "--input", str(src),
                 "--output", str(tmp_path / "out")]) == 2
    assert "train.tsv:2: duplicate triple ('e1', 'r1', 'e2')" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("x\tr1\te2", "unknown head entity 'x'"),
    ("e1\tzz\te2", "unknown relation 'zz'"),
    ("e1\tr1\tx", "unknown tail entity 'x'"),
    ("e2\tr2\te1", "duplicate triple ('e2', 'r2', 'e1') (splits share triples: also in dev.tsv)"),
])
def test_convert_kgbert_reports_a_bad_triple_as_the_loader_does(tmp_path, capsys, line, message):
    src = tmp_path / "src"
    _kgbert_fixture(src)
    (src / "test.tsv").write_text(f"e3\tr2\te2\n{line}\n", encoding="utf-8")
    assert main(["convert", "--format", "kgbert", "--input", str(src),
                 "--output", str(tmp_path / "out")]) == 2
    assert f"test.tsv:2: {message}" in capsys.readouterr().err


def test_convert_rejected_source_writes_no_output(tmp_path, capsys):
    # kgbert: train.tsv repeats its first triple on line 3, after two good rows
    src = tmp_path / "src"
    _kgbert_fixture(src)
    (src / "train.tsv").write_text("e1\tr1\te2\ne2\tr1\te3\ne1\tr1\te2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convert", "--format", "kgbert", "--input", str(src), "--output", str(out)]) == 2
    assert "train.tsv:3: duplicate triple" in capsys.readouterr().err
    assert not out.exists()

    # wikidata5m: the text file, read after every split, has a line without a tab
    src = tmp_path / "wd"
    src.mkdir()
    (src / "wikidata5m_entity.txt").write_text("Q1\tuniverse\nQ2\tEarth\n", encoding="utf-8")
    (src / "wikidata5m_relation.txt").write_text("P1\tpart of\n", encoding="utf-8")
    (src / "wikidata5m_text.txt").write_text("Q1\tall of space\nQ2 no tab\n", encoding="utf-8")
    (src / "wikidata5m_transductive_train.txt").write_text("Q2\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_valid.txt").write_text("Q1\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_test.txt").write_text("Q2\tP1\tQ2\n", encoding="utf-8")
    out = tmp_path / "wd-out"
    assert main(["convert", "--format", "wikidata5m", "--input", str(src),
                 "--output", str(out)]) == 2
    assert "wikidata5m_text.txt:2: expected id<TAB>text" in capsys.readouterr().err
    assert not out.exists()


def test_convert_kgbert_without_gloss_split(tmp_path):
    src = tmp_path / "src"
    _kgbert_fixture(src)
    out = tmp_path / "out"
    assert main(["convert", "--format", "kgbert", "--input", str(src), "--output", str(out)]) == 0
    kg = load_dataset(out)
    assert kg.entity_names["e1"] == "Alpha, the first letter of the alphabet"
    assert kg.descriptions["e1"] == ""


def test_convert_wikidata5m_layout(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "wikidata5m_entity.txt").write_text(
        "Q1\tuniverse\tcosmos\nQ2\tEarth\tthe planet\nQ9\tunused entity\n", encoding="utf-8"
    )
    (src / "wikidata5m_relation.txt").write_text("P1\tpart of\n", encoding="utf-8")
    (src / "wikidata5m_text.txt").write_text(
        "Q1\tall of space\tand time\nQ2\tthird planet\n", encoding="utf-8"
    )
    (src / "wikidata5m_transductive_train.txt").write_text("Q2\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_valid.txt").write_text("Q1\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_test.txt").write_text("Q2\tP1\tQ2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convert", "--format", "wikidata5m", "--input", str(src),
                 "--output", str(out)]) == 0
    kg = load_dataset(out)
    assert compute_stats(kg).as_tuple() == (2, 1, 1, 1, 1)
    assert kg.entity_names == {"Q2": "Earth", "Q1": "universe"}
    assert kg.descriptions["Q1"] == "all of space and time"  # embedded tab flattened
    assert "Q9" not in kg.entity_names  # alias entries outside the triples are dropped


def test_convert_wikidata5m_rejects_a_triple_in_two_splits(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "wikidata5m_entity.txt").write_text("Q1\tuniverse\nQ2\tEarth\n", encoding="utf-8")
    (src / "wikidata5m_relation.txt").write_text("P1\tpart of\n", encoding="utf-8")
    (src / "wikidata5m_transductive_train.txt").write_text("Q2\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_valid.txt").write_text("Q1\tP1\tQ1\n", encoding="utf-8")
    (src / "wikidata5m_transductive_test.txt").write_text(
        "Q1\tP1\tQ2\n\nQ2\tP1\tQ1\n", encoding="utf-8"
    )
    assert main(["convert", "--format", "wikidata5m", "--input", str(src),
                 "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "wikidata5m_transductive_test.txt:3: duplicate triple ('Q2', 'P1', 'Q1')" in err
