"""The run record: every command writes one manifest row per parameter it takes."""

from pathlib import Path

import pytest

from kgsynth.cli import cli, main
from kgsynth.kg import read_rows, write_dataset

from conftest import make_kg

HEAD = ["command", "input", "output", "version"]
TAIL = ["started_at", "finished_at"]

# command line with {data}/{src}/{out} placeholders, the manifest it writes, the keys
# between HEAD and TAIL, and some cells as the manifest formats them
RUNS = {
    "stats": (["stats", "--input", "{data}", "--output", "{out}/stats.tsv"],
              "stats.tsv.manifest.tsv", ["stream"], {"stream": "false"}),
    "convert": (["convert", "--format", "kgbert", "--input", "{src}/kgbert",
                 "--output", "{out}/conv", "--gloss-split"],
                "conv/manifest.tsv", ["format", "gloss_split"], {"gloss_split": "true"}),
    "transform": (["transform", "--input", "{data}", "--output", "{out}/variant",
                   "--recipe", "virtual-world", "--targets", "relations,entities", "--seed", "3"],
                  "variant/manifest.tsv", ["seed", "recipe", "targets"],
                  {"seed": "3", "targets": "entities,relations"}),
    "suite": (["suite", "--input", "{data}", "--output", "{out}/suite"],
              "suite/manifest.tsv", ["seed"], {"seed": "0"}),
    "relation-dist": (["relation-dist", "--input", "{data}", "--output", "{out}/rd.tsv"],
                      "rd.tsv.manifest.tsv", [], {}),
    "leakage": (["leakage", "--input", "{data}", "--output", "{out}/leak.tsv"],
                "leak.tsv.manifest.tsv", [], {}),
    "train-baseline": (["train-baseline", "--input", "{data}", "--output", "{out}/model",
                        "--dim", "4", "--epochs", "1", "--margin", "2"],
                       "model/manifest.tsv",
                       ["seed", "batch_size", "dim", "epochs", "eval_split", "learning_rate",
                        "margin", "negatives", "norm"],
                       {"margin": "2.0", "learning_rate": "0.01", "eval_split": "none"}),
    "evaluate": (["evaluate", "--input", "{data}", "--predictions", "{src}/preds.tsv",
                  "--raw", "--output", "{out}/eval.tsv"],
                 "eval.tsv.manifest.tsv", ["filtered", "predictions"], {"filtered": "false"}),
    "correlate": (["correlate", "--input", "{src}/series.tsv", "--output", "{out}/corr.tsv"],
                  "corr.tsv.manifest.tsv", [], {}),
    "outliers": (["outliers", "1", "2", "3", "4", "100", "--output", "{out}/o.tsv"],
                 "o.tsv.manifest.tsv", ["values"], {"values": "1.0,2.0,3.0,4.0,100.0"}),
}


@pytest.fixture
def sources(family_kg, tmp_path):
    src = tmp_path / "src"
    write_dataset(family_kg, src / "data")
    with open(src / "preds.tsv", "w", encoding="utf-8") as fh:
        for h, r, t in family_kg.test:
            fh.write(f"{h}\t{r}\t{t}\ttail\te4,{t}\n{h}\t{r}\t{t}\thead\t{h}\n")
    (src / "series.tsv").write_text("a\tb\n1\t2\n2\t4\n3\t7\n", encoding="utf-8")
    kgbert = src / "kgbert"
    kgbert.mkdir()
    (kgbert / "entity2text.txt").write_text("e1\tAlpha, first\ne2\tBeta, second\n",
                                            encoding="utf-8")
    (kgbert / "relation2text.txt").write_text("r1\tprecedes\n", encoding="utf-8")
    (kgbert / "train.tsv").write_text("e1\tr1\te2\n", encoding="utf-8")
    (kgbert / "dev.tsv").write_text("e2\tr1\te1\n", encoding="utf-8")
    (kgbert / "test.tsv").write_text("", encoding="utf-8")
    return src


@pytest.mark.parametrize("name", sorted(RUNS))
def test_manifest_has_one_row_per_parameter(name, sources, tmp_path, capsys):
    args, manifest, keys, expected = RUNS[name]
    out = tmp_path / "out"
    places = {"data": sources / "data", "src": sources, "out": out}
    args = [arg.format(**places) for arg in args]
    assert main(args) == 0, capsys.readouterr().err
    rows = [tuple(cells) for _, cells in read_rows(out / manifest, 2)]
    assert [key for key, _ in rows] == HEAD + keys + TAIL
    assert len(rows) == len(cli.commands[name].params) + 4  # + command, version, times
    cells = dict(rows)
    assert (cells["command"], cells["output"]) == (name, args[args.index("--output") + 1])
    assert cells["input"] == (args[args.index("--input") + 1] if "--input" in args else "-")
    assert {key: cells[key] for key in expected} == expected


def _infeasible_source(root: Path) -> Path:
    # three relations over one (head, tail) pair: no relation-name derangement exists
    kg = make_kg(
        entities=[("e1", "A"), ("e2", "B"), ("e3", "C")],
        relations=[("r1", "one"), ("r2", "two"), ("r3", "three")],
        train=[("e1", "r1", "e2"), ("e1", "r2", "e2"), ("e1", "r3", "e2")],
        descriptions={"e1": "a", "e2": "b", "e3": "c"},
    )
    write_dataset(kg, root)
    return root


def test_suite_with_failed_variants_is_recorded(tmp_path, capsys):
    src = _infeasible_source(tmp_path / "src")
    out = tmp_path / "out"
    assert main(["suite", "--input", str(src), "--output", str(out), "--seed", "2"]) == 3
    assert "variant(s) failed" in capsys.readouterr().err
    cells = dict(tuple(c) for _, c in read_rows(out / "manifest.tsv", 2))
    assert (cells["command"], cells["seed"]) == ("suite", "2")


def test_failed_transform_leaves_no_manifest_in_an_existing_directory(tmp_path, capsys):
    src = _infeasible_source(tmp_path / "src")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["transform", "--input", str(src), "--output", str(out),
                 "--recipe", "virtual-world", "--targets", "relations", "--seed", "1"]) == 3
    assert list(out.iterdir()) == []
