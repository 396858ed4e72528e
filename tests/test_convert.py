"""Source-line reporting of the converters."""

import re

import pytest

from kgsynth.convert import convert_kgbert, convert_wikidata5m
from kgsynth.errors import ValidationError
from kgsynth.kg import load_dataset


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
