"""Source-line reporting of the converters."""

import re

import pytest

from kgsynth.convert import convert_wikidata5m
from kgsynth.errors import ValidationError


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
