"""One full user session driven through the CLI surface only."""

import random

from kgsynth.cli import main


def _write_public_style_dataset(root, rng):
    root.mkdir()
    n = 12
    names = {f"e{i}": f"place {i}, a town numbered {i}" for i in range(n)}
    with open(root / "entity2text.txt", "w", encoding="utf-8") as fh:
        for eid, text in names.items():
            fh.write(f"{eid}\t{text}\n")
    with open(root / "relation2text.txt", "w", encoding="utf-8") as fh:
        fh.write("r0\troad to\nr1\tferry to\nr2\ttrail to\n")
    triples = []
    seen_pairs = set()
    while len(triples) < 20:
        h, t = rng.sample(range(n), 2)
        if (h, t) in seen_pairs:
            continue
        seen_pairs.add((h, t))
        triples.append((f"e{h}", f"r{rng.randrange(3)}", f"e{t}"))
    with open(root / "train.tsv", "w", encoding="utf-8") as fh:
        for h, r, t in triples[:16]:
            fh.write(f"{h}\t{r}\t{t}\n")
    with open(root / "dev.tsv", "w", encoding="utf-8") as fh:
        for h, r, t in triples[16:18]:
            fh.write(f"{h}\t{r}\t{t}\n")
    with open(root / "test.tsv", "w", encoding="utf-8") as fh:
        for h, r, t in triples[18:]:
            fh.write(f"{h}\t{r}\t{t}\n")


def test_full_cli_session(tmp_path, capsys):
    rng = random.Random(0)
    raw = tmp_path / "raw"
    _write_public_style_dataset(raw, rng)

    data = tmp_path / "data"
    assert main(["convert", "--format", "kgbert", "--input", str(raw),
                 "--output", str(data), "--gloss-split"]) == 0

    assert main(["stats", "--input", str(data), "--stream"]) == 0
    assert "n_entities\t12" in capsys.readouterr().out

    suite_dir = tmp_path / "suite"
    assert main(["suite", "--input", str(data), "--output", str(suite_dir),
                 "--seed", "3"]) == 0
    capsys.readouterr()

    assert main(["relation-dist", "--input", str(suite_dir / "anon-er")]) == 0
    assert main(["leakage", "--input", str(suite_dir / "vw-er")]) == 0
    capsys.readouterr()

    metrics = {}
    for label in ("base", "vw-er", "fullanon-erd"):
        out = tmp_path / f"model-{label}"
        assert main([
            "train-baseline", "--input", str(suite_dir / label), "--output", str(out),
            "--dim", "8", "--epochs", "10", "--learning-rate", "0.05",
            "--seed", "11", "--eval-split", "test",
        ]) == 0
        metrics[label] = (out / "metrics.tsv").read_bytes()
    capsys.readouterr()

    # the text-blind baseline cannot tell the variants apart
    assert metrics["base"] == metrics["vw-er"] == metrics["fullanon-erd"]
