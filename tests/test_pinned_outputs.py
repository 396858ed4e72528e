"""Byte-level pins of the variant files for fixed seeds.

``generate_suite`` runs on three graphs: the ``family_kg`` fixture, a
``random_kg`` graph whose constrained relation derangements are infeasible,
so three of its variants fail, and a ``random_kg`` graph with few (head, tail)
pairs and many relations, whose constrained relation derangements succeed
around many removed name pairs. Every file the suite writes (dataset files,
``mapping.tsv``, ``recipe.tsv``) is pinned by its sha256, keyed by
``<label>/<file>``, and so is each failed variant's error text. The files of
one ``kgsynth transform`` run are pinned the same way, except its manifest,
which holds paths and timestamps. So are the checkpoint and ``metrics.tsv``
of ``kgsynth train-baseline --eval-split test`` runs, for both norms and for
dims below 8, between 8 and 128 with leftover dims, and above 128: the three
summation orders of numpy's ``sum`` that the scoring reproduces. The vectors
``transe.train`` returns on a 9,000-triple graph are pinned for both norms
and for batches of one pair, of a few pairs with several negatives, of several
batches per block of pairs, of one batch wider than a block and of one batch
wider than the split. The pins live in ``data/pinned_outputs.json``; a change
that alters any of these bytes must say why and update them.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from kgsynth.cli import main
from kgsynth.kg import from_triples, write_dataset
from kgsynth.transe import TrainConfig, train
from kgsynth.transform import generate_suite

from conftest import random_kg

PINS = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text(
    encoding="utf-8"))


def tree_digests(root: Path, skip=()) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in skip
    }


def infeasible_random_kg():
    # The third graph drawn from this stream admits no constrained relation
    # derangement.
    rng = random.Random(3)
    for _ in range(2):
        random_kg(rng)
    return random_kg(rng)


def constrained_random_kg():
    # 36 triples over 14 (head, tail) pairs of 4 entities and 12 relations:
    # 70 of the 132 ordered relation-name pairs are removed, and a constrained
    # derangement still exists.
    return random_kg(random.Random(17), n_entities=4, n_relations=12, n_train=28, n_valid=4,
                     n_test=4)


def wide_random_kg():
    # 40 entities and 30 test triples: 60 ranks spread over 40 places
    return random_kg(random.Random(23), n_entities=40, n_relations=3, n_train=80, n_valid=10,
                     n_test=30)


def suite_outputs(kg, seed: int, root: Path) -> dict:
    results = generate_suite(kg, seed=seed, output_dir=root)
    return {
        "files": tree_digests(root),
        "errors": {r.label: r.error for r in results if not r.ok},
    }


@pytest.mark.parametrize("name,seed", [("family_kg", 11), ("random_kg", 2),
                                       ("constrained_random_kg", 5)])
def test_suite_bytes_are_pinned(name, seed, family_kg, tmp_path):
    kg = {"family_kg": lambda: family_kg, "random_kg": infeasible_random_kg,
          "constrained_random_kg": constrained_random_kg}[name]()
    assert suite_outputs(kg, seed, tmp_path) == PINS[name]


def test_transform_command_bytes_are_pinned(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path / "data")
    out = tmp_path / "variant"
    assert main([
        "transform", "--input", str(tmp_path / "data"), "--output", str(out),
        "--recipe", "inconsistent-descriptions", "--targets", "entities", "--seed", "7",
    ]) == 0
    assert tree_digests(out, skip={"manifest.tsv"}) == PINS["transform_command"]


@pytest.mark.parametrize("dim", [5, 12, 150])
@pytest.mark.parametrize("norm", ["L1", "L2"])
@pytest.mark.parametrize("name", ["family_kg", "wide_random_kg"])
def test_train_baseline_bytes_are_pinned(name, norm, dim, family_kg, tmp_path):
    kg = {"family_kg": lambda: family_kg, "wide_random_kg": wide_random_kg}[name]()
    write_dataset(kg, tmp_path / "data")
    out = tmp_path / "model"
    assert main([
        "train-baseline", "--input", str(tmp_path / "data"), "--output", str(out),
        "--dim", str(dim), "--norm", norm, "--epochs", "5", "--learning-rate", "0.05",
        "--seed", "3", "--eval-split", "test",
    ]) == 0
    assert tree_digests(out, skip={"manifest.tsv"}) == PINS["train_baseline"][f"{name}/{norm}/{dim}"]


def training_kg():
    # 9,000 distinct train triples over 1,500 entities and 6 relations: with
    # two or more negatives a triple, more pairs than a block of them
    n_entities, n_relations, n_train = 1500, 6, 9000
    keys = np.random.default_rng(29).choice(n_entities * n_relations * n_entities, n_train,
                                            replace=False)
    h, r, t = np.unravel_index(keys, (n_entities, n_relations, n_entities))
    return from_triples([(f"e{i}", f"e{i}") for i in range(n_entities)],
                        [(f"r{i}", f"r{i}") for i in range(n_relations)],
                        [(f"e{a}", f"r{b}", f"e{c}")
                         for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())], (), (), {})


@pytest.mark.parametrize("batch_size,negatives,epochs", [
    (1, 2, 1), (7, 3, 1), (1024, 1, 2), (5000, 2, 2), (20_000, 3, 2), (10**6, 1, 2),
])
@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_trained_vectors_are_pinned(norm, batch_size, negatives, epochs):
    model = train(training_kg(), TrainConfig(
        dim=8, norm=norm, learning_rate=0.05, epochs=epochs, seed=3,
        negatives_per_positive=negatives, batch_size=batch_size))
    digest = hashlib.sha256(model.entity_vectors.tobytes() + model.relation_vectors.tobytes())
    assert digest.hexdigest() == PINS["train"][f"{norm}/{batch_size}/{negatives}/{epochs}"]
