"""Text-blind entry points read a graph's structure only: on a graph whose
names and descriptions raise when read, each gives the bits it gives on the
real graph."""

import random

import numpy as np
import pytest

from kgsynth.analysis import relation_distribution
from kgsynth.evaluate import evaluate_predictions, filter_rows, rank_split
from kgsynth.kg import KnowledgeGraph, compute_stats
from kgsynth.transe import (
    TrainConfig,
    evaluate_model,
    init_model,
    probe_loss,
    rank_queries,
    train,
)

from conftest import random_kg


class Opaque:
    """A text table of which every read raises: iteration, length, an item,
    a key, a membership test or a view."""

    def _read(self, *args, **kwargs):
        raise AssertionError("a text-blind entry point read a name or a description")

    __iter__ = __len__ = __getitem__ = __contains__ = _read
    keys = values = items = get = _read


@pytest.fixture(scope="module")
def graphs():
    """A graph with names, descriptions and every split, and the same
    structure under text that raises when read."""
    kg = random_kg(random.Random(41), n_entities=30, n_relations=4, n_train=80, n_valid=12,
                   n_test=12)
    assert kg.valid and kg.test
    opaque = Opaque()
    return kg, KnowledgeGraph(opaque, opaque, opaque, kg.structure)


def same_model(a, b) -> bool:
    return (a.entity_ids == b.entity_ids and a.relation_ids == b.relation_ids
            and a.entity_vectors.tobytes() == b.entity_vectors.tobytes()
            and a.relation_vectors.tobytes() == b.relation_vectors.tobytes())


def test_the_opaque_graph_raises_on_its_text(graphs):
    _, blind = graphs
    for read in (lambda: len(blind.entities), lambda: list(blind.relations),
                 lambda: blind.descriptions["e0"], lambda: blind.descriptions.values(),
                 lambda: blind.mentions):
        with pytest.raises(AssertionError, match="text-blind"):
            read()


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_training_and_ranking_read_no_text(graphs, norm):
    kg, blind = graphs
    config = TrainConfig(dim=6, epochs=3, learning_rate=0.05, norm=norm, seed=9, batch_size=16)
    assert same_model(init_model(blind, 6, 3, norm), init_model(kg, 6, 3, norm))
    model = train(blind, config)
    assert same_model(model, train(kg, config))
    assert probe_loss(model, blind, seed=4) == probe_loss(model, kg, seed=4)
    for split in ("test", "valid"):
        for filtered in (True, False):
            ranks = rank_queries(model, blind, split, filtered)
            assert np.array_equal(ranks, rank_queries(model, kg, split, filtered))
    assert evaluate_model(model, blind) == evaluate_model(model, kg)


def test_filtering_predictions_and_counts_read_no_text(graphs, tmp_path):
    kg, blind = graphs
    rows = np.concatenate([kg.test.rows, kg.train.rows[:20]])
    for got, want in zip(filter_rows(blind, rows), filter_rows(kg, rows)):
        assert np.array_equal(got, want)

    def count_rivals(queries, known, relation, gold, rivals):
        return np.array([len(found) for found in rivals]) + queries.start % 3

    for filtered in (True, False):
        assert np.array_equal(rank_split(blind, "valid", filtered, count_rivals),
                              rank_split(kg, "valid", filtered, count_rivals))
    # ranked candidate lists: a seeded shuffle of the entities, some cut short
    rng = random.Random(6)
    path = tmp_path / "predictions.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in kg.test:
            for direction in ("tail", "head"):
                candidates = rng.sample(kg.entity_ids, rng.randint(1, len(kg.entity_ids)))
                fh.write(f"{h}\t{r}\t{t}\t{direction}\t{','.join(candidates)}\n")
    for filtered in (True, False):
        assert (evaluate_predictions(blind, path, filtered)
                == evaluate_predictions(kg, path, filtered))
    assert relation_distribution(blind) == relation_distribution(kg)
    assert compute_stats(blind) == compute_stats(kg)
