import random

import pytest

from kgsynth.kg import from_triples


def make_kg(entities, relations, train, valid=(), test=(), descriptions=None):
    """Build a validated KnowledgeGraph from plain tuples through ``from_triples``.

    ``entities``/``relations`` may be (id, name) pairs or bare ids (the id
    doubles as the name); descriptions default to empty strings.
    """
    def pairs(items):
        return tuple((i, i) if isinstance(i, str) else tuple(i) for i in items)

    entity_pairs = pairs(entities)
    desc = {eid: "" for eid, _ in entity_pairs}
    if descriptions:
        desc.update(descriptions)
    kg = from_triples(
        entities=entity_pairs,
        relations=pairs(relations),
        train=tuple(tuple(t) for t in train),
        valid=tuple(tuple(t) for t in valid),
        test=tuple(tuple(t) for t in test),
        descriptions=desc,
    )
    kg.validate()
    return kg


@pytest.fixture
def family_kg():
    """Small people/places graph whose descriptions mention entity names."""
    return make_kg(
        entities=[
            ("e1", "Johann Bernoulli"),
            ("e2", "Daniel Bernoulli"),
            ("e3", "Basel"),
            ("e4", "Groningen"),
            ("e5", "Saint Petersburg"),
        ],
        relations=[("r1", "wasBornIn"), ("r2", "diedIn"), ("r3", "hasChild"), ("r4", "livedIn")],
        train=[
            ("e1", "r1", "e3"),
            ("e1", "r2", "e3"),
            ("e1", "r3", "e2"),
            ("e2", "r1", "e4"),
            ("e2", "r4", "e5"),
        ],
        valid=[("e2", "r2", "e3")],
        test=[("e2", "r3", "e1")],
        descriptions={
            "e1": "Johann Bernoulli was a mathematician born in Basel.",
            "e2": "Daniel Bernoulli, son of Johann Bernoulli, worked in Saint Petersburg.",
            "e3": "Basel is a city on the Rhine.",
            "e4": "Groningen is a city in the Netherlands.",
            "e5": "Saint Petersburg is a large city.",
        },
    )


def random_kg(rng: random.Random, n_entities=8, n_relations=3, n_train=10, n_valid=2, n_test=2,
              unique_pairs=False):
    """Random small KG for fuzzing; splits are disjoint by construction.

    With ``unique_pairs`` no (head, tail) pair repeats, so every relation
    derangement is unconstrained and feasible.
    """
    entities = [(f"e{i}", f"entity {i}") for i in range(n_entities)]
    relations = [(f"r{i}", f"rel{i}") for i in range(n_relations)]
    seen = set()
    used_pairs = set()
    triples = []
    attempts = 0
    while len(triples) < n_train + n_valid + n_test and attempts < 10000:
        attempts += 1
        h = f"e{rng.randrange(n_entities)}"
        r = f"r{rng.randrange(n_relations)}"
        t = f"e{rng.randrange(n_entities)}"
        if (h, r, t) in seen or (unique_pairs and (h, t) in used_pairs):
            continue
        seen.add((h, r, t))
        used_pairs.add((h, t))
        triples.append((h, r, t))
    split_a = n_train
    split_b = n_train + n_valid
    descriptions = {
        f"e{i}": f"entity {i} relates to entity {(i + 1) % n_entities}" for i in range(n_entities)
    }
    return make_kg(
        entities, relations,
        train=triples[:split_a], valid=triples[split_a:split_b], test=triples[split_b:],
        descriptions=descriptions,
    )
