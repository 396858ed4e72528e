import random

import pytest

from kgsynth import kg as kg_module
from kgsynth import rewriter, textgen
from kgsynth.analysis import description_leakage
from kgsynth.derangement import build_removed_edges
from kgsynth.errors import ValidationError
from kgsynth.kg import SPLITS, from_triples, load_dataset, write_dataset
from kgsynth.transform import (
    RECIPES,
    SUITE_VARIANTS,
    TransformRecipe,
    apply_recipe,
    generate_suite,
)

from conftest import make_kg, random_kg
from test_rewriter import quadratic_rewrite


def name_triples(kg):
    ent = kg.entity_names
    rel = kg.relation_names
    return {
        split: [(ent[h], rel[r], ent[t]) for h, r, t in kg.split(split)]
        for split in SPLITS
    }


def assert_structure_preserved(before, after, mapping):
    """The recorded bijections must map the original name-level triples exactly."""
    ent = {eid: mapping.entity_map.get(eid, name) for eid, name in before.entities}
    rel = {rid: mapping.relation_map.get(rid, name) for rid, name in before.relations}
    for split in SPLITS:
        expected = [(ent[h], rel[r], ent[t]) for h, r, t in before.split(split)]
        assert name_triples(after)[split] == expected, split
    assert after.train == before.train
    assert after.valid == before.valid
    assert after.test == before.test


def assert_no_fixed_points(before, mapping):
    for eid, new_name in mapping.entity_map.items():
        assert new_name != before.entity_names[eid]
    for rid, new_name in mapping.relation_map.items():
        assert new_name != before.relation_names[rid]


# --- virtual_world -------------------------------------------------------------

def test_virtual_world_entities_swaps_names_and_mentions(family_kg):
    out, mapping = apply_recipe(family_kg, "virtual_world", {"entities"}, 3)
    assert_structure_preserved(family_kg, out, mapping)
    assert_no_fixed_points(family_kg, mapping)
    assert sorted(mapping.entity_map.values()) == sorted(n for _, n in family_kg.entities)
    m = mapping.entity_map
    assert out.descriptions["e1"] == f"{m['e1']} was a mathematician born in {m['e3']}."
    assert (
        out.descriptions["e2"]
        == f"{m['e2']}, son of {m['e1']}, worked in {m['e5']}."
    )
    assert out.relations == family_kg.relations


def test_virtual_world_relations_respect_removed_edges(family_kg):
    removed = build_removed_edges(family_kg)
    assert ("wasBornIn", "diedIn") in removed
    for seed in range(8):
        out, mapping = apply_recipe(family_kg, "virtual_world", {"relations"}, seed)
        assert_structure_preserved(family_kg, out, mapping)
        assert_no_fixed_points(family_kg, mapping)
        for rid, new_name in mapping.relation_map.items():
            assert (family_kg.relation_names[rid], new_name) not in removed
        assert out.descriptions == family_kg.descriptions
        assert out.entities == family_kg.entities


def test_virtual_world_triples_untouched(family_kg):
    out, _ = apply_recipe(family_kg, "virtual_world", {"entities", "relations"}, 1)
    assert (out.train, out.valid, out.test) == (family_kg.train, family_kg.valid, family_kg.test)


def test_virtual_world_requires_name_targets(family_kg):
    with pytest.raises(ValueError):
        apply_recipe(family_kg, "virtual_world", set(), 0)
    with pytest.raises(ValueError):
        apply_recipe(family_kg, "virtual_world", {"descriptions"}, 0)


# --- anonymized_entities ---------------------------------------------------------

def test_anonymized_names_are_fresh_random_strings(family_kg):
    out, mapping = apply_recipe(family_kg, "anonymized_entities", {"entities", "relations"}, 5)
    assert_structure_preserved(family_kg, out, mapping)
    originals = {n for _, n in family_kg.entities} | {n for _, n in family_kg.relations}
    new_names = list(mapping.entity_map.values()) + list(mapping.relation_map.values())
    assert len(set(new_names)) == len(new_names)
    assert not set(new_names) & originals
    # mentions now reference the random strings
    assert mapping.entity_map["e3"] in out.descriptions["e1"]
    assert "Basel" not in out.descriptions["e1"]


def test_anonymized_deterministic_byte_for_byte(family_kg, tmp_path):
    a, _ = apply_recipe(family_kg, "anonymized_entities", {"entities"}, 42)
    b, _ = apply_recipe(family_kg, "anonymized_entities", {"entities"}, 42)
    write_dataset(a, tmp_path / "a")
    write_dataset(b, tmp_path / "b")
    for name in ("entities.tsv", "descriptions.tsv", "train.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_anonymized_distinct_seeds_differ(family_kg):
    a, _ = apply_recipe(family_kg, "anonymized_entities", {"entities"}, 1)
    b, _ = apply_recipe(family_kg, "anonymized_entities", {"entities"}, 2)
    assert a.entities != b.entities


# --- inconsistent_descriptions ----------------------------------------------------

def test_inconsistent_swap_on_two_entities():
    kg = make_kg(
        entities=[("e1", "Alpha"), ("e2", "Beta")],
        relations=[("r1", "rel")],
        train=[("e1", "r1", "e2")],
        descriptions={"e1": "first text", "e2": "second text"},
    )
    out, mapping = apply_recipe(kg, "inconsistent_descriptions", {"descriptions"}, 0)
    assert out.descriptions == {"e1": "second text", "e2": "first text"}
    assert out.entities == kg.entities
    assert mapping.description_map == {"e1": "e2", "e2": "e1"}


def test_inconsistent_descriptions_travel_with_names(family_kg):
    out, mapping = apply_recipe(
        family_kg, "inconsistent_descriptions", {"descriptions", "entities"}, 4
    )
    assert_structure_preserved(family_kg, out, mapping)
    original_names = family_kg.entity_names
    original_descs = family_kg.descriptions
    for eid, source in mapping.description_map.items():
        assert source != eid
        # name and description moved together from the same source entity
        assert out.entity_names[eid] == original_names[source]
        assert out.descriptions[eid] == original_descs[source]
    # mentions inside the moved descriptions are NOT rewritten
    carrier = next(eid for eid, src in mapping.description_map.items() if src == "e1")
    assert "Johann Bernoulli" in out.descriptions[carrier]
    assert "Basel" in out.descriptions[carrier]


def test_inconsistent_assignment_never_identity(family_kg):
    for seed in range(10):
        _, mapping = apply_recipe(family_kg, "inconsistent_descriptions", {"descriptions"}, seed)
        assert all(src != eid for eid, src in mapping.description_map.items())


def test_inconsistent_with_relations_only_still_deranges_descriptions(family_kg):
    out, mapping = apply_recipe(
        family_kg, "inconsistent_descriptions", {"descriptions", "relations"}, 6
    )
    assert out.entities == family_kg.entities
    assert all(src != eid for eid, src in mapping.description_map.items())
    assert mapping.relation_map
    assert_structure_preserved(family_kg, out, mapping)


# --- fully_anonymized ---------------------------------------------------------------

def test_fully_anonymized_descriptions_are_opaque(family_kg):
    out, mapping = apply_recipe(family_kg, "fully_anonymized", {"descriptions", "entities"}, 8)
    assert_structure_preserved(family_kg, out, mapping)
    names = {n for _, n in out.entities} | {n for _, n in out.relations}
    descs = list(out.descriptions.values())
    assert len(set(descs)) == len(descs)
    assert not set(descs) & names
    originals = set(family_kg.descriptions.values())
    assert not set(descs) & originals
    assert mapping.description_map == out.descriptions


def test_fully_anonymized_structure_unchanged(family_kg):
    out, _ = apply_recipe(family_kg, "fully_anonymized", {"descriptions"}, 9)
    assert (out.train, out.valid, out.test) == (family_kg.train, family_kg.valid, family_kg.test)
    assert out.entities == family_kg.entities
    assert out.relations == family_kg.relations


# --- recipe plumbing ------------------------------------------------------------------

def test_recipe_validation_rules():
    TransformRecipe("virtual_world", frozenset({"entities"}), 0).validate()
    with pytest.raises(ValueError):
        TransformRecipe("virtual_world", frozenset(), 0).validate()
    with pytest.raises(ValueError):
        TransformRecipe("fully_anonymized", frozenset({"entities"}), 0).validate()
    with pytest.raises(ValueError):
        TransformRecipe("nope", frozenset({"entities"}), 0).validate()
    TransformRecipe("base", frozenset(), 0).validate()
    with pytest.raises(ValueError):
        TransformRecipe("base", frozenset({"entities"}), 0).validate()


def test_apply_recipe_dispatch(family_kg):
    out, mapping = apply_recipe(family_kg, "fully_anonymized", {"descriptions"}, 3)
    assert mapping.recipe.kind == "fully_anonymized"
    assert mapping.recipe.targets == frozenset({"descriptions"})
    with pytest.raises(ValueError):
        apply_recipe(family_kg, "mystery", {"entities"}, 0)


# --- suite ---------------------------------------------------------------------------

def test_suite_generates_thirteen_valid_variants(family_kg, tmp_path):
    results = generate_suite(family_kg, seed=11, output_dir=tmp_path)
    assert [r.label for r in results] == [label for label, _, _ in SUITE_VARIANTS]
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    for result in results:
        variant = load_dataset(result.path)
        assert len(variant.entities) == len(family_kg.entities)
        assert len(variant.relations) == len(family_kg.relations)
        assert len(variant.train) == len(family_kg.train)
        assert (result.path / "mapping.tsv").is_file()
        assert (result.path / "recipe.tsv").is_file()


def test_suite_base_is_canonical_rewrite(family_kg, tmp_path):
    generate_suite(family_kg, seed=1, output_dir=tmp_path / "suite")
    write_dataset(family_kg, tmp_path / "canonical")
    for name in ("entities.tsv", "relations.tsv", "train.tsv", "valid.tsv", "test.tsv",
                 "descriptions.tsv"):
        assert (tmp_path / "suite" / "base" / name).read_bytes() == (
            tmp_path / "canonical" / name
        ).read_bytes()


def test_suite_is_deterministic(family_kg, tmp_path):
    generate_suite(family_kg, seed=21, output_dir=tmp_path / "one")
    generate_suite(family_kg, seed=21, output_dir=tmp_path / "two")
    for label, _, _ in SUITE_VARIANTS:
        for name in ("entities.tsv", "relations.tsv", "descriptions.tsv", "mapping.tsv"):
            assert (tmp_path / "one" / label / name).read_bytes() == (
                tmp_path / "two" / label / name
            ).read_bytes(), (label, name)


def test_suite_structure_preserved_everywhere(family_kg, tmp_path):
    results = generate_suite(family_kg, seed=31, output_dir=tmp_path)
    for result in results:
        if result.kind == "base":
            continue
        after = load_dataset(result.path)
        assert_structure_preserved(family_kg, after, result.mapping)


def test_suite_reports_per_variant_failures(tmp_path):
    # Three relations that all co-occur on the same (head, tail) leave no
    # feasible constrained relation derangement.
    kg = make_kg(
        entities=[("e1", "A"), ("e2", "B"), ("e3", "C")],
        relations=[("r1", "one"), ("r2", "two"), ("r3", "three")],
        train=[("e1", "r1", "e2"), ("e1", "r2", "e2"), ("e1", "r3", "e2")],
        descriptions={"e1": "a text", "e2": "b text", "e3": "c text"},
    )
    results = {r.label: r for r in generate_suite(kg, seed=2, output_dir=tmp_path)}
    for label in ("vw-r", "vw-er", "incons-erd"):
        assert not results[label].ok
        assert "derangement" in results[label].error
    for label in ("base", "vw-e", "anon-e", "anon-r", "anon-er", "incons-d",
                  "incons-ed", "fullanon-d", "fullanon-ed", "fullanon-erd"):
        assert results[label].ok, results[label].error


def test_mapping_file_round_trips_the_name_maps(family_kg, tmp_path):
    results = {r.label: r for r in generate_suite(family_kg, seed=13, output_dir=tmp_path)}
    result = results["vw-er"]
    rows = [
        line.split("\t")
        for line in (result.path / "mapping.tsv").read_text(encoding="utf-8").splitlines()
    ]
    entity_rows = {row[1]: (row[2], row[3]) for row in rows if row[0] == "entity"}
    assert set(entity_rows) == set(family_kg.entity_ids)
    for eid, (old, new) in entity_rows.items():
        assert old == family_kg.entity_names[eid]
        assert new == result.mapping.entity_map[eid]


def test_suite_accepts_custom_variant_list(family_kg, tmp_path):
    variants = (
        ("only-anon", "anonymized_entities", frozenset({"entities"})),
        ("only-swap", "inconsistent_descriptions", frozenset({"descriptions"})),
    )
    results = generate_suite(family_kg, seed=4, output_dir=tmp_path, variants=variants)
    assert [r.label for r in results] == ["only-anon", "only-swap"]
    assert all(r.ok for r in results)
    assert (tmp_path / "only-swap" / "recipe.tsv").read_text(encoding="utf-8").splitlines()[1] \
        == "kind\tinconsistent_descriptions"


def test_mapping_file_description_rows(family_kg, tmp_path):
    results = {r.label: r for r in generate_suite(family_kg, seed=19, output_dir=tmp_path)}
    result = results["fullanon-d"]
    rows = [
        line.split("\t")
        for line in (result.path / "mapping.tsv").read_text(encoding="utf-8").splitlines()
    ]
    desc_rows = {row[1]: (row[2], row[3]) for row in rows if row[0] == "description"}
    assert set(desc_rows) == set(family_kg.entity_ids)
    variant = load_dataset(result.path)
    for eid, (old, new) in desc_rows.items():
        assert old == family_kg.descriptions[eid]
        assert new == variant.descriptions[eid]
        assert old != new


def test_recipes_leave_input_untouched(family_kg):
    before = (family_kg.entities, family_kg.relations, dict(family_kg.descriptions))
    for kind in RECIPES:
        targets = set() if kind == "base" else {"entities", "relations"}
        apply_recipe(family_kg, kind, targets, 0)
        assert (family_kg.entities, family_kg.relations, family_kg.descriptions) == before, kind


def test_recipes_on_random_kgs_preserve_structure():
    rng = random.Random(12)
    for trial in range(15):
        kg = random_kg(rng, n_entities=10, n_relations=4, n_train=14, n_valid=3, n_test=3)
        for kind, targets in [
            ("virtual_world", {"entities"}),
            ("anonymized_entities", {"entities", "relations"}),
            ("inconsistent_descriptions", {"descriptions", "entities"}),
            ("fully_anonymized", {"descriptions", "entities", "relations"}),
        ]:
            try:
                out, mapping = apply_recipe(kg, kind, targets, seed=trial)
            except Exception as exc:  # noqa: BLE001 - infeasibility is legitimate here
                from kgsynth.errors import InfeasibleError

                assert isinstance(exc, InfeasibleError), exc
                continue
            assert_structure_preserved(kg, out, mapping)
            assert_no_fixed_points(kg, mapping)


# Names that stress the greedy scanner: prefixes and suffixes of other names,
# an empty name, non-ASCII letters (é, Æ, ß) and digits (٣) at boundaries.
MENTION_NAMES = ["New York", "York", "New", "York City", "Zürich", "Zürich 2", "ßé", "é",
                 "٣", "x٣", "a b", "b", "Æon", ""]
# Glue between tokens: some of it is a boundary, some is a word character.
MENTION_GLUE = [" ", " ", "-", ".", "", "é", "٣", "_"]


def mention_kg(rng):
    """Random graph whose entities share names (homonyms, several empty) and
    whose descriptions mention them, run them into neighbouring word
    characters, or mention nothing at all."""
    names = list(MENTION_NAMES)
    n = len(names)
    for _ in range(4):  # homonyms, one name at most five times so it deranges
        names[rng.randrange(n)] = rng.choice(MENTION_NAMES)
    rng.shuffle(names)
    descriptions = {}
    for i in range(n):
        if rng.random() < 0.2:
            descriptions[f"e{i}"] = rng.choice(["", "nothing to see here"])
            continue
        words = [rng.choice(MENTION_NAMES + ["town", "Yorker"]) for _ in range(rng.randint(1, 8))]
        descriptions[f"e{i}"] = "".join(word + rng.choice(MENTION_GLUE) for word in words)
    entities = [(f"e{i}", name) for i, name in enumerate(names)]
    # one relation per (head, tail) pair, so every relation derangement is feasible
    pairs = rng.sample([(h, t) for h in range(n) for t in range(n)], 20)
    triples = [(f"e{h}", f"r{rng.randrange(3)}", f"e{t}") for h, t in pairs]
    return make_kg(entities, [(f"r{i}", f"rel{i}") for i in range(3)], train=triples,
                   descriptions=descriptions)


REWRITING_VARIANTS = [(label, kind, targets) for label, kind, targets in SUITE_VARIANTS
                      if RECIPES[kind].descriptions == "rewrite" and "entities" in targets]


def test_rewriting_variants_match_a_per_variant_rewrite():
    # The suite splices into the graph's one mention table; the oracle builds
    # each variant's own index and rescans, and the quadratic reference too.
    assert [label for label, _, _ in REWRITING_VARIANTS] == ["vw-e", "vw-er", "anon-e", "anon-er"]
    rng = random.Random(31)
    changed = unmentioned = 0
    for trial in range(40):
        kg = mention_kg(rng)
        for _, kind, targets in REWRITING_VARIANTS:
            out, mapping = apply_recipe(kg, kind, targets, seed=trial)
            # one replacement per name: the new name of its first entity row
            name_map = {}
            for eid, name in kg.entities:
                if name and name not in name_map:
                    name_map[name] = mapping.entity_map[eid]
            index = rewriter.build_index(name_map)
            assert out.descriptions == {eid: rewriter.rewrite_text(index, text)
                                        for eid, text in kg.descriptions.items()}
            assert out.descriptions == {eid: quadratic_rewrite(name_map, text)
                                        for eid, text in kg.descriptions.items()}
            changed += sum(out.descriptions[e] != kg.descriptions[e] for e in kg.entity_ids)
        unmentioned += int((kg.mentions.offsets[1:] == kg.mentions.offsets[:-1]).sum())
    assert changed > 500 and unmentioned > 50, (changed, unmentioned)


@pytest.mark.parametrize("variants, one_call_each, scans", [
    (SUITE_VARIANTS, False, 1),
    (SUITE_VARIANTS, True, 1),
    (tuple(v for v in SUITE_VARIANTS if v[1] in ("base", "inconsistent_descriptions",
                                                  "fully_anonymized")), False, 0),
], ids=["one-suite-call", "one-call-per-variant", "no-rewriting-variant"])
def test_descriptions_are_scanned_once_per_graph(monkeypatch, tmp_path, variants, one_call_each,
                                                 scans):
    kg = mention_kg(random.Random(5))
    calls = []
    spans = rewriter.spans

    def counting(index, text):
        calls.append(text)
        return spans(index, text)

    def run_suite(kg):
        for batch in ([(v,) for v in variants] if one_call_each else [variants]):
            results = generate_suite(kg, 3, tmp_path, variants=batch)
            assert all(result.ok for result in results)

    # the scans take the descriptions a block at a time, joined by newlines
    texts = "\n".join(kg.descriptions[eid] for eid in kg.entity_ids)
    monkeypatch.setattr(rewriter, "spans", counting)
    run_suite(kg)
    # one scan covers every description once
    assert "\n".join(calls) == "\n".join([texts] * scans)
    # the leakage statistic reads the same scan, or makes it when no suite did
    description_leakage(kg)
    assert "\n".join(calls) == texts

    calls.clear()
    kg = mention_kg(random.Random(5))
    description_leakage(kg)
    run_suite(kg)
    assert "\n".join(calls) == texts



NEEDS_NO_FIT_OR_PAIRS = tuple(v for v in SUITE_VARIANTS
                              if v[0] in ("base", "vw-e", "incons-d", "incons-ed"))


@pytest.mark.parametrize("variants, one_call_each, builds", [
    (SUITE_VARIANTS, False, 1),
    (SUITE_VARIANTS, True, 1),
    (NEEDS_NO_FIT_OR_PAIRS, False, 0),
], ids=["one-suite-call", "one-call-per-variant", "no-sampling-or-relation-variant"])
def test_unigram_fit_and_relation_pairs_are_built_once_per_graph(
        monkeypatch, family_kg, tmp_path, variants, one_call_each, builds):
    kg = rebuilt(family_kg)  # a fresh copy, with nothing built yet
    fits, pair_builds = [], []
    fit = textgen.fit_unigram
    pairs = kg_module.Structure.relation_pairs
    build_pairs = pairs.func

    def counting_fit(corpus):
        fits.append(corpus)
        return fit(corpus)

    def counting_pairs(splits):
        pair_builds.append(splits)
        return build_pairs(splits)

    monkeypatch.setattr(textgen, "fit_unigram", counting_fit)
    monkeypatch.setattr(pairs, "func", counting_pairs)
    for batch in ([(v,) for v in variants] if one_call_each else [variants]):
        assert all(result.ok for result in generate_suite(kg, 3, tmp_path, variants=batch))
    assert len(fits) == builds and len(pair_builds) == builds
    assert build_removed_edges(kg) == {("wasBornIn", "diedIn"), ("diedIn", "wasBornIn")}

    # a graph renamed from this one shares its relation pairs and fits its own names
    renamed = kg.renamed(tuple((eid, name.upper()) for eid, name in kg.entities),
                         kg.relations, kg.descriptions)
    relation_variants = tuple(v for v in SUITE_VARIANTS if v[0] in ("vw-r", "anon-er"))
    assert all(result.ok for result in generate_suite(renamed, 3, tmp_path / "renamed",
                                                      variants=relation_variants))
    assert len(pair_builds) == 1 and len(fits) == builds + 1
    assert fits[-1][:len(kg.entities)] == [name for _, name in renamed.entities]


# --- what renamed graphs share ---------------------------------------------------------

def rebuilt(kg):
    """``kg`` built again from its triples: equal to it, and sharing none of its caches."""
    return from_triples(kg.entities, kg.relations, kg.train, kg.valid, kg.test, kg.descriptions)


def tree_bytes(root):
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("make", [lambda kg: kg, lambda kg: mention_kg(random.Random(5))],
                         ids=["family", "mentions"])
def test_one_call_per_variant_writes_the_suite_bytes(family_kg, tmp_path, make):
    kg = make(family_kg)
    # a fresh copy, so the one-call suite builds its caches from scratch
    assert all(r.ok for r in generate_suite(rebuilt(kg), 17, tmp_path / "one"))
    # no variant writes before base: each shares and fills the graph's split caches
    for variant in reversed(SUITE_VARIANTS):
        assert all(r.ok for r in generate_suite(kg, 17, tmp_path / "each", variants=(variant,)))
    assert tree_bytes(tmp_path / "each") == tree_bytes(tmp_path / "one")
    assert len(tree_bytes(tmp_path / "one")) == 8 * len(SUITE_VARIANTS)


@pytest.mark.parametrize("change, message", [
    (lambda e, r, d: (((e[0][0], "Johann\tBernoulli"),) + e[1:], r, d), "entities: name contains"),
    (lambda e, r, d: (e, r[:-1] + ((r[-1][0], "lived\rIn"),), d), "relations: name contains"),
    (lambda e, r, d: (e, r, {**d, "e3": "Basel\n"}), "descriptions: description contains"),
    (lambda e, r, d: (e, r, {k: v for k, v in d.items() if k != "e4"}),
     "descriptions out of sync"),
], ids=["entity-name", "relation-name", "description", "missing-description"])
def test_renamed_graph_cells_are_checked_on_every_write(family_kg, tmp_path, change, message):
    write_dataset(family_kg, tmp_path / "base")  # the shared split checks have passed
    renamed = family_kg.renamed(*change(family_kg.entities, family_kg.relations,
                                        family_kg.descriptions))
    with pytest.raises(ValidationError, match=message):
        write_dataset(renamed, tmp_path / "variant")
    assert not (tmp_path / "variant").exists()


def test_suite_builds_and_checks_its_graph_structure_once(family_kg, tmp_path, monkeypatch):
    # the input's structure was built and checked with the graph: the suite builds none
    built = []
    build = kg_module.Structure.__init__

    def counted_build(self, *args):
        built.append(self)
        build(self, *args)

    monkeypatch.setattr(kg_module.Structure, "__init__", counted_build)
    assert all(r.ok for r in generate_suite(family_kg, 17, tmp_path))
    out, _ = apply_recipe(family_kg, "fully_anonymized", {"entities", "relations"}, 17)
    assert built == [] and out.structure is family_kg.structure


def test_renamed_graph_keeps_the_ids_in_order(family_kg):
    with pytest.raises(ValueError, match="ids"):
        family_kg.renamed(family_kg.entities[::-1], family_kg.relations, family_kg.descriptions)
    with pytest.raises(ValueError, match="ids"):
        family_kg.renamed(family_kg.entities, family_kg.relations[1:], family_kg.descriptions)


def test_unvalidated_graph_is_rejected_at_its_first_variant(family_kg, tmp_path):
    # a name is checked at every write, so the variants that keep it reject it
    entities = (("e1", "Johann\tBernoulli"),) + family_kg.entities[1:]
    kg = from_triples(entities, family_kg.relations, family_kg.train, family_kg.valid,
                      family_kg.test, family_kg.descriptions)
    for label in ("fullanon-d", "incons-d", "base"):
        variant = next(v for v in SUITE_VARIANTS if v[0] == label)
        [result] = generate_suite(kg, 5, tmp_path, variants=(variant,))
        assert result.error == "entities: name contains a tab or newline: 'Johann\\tBernoulli'"
        assert not (tmp_path / label).exists()
    # an id in no table is a build error: no graph holds one
    with pytest.raises(ValidationError, match=r"^test: unknown tail entity 'ghost'$"):
        from_triples(family_kg.entities, family_kg.relations, family_kg.train, family_kg.valid,
                     (("e2", "r3", "ghost"),), family_kg.descriptions)


def test_a_variant_that_cannot_write_its_mapping_fails_alone(family_kg, tmp_path):
    (tmp_path / "incons-d" / "mapping.tsv").mkdir(parents=True)
    results = generate_suite(family_kg, 5, tmp_path)
    assert len(results) == len(SUITE_VARIANTS) == 13
    assert [r.label for r in results if not r.ok] == ["incons-d"]
    assert results[7].label == "incons-d" and "mapping.tsv" in results[7].error
    # the failed variant leaves no directory that would load as a dataset
    assert not (tmp_path / "incons-d").exists()
    for result in results[:7] + results[8:]:
        assert load_dataset(tmp_path / result.label).entity_ids == family_kg.entity_ids
        assert (tmp_path / result.label / "recipe.tsv").is_file(), result.label


def mentions(name, text):
    """Whether ``name`` occurs in ``text`` between token boundaries, by brute force."""
    ends = (i + len(name) for i in range(len(text)) if text.startswith(name, i)
            and (i == 0 or not text[i - 1].isalnum()))
    return bool(name) and any(j == len(text) or not text[j].isalnum() for j in ends)


def brute_force_leakage(kg):
    names = kg.entity_names
    hits = {split: sum(mentions(names[t], kg.descriptions[h]) + mentions(names[h], kg.descriptions[t])
                       for h, _, t in kg.split(split))
            for split in SPLITS}
    cases = {split: 2 * len(kg.split(split)) for split in SPLITS}
    percentages = {split: (100.0 * hits[split] / cases[split] if cases[split] else 0.0)
                   for split in SPLITS}
    percentages["total"] = 100.0 * sum(hits.values()) / sum(cases.values())
    return percentages


def test_leakage_matches_brute_force_before_and_after_the_suite(tmp_path):
    rng = random.Random(47)
    variants = (SUITE_VARIANTS[0],) + tuple(REWRITING_VARIANTS)
    leaked = 0.0
    for trial in range(25):
        triples = mention_kg(rng)
        kg = make_kg(triples.entities, triples.relations, train=triples.train[:12],
                     valid=triples.train[12:16], test=triples.train[16:],
                     descriptions=triples.descriptions)
        expected = brute_force_leakage(kg)
        assert description_leakage(kg).percentages == expected
        results = generate_suite(kg, trial, tmp_path / str(trial), variants=variants)
        assert all(result.ok for result in results)
        assert description_leakage(kg).percentages == expected
        assert description_leakage(load_dataset(tmp_path / str(trial) / "base")).percentages \
            == expected
        leaked += expected["total"]
    assert leaked > 0.0
    # every name three times, one of them empty, and names nested in one
    # another, on both ends of every triple
    for trial in range(10):
        kg = nested_homonym_kg(rng)
        expected = brute_force_leakage(kg)
        assert description_leakage(kg).percentages == expected
        root = tmp_path / f"nested{trial}"
        assert all(result.ok for result in generate_suite(kg, trial, root, variants=variants))
        assert description_leakage(kg).percentages == expected
        assert description_leakage(load_dataset(root / "base")).percentages == expected
        assert 0.0 < expected["total"] < 100.0


def nested_homonym_kg(rng):
    """Random graph whose six names, the empty one among them, are each held
    by three entities, and whose descriptions run the names into one another,
    so matches nest ("New York City" holds "New York", "York City", "New" and
    "York")."""
    pool = ["New York City", "New York", "York City", "New", "York", ""]
    names = pool * 3
    rng.shuffle(names)
    n = len(names)
    descriptions = {f"e{i}": " ".join(rng.choice(pool + ["City", "town"])
                                      for _ in range(rng.randint(0, 6))) for i in range(n)}
    # one relation per (head, tail) pair, so every relation derangement is feasible
    pairs = rng.sample([(h, t) for h in range(n) for t in range(n)], 60)
    triples = [(f"e{h}", f"r{rng.randrange(3)}", f"e{t}") for h, t in pairs]
    return make_kg([(f"e{i}", name) for i, name in enumerate(names)],
                   [(f"r{i}", f"rel{i}") for i in range(3)], train=triples[:36],
                   valid=triples[36:48], test=triples[48:], descriptions=descriptions)
