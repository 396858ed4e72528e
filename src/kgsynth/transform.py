"""Structure-preserving text perturbations and the full variant suite.

Every recipe rewrites a knowledge graph's surface text while leaving the id
structure of every triple untouched. A recipe kind is one row of ``RECIPES``:
how the targeted names are made, and what then happens to descriptions.
``base`` has no operations and copies the input; the others are

- ``virtual_world``: derange names, rewrite mentions;
- ``anonymized_entities``: sample names, rewrite mentions;
- ``inconsistent_descriptions``: derange names, reassign descriptions;
- ``fully_anonymized``: sample names, regenerate descriptions.

The operations:

- ``derange``: shuffle the targeted name table so no name stays put;
  relation names avoid the removed edges, so no swap leaves a triple
  unchanged.
- ``sample``: unique random strings from a character unigram model fitted
  on the original entity and relation names. Entities, then relations, then
  regenerated descriptions draw from one forbidden set, seeded with every
  original name and description, so all strings are distinct.
- ``rewrite``: when entities are renamed, in-description mentions move to
  the new names. A name's replacement is the new name of its first entity
  row, spliced into the graph's greedy longest-match selection by name id.
- ``reassign``: derange which entity each description belongs to; with
  entities targeted, each description travels with its name and its
  mentions are left as-is, which is the point.
- ``regenerate``: replace every description with an independent unique
  random string.

The two kinds that reassign or regenerate always replace descriptions, so
``descriptions`` is implied among their targets; ``base`` takes no targets.
Randomness is derived per (seed, kind, field) with a stable 64-bit mix, so
results are reproducible for a fixed seed.

What the variants of one graph need alike is built once per graph, on first
use, and cached on it: the mention table (``KnowledgeGraph.mentions``, the
same scan the leakage statistic reads), the fitted unigram model
(``unigram_model``), and, shared with every graph renamed from the same
source, the co-occurring relation rows (``relation_pairs``) and the split
files, which every variant keeps: the first variant written formats them
and the others copy its checked files (``write_dataset``). So one suite call
and one call per variant do the same work.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import derangement as drg
from .errors import InfeasibleError, KgsynthError, LoadError
from .kg import KnowledgeGraph, write_dataset, write_rows
from .rewriter import splice
from .textgen import sample_unique_strings


class RecipeOps(NamedTuple):
    names: str | None  # "derange" or "sample"
    descriptions: str | None  # "rewrite", "reassign" or "regenerate"


RECIPES: dict[str, RecipeOps] = {
    "base": RecipeOps(None, None),
    "virtual_world": RecipeOps("derange", "rewrite"),
    "anonymized_entities": RecipeOps("sample", "rewrite"),
    "inconsistent_descriptions": RecipeOps("derange", "reassign"),
    "fully_anonymized": RecipeOps("sample", "regenerate"),
}
_REPLACES_DESCRIPTIONS = ("reassign", "regenerate")
NAME_TARGETS = frozenset({"entities", "relations"})
ALL_TARGETS = frozenset({"entities", "relations", "descriptions"})
_TARGET_ORDER = ("entities", "relations", "descriptions")

MAPPING_FILE = "mapping.tsv"
RECIPE_FILE = "recipe.tsv"


@dataclass(frozen=True)
class TransformRecipe:
    kind: str
    targets: frozenset[str]
    seed: int

    def validate(self) -> None:
        ops = RECIPES.get(self.kind)
        if ops is None:
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        if not self.targets <= ALL_TARGETS:
            raise ValueError(f"unknown targets: {sorted(self.targets - ALL_TARGETS)}")
        if ops.names is None:
            if self.targets:
                raise ValueError(f"{self.kind} takes no targets")
        elif ops.descriptions in _REPLACES_DESCRIPTIONS:
            if "descriptions" not in self.targets:
                raise ValueError(f"{self.kind} requires 'descriptions' among its targets")
        elif not self.targets or not self.targets <= NAME_TARGETS:
            raise ValueError(f"{self.kind} requires a nonempty subset of {sorted(NAME_TARGETS)}")


@dataclass(frozen=True)
class TransformMapping:
    """Recorded old->new correspondences, the ground truth for audits.

    ``entity_map``/``relation_map`` give the new surface name per id.
    ``description_map`` gives, per entity id, the source entity id when
    descriptions were reassigned or the literal replacement string when they
    were regenerated.
    """

    recipe: TransformRecipe
    entity_map: dict[str, str] = field(default_factory=dict)
    relation_map: dict[str, str] = field(default_factory=dict)
    description_map: dict[str, str] = field(default_factory=dict)


def _field_seed(seed: int, kind: str, part: str) -> int:
    """Stable 64-bit mix of (seed, kind, part); independent of process hashing."""
    digest = hashlib.blake2b(f"{seed}:{kind}:{part}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rewrite_mentions(kg: KnowledgeGraph, new_names: list[str],
                      descriptions: dict[str, str]) -> None:
    """Replace, in ``descriptions``, each mention the graph's greedy selection
    takes (``KnowledgeGraph.mentions``) by the new name of the first entity
    row holding its name."""
    table = kg.mentions
    ids, first_row = np.unique(table.names, return_index=True)
    taken = np.flatnonzero(table.taken)
    by_name = np.array(new_names, dtype=object)[first_row[ids >= 0]]
    replacements = by_name[table.ids[taken]].tolist()
    # memoryviews, so no list holds an int per match
    starts, ends = memoryview(table.starts[taken]), memoryview(table.ends[taken])
    # row e's taken matches are at bounds[e]:bounds[e + 1]
    bounds = np.searchsorted(taken, table.offsets)
    rows = np.flatnonzero(np.diff(bounds))
    for eid, lo, hi in zip(map(kg.entity_ids.__getitem__, rows.tolist()),
                           bounds[rows].tolist(), bounds[rows + 1].tolist()):
        descriptions[eid] = splice(descriptions[eid], starts[lo:hi], ends[lo:hi],
                                   replacements[lo:hi])


def _derange_names(kg: KnowledgeGraph, part: str, seed: int) -> drg.DerangementResult:
    """Derange one name table; relation names also avoid the removed edges."""
    if part == "entities":
        what, names, removed = "entity", [name for _, name in kg.entities], None
    else:
        what, names = "relation", [name for _, name in kg.relations]
        removed = drg.build_removed_edges(kg)
    try:
        if removed is None:
            return drg.derange(names, seed)
        return drg.bipartite_derange(names, removed, seed)
    except InfeasibleError as exc:
        raise InfeasibleError(f"{what}-name derangement failed: {exc}") from exc


def apply_recipe(
    kg: KnowledgeGraph, kind: str, targets: set[str] | frozenset[str], seed: int
) -> tuple[KnowledgeGraph, TransformMapping]:
    """Run the ``RECIPES`` row of ``kind`` on the targeted fields.

    ``descriptions`` may be left out of ``targets`` for the kinds that always
    replace descriptions. The input graph is never modified.
    """
    ops = RECIPES.get(kind)
    targets = frozenset(targets)
    if ops is not None and ops.descriptions in _REPLACES_DESCRIPTIONS:
        targets |= {"descriptions"}
    recipe = TransformRecipe(kind, targets, seed)
    recipe.validate()

    if ops.names == "sample":
        model = kg.unigram_model
        forbidden = {name for _, name in chain(kg.entities, kg.relations)}
        forbidden.update(kg.descriptions.values())

        def sample(part: str, count: int) -> list[str]:
            strings = sample_unique_strings(model, count, forbidden, _field_seed(seed, kind, part))
            forbidden.update(strings)
            return strings

    tables = {"entities": kg.entities, "relations": kg.relations}
    maps: dict[str, dict[str, str]] = {"entities": {}, "relations": {}}
    source = None  # per entity row, the row its description comes from
    for part in ("entities", "relations"):
        if part not in targets:
            continue
        if ops.names == "derange":
            result = _derange_names(kg, part, _field_seed(seed, kind, part))
            names = result.res
            if part == "entities":
                source = result.permutation
        else:
            names = sample(part, len(tables[part]))
        tables[part] = tuple((key, name) for (key, _), name in zip(tables[part], names))
        maps[part] = dict(tables[part])

    descriptions = dict(kg.descriptions)
    description_map: dict[str, str] = {}
    if ops.descriptions == "rewrite" and "entities" in targets:
        _rewrite_mentions(kg, list(maps["entities"].values()), descriptions)
    elif ops.descriptions == "reassign":
        ids = kg.entity_ids
        if source is None:
            # Descriptions alone move; an index derangement cannot have
            # repeats, so plain rejection sampling always applies.
            source = drg.derange(
                list(range(len(ids))), _field_seed(seed, kind, "descriptions")
            ).permutation
        description_map = {eid: ids[row] for eid, row in zip(ids, source)}
        descriptions = {eid: kg.descriptions[src] for eid, src in description_map.items()}
    elif ops.descriptions == "regenerate":
        description_map = dict(zip(kg.entity_ids, sample("descriptions", len(kg.entities))))
        descriptions = dict(description_map)

    out = kg.renamed(tables["entities"], tables["relations"], descriptions)
    return out, TransformMapping(
        recipe=recipe,
        entity_map=maps["entities"],
        relation_map=maps["relations"],
        description_map=description_map,
    )


# (label, kind, targets); "base" is the canonical rewrite of the input.
SUITE_VARIANTS: tuple[tuple[str, str, frozenset[str]], ...] = (
    ("base", "base", frozenset()),
    ("vw-e", "virtual_world", frozenset({"entities"})),
    ("vw-r", "virtual_world", frozenset({"relations"})),
    ("vw-er", "virtual_world", frozenset({"entities", "relations"})),
    ("anon-e", "anonymized_entities", frozenset({"entities"})),
    ("anon-r", "anonymized_entities", frozenset({"relations"})),
    ("anon-er", "anonymized_entities", frozenset({"entities", "relations"})),
    ("incons-d", "inconsistent_descriptions", frozenset({"descriptions"})),
    ("incons-ed", "inconsistent_descriptions", frozenset({"descriptions", "entities"})),
    (
        "incons-erd",
        "inconsistent_descriptions",
        frozenset({"descriptions", "entities", "relations"}),
    ),
    ("fullanon-d", "fully_anonymized", frozenset({"descriptions"})),
    ("fullanon-ed", "fully_anonymized", frozenset({"descriptions", "entities"})),
    (
        "fullanon-erd",
        "fully_anonymized",
        frozenset({"descriptions", "entities", "relations"}),
    ),
)


@dataclass(frozen=True)
class VariantResult:
    label: str
    kind: str
    targets: frozenset[str]
    path: Path | None
    mapping: TransformMapping | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _targets_text(targets: frozenset[str]) -> str:
    return ",".join(t for t in _TARGET_ORDER if t in targets)


def write_mapping(
    kg_before: KnowledgeGraph,
    kg_after: KnowledgeGraph,
    mapping: TransformMapping,
    path: Path,
) -> None:
    """Dump old->new rows as ``kind<TAB>id<TAB>old_text<TAB>new_text``."""
    write_rows(path, chain(
        (("entity", eid, name, mapping.entity_map[eid])
         for eid, name in kg_before.entities if eid in mapping.entity_map),
        (("relation", rid, name, mapping.relation_map[rid])
         for rid, name in kg_before.relations if rid in mapping.relation_map),
        (("description", eid, kg_before.descriptions[eid], kg_after.descriptions[eid])
         for eid, _ in kg_before.entities if eid in mapping.description_map),
    ))


def write_recipe(label: str, kind: str, targets: frozenset[str], seed: int, path: Path) -> None:
    write_rows(path, [("label", label), ("kind", kind), ("targets", _targets_text(targets)),
                      ("seed", str(seed))])


def write_variant(
    kg_before: KnowledgeGraph,
    kg_after: KnowledgeGraph,
    mapping: TransformMapping,
    label: str,
    path: Path,
) -> None:
    """Write the dataset files, mapping.tsv and recipe.tsv of one variant.

    The recipe file takes its kind, targets and seed from ``mapping.recipe``.
    """
    write_dataset(kg_after, path)
    recipe = mapping.recipe
    try:
        write_mapping(kg_before, kg_after, mapping, path / MAPPING_FILE)
        write_recipe(label, recipe.kind, recipe.targets, recipe.seed, path / RECIPE_FILE)
    except OSError as exc:
        raise LoadError(f"cannot write variant under {path}: {exc}") from exc


def generate_suite(
    kg: KnowledgeGraph,
    seed: int,
    output_dir: str | Path,
    variants: tuple[tuple[str, str, frozenset[str]], ...] = SUITE_VARIANTS,
) -> list[VariantResult]:
    """Emit every suite variant under ``output_dir/<label>/``.

    Each variant gets the six dataset files plus mapping.tsv and recipe.tsv,
    under a seed derived from (seed, label). A failing variant is reported in
    its result entry, its directory removed; the remaining variants still run.
    """
    root = Path(output_dir)
    root.mkdir(parents=True, exist_ok=True)
    results: list[VariantResult] = []
    for label, kind, targets in variants:
        try:
            out_kg, mapping = apply_recipe(kg, kind, targets, _field_seed(seed, "suite", label))
            write_variant(kg, out_kg, mapping, label, root / label)
        except KgsynthError as exc:
            shutil.rmtree(root / label, ignore_errors=True)
            results.append(VariantResult(label, kind, targets, None, None, str(exc)))
        else:
            results.append(VariantResult(label, kind, targets, root / label, mapping))
    return results
