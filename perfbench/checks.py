"""Output checks of one benchmark round.

Every operation the workload attempts and every check of its output counts
once toward ``attempted``; an operation that raises or a check that does not
hold counts toward ``failed``. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT_FILES = ("train.tsv", "valid.tsv", "test.tsv")

# The paper's 13-variant suite: (label, targets). mapping.tsv holds one row
# per entity for each of "entities" and "descriptions" targeted, and one row
# per relation when "relations" is targeted.
SUITE = (
    ("base", ()),
    ("vw-e", ("entities",)),
    ("vw-r", ("relations",)),
    ("vw-er", ("entities", "relations")),
    ("anon-e", ("entities",)),
    ("anon-r", ("relations",)),
    ("anon-er", ("entities", "relations")),
    ("incons-d", ("descriptions",)),
    ("incons-ed", ("descriptions", "entities")),
    ("incons-erd", ("descriptions", "entities", "relations")),
    ("fullanon-d", ("descriptions",)),
    ("fullanon-ed", ("descriptions", "entities")),
    ("fullanon-erd", ("descriptions", "entities", "relations")),
)
RECIPE_ROWS = 4  # label, kind, targets, seed


@dataclass
class Outputs:
    """What one round produced; None where its operation failed."""

    kg: object = None
    variant_errors: dict | None = None  # suite label -> error message, or None
    leakage: object = None
    model: object = None
    report: object = None
    config: object = None


class Checks:
    """Counts attempted operations and checks, and keeps each failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation of the workload; a raised exception is a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must report, not stop
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def digest_tree(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_outputs(kgsynth, transe, checks: Checks, out: Outputs, input_dir: Path,
                  suite_dir: Path) -> dict:
    """Check one round's outputs; return the digests of what it wrote."""
    if out.variant_errors is not None:
        check_suite(kgsynth, checks, input_dir, out.kg, out.variant_errors, suite_dir)
    if out.leakage is not None:
        check_leakage(checks, out.leakage)
    if out.model is not None:
        checks.op("check training", check_training, transe, checks, out.kg, out.model, out.config)
    if out.report is not None:
        checks.op("check report", check_report, checks, out.model, out.kg, out.report)
    return output_digests(out, suite_dir)


def output_digests(out: Outputs, suite_dir: Path) -> dict:
    """sha256 of the written suite and of the leakage and metrics reports."""
    digests = {}
    if out.variant_errors is not None:
        digests["suite"] = digest_tree(suite_dir)
    if out.report is not None and out.leakage is not None:
        text = out.report.to_text() + out.leakage.to_text()
        digests["report"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def check_suite(kgsynth, checks: Checks, input_dir: Path, kg, variant_errors: dict,
                suite_dir: Path) -> None:
    """Every variant loads, keeps the input's triples, ids and order, and has
    a mapping.tsv and recipe.tsv with the expected row counts."""
    input_bytes = {name: (input_dir / name).read_bytes() for name in SPLIT_FILES}
    n_e, n_r = len(kg.entities), len(kg.relations)
    for label, targets in SUITE:
        error = variant_errors.get(label, "not produced")
        if not checks.check(error is None, f"{label}: variant failed: {error}"):
            continue
        vdir = suite_dir / label
        variant = checks.op(f"{label}: load_dataset", kgsynth.load_dataset, vdir)
        if variant is not None:
            checks.check(variant.entity_ids == kg.entity_ids, f"{label}: entity ids or order changed")
            checks.check(variant.relation_ids == kg.relation_ids,
                         f"{label}: relation ids or order changed")
        for name in SPLIT_FILES:
            path = vdir / name
            checks.check(path.is_file() and path.read_bytes() == input_bytes[name],
                         f"{label}: {name} differs from the input")
        expected = n_e * (("entities" in targets) + ("descriptions" in targets))
        expected += n_r * ("relations" in targets)
        mapping = vdir / "mapping.tsv"
        checks.check(mapping.is_file() and _count_lines(mapping) == expected,
                     f"{label}: mapping.tsv missing or not {expected} rows")
        recipe = vdir / "recipe.tsv"
        checks.check(
            recipe.is_file() and _count_lines(recipe) == RECIPE_ROWS
            and recipe.read_text(encoding="utf-8").startswith(f"label\t{label}\n"),
            f"{label}: recipe.tsv missing or malformed",
        )


def check_leakage(checks: Checks, table) -> None:
    values = list(getattr(table, "percentages", {}).values())
    checks.check(len(values) == 4 and all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values),
                 f"leakage: percentages out of range: {values}")
    # The generator puts neighbour names in descriptions, so leakage is never 0.
    checks.check(bool(values) and values[-1] > 0.0, "leakage: total leakage is 0")


def check_training(transe, checks: Checks, kg, model, config) -> None:
    """Embeddings are finite and probe_loss fell from its value at init."""
    checks.check(bool(np.isfinite(model.entity_vectors).all()
                      and np.isfinite(model.relation_vectors).all()),
                 "train: non-finite embeddings")
    init = transe.init_model(kg, config.dim, config.seed, norm=config.norm, margin=config.margin)
    before = transe.probe_loss(init, kg)
    after = transe.probe_loss(model, kg)
    checks.check(after < before, f"train: probe_loss did not fall ({before!r} -> {after!r})")


def oracle_rank_bounds(model, kg, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Filtered, pessimistic gold ranks of every test query, from numpy alone.

    Scores use the same broadcast translation distance as score_triple.
    Rivals whose score lies within ``tol`` of the gold score may fall either
    side of it under another summation order, so each rank comes as a
    (low, high) pair.
    """
    entity_row = {eid: i for i, eid in enumerate(kg.entity_ids)}
    relation_row = {rid: i for i, rid in enumerate(kg.relation_ids)}
    answers: dict[tuple[str, str, str], set[str]] = {}
    for h, r, t in kg.test:
        answers[("tail", h, r)] = set()
        answers[("head", t, r)] = set()
    for h, r, t in kg.all_triples:
        found = answers.get(("tail", h, r))
        if found is not None:
            found.add(t)
        found = answers.get(("head", t, r))
        if found is not None:
            found.add(h)
    vectors, relations = model.entity_vectors, model.relation_vectors
    lows, highs = [], []
    for h, r, t in kg.test:
        for direction, known, gold in (("tail", h, t), ("head", t, h)):
            k, rel = vectors[entity_row[known]], relations[relation_row[r]]
            diff = (k + rel) - vectors if direction == "tail" else (vectors + rel) - k
            if model.norm == "L1":
                scores = -np.abs(diff).sum(axis=1)
            else:
                scores = -np.sqrt((diff * diff).sum(axis=1))
            g = scores[entity_row[gold]]
            band = tol * max(1.0, abs(g))
            rival = np.ones(len(scores), dtype=bool)
            rival[[entity_row[e] for e in answers[(direction, known, r)]]] = False
            rival[entity_row[gold]] = False
            lows.append(1 + int((rival & (scores > g + band)).sum()))
            highs.append(1 + int((rival & (scores >= g - band)).sum()))
    return np.array(lows), np.array(highs)


def check_report(checks: Checks, model, kg, report) -> None:
    """The filtered report is finite, every rank lies in [1, |E|], and the
    report agrees with the numpy oracle's ranks."""
    hits = getattr(report, "hits", {})
    values = [report.mr, report.mrr, *hits.values()]
    checks.check(all(math.isfinite(v) for v in values), f"eval: non-finite report {values}")
    low, high = oracle_rank_bounds(model, kg)
    n_e = len(kg.entities)
    checks.check(bool((low >= 1).all() and (high <= n_e).all()), "eval: a rank lies outside [1, |E|]")
    eps = 1e-12
    checks.check(low.mean() - eps <= report.mr <= high.mean() + eps,
                 f"eval: MR {report.mr!r} disagrees with the oracle")
    checks.check((1.0 / high).mean() - eps <= report.mrr <= (1.0 / low).mean() + eps,
                 f"eval: MRR {report.mrr!r} disagrees with the oracle")
    for k in (1, 3, 10):
        checks.check((high <= k).mean() - eps <= hits.get(k, -1.0) <= (low <= k).mean() + eps,
                     f"eval: hits@{k} disagrees with the oracle")
