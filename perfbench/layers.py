"""Per-layer timings of one round, measured from outside the package.

The traced run makes the calls the end-to-end entry points are made of,
each inside a span from ``tracing.Tracer``: ``load_dataset``; per suite
variant ``apply_recipe``, ``write_dataset``, ``write_mapping`` and
``write_recipe``; ``description_leakage``; ``transe.train``; the first
``answer_index`` build, then ``score_all`` and ``rank_gold`` per query and
``compute_metrics``. Its outputs get the same checks as the untraced run's.

Right after each variant, and after the leakage scan, it repeats on their
own, with the seeds the recipes derive, the derangement, string-sampling
and rewriting calls that ``apply_recipe`` and ``description_leakage`` make
inside the package (spans under ``components.*``). A variant's transform
self time is its ``apply_recipe`` span minus these; the components run in
the same heap state as the variant, so the two are comparable. Such a self
time is the difference of two separate timings, so host noise can push the
replay above the span it is subtracted from; then the self time is reported
missing, with both times, instead of as a negative number.

Nothing in the package is patched. A function this module relies on that
the package no longer defines makes the metrics that need it missing, with
the reason, instead of stopping the run.
"""

from __future__ import annotations

import gc
import importlib
import shutil
import statistics
import time
from pathlib import Path

from checks import Outputs
from tracing import Tracer

DATASET_FILES = ("train.tsv", "valid.tsv", "test.tsv", "entities.tsv", "relations.tsv",
                 "descriptions.tsv")

# The functions each group of metrics is measured with, as paths inside the
# kgsynth package.
NEEDS = {
    "suite": ("kg.write_dataset", "transform.apply_recipe", "transform.write_mapping",
              "transform.write_recipe", "transform.SUITE_VARIANTS", "transform._field_seed"),
    "eval": ("transe.score_all", "evaluate.rank_gold", "evaluate.compute_metrics",
             "evaluate.Query", "kg.KnowledgeGraph.answer_index"),
    "probe": ("transe.init_model", "transe.probe_loss"),
    "derangement": ("derangement.derange", "derangement.build_removed_edges",
                    "derangement.bipartite_derange"),
    "textgen": ("textgen.fit_unigram", "textgen.sample_unique_strings"),
    "rewriter": ("rewriter.build_index", "rewriter.rewrite_text"),
    "find_keys": ("rewriter.build_index", "rewriter.find_keys"),
}

LABELS = ("vw-e", "vw-r", "vw-er", "anon-e", "anon-r", "anon-er", "incons-d", "incons-ed",
          "incons-erd", "fullanon-d", "fullanon-ed", "fullanon-erd")

GROUP_METRICS = {
    "suite": ("kg.write_s", "kg.write_mb", "transform.mapping_s", "transform.self_s",
              *(f"transform.variant_s.{label}" for label in LABELS),
              *(f"transform.self_s.{label}" for label in LABELS)),
    "eval": ("kg.answer_index_s", "transe.score_ms_per_query", "evaluate.rank_ms_per_query",
             "evaluate.metrics_s", "evaluate.filtered_candidates", "evaluate.self_s"),
    "probe": ("transe.init_s", "transe.epoch_s", "transe.probe_loss_init",
              "transe.probe_loss_final"),
    "derangement": ("derangement.derange_s", "derangement.removed_edges_s",
                    "derangement.removed_pairs", "derangement.bipartite_s",
                    "derangement.self_s"),
    "textgen": ("textgen.fit_s", "textgen.sample_s", "textgen.strings_per_s", "textgen.self_s"),
    "rewriter": ("rewriter.build_index_s", "rewriter.rewrite_s", "rewriter.chars_per_s",
                 "rewriter.descriptions_changed"),
    "find_keys": ("rewriter.leakage_index_s", "rewriter.find_keys_s", "analysis.self_s"),
}

# Self times found by subtracting a replay from a separately timed span
# (see the module docstring). Host noise can make them missing, so they go
# to the run's record only, not to the metrics every traced run must print.
REPLAY_SELF = ("analysis.self_s", "transform.self_s",
               *(f"transform.self_s.{label}" for label in LABELS))

METRICS = (
    "kg.load_s", "kg.write_s", "kg.write_mb", "kg.answer_index_s", "kg.self_s",
    "derangement.derange_s", "derangement.removed_edges_s", "derangement.removed_pairs",
    "derangement.bipartite_s", "derangement.self_s",
    "textgen.fit_s", "textgen.sample_s", "textgen.strings_per_s", "textgen.self_s",
    "rewriter.build_index_s", "rewriter.rewrite_s", "rewriter.chars_per_s",
    "rewriter.descriptions_changed", "rewriter.leakage_index_s", "rewriter.find_keys_s",
    "rewriter.self_s",
    *(f"transform.variant_s.{label}" for label in LABELS), "transform.mapping_s",
    "transe.init_s", "transe.epoch_s", "transe.probe_loss_init", "transe.probe_loss_final",
    "transe.score_ms_per_query", "transe.self_s",
    "evaluate.rank_ms_per_query", "evaluate.metrics_s", "evaluate.filtered_candidates",
    "evaluate.distinct_query_share", "evaluate.self_s",
    "analysis.leakage_s",
    "trace.overhead_s",
)


def unit(name: str) -> str:
    if name.endswith("_ms_per_query"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_pairs", "_changed", "_candidates")):
        return "count"
    if name.endswith(("_share", "probe_loss_init", "probe_loss_final")):
        return "1"
    return "s"


def resolve(path: str):
    """The object at ``path`` inside kgsynth, or the reason it is missing."""
    module_name, _, rest = path.partition(".")
    try:
        obj = importlib.import_module(f"kgsynth.{module_name}")
    except ImportError as exc:
        return None, f"kgsynth.{module_name} cannot be imported: {exc}"
    for attr in rest.split("."):
        # Class attributes are looked up without running properties.
        obj = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if obj is None:
            return None, f"kgsynth.{path} is not defined"
    return obj, None


class Traced:
    """One traced round: spans, the metrics derived from them, and what is missing."""

    def __init__(self, kgsynth, transe, wl, seed: int, dim: int, train_seed: int) -> None:
        self.kgsynth, self.transe = kgsynth, transe
        self.wl, self.seed, self.dim, self.train_seed = wl, seed, dim, train_seed
        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self.fn: dict[str, object] = {}
        self.unavailable: dict[str, str] = {}
        self.descriptions_changed = 0
        for group, paths in NEEDS.items():
            for path in paths:
                obj, reason = resolve(path)
                if reason is None:
                    self.fn[path] = obj
                else:
                    self.unavailable.setdefault(group, reason)

    def available(self, group: str) -> bool:
        reason = self.unavailable.get(group)
        if reason is not None:
            for name in GROUP_METRICS[group]:
                self.missing.setdefault(name, reason)
        return reason is None

    def _guarded(self, group: str, fn, *args):
        """Run one measurement; if the package no longer fits it (a changed
        signature, say), report the group's metrics missing instead of failing."""
        try:
            return fn(*args)
        except Exception as exc:  # the traced run must report, not stop
            self.unavailable[group] = f"{type(exc).__name__}: {exc}"
            for name in GROUP_METRICS[group]:
                self.metrics.pop(name, None)
            self.available(group)
            return None

    def run(self, checks, input_dir: Path, suite_dir: Path) -> Outputs:
        """The traced round; operations that raise are failures in ``checks``."""
        kgsynth, transe, tr = self.kgsynth, self.transe, self.tracer
        out = Outputs()
        for _ in range(self.wl.loads):
            out.kg = None
            gc.collect()
            with tr.span("kg.load"):
                out.kg = checks.op("load_dataset", kgsynth.load_dataset, input_dir)
        if out.kg is None:
            return out
        kg = out.kg
        self.metrics["kg.load_s"] = statistics.median(tr.durations("kg.load"))

        gc.collect()
        if self.available("suite"):
            out.variant_errors = self._guarded("suite", self._suite, kg, suite_dir)
        if out.variant_errors is None:
            shutil.rmtree(suite_dir, ignore_errors=True)
            with tr.span("phase.suite"), tr.span("transform.generate_suite"):
                results = checks.op("generate_suite", kgsynth.generate_suite, kg, self.seed,
                                    suite_dir)
            out.variant_errors = {r.label: r.error for r in results or ()}

        gc.collect()
        with tr.span("phase.leakage"):
            with tr.span("analysis.leakage"):
                out.leakage = checks.op("description_leakage", kgsynth.description_leakage, kg)
            if self.available("find_keys"):
                self._guarded("find_keys", self._find_keys, kg)
        if out.leakage is not None:
            self.metrics["analysis.leakage_s"] = tr.total("analysis.leakage")
            if "rewriter.find_keys_s" in self.metrics:
                self._self_time("analysis.self_s", self.metrics["analysis.leakage_s"],
                                self.metrics["rewriter.leakage_index_s"]
                                + self.metrics["rewriter.find_keys_s"])

        gc.collect()
        out.config = transe.TrainConfig(dim=self.dim, epochs=self.wl.epochs, seed=self.train_seed)
        with tr.span("phase.train"):
            with tr.span("transe.train"):
                out.model = checks.op("train", transe.train, kg, out.config)
            if out.model is not None and self.available("probe"):
                self._guarded("probe", self._probe, kg, out.model, out.config)
        if out.model is None:
            return out

        gc.collect()
        with tr.span("phase.eval"):
            if self.available("eval"):
                out.report = self._guarded("eval", self._eval, kg, out.model)
            if out.report is None:
                with tr.span("transe.evaluate_model"):
                    out.report = checks.op("evaluate_model", transe.evaluate_model, out.model,
                                           kg, split="test")
        queries = [("tail", h, r) for h, r, _ in kg.test] + [("head", t, r) for _, r, t in kg.test]
        self.metrics["evaluate.distinct_query_share"] = len(set(queries)) / len(queries)

        self._layer_self_times()
        self._overhead()
        return out

    # -- suite ---------------------------------------------------------------

    def _suite(self, kg, suite_dir: Path) -> dict:
        """Replay generate_suite variant by variant; return each variant's error."""
        tr = self.tracer
        write_dataset = self.fn["kg.write_dataset"]
        apply_recipe = self.fn["transform.apply_recipe"]
        write_mapping = self.fn["transform.write_mapping"]
        write_recipe = self.fn["transform.write_recipe"]
        field_seed = self.fn["transform._field_seed"]
        errors: dict[str, str | None] = {}
        component_time: dict[str, float] = {}
        with tr.span("phase.suite"):
            suite_dir.mkdir(parents=True, exist_ok=True)
            for label, kind, targets in self.fn["transform.SUITE_VARIANTS"]:
                vseed = field_seed(self.seed, "suite", label)
                vdir = suite_dir / label
                try:
                    if kind == "base":
                        # apply_recipe has no "base" kind: the base variant is
                        # a plain rewrite of the input, timed under kg.write.
                        variant, mapping = kg, None
                    else:
                        with tr.span(f"transform.variant.{label}"):
                            variant, mapping = apply_recipe(kg, kind, targets, vseed)
                    with tr.span("kg.write"):
                        write_dataset(variant, vdir)
                    with tr.span("transform.mapping"):
                        if mapping is None:
                            (vdir / "mapping.tsv").write_text("", encoding="utf-8")
                        else:
                            write_mapping(kg, variant, mapping, vdir / "mapping.tsv")
                        write_recipe(label, kind, targets, vseed, vdir / "recipe.tsv")
                    errors[label] = None
                except self.kgsynth.KgsynthError as exc:
                    errors[label] = str(exc)
                    continue
                if kind != "base":
                    del variant, mapping
                    try:
                        component_time[label] = self._components(kg, label, kind, targets,
                                                                  vseed)
                    except Exception as exc:  # report the variant's self time missing
                        self.missing[f"transform.self_s.{label}"] = (
                            f"components raised {type(exc).__name__}: {exc}")

        self.metrics["kg.write_s"] = tr.total("kg.write")
        self.metrics["kg.write_mb"] = sum(
            (suite_dir / label / name).stat().st_size
            for label, error in errors.items() if error is None for name in DATASET_FILES) / 1e6
        self.metrics["transform.mapping_s"] = tr.total("transform.mapping")
        for label in LABELS:
            name = f"transform.variant.{label}"
            if not tr.durations(name):
                self.missing.setdefault(f"transform.variant_s.{label}", "variant not run")
                continue
            self.metrics[f"transform.variant_s.{label}"] = tr.total(name)
            if component_time.get(label) is not None:
                self._self_time(f"transform.self_s.{label}", tr.total(name),
                                component_time[label])
            else:
                self.missing.setdefault(f"transform.self_s.{label}",
                                        "; ".join(sorted(set(self.unavailable.values())))
                                        or "variant failed")
        self._component_metrics()
        labels_self = [f"transform.self_s.{label}" for label in LABELS]
        if all(name in self.metrics for name in labels_self):
            self.metrics["transform.self_s"] = (sum(self.metrics[n] for n in labels_self)
                                                + self.metrics["transform.mapping_s"])
        else:
            self.missing.setdefault("transform.self_s", "a variant's self time is missing")
        return errors

    def _self_time(self, name: str, span_s: float, replay_s: float) -> None:
        """A span's time minus the separately timed replay of its layer calls,
        or the reason it is missing when host noise makes the replay longer."""
        if replay_s <= span_s:
            self.metrics[name] = span_s - replay_s
        else:
            self.missing[name] = (f"the replay of its layer calls ({replay_s:.4g} s) took "
                                  f"longer than the span it is subtracted from ({span_s:.4g} s)")

    def _components(self, kg, label: str, kind: str, targets, vseed: int) -> float | None:
        """Repeat one recipe's layer calls on their own; return their summed time,
        or None when a layer the recipe uses cannot be measured."""
        field_seed = self.fn["transform._field_seed"]
        needs = {"virtual_world": ("derangement", "rewriter"),
                 "inconsistent_descriptions": ("derangement",),
                 "anonymized_entities": ("textgen", "rewriter"),
                 "fully_anonymized": ("textgen",)}.get(kind)
        if needs is None or not all(group not in self.unavailable for group in needs):
            return None
        tr = self.tracer
        new_names = None
        with tr.span(f"components.{label}") as container:
            if kind in ("virtual_world", "inconsistent_descriptions"):
                new_names = self._derangements(kg, kind, targets,
                                               lambda part: field_seed(vseed, kind, part))
            else:
                new_names = self._sampling(kg, kind, targets,
                                           lambda part: field_seed(vseed, kind, part))
            # Mentions follow renamed entities, except in inconsistent_descriptions.
            if new_names is not None and kind in ("virtual_world", "anonymized_entities"):
                self._rewrite(kg, new_names)
        return tr.child_time(container)

    def _derangements(self, kg, kind, targets, part_seed):
        """The recipe's derangements; returns the new entity names or None."""
        tr = self.tracer
        derange = self.fn["derangement.derange"]
        new_names = None
        if "entities" in targets:
            with tr.span("derangement.derange"):
                result = derange([name for _, name in kg.entities], part_seed("entities"))
            new_names = list(result.res)
        elif kind == "inconsistent_descriptions":
            with tr.span("derangement.derange"):
                derange(list(range(len(kg.entities))), part_seed("descriptions"))
        if "relations" in targets:
            with tr.span("derangement.removed_edges"):
                removed = self.fn["derangement.build_removed_edges"](kg)
            with tr.span("derangement.bipartite"):
                self.fn["derangement.bipartite_derange"](
                    [name for _, name in kg.relations], removed, part_seed("relations"))
            self.metrics["derangement.removed_pairs"] = len(removed)
        return new_names

    def _sampling(self, kg, kind, targets, part_seed):
        """The recipe's string sampling; returns the new entity names or None."""
        tr = self.tracer
        sample = self.fn["textgen.sample_unique_strings"]
        corpus = [name for _, name in kg.entities] + [name for _, name in kg.relations]
        with tr.span("textgen.fit"):
            model = self.fn["textgen.fit_unigram"](corpus)
        forbidden = set(corpus) | set(kg.descriptions.values())
        parts = [("entities", len(kg.entities))] if "entities" in targets else []
        if "relations" in targets:
            parts.append(("relations", len(kg.relations)))
        if kind == "fully_anonymized":
            parts.append(("descriptions", len(kg.entities)))
        new_names = None
        for part, count in parts:
            with tr.span("textgen.sample") as span:
                sampled = sample(model, count, forbidden, part_seed(part))
            span.count = count
            forbidden.update(sampled)
            if part == "entities":
                new_names = sampled
        return new_names

    def _rewrite(self, kg, new_names) -> None:
        """Rewrite every description to the new names, as the recipes do."""
        tr = self.tracer
        name_map: dict[str, str] = {}
        for (_, old), new in zip(kg.entities, new_names):
            if old and old not in name_map:
                name_map[old] = new
        with tr.span("rewriter.build_index"):
            index = self.fn["rewriter.build_index"](name_map)
        rewrite_text = self.fn["rewriter.rewrite_text"]
        texts = list(kg.descriptions.values())
        with tr.span("rewriter.rewrite") as span:
            rewritten = [rewrite_text(index, text) for text in texts]
        span.count = sum(len(t) for t in texts)
        self.descriptions_changed += sum(a != b for a, b in zip(texts, rewritten))

    def _component_metrics(self) -> None:
        tr = self.tracer
        if self.available("derangement"):
            self.metrics["derangement.derange_s"] = tr.total("derangement.derange")
            self.metrics["derangement.removed_edges_s"] = tr.total("derangement.removed_edges")
            self.metrics["derangement.bipartite_s"] = tr.total("derangement.bipartite")
        if self.available("textgen"):
            sample_s = tr.total("textgen.sample")
            self.metrics["textgen.fit_s"] = tr.total("textgen.fit")
            self.metrics["textgen.sample_s"] = sample_s
            self.metrics["textgen.strings_per_s"] = tr.count("textgen.sample") / sample_s
        if self.available("rewriter"):
            rewrite_s = tr.total("rewriter.rewrite")
            self.metrics["rewriter.build_index_s"] = tr.total("rewriter.build_index")
            self.metrics["rewriter.rewrite_s"] = rewrite_s
            self.metrics["rewriter.chars_per_s"] = tr.count("rewriter.rewrite") / rewrite_s
            self.metrics["rewriter.descriptions_changed"] = self.descriptions_changed

    # -- leakage, training, evaluation ---------------------------------------

    def _find_keys(self, kg) -> None:
        """The name index and boundary scans description_leakage runs inside.

        It scans, once each and in first-use order, the descriptions of the
        entities that head or tail a triple, skipping a side whose partner
        has an empty name, as description_leakage does.
        """
        tr = self.tracer
        find_keys = self.fn["rewriter.find_keys"]
        names = kg.entity_names
        scanned: dict[str, None] = {}
        for split in (kg.train, kg.valid, kg.test):
            for h, _, t in split:
                if names[t]:
                    scanned.setdefault(h)
                if names[h]:
                    scanned.setdefault(t)
        texts = [kg.descriptions[eid] for eid in scanned]
        with tr.span("components.leakage"):
            with tr.span("rewriter.leakage_index"):
                index = self.fn["rewriter.build_index"](
                    {name: name for name in names.values() if name})
            with tr.span("rewriter.find_keys"):
                for text in texts:
                    find_keys(index, text)
        self.metrics["rewriter.leakage_index_s"] = tr.total("rewriter.leakage_index")
        self.metrics["rewriter.find_keys_s"] = tr.total("rewriter.find_keys")

    def _probe(self, kg, model, config) -> None:
        """Init time on its own, and probe_loss at init and after training."""
        tr = self.tracer
        with tr.span("components.train"):
            with tr.span("transe.init"):
                init = self.fn["transe.init_model"](kg, config.dim, config.seed,
                                                    norm=config.norm, margin=config.margin)
        probe_loss = self.fn["transe.probe_loss"]
        self.metrics["transe.init_s"] = tr.total("transe.init")
        self.metrics["transe.epoch_s"] = (
            tr.total("transe.train") - tr.total("transe.init")) / config.epochs
        self.metrics["transe.probe_loss_init"] = probe_loss(init, kg)
        self.metrics["transe.probe_loss_final"] = probe_loss(model, kg)

    def _eval(self, kg, model):
        """evaluate_model's work as layer calls; returns the metrics report."""
        tr = self.tracer
        score_all = self.fn["transe.score_all"]
        rank_gold = self.fn["evaluate.rank_gold"]
        query_type = self.fn["evaluate.Query"]
        records = []
        with tr.span("kg.answer_index"):
            answers = kg.answer_index
        for h, r, t in kg.test:
            for direction, known, gold in (("tail", h, t), ("head", t, h)):
                with tr.span("transe.score_all"):
                    scores = score_all(model, known, r, direction)
                with tr.span("evaluate.rank_gold"):
                    query = query_type(known=(known, r), direction=direction, gold=gold)
                    records.append(rank_gold(scores, query, kg, filtered=True))
        with tr.span("evaluate.compute_metrics"):
            report = self.fn["evaluate.compute_metrics"](records, filtered=True)
        n = len(records)
        self.metrics["kg.answer_index_s"] = tr.total("kg.answer_index")
        self.metrics["transe.score_ms_per_query"] = 1e3 * tr.total("transe.score_all") / n
        self.metrics["evaluate.rank_ms_per_query"] = 1e3 * tr.total("evaluate.rank_gold") / n
        self.metrics["evaluate.metrics_s"] = tr.total("evaluate.compute_metrics")
        self.metrics["evaluate.filtered_candidates"] = sum(
            len(answers.get((rec.query.direction, *rec.query.known), ())) - 1 for rec in records)
        return report

    # -- totals --------------------------------------------------------------

    def _layer_self_times(self) -> None:
        """Each layer's self time. kg, derangement, textgen and rewriter spans
        have no layer children; transform and analysis give the component
        time measured for them to those layers."""
        tr = self.tracer
        own = tr.self_times()
        self.metrics["kg.self_s"] = own.get("kg", 0.0)
        self.metrics["transe.self_s"] = tr.total("transe.train") + tr.total("transe.score_all")
        if "evaluate.metrics_s" in self.metrics:
            self.metrics["evaluate.self_s"] = (tr.total("evaluate.rank_gold")
                                               + tr.total("evaluate.compute_metrics"))
        for layer in ("derangement", "textgen"):
            if layer not in self.unavailable:
                self.metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
        if "rewriter" not in self.unavailable and "find_keys" not in self.unavailable:
            self.metrics["rewriter.self_s"] = own.get("rewriter", 0.0)
        else:
            self.missing.setdefault("rewriter.self_s", "a rewriter function is missing")

    def _overhead(self, calibration_spans: int = 20_000) -> None:
        """What the spans add: their count times the cost of one empty span,
        measured here on a throwaway tracer."""
        spare = Tracer()
        start = time.perf_counter()
        for _ in range(calibration_spans):
            with spare.span("calibration.empty"):
                pass
        per_span = (time.perf_counter() - start) / calibration_spans
        self.metrics["trace.overhead_s"] = per_span * len(self.tracer.spans)
