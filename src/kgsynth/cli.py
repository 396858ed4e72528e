"""Command-line entry point wiring the library into one workflow.

Every command is a ``RecordedCommand``: a run that writes files also writes a
manifest (flat key<TAB>value) alongside them, recording the command, the tool
version, every parameter as click parsed it, and the start and end times.
Exit codes: 0 success, 1 usage error, 2 data, validation or I/O error,
3 infeasibility (derangement/uniqueness/sampling), 4 internal error; a
``suite`` whose failed variants were all infeasible exits 3, else 2.
"""

from __future__ import annotations

import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__, analysis, convert, evaluate, kg, transe, transform
from .errors import InfeasibleError, KgsynthError, LoadError, ValidationError

_RECIPE_NAMES = {kind.replace("_", "-"): kind for kind in transform.RECIPES if kind != "base"}


class _VariantsNotWritten(LoadError):
    """Suite variants that failed on their data or I/O, each alone; the others
    were written, so the run is recorded."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _key(param: click.Parameter) -> str:
    """A parameter's manifest key: its long option name (or argument name), ``-`` as ``_``."""
    name = next((opt for opt in param.opts if opt.startswith("--")), param.name)
    return name.lstrip("-").replace("-", "_")


def _cell(value: object) -> str:
    """A parsed parameter value as a manifest cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, frozenset):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return ",".join(map(_cell, value))
    return str(value)


class RecordedCommand(click.Command):
    """A command whose run is recorded in a manifest.

    The manifest goes into the ``--output`` directory as ``manifest.tsv``, or
    beside the ``--output`` file as ``<name>.manifest.tsv``. It is written
    after a successful run, and after a run that raises ``recorded_failure``
    once its outputs are written (``suite`` with failed variants); any other
    failing run writes none. A command that returns text is a report: the
    text is printed and, given ``--output``, written there.
    """

    def __init__(self, *args, recorded_failure: tuple[type[Exception], ...] = (),
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorded_failure = recorded_failure

    def invoke(self, ctx: click.Context) -> None:
        started_at = _now()
        params = {_key(param): ctx.params[param.name] for param in self.params}
        try:
            text = super().invoke(ctx)
        except self.recorded_failure:
            self._record(params, started_at)
            raise
        if text is not None:
            click.echo(text, nl=False)
            if params["output"] is None:
                return
            output = Path(params["output"])
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(text, encoding="utf-8", newline="")
        self._record(params, started_at)

    def _record(self, params: dict[str, object], started_at: str) -> None:
        cells = {"command": self.name, "version": __version__}
        cells.update((key, _cell(value)) for key, value in params.items())
        rows = [(key, cells.pop(key))
                for key in ("command", "input", "output", "version", "seed") if key in cells]
        rows += [*sorted(cells.items()), ("started_at", started_at), ("finished_at", _now())]
        out = Path(params["output"])
        kg.write_rows(out / "manifest.tsv" if out.is_dir() else
                      out.parent / (out.name + ".manifest.tsv"), rows)


@click.group()
@click.version_option(version=__version__, prog_name="kgsynth")
def cli() -> None:
    """Synthetic KGC dataset construction and link-prediction evaluation."""


@cli.command(cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--stream", is_flag=True, help="Count lines without loading/validating the graph.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def stats(input_dir: str, stream: bool, output: str | None) -> str:
    """Print dataset statistics (entities/relations/train/valid/test)."""
    result = kg.stream_stats(input_dir) if stream else kg.compute_stats(kg.load_dataset(input_dir))
    return result.to_text()


@cli.command("convert", cls=RecordedCommand)
@click.option("--format", "source_format", required=True, type=click.Choice(convert.FORMATS))
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--gloss-split", is_flag=True,
              help="kgbert only: split 'name, gloss' entity text at the first comma.")
def convert_cmd(source_format: str, input_dir: str, output_dir: str, gloss_split: bool) -> None:
    """Convert a public distribution into the toolkit layout."""
    if source_format == "kgbert":
        result = convert.convert_kgbert(input_dir, output_dir, gloss_split=gloss_split)
    else:
        result = convert.convert_wikidata5m(input_dir, output_dir)
    click.echo(
        f"converted: {result.n_entities} entities, {result.n_relations} relations, "
        f"{result.n_train}/{result.n_valid}/{result.n_test} train/valid/test triples"
    )


@cli.command("transform", cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--recipe", required=True, type=click.Choice(sorted(_RECIPE_NAMES)))
@click.option("--targets", required=True, help="Comma-separated: entities,relations,descriptions.",
              callback=lambda ctx, param, text: frozenset(
                  part.strip() for part in text.split(",") if part.strip()))
@click.option("--seed", type=int, default=0, show_default=True)
def transform_cmd(input_dir: str, output_dir: str, recipe: str, targets: frozenset[str],
                  seed: int) -> None:
    """Apply one perturbation recipe and write the variant dataset."""
    bad = targets - transform.ALL_TARGETS
    if bad:
        raise click.BadParameter(f"unknown targets {sorted(bad)}")
    graph = kg.load_dataset(input_dir)
    try:
        out_kg, mapping = transform.apply_recipe(graph, _RECIPE_NAMES[recipe], targets, seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    out = Path(output_dir)
    transform.write_variant(graph, out_kg, mapping, recipe, out)
    click.echo(f"wrote variant to {out}")


@cli.command(cls=RecordedCommand, recorded_failure=(InfeasibleError, _VariantsNotWritten))
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
def suite(input_dir: str, output_dir: str, seed: int) -> None:
    """Generate all 13 labeled variants (base + 12 perturbations)."""
    graph = kg.load_dataset(input_dir)
    results = transform.generate_suite(graph, seed, output_dir)
    failed = []
    for result in results:
        if result.ok:
            click.echo(f"{result.label}: ok ({result.path})")
        else:
            failed.append(result)
            click.echo(f"{result.label}: FAILED ({result.error})", err=True)
    if failed:
        infeasible = all(issubclass(result.error_type, InfeasibleError) for result in failed)
        raise (InfeasibleError if infeasible else _VariantsNotWritten)(
            f"{len(failed)} variant(s) failed: {', '.join(result.label for result in failed)}")


@cli.command("relation-dist", cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def relation_dist(input_dir: str, output: str | None) -> str:
    """Distinct-relation-count distribution per entity, per split."""
    return analysis.relation_distribution(kg.load_dataset(input_dir)).to_text()


@cli.command(cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def leakage(input_dir: str, output: str | None) -> str:
    """Share of queries answerable by reading the query entity's description."""
    return analysis.description_leakage(kg.load_dataset(input_dir)).to_text()


def _finite(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """A float option's value; a NaN or infinity is a usage error."""
    if not math.isfinite(value):
        raise click.BadParameter(f"non-finite value {str(value)!r}")
    return value


@cli.command("train-baseline", cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--dim", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--margin", type=float, default=1.0, show_default=True, callback=_finite)
@click.option("--norm", type=click.Choice(["L1", "L2"]), default="L1", show_default=True)
@click.option("--learning-rate", type=click.FloatRange(min=0), default=0.01, show_default=True,
              callback=_finite)
@click.option("--epochs", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--negatives", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=1024, show_default=True,
              help="(triple, negative) pairs per update; 1 is per-triple SGD.")
@click.option("--eval-split", type=click.Choice(["none", "valid", "test"]), default="none",
              show_default=True)
def train_baseline(input_dir: str, output_dir: str, dim: int, margin: float, norm: str,
                   learning_rate: float, epochs: int, negatives: int, seed: int,
                   batch_size: int, eval_split: str) -> None:
    """Train the structure-only baseline and checkpoint it."""
    graph = kg.load_dataset(input_dir)
    for split in ("train", eval_split):
        if split != "none" and not graph.split(split):
            raise ValidationError(f"{split} split of {input_dir} is empty")
    config = transe.TrainConfig(
        dim=dim, margin=margin, norm=norm, learning_rate=learning_rate,
        epochs=epochs, negatives_per_positive=negatives, seed=seed, batch_size=batch_size,
    )
    model = transe.train(graph, config)
    out = Path(output_dir)
    transe.save_model(model, out)
    if eval_split != "none":
        report = transe.evaluate_model(model, graph, split=eval_split)
        (out / "metrics.tsv").write_text(report.to_text(), encoding="utf-8", newline="")
        click.echo(report.to_text(), nl=False)
    click.echo(f"checkpoint written to {out}")


@cli.command("evaluate", cls=RecordedCommand)
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--predictions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--filtered/--raw", "filtered", default=True, show_default=True,
              help="Drop known-true rivals (any split) before ranking the gold; "
                   "--raw ranks by list position.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def evaluate_cmd(input_dir: str, predictions: str, filtered: bool, output: str | None) -> str:
    """Score an external system's ranked predictions on the test split."""
    graph = kg.load_dataset(input_dir)
    return evaluate.evaluate_predictions(graph, predictions, filtered).to_text()


@cli.command(cls=RecordedCommand)
@click.option("--input", "input_file", required=True, type=click.Path(exists=True, dir_okay=False),
              help="TSV with a header of series names and one row of floats per observation.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def correlate(input_file: str, output: str | None) -> str:
    """Pairwise Pearson correlation matrix over named series."""
    rows = kg.read_rows(input_file)
    header_line, header = next(rows, (0, []))
    series: dict[str, list[float]] = {}
    for name in header:
        if name in series:
            raise ValidationError(
                f"{Path(input_file).name}:{header_line}: repeated column name {name!r}"
            )
        series[name] = []
    for lineno, cells in rows:
        for name, value in zip(header, kg.float_cells(input_file, lineno, cells)):
            series[name].append(value)
    try:
        return analysis.pearson_matrix(series).to_text()
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@cli.command(cls=RecordedCommand)
@click.argument("values", nargs=-1, type=float)
@click.option("--input", "input_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one value per line (alternative to positional values).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def outliers(values: tuple[float, ...], input_file: str | None, output: str | None) -> str:
    """IQR outlier detection over a list of values."""
    for value in values:
        if not math.isfinite(value):
            raise click.BadParameter(f"non-finite value {str(value)!r}", param_hint="VALUES")
    data = list(values)
    if input_file:
        for lineno, cells in kg.read_rows(input_file, 1):
            data.extend(kg.float_cells(input_file, lineno, cells))
    if len(data) < 4:
        raise click.BadParameter("need at least 4 values")
    return analysis.iqr_outliers(data).to_text()


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (LoadError, ValidationError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except InfeasibleError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except KgsynthError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        click.echo(f"internal error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
