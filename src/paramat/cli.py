"""Command-line front end: consequence queries, audits, matrix management."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .audit import AuditBudget, run_table
from .formula import FormulaSet, ParseError, parse, render
from .matrix import (
    BUILTIN_NAMES,
    Matrix,
    MatrixError,
    builtin,
    format_value,
    goedel,
    load_matrix_file,
    lukasiewicz,
    matrix_to_document,
)
from .para import (
    LogicSpec,
    SubsetBoundError,
    is_para_consistent,
    logic_entails,
    maximal_consistent_subsets,
    para_entails,
)
from .semantics import classify, entails, is_consistent

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def resolve_logic(selector: str, matrix_path: str | None = None) -> Matrix:
    """Resolve a logic selector to a matrix.

    Accepts a built-in name (l3, g3, k3, cl2), a parametric family member
    (ln:<n>, gn:<n>), an explicit file (file:<path>), or a bare name looked up
    as <name>.matrix in the directory given by --matrix-path or the
    PARAMAT_MATRIX_PATH environment variable.
    """
    key = selector.lower()
    if key in BUILTIN_NAMES:
        return builtin(key)
    if key.startswith(("ln:", "gn:")):
        family, _, arg = key.partition(":")
        try:
            n = int(arg)
        except ValueError:
            _fail(EXIT_USAGE, f"bad parametric selector: {selector!r}")
        try:
            m = lukasiewicz(n) if family == "ln" else goedel(n)
        except MatrixError as exc:
            _fail(EXIT_USAGE, str(exc))
        if n not in (2, 3):
            click.echo(
                f"note: {m.name} is an extension beyond the three-valued "
                "systems; audit expectations do not apply",
                err=True,
            )
        return m
    if key.startswith("file:"):
        return _load_or_exit(selector[len("file:") :])
    search = matrix_path or os.environ.get("PARAMAT_MATRIX_PATH")
    if search:
        candidate = Path(search) / f"{selector}.matrix"
        if candidate.exists():
            return _load_or_exit(candidate)
    _fail(EXIT_USAGE, f"unknown logic selector: {selector!r}")


def _load_or_exit(path: str | Path) -> Matrix:
    """The matrix in the file at `path`; a file that cannot be read or does
    not hold a valid matrix exits with EXIT_PARSE."""
    try:
        return load_matrix_file(path)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read matrix file {path}: {exc.strerror}")
    except MatrixError as exc:
        _fail(EXIT_PARSE, f"invalid matrix file {path}: {exc}")


def _parse_set(text: str) -> FormulaSet:
    try:
        return FormulaSet.from_text(text)
    except ParseError as exc:
        _fail(EXIT_PARSE, f"cannot parse premises: {exc}")


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        _fail(EXIT_PARSE, f"cannot parse formula: {exc}")


def _emit_json(document: dict) -> None:
    click.echo(json.dumps(document, sort_keys=True, indent=2))


_logic_option = click.option(
    "--logic", "-l", default="l3", show_default=True, help="Logic selector."
)
_para_option = click.option(
    "--para",
    "para_depth",
    type=click.IntRange(0, 2),
    default=0,
    show_default=True,
    help="Applications of the consistent-subset transform.",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
_matrix_path_option = click.option(
    "--matrix-path",
    envvar="PARAMAT_MATRIX_PATH",
    default=None,
    help="Directory searched for <name>.matrix files.",
)


def _reader_gone() -> NoReturn:
    """Exit with EXIT_BROKEN_PIPE and say nothing: stdout's reader has gone.
    Stdout is pointed at devnull so that the interpreter's final flush does
    not fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(EXIT_BROKEN_PIPE)


class _Main(click.Group):
    """The command group; a premise set over the subset bound exits with
    EXIT_USAGE, an unexpected exception with EXIT_INTERNAL, Ctrl-C with
    EXIT_INTERRUPTED, and a closed stdout with EXIT_BROKEN_PIPE.

    Without this, click lets an exception escape as a traceback with exit
    status 1, and turns Ctrl-C into "Aborted!" with exit status 1; both read
    as "fails".
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # --help and --version print here, before any command is invoked
        try:
            return super().parse_args(ctx, args)
        except BrokenPipeError:
            _reader_gone()

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except KeyboardInterrupt:
            _fail(EXIT_INTERRUPTED, "interrupted")
        except SubsetBoundError as exc:
            _fail(EXIT_USAGE, str(exc))
        except BrokenPipeError:
            _reader_gone()
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            message = str(exc).replace("\n", " ")
            _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {message}")


@click.group(cls=_Main)
# the version is passed, not read from package metadata, which a checkout
# run with PYTHONPATH=src does not have
@click.version_option(__version__)
def main() -> None:
    """Many-valued matrix logics, a paraconsistent transform, and an auditor."""


@main.command("entails")
@_logic_option
@_para_option
@_format_option
@_matrix_path_option
@click.argument("gamma")
@click.argument("alpha")
def cmd_entails(logic, para_depth, fmt, matrix_path, gamma, alpha) -> None:
    """Does GAMMA (comma-separated, possibly empty) entail ALPHA?"""
    m = resolve_logic(logic, matrix_path)
    premises = _parse_set(gamma)
    conclusion = _parse_formula(alpha)
    spec = LogicSpec(m, para_depth)
    document: dict = {
        "logic": spec.name,
        "gamma": [render(f) for f in premises],
        "alpha": render(conclusion),
    }
    if para_depth == 0:
        result = entails(m, premises, conclusion)
        holds = result.holds
        if result.countermodel is not None:
            document["countermodel"] = {
                k: format_value(v) for k, v in sorted(result.countermodel.items())
            }
    elif para_depth == 1:
        result = para_entails(m, premises, conclusion)
        holds = result.holds
        if result.witness is not None:
            document["witness"] = [render(f) for f in result.witness]
    else:
        holds = logic_entails(spec, premises, conclusion)
    document["holds"] = holds
    if fmt == "json":
        _emit_json(document)
    else:
        click.echo("holds" if holds else "fails")
        if document.get("countermodel"):
            cm = ", ".join(f"{k}={v}" for k, v in document["countermodel"].items())
            click.echo(f"countermodel: {cm}")
        if document.get("witness") is not None:
            click.echo("witness: {" + ", ".join(document["witness"]) + "}")
    sys.exit(EXIT_HOLDS if holds else EXIT_FAILS)


@main.command("classify")
@_logic_option
@_format_option
@_matrix_path_option
@click.argument("alpha")
def cmd_classify(logic, fmt, matrix_path, alpha) -> None:
    """Classify ALPHA as tautology, contradiction, or contingent."""
    m = resolve_logic(logic, matrix_path)
    f = _parse_formula(alpha)
    result = classify(m, f)
    if fmt == "json":
        _emit_json({"logic": m.name, "alpha": render(f), "classification": result.value})
    else:
        click.echo(result.value)


@main.command("consistent")
@_logic_option
@_para_option
@_format_option
@_matrix_path_option
@click.argument("gamma")
def cmd_consistent(logic, para_depth, fmt, matrix_path, gamma) -> None:
    """Is GAMMA consistent (its consequences a proper subset of all formulas)?"""
    m = resolve_logic(logic, matrix_path)
    premises = _parse_set(gamma)
    if para_depth == 0:
        verdict = is_consistent(m, premises)
    else:
        verdict = is_para_consistent(m, premises)
    if fmt == "json":
        _emit_json(
            {
                "logic": LogicSpec(m, para_depth).name,
                "gamma": [render(f) for f in premises],
                "consistent": verdict,
            }
        )
    else:
        click.echo("consistent" if verdict else "inconsistent")
    sys.exit(EXIT_HOLDS if verdict else EXIT_FAILS)


@main.command("mss")
@_logic_option
@_format_option
@_matrix_path_option
@click.argument("gamma")
def cmd_mss(logic, fmt, matrix_path, gamma) -> None:
    """The maximal consistent subsets of GAMMA, in canonical order."""
    m = resolve_logic(logic, matrix_path)
    premises = _parse_set(gamma)
    subsets = maximal_consistent_subsets(m, premises)
    if fmt == "json":
        _emit_json(
            {
                "logic": m.name,
                "gamma": [render(f) for f in premises],
                "mss": [[render(f) for f in s] for s in subsets],
            }
        )
    else:
        click.echo("; ".join(str(s) for s in subsets))


_seed_option = click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    help="Reported in the JSON budget record; the grid does not depend on it.",
)


def _echo_stats(report) -> None:
    """How the grid's time went, the claims it replayed and the distinct ones
    it answered, and its five slowest cells, on stderr."""
    click.echo(
        f"stats: {len(report.seconds)} cells in {report.wall_s:.2f} s wall, "
        f"{sum(report.seconds.values()):.2f} s summed over cells, "
        f"{report.claims_replayed} claims replayed, {report.claims_answered} answered",
        err=True,
    )
    slowest = sorted(report.seconds.items(), key=lambda item: item[1], reverse=True)
    for (prop, col), seconds in slowest[:5]:
        click.echo(f"  {prop.value}/{col}: {seconds:.3f} s", err=True)


def _run_audit(fmt, seed, text_grid: bool, stats: bool = False) -> None:
    report = run_table(AuditBudget(seed))
    if fmt == "json":
        _emit_json(report.to_json())
    elif text_grid:
        click.echo(report.format_text())
    else:
        for (prop, col), verdict in report.verdicts.items():
            click.echo(
                f"{prop.value}/{col}: {verdict.outcome.value} ({verdict.method.value})"
            )
        for d in report.discrepancies:
            tag = "known" if d["known"] else "UNEXPLAINED"
            click.echo(
                f"discrepancy {d['cell']}: published={d['published']} "
                f"computed={d['computed']} [{tag}]"
            )
    if stats:
        _echo_stats(report)
    sys.exit(EXIT_FAILS if report.unexpected_discrepancies() else EXIT_HOLDS)


@main.command("audit")
@_format_option
@_seed_option
@click.option(
    "--stats",
    is_flag=True,
    help="Print the grid's times and its five slowest cells to stderr.",
)
def cmd_audit(fmt, seed, stats) -> None:
    """Audit all 16 properties across the six logics; list discrepancies."""
    _run_audit(fmt, seed, text_grid=False, stats=stats)


@main.command("table")
@_format_option
@_seed_option
def cmd_table(fmt, seed) -> None:
    """Print the 16x6 results grid."""
    _run_audit(fmt, seed, text_grid=True)


@main.group("matrix")
def cmd_matrix() -> None:
    """Inspect, list, and validate matrices."""


@cmd_matrix.command("show")
@_format_option
@_matrix_path_option
@click.argument("selector")
def matrix_show(fmt, matrix_path, selector) -> None:
    """Print the truth tables of a matrix, rows in descending value order."""
    m = resolve_logic(selector, matrix_path)
    if fmt == "json":
        _emit_json(matrix_to_document(m))
        return
    rows = sorted(m.values, reverse=True)
    width = max(len(format_value(v)) for v in m.values) + 2
    click.echo(f"{m.name}  values: {', '.join(format_value(v) for v in m.values)}")
    click.echo(f"designated: {', '.join(format_value(v) for v in sorted(m.designated))}")
    click.echo()
    header = " " * width + "~".rjust(width)
    for label, table in (("|", m.or_), ("&", m.and_), ("->", m.imp)):
        header += "   " + "".join(f"{label}{format_value(y)}".rjust(width) for y in rows)
    click.echo(header)
    for x in rows:
        line = format_value(x).rjust(width) + format_value(m.neg[x]).rjust(width)
        for table in (m.or_, m.and_, m.imp):
            line += "   " + "".join(
                format_value(table[(x, y)]).rjust(width) for y in rows
            )
        click.echo(line)


@cmd_matrix.command("list")
def matrix_list() -> None:
    """Name the built-in matrices and parametric families."""
    for name in BUILTIN_NAMES:
        click.echo(name)
    click.echo("ln:<n>  (n-valued, evenly spaced, designated {1})")
    click.echo("gn:<n>  (n-valued, evenly spaced, designated {1})")


@cmd_matrix.command("validate")
@click.argument("path", type=click.Path())
def matrix_validate(path) -> None:
    """Check a matrix file for structural validity."""
    m = _load_or_exit(path)
    click.echo(f"ok: {m.name} ({len(m.values)} values)")


if __name__ == "__main__":
    main()
