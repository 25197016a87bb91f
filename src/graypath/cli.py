"""The graypath command line: loaders, constructions, checkers, reports.

Exit codes: 0 all checks pass, 1 check failures (with counterexamples),
2 input errors.  JSON reports are deterministic: identical inputs and
configuration give byte-identical output.
"""

from __future__ import annotations

import json

import click

from .kernel import (GrayError, ValidationError, check_gray_axioms,
                     gray_axioms_hold)
from . import presentation
from .fixtures import UnknownFixture, fixture, fixture_names

SCHEMA = 1


def _load_input(arg):
    """A fixture name or a *.graycat.json / *.gc path."""
    try:
        return fixture(arg)
    except UnknownFixture:
        return presentation.load(arg)


def _load(ctx, load, names):
    """Apply load to every name; bad input ends the command with exit 2."""
    try:
        return [load(name) for name in names]
    except OSError as exc:
        msg = f"cannot read {exc.filename}: {exc.strerror}"
    except UnknownFixture as exc:
        msg = f"unknown fixture {exc}"
    except (presentation.ParseError, ValidationError) as exc:
        msg = str(exc)
    click.echo(f"error: {msg}", err=True)
    ctx.exit(2)


def _construct(ctx, inputs, build, *args):
    """build(*args); on GrayError, exit 2 naming an input that is not Gray."""
    try:
        return build(*args)
    except GrayError:
        bad = [name for name, C in inputs.items() if not gray_axioms_hold(C)]
        if not bad:
            raise
    click.echo(f"error: {bad[0]} is not a Gray-category", err=True)
    ctx.exit(2)


def _save(ctx, C, out):
    """Write C's document to out; an unwritable path is exit 2."""
    try:
        presentation.save(C, out)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc.strerror}", err=True)
        ctx.exit(2)


def _emit(ctx, command, inputs, config, reports, extra=None):
    fmt = ctx.obj.get("report", "human")
    ok = all(r.ok for r in reports)
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "command": command,
            "inputs": list(inputs),
            "config": dict(sorted(config.items())),
            "reports": [r.as_dict() for r in reports],
            "ok": ok,
        }
        if extra:
            doc.update(extra)
        click.echo(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in reports:
            line = f"{r.status.upper():4s} {r.law} ({r.tuples_checked} tuples)"
            if r.counterexample is not None:
                line += f"  counterexample: {r.counterexample!r}"
            click.echo(line)
        if extra:
            for k, v in sorted(extra.items()):
                click.echo(f"{k}: {v}")
        click.echo("all checks passed" if ok else "CHECK FAILURES")
    ctx.exit(0 if ok else 1)


@click.group()
@click.option("--report", type=click.Choice(["human", "json"]), default="human",
              help="Report format; json output is byte-reproducible.")
@click.option("--max-len", type=int, default=3,
              help="List-length bound for symbolic Q1 checks.")
@click.option("--cap", type=int, default=100000,
              help="Enumeration cap for hom-space construction.")
@click.option("--seed", type=int, default=0,
              help="Seed for fault-injection trials.")
@click.pass_context
def main(ctx, report, max_len, cap, seed):
    """Machine-check the path-space and mapping-space constructions."""
    if max_len <= 0 or cap <= 0:
        raise click.UsageError("caps must be positive")
    ctx.obj = {"report": report, "max_len": max_len, "cap": cap, "seed": seed}


@main.command()
@click.argument("path")
@click.pass_context
def validate(ctx, path):
    """Load a document and report structural violations."""
    C, = _load(ctx, presentation.load, [path])
    from .kernel import CheckReport
    _emit(ctx, "validate", [path], {}, [CheckReport("structure", "pass",
                                                    sum(len(C.cells[d]) for d in range(4)))])


@main.group()
def check():
    """Law checkers."""


@check.command("gray")
@click.argument("target")
@click.pass_context
def check_gray(ctx, target):
    """Run the Gray-axiom suite on a fixture or document."""
    C, = _load(ctx, _load_input, [target])
    reports = check_gray_axioms(C)
    _emit(ctx, "check gray", [target], {}, reports)


@check.command("m")
@click.argument("target")
@click.pass_context
def check_m(ctx, target):
    """Verify the path composition is a pseudo map over a fixture."""
    from .pathcomp import verify_internal_category
    C, = _load(ctx, _load_input, [target])
    reports = _construct(ctx, {target: C}, verify_internal_category, C)
    _emit(ctx, "check m", [target], {}, reports)


@check.command("comonad")
@click.argument("target")
@click.pass_context
def check_comonad(ctx, target):
    """Counit/comultiplication laws on symbolic cells."""
    from .resolution import comonad_law_check
    C, = _load(ctx, _load_input, [target])
    reports = comonad_law_check(C, max_len=ctx.obj["max_len"])
    _emit(ctx, "check comonad", [target], {"max_len": ctx.obj["max_len"]}, reports)


@main.command()
@click.argument("target")
@click.option("--out", type=click.Path(), default=None,
              help="Write the path space as a graycat document.")
@click.pass_context
def pathspace(ctx, target, out):
    """Build the path space of a fixture or document."""
    from .pathspace import build_pathspace
    C, = _load(ctx, _load_input, [target])
    P = _construct(ctx, {target: C}, build_pathspace, C)
    reports = check_gray_axioms(P)
    extra = {"cells": [len(P.cells[d]) for d in range(4)]}
    if out:
        _save(ctx, P, out)
        extra["out"] = out
    _emit(ctx, "pathspace", [target], {}, reports, extra)


@main.command()
@click.argument("target")
@click.pass_context
def tower(ctx, target):
    """Assemble the internal Gray-category tower and check its laws."""
    from .highercells import Tower, assemble_internal_graycat
    C, = _load(ctx, _load_input, [target])
    tw = _construct(ctx, {target: C}, Tower, C)
    reports = _construct(ctx, {target: C}, assemble_internal_graycat, tw)
    extra = {"stages": {
        "path": [len(tw.PH.cells[d]) for d in range(4)],
        "bigon": [len(tw.DD.cells[d]) for d in range(4)],
        "triple": [len(tw.DDD.cells[d]) for d in range(4)],
        "parallel": [len(tw.P2.cells[d]) for d in range(4)],
    }}
    _emit(ctx, "tower", [target], {}, reports, extra)


@main.command()
@click.argument("gname")
@click.argument("hname")
@click.pass_context
def hom(ctx, gname, hname):
    """Materialize [G,H] and run the Gray axioms on it."""
    from .homspace import hom_graycat
    G, H = _load(ctx, _load_input, [gname, hname])
    C, _, reports = _construct(ctx, {gname: G, hname: H}, hom_graycat, G, H,
                               ctx.obj["cap"])
    reports = list(reports) + check_gray_axioms(C)
    extra = {"cells": [len(C.cells[d]) for d in range(4)]}
    _emit(ctx, "hom", [gname, hname],
          {"cap": ctx.obj["cap"]}, reports, extra)


@main.command()
@click.argument("target")
@click.option("--count", type=click.IntRange(min=1), default=10)
@click.pass_context
def faults(ctx, target, count):
    """Seeded fault-injection trials against the axiom checker."""
    from .faults import run_fault_trials
    from .kernel import CheckReport
    names = [target] if target != "all" else \
        ["INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3"]
    _load(ctx, fixture, names)
    try:
        det, tot, misses = run_fault_trials(fixture, names, count,
                                            seed=ctx.obj["seed"])
    except GrayError as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(2)
    rep = CheckReport("fault-detection", "pass" if det == tot else "fail",
                      tot, misses[0] if misses else None)
    _emit(ctx, "faults", [target],
          {"count": count, "seed": ctx.obj["seed"]}, [rep],
          {"detected": det})


@main.group()
def fixtures():
    """Fixture library."""


@fixtures.command("list")
@click.pass_context
def fixtures_list(ctx):
    for name in fixture_names():
        click.echo(name)
    ctx.exit(0)


@fixtures.command("dump")
@click.argument("name")
@click.argument("out", type=click.Path())
@click.pass_context
def fixtures_dump(ctx, name, out):
    """Write a fixture as a graycat document."""
    C, = _load(ctx, fixture, [name])
    _save(ctx, C, out)
    click.echo(out)
    ctx.exit(0)


if __name__ == "__main__":
    main()
