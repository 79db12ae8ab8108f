"""Command-line interface.

Subcommands: cohomology, chern, feasible, prescribe, decompose, periods,
dimcount, pluriharm {build,eval,grid,audit}.

Exit codes: 0 success (and `feasible` verdict), 1 infeasible, 2 bad input
or file parse error, 3 inconclusive, 4 numeric failure.  Output is
byte-deterministic for fixed inputs and seeds; decimals print with 15
significant digits, exact rationals as p/q.  The environment variable
RESIDUUM_TOL overrides the default 1e-8 period tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FilePath
from typing import List, Optional, Tuple

from .cech import cohomology_dims, parse_nerve_text
from .chern import chern_cocycle, parse_hodge_text, parse_transition_text, residue_feasible
from .divisor import parse_divisor_text
from .exact import format_exact, parse_exact
from .models import format_form_for_model, make_model, parse_form_for_model, prescribe_residues
from .periods import QuadratureError, parse_garden_text, period_tolerance, period_vectors
from .pluriharmonic import (
    Pair,
    PluriharmonicField,
    format_pair_text,
    parse_pair_text,
    period_matrix_rank,
    pluriharmonic_space_dim,
    well_definedness_audit,
)
from .sphere import decompose_kinds, format_form_text, parse_form_text
from .torus import DEFAULT_CUTOFF


def _fmt(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}i"


def _read(path: str) -> str:
    try:
        return FilePath(path).read_text()
    except OSError as e:
        raise FileNotFoundError(f"cannot read {path}: {e}") from None


def cmd_cohomology(args) -> int:
    nerve = parse_nerve_text(_read(args.nerve_file))
    max_degree = min(nerve.dimension, 2) if nerve.dimension >= 0 else 0
    dims = cohomology_dims(nerve, max_degree)
    print(" ".join(str(d) for d in dims))
    return 0


def _load_transitions(args):
    nerve = None
    if getattr(args, "nerve", None):
        nerve = parse_nerve_text(_read(args.nerve))
    return parse_transition_text(
        _read(args.transitions), nerve=nerve, mode=getattr(args, "mode", None)
    )


def cmd_chern(args) -> int:
    transitions = _load_transitions(args)
    for data in transitions:
        print(f"component {data.component}")
        cocycle = chern_cocycle(data)
        for simplex in data.nerve.k_simplices(2):
            value = cocycle[simplex]
            if not value.is_zero() or args.all:
                key = ",".join(str(v) for v in simplex)
                print(f"{key} : {format_exact(value)}")
    return 0


def cmd_feasible(args) -> int:
    divisor = parse_divisor_text(_read(args.divisor))
    transitions = _load_transitions(args)
    hodge = parse_hodge_text(_read(args.hodge))
    result = residue_feasible(divisor, transitions, hodge)
    coords = " ".join(format_exact(c) for c in result.obstruction.coordinates) or "-"
    print(f"{result.verdict.value} class: {coords}")
    return result.exit_code


def cmd_prescribe(args) -> int:
    divisor = parse_divisor_text(_read(args.divisor))
    tau = parse_exact(args.tau).to_complex() if args.tau else None
    model = make_model(args.model, tau, args.cutoff)
    form = prescribe_residues(model, divisor)
    text = format_form_for_model(form, model)
    if args.out:
        FilePath(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_decompose(args) -> int:
    form = parse_form_text(_read(args.form))
    log_part, second_part = decompose_kinds(form)
    sys.stdout.write("log: " + format_form_text(log_part))
    sys.stdout.write("second: " + format_form_text(second_part))
    return 0


def cmd_periods(args) -> int:
    garden = parse_garden_text(_read(args.garden))
    form = parse_form_for_model(_read(args.form), garden.model)
    longs, shorts = period_vectors(form, garden)
    print("long: " + (" ".join(_fmt(v) for v in longs) or "-"))
    print("short: " + (" ".join(_fmt(v) for v in shorts) or "-"))
    return 0


def cmd_dimcount(args) -> int:
    garden = parse_garden_text(_read(args.garden))
    dim = pluriharmonic_space_dim(garden)
    rank, gap = period_matrix_rank(garden)
    if rank != dim:
        print(f"error: period-matrix rank {rank} contradicts count {dim}", file=sys.stderr)
        return 4
    print(dim)
    return 0


def _parse_window(text: str) -> Tuple[float, float, float, float]:
    try:
        window = tuple(float(p) for p in text.split(","))
    except ValueError:
        window = ()
    if len(window) != 4 or not all(map(math.isfinite, window)):
        raise ValueError(f"--window needs four finite numbers x0,x1,y0,y1, got {text!r}")
    return window


def _attach_window_values(argv: List[str]) -> List[str]:
    """`--window -2,2,-2,2` as `--window=-2,2,-2,2`: argparse reads a value
    that starts with '-' and is not a plain number as an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--window" and not arg.startswith("--"):
            out[-1] = f"--window={arg}"
        else:
            out.append(arg)
    return out


def cmd_pluriharm(args) -> int:
    if args.action == "build":
        garden = parse_garden_text(_read(args.garden))
        form = parse_form_for_model(_read(args.form), garden.model)
        pair = Pair.build(form, garden)
        text = format_pair_text(pair)
        if args.out:
            FilePath(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    window = _parse_window(args.window) if args.action == "grid" else None
    pair = parse_pair_text(_read(args.pair))
    if args.action == "eval":
        z = parse_exact(args.at).to_complex()
        field = PluriharmonicField(pair)
        print(f"{field.real_value(z):.15g}")
        return 0
    if args.action == "grid":
        rows = PluriharmonicField(pair).grid(window, args.res)
        print("x,y,h")
        for x, y, h in rows:
            print(f"{x:.15g},{y:.15g},{h:.15g}")
        return 0
    if args.action == "audit":
        worst = well_definedness_audit(pair, n_random_loops=args.loops, seed=args.seed)
        print(f"{worst:.15g}")
        return 0 if worst < period_tolerance() else 4
    raise ValueError(f"unknown pluriharm action {args.action!r}")


MODES = ("concrete", "abstract")


def _arg(*flags, **options):
    return flags, options


# Each subcommand: its help line and its arguments, in help order; `cmd_<name>`
# runs it.  `pluriharm` has no arguments of its own, only the actions below.
COMMANDS = {
    "cohomology": ("Betti numbers of a nerve file", (_arg("nerve_file"),)),
    "chern": ("integer Chern 2-cocycles from transition data", (
        _arg("--transitions", required=True),
        _arg("--nerve", help="nerve file (required for abstract mode)"),
        _arg("--mode", choices=MODES, help="expected transition mode"),
        _arg("--all", action="store_true", help="print zero entries too"),
    )),
    "feasible": ("residue-prescription feasibility verdict", (
        _arg("--divisor", required=True),
        _arg("--transitions", required=True),
        _arg("--hodge", required=True),
        _arg("--nerve"),
        _arg("--mode", choices=MODES, help="expected transition mode"),
    )),
    "prescribe": ("construct a form with given residues", (
        _arg("--model", choices=("sphere", "torus"), required=True),
        _arg("--divisor", required=True),
        _arg("--tau", help="torus modulus, e.g. '0.3 + 1.1 i'"),
        _arg("--cutoff", type=int, default=DEFAULT_CUTOFF),
        _arg("--out"),
    )),
    "decompose": ("split a sphere form into log + second kind", (_arg("--form", required=True),)),
    "periods": ("long and short period vectors", (
        _arg("--garden", required=True),
        _arg("--form", required=True),
    )),
    "dimcount": ("dimension of the pluriharmonic space mod T_G", (_arg("--garden", required=True),)),
    "pluriharm": ("pluriharmonic pair construction and evaluation", None),
}
PLURIHARM_ACTIONS = {
    "build": (_arg("--garden", required=True), _arg("--form", required=True), _arg("--out")),
    "eval": (_arg("--pair", required=True), _arg("--at", required=True)),
    "grid": (
        _arg("--pair", required=True),
        _arg("--window", required=True, help="x0,x1,y0,y1"),
        _arg("--res", type=int, default=20),
    ),
    "audit": (
        _arg("--pair", required=True),
        _arg("--loops", type=int, default=30),
        _arg("--seed", type=int, default=0),
    ),
}


def _add_choices(parser: argparse.ArgumentParser, dest: str, table: dict, chosen: Optional[str]):
    """The subparsers action; on a trimmed level its metavar still names
    every choice, so that usage lines read as the full tree's."""
    if chosen is None:
        return parser.add_subparsers(dest=dest, required=True)
    return parser.add_subparsers(dest=dest, required=True, metavar="{" + ",".join(table) + "}")


def _add_leaf(sub, name: str, arguments, command: str, **options) -> None:
    p = sub.add_parser(name, **options)
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    # looked up when the tree is built, so a rebinding of `cmd_<name>` is what runs
    p.set_defaults(func=globals()[f"cmd_{command}"])


def build_parser(command: Optional[str] = None, action: Optional[str] = None) -> argparse.ArgumentParser:
    """The whole argparse tree, or only the path to `command` (and, for
    `pluriharm`, to `action`) when that is named."""
    parser = argparse.ArgumentParser(
        prog="residuum",
        description="Residue prescription and pluriharmonic construction on model geometries",
        epilog="exit codes: 0 ok/feasible, 1 infeasible, 2 bad input, 3 inconclusive, 4 numeric failure",
    )
    sub = _add_choices(parser, "command", COMMANDS, command)
    for name in COMMANDS if command is None else (command,):
        help_text, arguments = COMMANDS[name]
        if arguments is not None:
            _add_leaf(sub, name, arguments, name, help=help_text)
            continue
        psub = _add_choices(sub.add_parser(name, help=help_text), "action", PLURIHARM_ACTIONS, action)
        for act in PLURIHARM_ACTIONS if action is None else (action,):
            _add_leaf(psub, act, PLURIHARM_ACTIONS[act], name)
    return parser


def _parser_path(argv: List[str]) -> Tuple[Optional[str], Optional[str]]:
    """The command and `pluriharm` action that argv names, each None unless
    it is a known name; help and an unknown name meet the full tree."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    action = None
    if command == "pluriharm" and len(argv) > 1 and argv[1] in PLURIHARM_ACTIONS:
        action = argv[1]
    return command, action


def main(argv: Optional[List[str]] = None) -> int:
    argv = _attach_window_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(*_parser_path(argv)).parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except QuadratureError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OverflowError as e:  # a number too large for the float numerics
        print(f"error: number out of floating-point range ({e})", file=sys.stderr)
        return 2
    except ValueError as e:  # every input error class derives from ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
