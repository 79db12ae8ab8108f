"""Command-line interface.

Subcommands: cohomology, chern, feasible, prescribe, decompose, periods,
pluriharm {build,eval,grid,audit}, dimcount.

Exit codes: 0 success (and `feasible` verdict), 1 infeasible, 2 bad input
or file parse error, 3 inconclusive, 4 numeric failure.  Output is
byte-deterministic for fixed inputs and seeds; decimals print with 15
significant digits, exact rationals as p/q.  The environment variable
RESIDUUM_TOL overrides the default 1e-8 period tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath
from typing import List, Optional

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
    pair = parse_pair_text(_read(args.pair))
    if args.action == "eval":
        z = parse_exact(args.at).to_complex()
        field = PluriharmonicField(pair)
        print(f"{field.real_value(z):.15g}")
        return 0
    if args.action == "grid":
        x0, x1, y0, y1 = (float(p) for p in args.window.split(","))
        rows = PluriharmonicField(pair).grid((x0, x1, y0, y1), args.res)
        print("x,y,h")
        for x, y, h in rows:
            print(f"{x:.15g},{y:.15g},{h:.15g}")
        return 0
    if args.action == "audit":
        worst = well_definedness_audit(pair, n_random_loops=args.loops, seed=args.seed)
        print(f"{worst:.15g}")
        return 0 if worst < period_tolerance() else 4
    raise ValueError(f"unknown pluriharm action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residuum",
        description="Residue prescription and pluriharmonic construction on model geometries",
        epilog="exit codes: 0 ok/feasible, 1 infeasible, 2 bad input, 3 inconclusive, 4 numeric failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="Betti numbers of a nerve file")
    p.add_argument("nerve_file")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("chern", help="integer Chern 2-cocycles from transition data")
    p.add_argument("--transitions", required=True)
    p.add_argument("--nerve", help="nerve file (required for abstract mode)")
    p.add_argument("--mode", choices=("concrete", "abstract"), help="expected transition mode")
    p.add_argument("--all", action="store_true", help="print zero entries too")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("feasible", help="residue-prescription feasibility verdict")
    p.add_argument("--divisor", required=True)
    p.add_argument("--transitions", required=True)
    p.add_argument("--hodge", required=True)
    p.add_argument("--nerve")
    p.add_argument("--mode", choices=("concrete", "abstract"), help="expected transition mode")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("prescribe", help="construct a form with given residues")
    p.add_argument("--model", choices=("sphere", "torus"), required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--tau", help="torus modulus, e.g. '0.3 + 1.1 i'")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--out")
    p.set_defaults(func=cmd_prescribe)

    p = sub.add_parser("decompose", help="split a sphere form into log + second kind")
    p.add_argument("--form", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("periods", help="long and short period vectors")
    p.add_argument("--garden", required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("dimcount", help="dimension of the pluriharmonic space mod T_G")
    p.add_argument("--garden", required=True)
    p.set_defaults(func=cmd_dimcount)

    p = sub.add_parser("pluriharm", help="pluriharmonic pair construction and evaluation")
    psub = p.add_subparsers(dest="action", required=True)
    b = psub.add_parser("build")
    b.add_argument("--garden", required=True)
    b.add_argument("--form", required=True)
    b.add_argument("--out")
    e = psub.add_parser("eval")
    e.add_argument("--pair", required=True)
    e.add_argument("--at", required=True)
    g = psub.add_parser("grid")
    g.add_argument("--pair", required=True)
    g.add_argument("--window", required=True, help="x0,x1,y0,y1")
    g.add_argument("--res", type=int, default=20)
    a = psub.add_parser("audit")
    a.add_argument("--pair", required=True)
    a.add_argument("--loops", type=int, default=30)
    a.add_argument("--seed", type=int, default=0)
    for sp in (b, e, g, a):
        sp.set_defaults(func=cmd_pluriharm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except QuadratureError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:  # every input error class derives from ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
