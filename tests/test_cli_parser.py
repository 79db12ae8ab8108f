"""The argument parser of the command line.

The help texts below were recorded with `COLUMNS=80` while `build_parser`
still built the whole argparse tree on every call, before `main` built only
the parsers on argv's path; they pin the full tree byte for byte.
"""

import pytest

from residuum.cli import main

HELP_TOP = (
    "usage: residuum [-h]\n"
    "                {cohomology,chern,feasible,prescribe,decompose,periods,dimcount,pluriharm}\n"
    "                ...\n"
    "\n"
    "Residue prescription and pluriharmonic construction on model geometries\n"
    "\n"
    "positional arguments:\n"
    "  {cohomology,chern,feasible,prescribe,decompose,periods,dimcount,pluriharm}\n"
    "    cohomology          Betti numbers of a nerve file\n"
    "    chern               integer Chern 2-cocycles from transition data\n"
    "    feasible            residue-prescription feasibility verdict\n"
    "    prescribe           construct a form with given residues\n"
    "    decompose           split a sphere form into log + second kind\n"
    "    periods             long and short period vectors\n"
    "    dimcount            dimension of the pluriharmonic space mod T_G\n"
    "    pluriharm           pluriharmonic pair construction and evaluation\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "\n"
    "exit codes: 0 ok/feasible, 1 infeasible, 2 bad input, 3 inconclusive, 4\n"
    "numeric failure\n"
)
HELP_PLURIHARM = (
    "usage: residuum pluriharm [-h] {build,eval,grid,audit} ...\n"
    "\n"
    "positional arguments:\n"
    "  {build,eval,grid,audit}\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
HELP_PRESCRIBE = (
    "usage: residuum prescribe [-h] --model {sphere,torus} --divisor DIVISOR\n"
    "                          [--tau TAU] [--cutoff CUTOFF] [--out OUT]\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --model {sphere,torus}\n"
    "  --divisor DIVISOR\n"
    "  --tau TAU             torus modulus, e.g. '0.3 + 1.1 i'\n"
    "  --cutoff CUTOFF\n"
    "  --out OUT\n"
)
HELP_GRID = (
    "usage: residuum pluriharm grid [-h] --pair PAIR --window WINDOW [--res RES]\n"
    "\n"
    "options:\n"
    "  -h, --help       show this help message and exit\n"
    "  --pair PAIR\n"
    "  --window WINDOW  x0,x1,y0,y1\n"
    "  --res RES\n"
)


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width


def run(argv, capsys):
    """stdout, stderr and exit code of `main(argv)`, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["-h"], HELP_TOP),
        (["--help"], HELP_TOP),
        (["pluriharm", "-h"], HELP_PLURIHARM),
        (["prescribe", "-h"], HELP_PRESCRIBE),
        (["pluriharm", "grid", "--help"], HELP_GRID),
    ],
)
def test_golden_help(capsys, argv, expected):
    assert run(argv, capsys) == (expected, "", 0)


# The required arguments of every leaf, with values; no file named here
# exists, so a parse that succeeds ends in a one-line read error.
LEAVES = {
    ("cohomology",): ["no-such-nerve"],
    ("chern",): ["--transitions", "no-such-file"],
    ("feasible",): ["--divisor", "d", "--transitions", "t", "--hodge", "h"],
    ("prescribe",): ["--model", "sphere", "--divisor", "d"],
    ("decompose",): ["--form", "f"],
    ("periods",): ["--garden", "g", "--form", "f"],
    ("dimcount",): ["--garden", "g"],
    ("pluriharm", "build"): ["--garden", "g", "--form", "f"],
    ("pluriharm", "eval"): ["--pair", "p", "--at", "0"],
    ("pluriharm", "grid"): ["--pair", "p", "--window", "-2,2,-2,2"],
    ("pluriharm", "audit"): ["--pair", "p"],
}
BATTERY = [
    [], ["-h"], ["--he"], ["--help"], ["bogus"], ["Chern"], ["--"], ["-x"], ["-h", "chern"],
    ["pluriharm"], ["pluriharm", "bogus"], ["pluriharm", "-h", "build"], ["pluriharm", "Eval"],
    ["chern", "--tr", "no-such-file"],
    ["chern", "--transitions", "t", "--mode", "odd"],
    ["prescribe", "--model", "cube", "--divisor", "d"],
    ["prescribe", "--model", "sphere", "--divisor", "d", "--cutoff", "x"],
    ["pluriharm", "grid", "--pair", "p", "--window", "0,1,0,1", "--res", "ten"],
    ["pluriharm", "audit", "--pair", "p", "--loops", "1.5"],
    ["decompose", "--form"],
    ["decompose", "-h", "extra"],
]
for path, required in LEAVES.items():
    BATTERY += [
        [*path, "-h"],
        [*path, *required[:-1]],  # the last required value (or flag value) is missing
        [*path, *required, "extra"],
    ]


@pytest.mark.parametrize("argv", BATTERY, ids=" ".join)
def test_trimmed_tree_matches_full_tree(capsys, monkeypatch, argv):
    from residuum import cli

    trimmed = run(list(argv), capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *path: full())
    assert trimmed == run(list(argv), capsys)


def count_parsers(monkeypatch, argv):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        main(argv)
    except SystemExit:
        pass
    return len(built)


@pytest.mark.parametrize(
    "argv, most",
    [
        (["decompose", "--form", "no-such-file"], 2),
        (["cohomology", "no-such-file"], 2),
        (["pluriharm", "eval", "--pair", "no-such-file", "--at", "0"], 3),
        (["pluriharm", "grid", "-h"], 3),
    ],
)
def test_main_builds_only_the_parsers_on_argv_path(capsys, monkeypatch, argv, most):
    assert count_parsers(monkeypatch, argv) <= most


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]])
def test_help_and_unknown_names_build_the_full_tree(capsys, monkeypatch, argv):
    assert count_parsers(monkeypatch, argv) == 13


def test_module_docstring_lists_the_subcommand_table():
    from residuum import cli

    names = [
        name if arguments is not None else f"{name} {{{','.join(cli.PLURIHARM_ACTIONS)}}}"
        for name, (_, arguments) in cli.COMMANDS.items()
    ]
    listed = cli.__doc__.split("Subcommands:")[1].split(".\n")[0]
    assert " ".join(listed.split()) == ", ".join(names)
