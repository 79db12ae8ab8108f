"""Golden stdout of CLI subcommands whose output involves no quadrature.

The expected texts were recorded before the sphere and torus code paths
were unified behind one model protocol; they pin point naming, lattice
reduction, the lossless float formatter, the automatic basepoint and the
exact sphere arithmetic byte for byte.  The `feasible` and `chern` texts
were recorded with Fraction-pair Q(i) arithmetic, before `ExactComplex`
moved to integers, and pin the obstruction class and the Chern cocycle
over Gaussian-rational cover points.
"""

import pytest

from residuum.cli import main

TORUS2 = (
    "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
    "component 1/5 + 3/10 i\ncomponent 3/5 + 7/10 i\n"
)
TORUS3 = (
    "model torus\ntau = 0.1 + 0.6 i\ncutoff = 30\n"
    "component 1/5 + 1/4 i\ncomponent 11/20 + 3/4 i\ncomponent 4/5 + 3/10 i\n"
)

PRESCRIBE = [
    (["--model", "sphere"], "0 : 1\n1 : -1\n", "-1 / 0, -1, 1\n"),
    (
        ["--model", "sphere"],
        "0 : 1/3\n1 : 1/3\ni : 1/3\n-1 : -1\n",
        "1/3 i, -2/3 - 4/3 i, 4/3 + 1/3 i / 0, i, -1, -i, 1\n",
    ),
    (
        ["--model", "sphere"],
        "inf : 2\n1/2 + i : -3/4 + i\n-2 : -5/4 - i\n",
        "-15/8 + 15/4 i, -2 / -1 - 2 i, 3/2 - i, 1\n",
    ),
    (
        ["--model", "torus", "--tau", "0.3 + 1.1 i"],
        "1/5 + 3/10 i : 1\n3/5 + 7/10 i : -1\n",
        "torus-form\nc0 = 0.0 + 0.0 i\nlog 0.2 + 0.3 i : 1.0 + 0.0 i\n"
        "log 0.6 + 0.7 i : -1.0 + 0.0 i\n",
    ),
    (
        ["--model", "torus", "--tau", "0.3 + 1.1 i", "--cutoff", "30"],
        "1.2 - 0.7 i : 2 + i\n-0.4 + 2.5 i : -1/3\n0.1 + 0.2 i : -5/3 - i\n",
        "torus-form\nc0 = 0.0 + 0.0 i\n"
        "log 0.1 + 0.2 i : -1.6666666666666667 - 1.0 i\n"
        "log 0.49999999999999994 + 0.40000000000000013 i : 2.0 + 1.0 i\n"
        "log 1.0 + 0.2999999999999998 i : -0.3333333333333333 + 0.0 i\n",
    ),
    (
        ["--model", "torus", "--tau", "0.1 + 0.6 i", "--cutoff", "12"],
        "1/4 + 3/20 i : 1/2\n3/4 + 1/2 i : -1/2\n",
        "torus-form\nc0 = 0.0 + 0.0 i\nlog 0.25 + 0.15 i : 0.5 + 0.0 i\n"
        "log 0.75 + 0.5 i : -0.5 + 0.0 i\n",
    ),
]

DECOMPOSE = [
    ("1, 0, 2 / 0, 0, 1, -1\n", "log: -1, -2 / 0, -1, 1\nsecond: 1 / 0, 0, 1\n"),
    ("1 + i, -2, 0, 1/3 / 1, 0, 1\n", "log: 1 + i, -7/3 / 1, 0, 1\nsecond: 0, 1/3 / 1\n"),
    ("0, 0, 5/7\n", "log: 0 / 1\nsecond: 0, 0, 5/7 / 1\n"),
]

DIMCOUNT = [
    ("model sphere\ncomponent 0\ncomponent 1\n", "1\n"),
    ("model sphere\ncomponent 0\ncomponent 1\ncomponent i\ncomponent inf\n", "3\n"),
    (TORUS2, "3\n"),
    (TORUS3, "4\n"),
]

SPHERE_HODGE = "b1 = 0\nd_omega0 = 0\nh01 = 0\nh2 = 1\n"
HODGE_BROKEN = "b1 = 3\nd_omega0 = 1\nh01 = 1\n"
COVER = ["0.137 + 0.094 i", "-0.121 + 0.213 i", "0.052 - 0.184 i", "-1/8 - 3/40 i"]


def sphere_point_text(points):
    return "mode sphere-point\n" + "".join(f"component {p} : {p}\n" for p in points)


def divisor_text(pairs):
    return "".join(f"{p} : {c}\n" for p, c in pairs)


# (divisor, transitions, hodge, exit code, stdout)
FEASIBLE = [
    (divisor_text([(COVER[0], "1 + i"), (COVER[1], "-1 - i")]), sphere_point_text(COVER[:2]),
     SPHERE_HODGE, 0, "feasible class: 0\n"),
    (divisor_text([(COVER[0], "1/2 + i"), (COVER[1], "-3/4"), (COVER[2], "1/4 - i")]),
     sphere_point_text(COVER[:3]), SPHERE_HODGE, 0, "feasible class: 0\n"),
    (divisor_text([(COVER[0], "1/2 + i"), (COVER[1], "-3/4"), (COVER[2], "2 - i")]),
     sphere_point_text(COVER[:3]), SPHERE_HODGE, 1, "infeasible class: 7/4\n"),
    (divisor_text([(COVER[0], "3/2 - 2 i"), (COVER[3], "-1/3")]),
     sphere_point_text([COVER[0], COVER[3]]), SPHERE_HODGE, 1, "infeasible class: 7/6 - 2 i\n"),
    (divisor_text([(COVER[0], "2"), (COVER[1], "-1 + i"), (COVER[2], "-1 - i")]),
     sphere_point_text(COVER[:3]), HODGE_BROKEN, 3, "inconclusive class: 0\n"),
]

# (cover points, extra argv, stdout)
CHERN = [
    (COVER[:1], [], "component 0.137 + 0.094 i\n0,2,3 : 1\n"),
    (
        COVER[:3],
        [],
        "component 0.137 + 0.094 i\n0,2,3 : 1\ncomponent -0.121 + 0.213 i\n0,2,3 : 1\n"
        "component 0.052 - 0.184 i\n0,2,3 : 1\n",
    ),
    (
        COVER,
        ["--all"],
        "".join(
            f"component {p}\n0,1,2 : 0\n0,1,3 : 0\n0,2,3 : 1\n1,2,3 : 0\n" for p in COVER
        ),
    ),
    (
        [COVER[3], COVER[1]],
        [],
        "component -1/8 - 3/40 i\n0,2,3 : 1\ncomponent -0.121 + 0.213 i\n0,2,3 : 1\n",
    ),
]

BUILD_GARDEN_SECTION = [
    (
        "model sphere\ncomponent 0\ncomponent 1\ncomponent 2 + i\n",
        "1 + 1/2 i, -3/2 - i / 0, 2 + i, -3 - i, 1\n",
        "[garden]\nmodel sphere\ncomponent 0\ncomponent 1\ncomponent 2 + i\n"
        "basepoint -2.0 - 2.0 i\n",
    ),
    (
        "model sphere\ncomponent 0\ncomponent inf\n",
        "1 / 0, 1\n",
        "[garden]\nmodel sphere\ncomponent 0\ncomponent inf\nbasepoint -2.0 - 2.0 i\n",
    ),
    (
        "model sphere\ncomponent -2 - 2 i\ncomponent 2 + 2 i\ncomponent 2 - 2 i\n"
        "component -2 + 2 i\n",
        "0, 32 i / 64, 0, 0, 0, 1\n",
        "[garden]\nmodel sphere\ncomponent -2 - 2 i\ncomponent 2 + 2 i\n"
        "component 2 - 2 i\ncomponent -2 + 2 i\nbasepoint 0.0 + 0.0 i\n",
    ),
    (
        TORUS2,
        "torus-form\nc0 = 0.0 + 0.0 i\nlog 0.2 + 0.3 i : 1.0 + 0.0 i\n"
        "log 0.6 + 0.7 i : -1.0 + 0.0 i\n",
        "[garden]\nmodel torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
        "component 0.2 + 0.3 i\ncomponent 0.6 + 0.7 i\nbasepoint 1.034 + 1.078 i\n",
    ),
    (
        TORUS3,
        "torus-form\nc0 = 0.0 + 0.0 i\nlog 0.2 + 0.25 i : 1.0 + 0.0 i\n"
        "log 0.45000000000000007 + 0.15000000000000002 i : -0.5 + 0.0 i\n"
        "log 0.8 + 0.3 i : -0.5 + 0.0 i\n",
        "[garden]\nmodel torus\ntau = 0.1 + 0.6 i\ncutoff = 30\n"
        "component 0.2 + 0.25 i\n"
        "component 0.45000000000000007 + 0.15000000000000002 i\n"
        "component 0.8 + 0.3 i\nbasepoint 1.062 + 0.492 i\n",
    ),
]


def run(tmp_path, capsys, argv, files):
    paths = {}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    code = main([paths.get(a, a) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("model_args, divisor, expected", PRESCRIBE, ids=range(len(PRESCRIBE)))
def test_golden_prescribe(tmp_path, capsys, model_args, divisor, expected):
    argv = ["prescribe", *model_args, "--divisor", "d"]
    assert run(tmp_path, capsys, argv, {"d": divisor}) == (0, expected)


@pytest.mark.parametrize("form, expected", DECOMPOSE, ids=range(len(DECOMPOSE)))
def test_golden_decompose(tmp_path, capsys, form, expected):
    assert run(tmp_path, capsys, ["decompose", "--form", "f"], {"f": form}) == (0, expected)


@pytest.mark.parametrize("garden, expected", DIMCOUNT, ids=range(len(DIMCOUNT)))
def test_golden_dimcount(tmp_path, capsys, garden, expected):
    assert run(tmp_path, capsys, ["dimcount", "--garden", "g"], {"g": garden}) == (0, expected)


@pytest.mark.parametrize("divisor, transitions, hodge, code, expected", FEASIBLE,
                         ids=range(len(FEASIBLE)))
def test_golden_feasible(tmp_path, capsys, divisor, transitions, hodge, code, expected):
    argv = ["feasible", "--divisor", "d", "--transitions", "t", "--hodge", "h"]
    files = {"d": divisor, "t": transitions, "h": hodge}
    assert run(tmp_path, capsys, argv, files) == (code, expected)


@pytest.mark.parametrize("points, extra, expected", CHERN, ids=range(len(CHERN)))
def test_golden_chern(tmp_path, capsys, points, extra, expected):
    argv = ["chern", "--transitions", "t", *extra]
    assert run(tmp_path, capsys, argv, {"t": sphere_point_text(points)}) == (0, expected)


@pytest.mark.parametrize(
    "garden, form, expected", BUILD_GARDEN_SECTION, ids=range(len(BUILD_GARDEN_SECTION))
)
def test_golden_build_garden_section(tmp_path, capsys, garden, form, expected):
    argv = ["pluriharm", "build", "--garden", "g", "--form", "f"]
    code, out = run(tmp_path, capsys, argv, {"g": garden, "f": form})
    assert code == 0
    assert out.split("[phi]")[0] == expected
