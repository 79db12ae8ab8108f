"""Golden stdout of CLI subcommands.

The expected texts of the subcommands that use no quadrature were recorded
before the sphere and torus code paths were unified behind one model
protocol; they pin point naming, lattice reduction, the lossless float
formatter, the automatic basepoint and the exact sphere arithmetic byte for
byte.  The `feasible` and `chern` texts were recorded with Fraction-pair
Q(i) arithmetic, before `ExactComplex` moved to integers, and pin the
obstruction class and the Chern cocycle over Gaussian-rational cover points.

The subcommands that use contour quadrature (`periods`, `pluriharm build`,
`eval`, `grid` and `audit`, `dimcount`) are pinned on two torus gardens and
a sphere garden with a component at infinity, together with the pair files
`build` writes and the one-line errors of inputs whose quadrature fails.
These texts were recorded while each form was still integrated in its own
adaptive pass, before the forms on one loop were stacked into one
integrand; they print roundoff digits, so they hold the stacked quadrature
to bitwise-equal values.
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

# the prescribed forms with residues (1, -1) and (1, -1/2, -1/2), made
# self-conjugate by `normalize_pure_imaginary`, and a sphere form with a
# pole at infinity
SPHERE4 = "model sphere\ncomponent 0\ncomponent 1\ncomponent 2 + i\ncomponent inf\n"
TORUS2_FORM = (
    "torus-form\nc0 = -1.355615549974697 + 0.9889175704662541 i\n"
    "log 0.2 + 0.3 i : 1.0 + 0.0 i\nlog 0.6 + 0.7 i : -1.0 + 0.0 i\n"
)
TORUS3_FORM = (
    "torus-form\nc0 = -0.7265164373588775 + 0.2899033816404534 i\n"
    "log 0.2 + 0.25 i : 1.0 + 0.0 i\n"
    "log 0.45000000000000007 + 0.15000000000000002 i : -0.5 + 0.0 i\n"
    "log 0.8 + 0.3 i : -0.5 + 0.0 i\n"
)
SPHERE4_FORM = "2 + i, -7/2 - 1/2 i, 2 / 0, 2 + i, -3 - i, 1\n"

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


TORUS2_PAIR = (
    "[garden]\n"
    "model torus\n"
    "tau = 0.3 + 1.1 i\n"
    "cutoff = 30\n"
    "component 0.2 + 0.3 i\n"
    "component 0.6 + 0.7 i\n"
    "basepoint 1.034 + 1.078 i\n"
    "[phi]\n"
    "torus-form\n"
    "c0 = -1.355615549974697 + 0.9889175704662541 i\n"
    "log 0.2 + 0.3 i : 1.0 + 0.0 i\n"
    "log 0.6 + 0.7 i : -1.0 + 0.0 i\n"
    "[psi]\n"
    "torus-form\n"
    "c0 = -1.3556155499746967 + 0.9889175704662537 i\n"
    "log 0.2 + 0.3 i : 1.0 + 0.0 i\n"
    "log 0.6 + 0.7 i : -1.0 + 0.0 i\n"
    "pp 0.2 + 0.3 i : 2 : 1.060184893821172e-16 + 3.746640030288699e-33 i\n"
)
TORUS3_PAIR = (
    "[garden]\n"
    "model torus\n"
    "tau = 0.1 + 0.6 i\n"
    "cutoff = 30\n"
    "component 0.2 + 0.25 i\n"
    "component 0.45000000000000007 + 0.15000000000000002 i\n"
    "component 0.8 + 0.3 i\n"
    "basepoint 1.062 + 0.492 i\n"
    "[phi]\n"
    "torus-form\n"
    "c0 = -0.7265164373588775 + 0.2899033816404534 i\n"
    "log 0.2 + 0.25 i : 1.0 + 0.0 i\n"
    "log 0.45000000000000007 + 0.15000000000000002 i : -0.5 + 0.0 i\n"
    "log 0.8 + 0.3 i : -0.5 + 0.0 i\n"
    "[psi]\n"
    "torus-form\n"
    "c0 = -0.7265164373588775 + 0.2899033816404535 i\n"
    "log 0.2 + 0.25 i : 1.0 + 0.0 i\n"
    "log 0.45000000000000007 + 0.15000000000000002 i : -0.5 + 0.0 i\n"
    "log 0.8 + 0.3 i : -0.5 + 0.0 i\n"
    "pp 0.2 + 0.25 i : 2 : -9.718361526694075e-17 - 1.71721001388232e-33 i\n"
)
SPHERE_PAIR = (
    "[garden]\n"
    "model sphere\n"
    "component 0\n"
    "component 1\n"
    "component 2 + i\n"
    "component inf\n"
    "basepoint -2.0 - 2.0 i\n"
    "[phi]\n"
    "2 + i, -7/2 - 1/2 i, 2 / 0, 2 + i, -3 - i, 1\n"
    "[psi]\n"
    "2 + i, -7/2 - 1/2 i, 2 / 0, 2 + i, -3 - i, 1\n"
)

# (garden, form, pair file written by `pluriharm build`, [(argv, stdout)]);
# the names g, f and p stand for those three files
FIELD = {
    "torus2": (TORUS2, TORUS2_FORM, TORUS2_PAIR, [
        (["periods", "--garden", "g", "--form", "f"], (
            "long: 3.14201789586299e-16+2.28479465715621i -1.15359111152458e-16-1.82783572572497i\n"
            "short: 5.55111512312578e-17+6.28318530717959i -1.38777878078145e-16-6.28318530717959i\n"
        )),
        (["dimcount", "--garden", "g"], "3\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "0.4 + 0.5 i"], "0.0422012169805082\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "0.25 + 0.33 i"], "-3.61628599757517\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "1.4 + 0.5 i"], "0.0422012169805077\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "0.7 + 1.6 i"], "0.0422012169805079\n"),
        (["pluriharm", "grid", "--pair", "p", "--window", "0.4,0.46,0.5,0.56", "--res", "3"], (
            "x,y,h\n"
            "0.4,0.5,0.0422012169805082\n"
            "0.43,0.5,0.264968125502638\n"
            "0.46,0.5,0.48062036814592\n"
            "0.4,0.53,0.284339041302078\n"
            "0.43,0.53,0.514215506436866\n"
            "0.46,0.53,0.744201977609007\n"
            "0.4,0.56,0.519086267629707\n"
            "0.43,0.56,0.763012728119407\n"
            "0.46,0.56,1.01631585738406\n"
        )),
        (["pluriharm", "audit", "--pair", "p", "--loops", "2"], "1.4432899320127e-15\n"),
    ]),
    "torus3": (TORUS3, TORUS3_FORM, TORUS3_PAIR, [
        (["periods", "--garden", "g", "--form", "f"], (
            "long: 0-0.26179938779915i -1.34441069388203e-17-2.69653369433124i\n"
            "short: 5.82867087928207e-16+6.28318530717959i -4.44089209850063e-16-3.14159265358979i -2.22044604925031e-16-3.14159265358979i\n"
        )),
        (["dimcount", "--garden", "g"], "4\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "0.5 + 0.4 i"], "0.902450251030019\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "0.3 + 0.3 i"], "-1.18302663198904\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "1.5 + 0.4 i"], "0.902450251030021\n"),
        (["pluriharm", "grid", "--pair", "p", "--window", "0.5,0.56,0.35,0.41", "--res", "3"], (
            "x,y,h\n"
            "0.5,0.35,1.00726455561983\n"
            "0.53,0.35,1.17857398291972\n"
            "0.56,0.35,1.32983622916227\n"
            "0.5,0.38,0.936968843013772\n"
            "0.53,0.38,1.1090454793852\n"
            "0.56,0.38,1.26328698295261\n"
            "0.5,0.41,0.888412186303538\n"
            "0.53,0.41,1.05749674819319\n"
            "0.56,0.41,1.21008987363629\n"
        )),
        (["pluriharm", "audit", "--pair", "p", "--loops", "2"], "1.36002320516582e-15\n"),
    ]),
    "sphere": (SPHERE4, SPHERE4_FORM, SPHERE_PAIR, [
        (["periods", "--garden", "g", "--form", "f"], (
            "long: -\n"
            "short: 0+6.28318530717959i -0-3.14159265358979i 0+9.42477796076938i -0-12.5663706143592i\n"
        )),
        (["dimcount", "--garden", "g"], "3\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "1/2 + 1/2 i"], "-4.59741809272011\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "-1.5 + 0.7 i"], "-1.80208361459764\n"),
        (["pluriharm", "eval", "--pair", "p", "--at", "1.2 + 0.1 i"], "-3.19850557239317\n"),
        (["pluriharm", "grid", "--pair", "p", "--window", "0.3,0.5,0.4,0.6", "--res", "3"], (
            "x,y,h\n"
            "0.3,0.4,-5.02820100881256\n"
            "0.4,0.4,-4.8303762253161\n"
            "0.5,0.4,-4.63205432789136\n"
            "0.3,0.5,-4.83720351535109\n"
            "0.4,0.5,-4.71995383360928\n"
            "0.5,0.5,-4.59741809272011\n"
            "0.3,0.6,-4.66981644579127\n"
            "0.4,0.6,-4.61400721371016\n"
            "0.5,0.6,-4.55298863990491\n"
        )),
        (["pluriharm", "audit", "--pair", "p", "--loops", "2"], "5.27355936696949e-16\n"),
    ]),
}

TORUS2_PP_FORM = (
    "torus-form\nc0 = 1/2\nlog 1/5 + 3/10 i : 1\nlog 3/5 + 7/10 i : -1\n"
    "pp 3/5 + 7/10 i : 3 : 1/4 - 1/2 i\npp 1/5 + 3/10 i : 2 : 2\n"
)
HIGH_ORDER_GARDEN = (
    "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
    "component 1/5 + 3/10 i\ncomponent 1/2 + 1/2 i\n"
)
PERIODS = ["periods", "--garden", "g", "--form", "f"]

# (files, argv, exit code, stdout, stderr): second-kind terms next to zeta
# terms, a high-order pole whose small-circle integral misses its residue
# or does not converge, and a pair file whose psi was edited
QUADRATURE_CASES = [
    ({"g": TORUS2, "f": TORUS2_PP_FORM}, PERIODS, 0,
     "long: -4.77311604168695+1.4452232449018i -0.508406259026234+5.23623581910224i\n"
     "short: 7.105427357601e-15+6.28318530717958i 5.32907051820075e-15-6.28318530717959i\n",
     ""),
    ({"g": HIGH_ORDER_GARDEN, "f": "torus-form\npp 1/2 + 1/2 i : 20 : 1\n"}, PERIODS, 4, "",
     "error: small-circle integral (-5344726022619136-9925291463933952j) disagrees with "
     "2 pi i x residue 0j at component 0.2 + 0.3 i\n"),
    ({"g": HIGH_ORDER_GARDEN, "f": "torus-form\npp 1/2 + 1/2 i : 40 : 1\n"}, PERIODS, 4, "",
     "error: quadrature did not converge at 1024 panels (last delta 2.170e+52); "
     "pole too close to path?\n"),
    ({"p": TORUS2_PAIR.replace("c0 = -1.3556155499746967", "c0 = -1.3546155499746967")},
     ["pluriharm", "eval", "--pair", "p", "--at", "0.4 + 0.5 i"], 2, "",
     "error: loaded pair violates period negation by 1.140e-03\n"),
]


def run_full(tmp_path, capsys, argv, files):
    """Exit code, stdout and stderr of `main` with the file names in argv
    replaced by files holding the given texts."""
    paths = {}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(tmp_path, capsys, argv, files):
    return run_full(tmp_path, capsys, argv, files)[:2]


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


@pytest.mark.parametrize("name", sorted(FIELD))
def test_golden_pair_file(tmp_path, capsys, name):
    garden, form, pair, _ = FIELD[name]
    argv = ["pluriharm", "build", "--garden", "g", "--form", "f", "--out", str(tmp_path / "out")]
    assert run_full(tmp_path, capsys, argv, {"g": garden, "f": form}) == (0, "", "")
    assert (tmp_path / "out").read_text() == pair


@pytest.mark.parametrize(
    "name, index", [(n, i) for n in sorted(FIELD) for i in range(len(FIELD[n][3]))]
)
def test_golden_quadrature_subcommands(tmp_path, capsys, name, index):
    garden, form, pair, queries = FIELD[name]
    argv, expected = queries[index]
    files = {"g": garden, "f": form, "p": pair}
    assert run_full(tmp_path, capsys, argv, files) == (0, expected, "")


@pytest.mark.parametrize(
    "files, argv, code, out, err", QUADRATURE_CASES, ids=range(len(QUADRATURE_CASES))
)
def test_golden_quadrature_cases(tmp_path, capsys, files, argv, code, out, err):
    assert run_full(tmp_path, capsys, argv, files) == (code, out, err)
