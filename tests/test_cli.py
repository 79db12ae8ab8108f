import math

import pytest

from residuum.cli import main

TETRA = "0,1,2\n0,1,3\n0,2,3\n1,2,3\nmaximal\n"
TRIANGLE = "0,1\n1,2\n0,2\n"
SPHERE_GARDEN = "model sphere\ncomponent 0\ncomponent 1\nbasepoint 1/2 + 6/5 i\n"
TORUS_GARDEN = (
    "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
    "component 1/5 + 3/10 i\ncomponent 3/5 + 7/10 i\n"
)
PQ_DIVISOR = "0 : 1\n1 : -1\n"
HODGE_CURVE = "b1 = 2\nd_omega0 = 1\nh01 = 1\nh2 = 1\n"
HODGE_BROKEN = "b1 = 3\nd_omega0 = 1\nh01 = 1\n"
SPHERE_POINT_TRANSITIONS = (
    "mode sphere-point\ncomponent 0 : 0\ncomponent 1 : 1/10 + 1/20 i\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cohomology_tetrahedron(tmp_path, capsys):
    nerve = write(tmp_path, "tetra.nerve", TETRA)
    assert main(["cohomology", nerve]) == 0
    assert capsys.readouterr().out == "1 0 1\n"


def test_cohomology_triangle(tmp_path, capsys):
    nerve = write(tmp_path, "tri.nerve", TRIANGLE)
    assert main(["cohomology", nerve]) == 0
    assert capsys.readouterr().out == "1 1\n"


def test_cohomology_malformed_exit2(tmp_path, capsys):
    nerve = write(tmp_path, "bad.nerve", "0,1\n0,x\n")
    assert main(["cohomology", nerve]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_cohomology_missing_file(capsys):
    assert main(["cohomology", "/nonexistent/nerve"]) == 2


def test_chern_prints_cocycle(tmp_path, capsys):
    trans = write(tmp_path, "t.trans", "mode sphere-point\ncomponent p : 1/10 + 1/20 i\n")
    assert main(["chern", "--transitions", trans]) == 0
    out = capsys.readouterr().out
    assert out.startswith("component p\n")
    assert ":" in out.splitlines()[1]


def test_chern_mode_flag(tmp_path, capsys):
    trans = write(tmp_path, "t.trans", "component p : 1/10 + 1/20 i\n")
    assert main(["chern", "--transitions", trans, "--mode", "concrete"]) == 0
    capsys.readouterr()
    # headerless file interpreted as abstract needs a nerve: error exit
    assert main(["chern", "--transitions", trans, "--mode", "abstract"]) == 2


def test_feasible_pair_exit0(tmp_path, capsys):
    div = write(tmp_path, "d.div", "0 : 1\n1/10 + 1/20 i : -1\n")
    trans = write(
        tmp_path,
        "t.trans",
        "mode sphere-point\ncomponent 0 : 0\ncomponent 1/10 + 1/20 i : 1/10 + 1/20 i\n",
    )
    hodge = write(tmp_path, "h.hodge", HODGE_CURVE)
    code = main(["feasible", "--divisor", div, "--transitions", trans, "--hodge", hodge])
    assert code == 0
    assert capsys.readouterr().out.startswith("feasible")


def test_feasible_single_point_exit1(tmp_path, capsys):
    div = write(tmp_path, "d.div", "0 : 1\n")
    trans = write(tmp_path, "t.trans", "mode sphere-point\ncomponent 0 : 0\n")
    hodge = write(tmp_path, "h.hodge", HODGE_CURVE)
    code = main(["feasible", "--divisor", div, "--transitions", trans, "--hodge", hodge])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("infeasible")
    assert "1" in out


def test_feasible_inconclusive_exit3(tmp_path, capsys):
    nerve = write(tmp_path, "n.nerve", TETRA)
    div = write(tmp_path, "d.div", "W : 1\n")
    trans = write(tmp_path, "t.trans", "mode abstract\ncomponent W\n")
    hodge = write(tmp_path, "h.hodge", HODGE_BROKEN)
    code = main(
        ["feasible", "--divisor", div, "--transitions", trans, "--hodge", hodge, "--nerve", nerve]
    )
    assert code == 3
    assert capsys.readouterr().out.startswith("inconclusive")


def test_prescribe_sphere(tmp_path, capsys):
    div = write(tmp_path, "d.div", "0 : 1\ninf : -1\n")
    assert main(["prescribe", "--model", "sphere", "--divisor", div]) == 0
    assert capsys.readouterr().out == "1 / 0, 1\n"


def test_prescribe_rejects_obstructed(tmp_path, capsys):
    div = write(tmp_path, "d.div", "0 : 1\n")
    assert main(["prescribe", "--model", "sphere", "--divisor", div]) == 2
    assert "sum" in capsys.readouterr().err


def test_prescribe_torus_roundtrip(tmp_path, capsys):
    div = write(tmp_path, "d.div", "1/5 + 3/10 i : 1\n3/5 + 7/10 i : -1\n")
    out_file = str(tmp_path / "form.txt")
    code = main(
        ["prescribe", "--model", "torus", "--divisor", div, "--tau", "0.3 + 1.1 i", "--out", out_file]
    )
    assert code == 0
    text = (tmp_path / "form.txt").read_text()
    assert text.startswith("torus-form")
    assert text.count("log") == 2


def test_decompose(tmp_path, capsys):
    form = write(tmp_path, "f.form", "1, 1 / 0, 0, 1\n")  # (z+1)/z^2
    assert main(["decompose", "--form", form]) == 0
    out = capsys.readouterr().out
    assert out == "log: 1 / 0, 1\nsecond: 1 / 0, 0, 1\n"


def test_periods_sphere(tmp_path, capsys):
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    form = write(tmp_path, "f.form", "-1 / 0, -1, 1\n")  # dz/z - dz/(z-1)
    assert main(["periods", "--garden", garden, "--form", form]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "long: -"
    assert "6.28318530717959" in out[1]


def test_periods_torus(tmp_path, capsys):
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    form_text = "torus-form\nc0 = 1.0 + 0.0 i\n"
    form = write(tmp_path, "f.form", form_text)
    assert main(["periods", "--garden", garden, "--form", form]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("long: 1+")
    assert "1.1" in out[0]


@pytest.mark.parametrize("excess", [0, 1, 3000 - 64])
def test_periods_torus_pole_order_bound(tmp_path, capsys, excess):
    from residuum.torus import MAX_POLE_ORDER

    order = MAX_POLE_ORDER + excess
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    # pole on a component; the tiny coefficient keeps wp^(order - 2) in float range
    form = write(tmp_path, "f.form", f"torus-form\npp 3/5 + 7/10 i : {order} : 1e-200\n")
    code = main(["periods", "--garden", garden, "--form", form])
    out, err = capsys.readouterr()
    if excess == 0:
        assert (code, err) == (0, "") and out.startswith("long: ")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: second-kind pole order {order} exceeds {MAX_POLE_ORDER}\n"


def test_dimcount(tmp_path, capsys):
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    assert main(["dimcount", "--garden", garden]) == 0
    assert capsys.readouterr().out == "3\n"


def test_pluriharm_build_eval_grid_audit(tmp_path, capsys):
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    form = write(tmp_path, "f.form", "-1 / 0, -1, 1\n")
    pair_file = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair_file]) == 0

    assert main(["pluriharm", "eval", "--pair", pair_file, "--at", "2"]) == 0
    plain = capsys.readouterr().out
    assert abs(float(plain) - math.log(4.0)) < 1e-8
    # comments and blank lines between and inside sections change nothing
    text = (tmp_path / "p.pair").read_text()
    text = text.replace("[phi]", "\n# the form\n[phi]  # phi").replace("[psi]", "\n[psi]\n\n")
    commented = write(tmp_path, "c.pair", "# a pair\n\n" + text)
    assert main(["pluriharm", "eval", "--pair", commented, "--at", "2"]) == 0
    assert capsys.readouterr() == (plain, "")

    assert main(["pluriharm", "grid", "--pair", pair_file, "--window", "2,3,0,1", "--res", "3"]) == 0
    grid_out = capsys.readouterr().out.splitlines()
    assert grid_out[0] == "x,y,h"
    assert len(grid_out) == 10

    assert main(["pluriharm", "audit", "--pair", pair_file, "--loops", "8", "--seed", "0"]) == 0
    assert float(capsys.readouterr().out) < 1e-8


# the prescribed form with residues (1, -1) on TORUS_GARDEN, made
# self-conjugate by `normalize_pure_imaginary`
TORUS_REAL_FORM = (
    "torus-form\nc0 = -1.355615549974697 + 0.9889175704662541 i\n"
    "log 0.2 + 0.3 i : 1.0 + 0.0 i\nlog 0.6 + 0.7 i : -1.0 + 0.0 i\n"
)


# 0.4 + 0.5 i moved by the lattice vectors 1000, 1000 tau and 7 - 1000 tau
@pytest.mark.parametrize("at", ["1000.4 + 0.5 i", "300.4 + 1100.5 i", "-292.6 - 1099.5 i"])
def test_torus_eval_far_outside_the_cells_matches_the_translate(tmp_path, capsys, at):
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    form = write(tmp_path, "f.form", TORUS_REAL_FORM)
    pair = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    values = []
    for z in ("0.4 + 0.5 i", at):
        assert main(["pluriharm", "eval", "--pair", pair, "--at", z]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values.append(float(out))
    assert abs(values[1] - values[0]) < 1e-9


@pytest.mark.parametrize("at", ["1000000.5 + 0.5 i", "1e308", "0.3 - 1e308 i"])
def test_torus_eval_too_far_to_translate_exits2(tmp_path, capsys, at):
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    form = write(tmp_path, "f.form", TORUS_REAL_FORM)
    pair = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    assert main(["pluriharm", "eval", "--pair", pair, "--at", at]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("is farther than 1e+06 from the cell\n") and err.count("\n") == 1


def test_pluriharm_deterministic_output(tmp_path, capsys):
    garden = write(tmp_path, "g.garden", TORUS_GARDEN)
    div = write(tmp_path, "d.div", "1/5 + 3/10 i : 1\n3/5 + 7/10 i : -1\n")
    form_file = str(tmp_path / "f.form")
    assert main(
        ["prescribe", "--model", "torus", "--divisor", div, "--tau", "0.3 + 1.1 i", "--out", form_file]
    ) == 0
    outputs = []
    for _ in range(2):
        assert main(["pluriharm", "build", "--garden", garden, "--form", form_file]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # and the pair file round-trips through parsing
    pair_file = tmp_path / "p.pair"
    pair_file.write_text(outputs[0])
    assert main(["pluriharm", "audit", "--pair", str(pair_file), "--loops", "5"]) == 0


def test_residuum_tol_env(tmp_path, capsys, monkeypatch):
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    form = write(tmp_path, "f.form", "-1 / 0, -1, 1\n")
    pair_file = str(tmp_path / "p.pair")
    main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair_file])
    capsys.readouterr()
    # absurdly tight tolerance makes the audit gate fail
    monkeypatch.setenv("RESIDUUM_TOL", "1e-30")
    assert main(["pluriharm", "audit", "--pair", pair_file, "--loops", "4"]) == 4


def test_pluriharm_grid_not_self_conjugate_exit2(tmp_path, capsys):
    # the long periods of this pair are not purely imaginary, so h is not real
    garden = write(tmp_path, "g.garden", "model torus\ntau = 3/10 + 11/10 i\ncomponent 0\ncomponent 1/2\n")
    div = write(tmp_path, "d.div", "0 : 1\n1/2 : -1\n")
    form = str(tmp_path / "f.form")
    pair = str(tmp_path / "p.pair")
    assert main(["prescribe", "--model", "torus", "--divisor", div, "--tau", "3/10 + 11/10 i", "--out", form]) == 0
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    capsys.readouterr()
    assert main(["pluriharm", "eval", "--pair", pair, "--at", "1/2 + 1/2 i"]) == 2
    capsys.readouterr()
    assert main(["pluriharm", "grid", "--pair", pair, "--window=0.1,0.9,0.1,0.9", "--res", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: imaginary residue") and err.count("\n") == 1


def test_decompose_degree_bound_exit2(tmp_path, capsys):
    from residuum.sphere import MAX_DEGREE

    at_bound = write(tmp_path, "ok.form", "1 / " + ", ".join(["1"] + ["0"] * (MAX_DEGREE - 1) + ["1"]) + "\n")
    over = write(tmp_path, "big.form", "1 / " + ", ".join(["1"] + ["0"] * MAX_DEGREE + ["1"]) + "\n")
    assert main(["decompose", "--form", over]) == 2
    assert capsys.readouterr() == ("", f"error: denominator degree {MAX_DEGREE + 1} exceeds {MAX_DEGREE}\n")
    # z^64 + 1 has no root in Q(i): rejected only after certified rounding
    assert main(["decompose", "--form", at_bound]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: factor of degree {MAX_DEGREE} has no roots in Q(i)")


def test_decompose_zero_denominator_exit2(tmp_path, capsys):
    form = write(tmp_path, "zero.form", "1 / 0\n")
    assert main(["decompose", "--form", form]) == 2
    assert capsys.readouterr() == ("", "error: zero denominator\n")


def test_prescribe_torus_large_residues_sum_to_zero_relatively(tmp_path, capsys):
    # exact sum 0; the float sum is 2.3e-10, above an absolute 1e-12
    div = write(tmp_path, "d.div", "0 : 699642.631\n1/2 : 407608.742\n1/2 i : -1107251.373\n")
    assert main(["prescribe", "--model", "torus", "--divisor", div, "--tau", "0.3 + 1.1 i"]) == 0
    assert capsys.readouterr().out.startswith("torus-form\n")


SPHERE_PAIR_FORM = "-1 / 0, -1, 1\n"


def sphere_pair(tmp_path):
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    form = write(tmp_path, "f.form", SPHERE_PAIR_FORM)
    pair = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    return pair


TORUS_PAIR_HEAD = "[garden]\n" + TORUS_GARDEN + "basepoint 1/2 + 1/2 i\n[phi]\ntorus-form\n"
SPHERE_PAIR_GARDEN = "[garden]\nmodel sphere\ncomponent 0\ncomponent 1\n"
PAIR_EVAL = ["pluriharm", "eval", "--pair", "{p}", "--at", "2"]
OVERFLOW = "number out of floating-point range (integer division result too large for a float)"


@pytest.mark.parametrize("argv, files, err_head", [
    (["pluriharm", "eval", "--pair", "{pair}", "--at", "1/0"], {}, "error: "),
    (["pluriharm", "eval", "--pair", "{pair}", "--at", "1e400"], {}, "error: "),
    (["pluriharm", "eval", "--pair", "{pair}", "--at", "1e308"], {}, "error: "),
    (["prescribe", "--model", "sphere", "--divisor", "{div}"], {"div": "a : 1/0\n"}, "error: line 1: "),
    (["dimcount", "--garden", "{garden}"], {"garden": "model sphere\ncomponent 0\ncomponent 1/0\n"},
     "error: line 3: "),
    (["feasible", "--divisor", "{div}", "--transitions", "{trans}", "--hodge", "{hodge}"],
     {"div": PQ_DIVISOR, "trans": SPHERE_POINT_TRANSITIONS, "hodge": "# curve\nb1 = x\n"},
     "error: line 2: "),
    (["cohomology", "{nerve}"], {"nerve": "0,1\n# c\n0,x\n"}, "error: line 3: cannot parse simplex '0,x'\n"),
    (["prescribe", "--model", "sphere", "--divisor", "{div}"], {"div": "0 : 1\n1 : 0.3 + 1/0 i\n"},
     "error: line 2: zero denominator in '0.3 + 1/0 i'\n"),
    (["chern", "--transitions", "{trans}", "--nerve", "{nerve}"],
     {"trans": "mode abstract\ncomponent a\n0,1,x : 1\n", "nerve": TETRA}, "error: line 3: cannot parse '0,1,x : 1'\n"),
    (["chern", "--transitions", "{trans}"], {"trans": "mode concrete\ncomponent a : 1/0\n"},
     "error: line 2: zero denominator in '1/0'\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model sphere\ncomponent 0\nfoo bar\n"},
     "error: line 3: unknown directive 'foo bar'\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model torus\ntau = 0.3 + 1.1 i\ncutoff = x\n"},
     "error: line 3: invalid literal for int() with base 10: 'x'\n"),
    (["decompose", "--form", "{form}"], {"form": "# no line numbers here\n1, 1/0 / 1\n"},
     "error: zero denominator in '1/0'\n"),
    (["periods", "--garden", "{garden}", "--form", "{form}"],
     {"garden": TORUS_GARDEN, "form": "torus-form\nc0 = 1\npp 1/2 : x : 1\n"},
     "error: line 3: invalid literal for int() with base 10: 'x'\n"),
    (PAIR_EVAL, {"p": TORUS_PAIR_HEAD + "c0 = 1/0\n[psi]\ntorus-form\n"}, "error: line 10: zero denominator in '1/0'\n"),
    (PAIR_EVAL, {"p": "[garden]\nmodel sphere\ncomponent 0\ncomponent 1/0\n[phi]\n0\n[psi]\n0\n"},
     "error: line 4: zero denominator in '1/0'\n"),
    (PAIR_EVAL, {"p": SPHERE_PAIR_GARDEN + "[phi]\n0\n[psi]\n0\n[phi]\n0\n"}, "error: line 9: repeated section [phi]\n"),
    (PAIR_EVAL, {"p": SPHERE_PAIR_GARDEN + "[phi]\n0\n[psi]\n0\n\n[chi]\n"}, "error: line 10: unknown section [chi]\n"),
    (PAIR_EVAL, {"p": "# pair\nmodel sphere\n" + SPHERE_PAIR_GARDEN + "[phi]\n0\n[psi]\n0\n"},
     "error: line 2: expected a [garden], [phi] or [psi] section header\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model torus\ntau = 1e400 + i\n"},
     f"error: line 2: {OVERFLOW}\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model torus\ntau = 0.3 + 1.1 i\ncomponent 1e400\n"},
     f"error: line 3: {OVERFLOW}\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model sphere\ncomponent 1e400\ncomponent 0\n"},
     f"error: {OVERFLOW}\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model sphere\ncomponent\n"},
     "error: line 2: component line must read `component <point>`\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "# bare\nmodel\n"},
     "error: line 2: model line must read `model sphere|torus`\n"),
    (["periods", "--garden", "{garden}", "--form", "{form}"],
     {"garden": TORUS_GARDEN, "form": "torus-form\nc0 = 1\nlog 0.5\n"},
     "error: line 3: log line must read `log <pole> : <coeff>`\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "model sphere\ncomponents 0\ncomponent 1\n"},
     "error: line 2: unknown directive 'components 0'\n"),
    (["dimcount", "--garden", "{garden}"], {"garden": "modelx sphere\ncomponent 0\ncomponent 1\n"},
     "error: line 1: unknown directive 'modelx sphere'\n"),
], ids=["at-zero-denominator", "at-beyond-double", "at-near-double-max", "divisor-zero-denominator",
        "garden-zero-denominator", "hodge-not-an-integer", "nerve-bad-simplex", "divisor-padded-literal",
        "abstract-transition-bad-line", "concrete-transition-literal", "garden-unknown-directive",
        "garden-padded-cutoff", "sphere-form-padded-literal", "torus-form-bad-order", "pair-phi-file-line",
        "pair-garden-file-line", "pair-repeated-section", "pair-unknown-section", "pair-line-before-header",
        "garden-tau-overflow", "torus-component-overflow", "sphere-component-overflow-unheaded",
        "garden-component-no-argument", "garden-bare-model", "torus-form-log-no-coefficient",
        "garden-directive-longer-word", "garden-model-longer-word"])
def test_bad_literals_exit2(tmp_path, capsys, argv, files, err_head):
    paths = {"pair": sphere_pair(tmp_path)}
    paths.update({name: write(tmp_path, name, text) for name, text in files.items()})
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(err_head) and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "0", "tight"])
def test_residuum_tol_must_be_finite_positive(tmp_path, capsys, monkeypatch, value):
    pair = sphere_pair(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("RESIDUUM_TOL", value)
    for argv in (["pluriharm", "audit", "--pair", pair, "--loops", "2"], ["pluriharm", "eval", "--pair", pair, "--at", "2"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: RESIDUUM_TOL must be a finite positive number, got {value!r}\n"


def test_grid_and_audit_sizes_are_bounded(tmp_path, capsys):
    from residuum.pluriharmonic import MAX_AUDIT_LOOPS, MAX_GRID_RES

    pair = sphere_pair(tmp_path)
    capsys.readouterr()
    grid = ["pluriharm", "grid", "--pair", pair, "--window=2,3,0,1", "--res"]
    audit = ["pluriharm", "audit", "--pair", pair, "--loops"]
    for argv, value, low, high in ((grid, 0, 1, MAX_GRID_RES), (grid, MAX_GRID_RES + 1, 1, MAX_GRID_RES),
                                   (audit, -1, 0, MAX_AUDIT_LOOPS), (audit, MAX_AUDIT_LOOPS + 1, 0, MAX_AUDIT_LOOPS)):
        assert main(argv + [str(value)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"{value} is outside [{low}, {high}]" in err
    # the CLI defaults (grid 20, audit 30) and the small sizes the benchmark uses stay allowed
    assert max(20, 3) <= MAX_GRID_RES and max(30, 2) <= MAX_AUDIT_LOOPS
    assert main(grid + ["1"]) == 0 and len(capsys.readouterr().out.splitlines()) == 2
    assert main(audit + ["0"]) == 0


@pytest.mark.parametrize("command", ["periods", "pluriharm build"])
def test_unsplit_denominator_exit2(tmp_path, capsys, command):
    # z^2 - 2 has no root in Q(i); the form file is refused when it is read
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    form = write(tmp_path, "f.form", "1 / -2, 0, 1\n")
    assert main(command.split() + ["--garden", garden, "--form", form]) == 2
    assert capsys.readouterr() == ("", "error: factor of degree 2 has no roots in Q(i): -2, 0, 1 (constant first)\n")


@pytest.mark.parametrize("window, code, err", [
    (["--window", "-2,2,-2,2"], 0, ""),
    (["--window=-2,2,-2,2"], 0, ""),
    (["--window=0,1,0"], 2, "error: --window needs four finite numbers x0,x1,y0,y1, got '0,1,0'\n"),
    (["--window", "0,1,0,x"], 2, "error: --window needs four finite numbers x0,x1,y0,y1, got '0,1,0,x'\n"),
    (["--window=0,inf,0,1"], 2, "error: --window needs four finite numbers x0,x1,y0,y1, got '0,inf,0,1'\n"),
    (["--window", "-1,1,-1,1,0"], 2, "error: --window needs four finite numbers x0,x1,y0,y1, got '-1,1,-1,1,0'\n"),
], ids=["negative-separate", "negative-attached", "three-values", "not-a-number", "infinite", "five-values"])
def test_grid_window_forms(tmp_path, capsys, window, code, err):
    pair = sphere_pair(tmp_path)
    capsys.readouterr()
    assert main(["pluriharm", "grid", "--pair", pair, *window, "--res", "2"]) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 0:
        assert out.splitlines()[0] == "x,y,h" and len(out.splitlines()) == 5


def test_grid_window_is_checked_before_the_pair_is_read(capsys):
    assert main(["pluriharm", "grid", "--pair", "/nonexistent/p.pair", "--window=0,1,0"]) == 2
    assert capsys.readouterr().err.startswith("error: --window needs four")


@pytest.mark.parametrize("tau", ["0 + 1e-300 i", "0 + 1e-20 i"])
def test_tiny_imaginary_tau_prints_one_line(tmp_path, tau):
    # a real interpreter, so that any numpy warning would reach stderr
    import os
    import subprocess
    import sys

    import residuum

    div = write(tmp_path, "d.div", "1/2 : 1\n1/4 : -1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(residuum.__file__)))
    proc = subprocess.run([sys.executable, "-m", "residuum.cli", "prescribe", "--model", "torus", "--tau", tau,
                           "--divisor", div], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: Legendre self-check failed") and proc.stderr.count("\n") == 1
