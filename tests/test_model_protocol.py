"""Behaviour that rides on the model protocol: exact sphere conjugation,
the field's value at its basepoint, and early rejection of bad gardens."""

import pytest

from residuum.cli import main
from residuum.models import ModelError, SphereModel, TorusModel, make_model, third_kind
from residuum.periods import GardenError, make_garden
from residuum.pluriharmonic import Pair, PluriharmonicField
from residuum.torus import MAX_CUTOFF, Torus, TorusError

SPHERE_GARDEN = "model sphere\ncomponent 3\ncomponent -3\nbasepoint 1/2 + 1/2 i\n"
TORUS_GARDEN = (
    "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
    "component 1/5 + 3/10 i\ncomponent 3/5 + 7/10 i\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_sphere_build_accepts_non_dyadic_real_residues(tmp_path, capsys):
    divisor = write(tmp_path, "d.div", "0 : 1/3\n1 : 1/3\ni : 1/3\n-1 : -1\n")
    assert main(["prescribe", "--model", "sphere", "--divisor", divisor]) == 0
    form = write(tmp_path, "f.form", capsys.readouterr().out)
    garden = write(
        tmp_path, "g.garden", "model sphere\ncomponent 0\ncomponent 1\ncomponent i\ncomponent -1\n"
    )
    pair = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    psi = open(pair).read().split("[psi]\n")[1]
    assert psi == open(form).read()  # real residues: the partner carries the same ones
    assert main(["pluriharm", "audit", "--pair", pair, "--loops", "2"]) == 0


def _sphere_pair(tmp_path, capsys):
    divisor = write(tmp_path, "d.div", "3 : 1\n-3 : -1\n")
    assert main(["prescribe", "--model", "sphere", "--divisor", divisor]) == 0
    form = write(tmp_path, "f.form", capsys.readouterr().out)
    garden = write(tmp_path, "g.garden", SPHERE_GARDEN)
    pair = str(tmp_path / "p.pair")
    assert main(["pluriharm", "build", "--garden", garden, "--form", form, "--out", pair]) == 0
    return pair


def test_eval_at_basepoint_prints_zero(tmp_path, capsys):
    pair = _sphere_pair(tmp_path, capsys)
    assert main(["pluriharm", "eval", "--pair", pair, "--at", "1/2 + 1/2 i"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_grid_through_basepoint_keeps_every_row(tmp_path, capsys):
    pair = _sphere_pair(tmp_path, capsys)
    assert main(["pluriharm", "grid", "--pair", pair, "--window=0,1,0,1", "--res", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "x,y,h"
    assert len(rows) == 1 + 9
    assert "0.5,0.5,0" in rows


def test_field_value_is_zero_at_basepoint():
    garden = make_garden(TorusModel(Torus(0.3 + 1.1j)), [0.2 + 0.3j, 0.6 + 0.7j])
    field = PluriharmonicField(Pair.build(third_kind(garden.model, 0.2 + 0.3j, 0.6 + 0.7j), garden))
    assert field.value(garden.basepoint) == 0j


def test_make_garden_rejects_duplicate_sphere_components():
    with pytest.raises(GardenError, match="duplicate component 1/2"):
        make_garden(SphereModel(), ["0", "1/2", "1/2"])


def test_make_garden_rejects_lattice_translate_duplicates():
    with pytest.raises(GardenError, match="duplicate component"):
        # 1.5 + 1.4 i = (0.2 + 0.3 i) + 1 + tau
        make_garden(TorusModel(Torus(0.3 + 1.1j)), [0.2 + 0.3j, 1.5 + 1.4j])


@pytest.mark.parametrize(
    "garden",
    [
        "model sphere\ncomponent 0\ncomponent 1\ncomponent 0\n",
        TORUS_GARDEN + "component 6/5 + 3/10 i\n",
    ],
    ids=["sphere", "torus-translate"],
)
def test_dimcount_duplicate_components_exit2(tmp_path, capsys, garden):
    path = write(tmp_path, "g.garden", garden)
    assert main(["dimcount", "--garden", path]) == 2
    assert "duplicate component" in one_line_error(capsys)


def test_torus_cutoff_is_bounded():
    assert MAX_CUTOFF >= 30
    with pytest.raises(TorusError, match="at most"):
        Torus(0.3 + 1.1j, MAX_CUTOFF + 1)
    assert Torus(0.3 + 1.1j, MAX_CUTOFF).cutoff == MAX_CUTOFF


def test_garden_cutoff_bound_exit2(tmp_path, capsys):
    path = write(tmp_path, "g.garden", TORUS_GARDEN.replace("cutoff = 30", "cutoff = 100000000"))
    assert main(["dimcount", "--garden", path]) == 2
    assert "cutoff" in one_line_error(capsys)


def test_prescribe_cutoff_bound_exit2(tmp_path, capsys):
    divisor = write(tmp_path, "d.div", "1/5 + 3/10 i : 1\n3/5 + 7/10 i : -1\n")
    argv = ["prescribe", "--model", "torus", "--tau", "0.3 + 1.1 i", "--cutoff", "100000000"]
    assert main(argv + ["--divisor", divisor]) == 2
    assert "cutoff" in one_line_error(capsys)


def test_make_model():
    assert make_model("sphere") == SphereModel()
    assert make_model("torus", 0.3 + 1.1j, 12).torus.cutoff == 12
    with pytest.raises(ModelError, match="needs tau"):
        make_model("torus")
    with pytest.raises(ModelError, match="unknown model"):
        make_model("plane")
