"""Lockstep batches: `contour_integrals` on a list of paths gives, path by
path, what the one-path adaptive loop (`helpers.reference_contour_integral`)
returns or raises, to the bit, and no integrand call exceeds the batch cap."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import reference_contour_integral
from residuum import periods
from residuum.cli import main
from residuum.periods import (
    GL_NODES,
    MAX_BATCH_POINTS,
    MAX_PANELS,
    FormStack,
    GardenError,
    Path,
    QuadratureError,
    _component_circle,
    circle,
    contour_integrals,
    line,
    parse_garden_text,
)
from residuum.pluriharmonic import audit_loops, evaluation_path, spanning_forms

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
GARDEN_TEXTS = {
    "sphere": "model sphere\ncomponent 0\ncomponent 1\ncomponent 2 + i\ncomponent inf\n",
    "torus": "model torus\ntau = 0.1 + 0.6 i\ncutoff = 30\n"
             "component 1/5 + 1/4 i\ncomponent 11/20 + 3/4 i\ncomponent 4/5 + 3/10 i\n",
    # the `periods` golden cases whose high-order pole fails quadrature
    "high-order": "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
                  "component 1/5 + 3/10 i\ncomponent 1/2 + 1/2 i\n",
}
GARDENS = {name: parse_garden_text(text) for name, text in GARDEN_TEXTS.items()}
FORMS = {name: spanning_forms(garden) for name, garden in GARDENS.items()}
FORMS["high-order"] += [
    GARDENS["high-order"].model.parse_form(f"torus-form\npp 1/2 + 1/2 i : {k} : 1\n") for k in (20, 40)
]


def outcome(call):
    try:
        return call()
    except Exception as e:  # compared with the batch's outcome for the path
        return e


def same(a, b) -> bool:
    """Equal values, or errors of one type and message whose rows agree."""
    if not isinstance(a, Exception) and not isinstance(b, Exception):
        return a == b
    if type(a) is not type(b) or str(a) != str(b):
        return False
    rows_a, rows_b = getattr(a, "rows", None), getattr(b, "rows", None)
    if rows_a is None or rows_b is None:
        return rows_a is rows_b
    return len(rows_a) == len(rows_b) and all(
        (str(x) == str(y) and type(x) is type(y)) if isinstance(x, Exception) else x == y
        for x, y in zip(rows_a, rows_b)
    )


def assert_batch_is_one_path_calls(integrand, paths):
    batch = contour_integrals(integrand, paths)
    alone = [outcome(lambda: reference_contour_integral(integrand, path)) for path in paths]
    assert len(batch) == len(paths)
    for got, want in zip(batch, alone):
        assert same(got, want), (got, want)


@st.composite
def garden_path(draw, garden):
    """A loop of the basis, a small component circle (either way round), a
    detoured evaluation segment, or a random audit circle."""
    kinds = ["circle", "detour", "audit"] + (["loop"] if garden.loop_basis else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "loop":
        return draw(st.sampled_from(garden.loop_basis))
    if kind == "circle":
        finite = [j for j in range(len(garden.components)) if not _component_circle(garden, j)[1]]
        loop = _component_circle(garden, draw(st.sampled_from(finite)))[0]
        return loop.reversed() if draw(st.booleans()) else loop
    if kind == "audit":
        return audit_loops(garden, 1, draw(st.integers(0, 50)))[-1]
    z = complex(draw(st.floats(-0.8, 1.8)), draw(st.floats(-0.8, 1.8)))
    try:
        return evaluation_path(garden, z)
    except (GardenError, ValueError):
        assume(False)


@SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(GARDENS)))
def test_batch_equals_one_path_calls(data, name):
    garden = GARDENS[name]
    forms = data.draw(st.lists(st.sampled_from(FORMS[name]), min_size=1, max_size=3))
    paths = data.draw(st.lists(garden_path(garden), min_size=1, max_size=4))
    stack = FormStack(garden.model, tuple(forms))
    assert_batch_is_one_path_calls(stack, paths)
    if len(forms) == 1:
        assert_batch_is_one_path_calls(forms[0], paths)


@SETTINGS
@given(
    forms=st.lists(st.sampled_from(FORMS["sphere"]), min_size=1, max_size=3),
    radii=st.lists(st.floats(0.05, 0.4), min_size=1, max_size=3),
    reverse=st.booleans(),
)
def test_batch_in_the_chart_at_infinity(forms, radii, reverse):
    # every finite pole of the sphere garden has |1/p| >= 1/sqrt(5) > 0.4
    stack = FormStack(GARDENS["sphere"].model, tuple(forms))
    loops = [circle(0j, r) for r in radii]
    assert_batch_is_one_path_calls(
        lambda w: -stack.eval_complex(1.0 / w) / w**2, [c.reversed() if reverse else c for c in loops]
    )


def test_high_order_forms_fail_their_rows():
    garden = GARDENS["high-order"]
    f20, f40 = FORMS["high-order"][-2:]
    paths = [*garden.loop_basis, _component_circle(garden, 0)[0], _component_circle(garden, 1)[0]]
    stack = FormStack(garden.model, (FORMS["high-order"][0], f40, f20))
    sizes = []
    batch = contour_integrals(lambda z: sizes.append(np.size(z)) or stack.eval_complex(z), paths)
    assert isinstance(batch[0], QuadratureError) and "did not converge" in str(batch[0])
    assert batch[0].rows[1] is batch[0] and not isinstance(batch[0].rows[0], Exception)
    # a piece refined to the panel cap has more nodes than a call may hold
    alone = []
    outcome(lambda: reference_contour_integral(lambda z: alone.append(np.size(z)) or stack.eval_complex(z), paths[0]))
    assert max(alone) == GL_NODES * MAX_PANELS > MAX_BATCH_POINTS == max(sizes)
    assert_batch_is_one_path_calls(FormStack(garden.model, (f20, f40)), paths)


def test_integrand_errors_stay_with_their_path():
    # row 1 fails on the first piece of `joint` and `dead_end`; a node of the
    # second piece of `joint` at 1024 panels, which only row 1 refines to there,
    # raises, and so does every node of `dead_end`'s second piece past 2.5
    pole = 1 - 1e-7 + 1e-7j
    joint = Path([line(0, 1), line(1, 1 + 1j)])
    t, _ = periods._panel_rule(1024)
    trap = joint.pieces[1].point(t[:1])[0]

    def integrand(z):
        if np.any(np.abs(z - trap) < 1e-13):
            raise ValueError(f"trap hit at {trap}")
        if np.any(z.real > 2.5):
            raise ValueError(f"out of range at {z[z.real > 2.5][0]}")
        return np.array([np.ones_like(z), 1.0 / (z - pole) ** 2])

    far = Path([line(2, 2 + 1j), line(2 + 1j, 3 + 1j)])  # raises on its second piece
    beyond = Path([line(3, 4)])  # raises at once
    smooth = Path([line(1j, 2j)])
    dead_end = Path([line(0, 1), line(1, 3)])  # row 1 fails, then the integrand raises
    paths = [joint, far, smooth, beyond, dead_end]
    outcomes = contour_integrals(integrand, paths)
    assert isinstance(outcomes[0], QuadratureError)
    assert [type(v) for v in outcomes[1:]] == [ValueError, list, ValueError, ValueError]
    assert_batch_is_one_path_calls(integrand, paths)
    # row 1 alone: `joint` never reaches the trap, `dead_end` never raises
    row = contour_integrals(lambda z: integrand(z)[1], paths)
    assert [type(v) for v in row] == [QuadratureError, ValueError, complex, ValueError, QuadratureError]
    assert_batch_is_one_path_calls(lambda z: integrand(z)[1], paths)


def torus_pair_file(tmp_path, c0="c0 = -1.355615549974697 + 0.9889175704662541 i\n"):
    # residues (1, -1) at 0.2 + 0.3 i and 0.6 + 0.7 i, tau = 0.3 + 1.1 i; the
    # default c0 makes the long periods purely imaginary, so the pair is
    # self-conjugate
    garden, form, pair = (tmp_path / name for name in ("g.garden", "f.form", "p.pair"))
    garden.write_text("model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\ncomponent 1/5 + 3/10 i\ncomponent 3/5 + 7/10 i\n")
    form.write_text(f"torus-form\n{c0}log 0.2 + 0.3 i : 1.0 + 0.0 i\nlog 0.6 + 0.7 i : -1.0 + 0.0 i\n")
    assert main(["pluriharm", "build", "--garden", str(garden), "--form", str(form), "--out", str(pair)]) == 0
    return str(pair)


@pytest.mark.parametrize("window, message", [
    ("0.4,2e6,0.5,0.6", "the pair is not self-conjugate"),
    ("2e6,0.4,0.5,0.6", "is farther than 1e+06 from the cell"),
], ids=["imaginary-first", "far-first"])
def test_grid_raises_the_first_failure_in_row_order(tmp_path, capsys, window, message):
    # every grid point of a pair that is not self-conjugate fails, and a
    # point beyond MAX_TRANSLATE has no evaluation path: the earlier one wins
    pair = torus_pair_file(tmp_path, c0="")
    capsys.readouterr()
    assert main(["pluriharm", "grid", "--pair", pair, "--window=" + window, "--res", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(message + "\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["grid", "--window=-0.2,1.4,-0.2,1.2", "--res", "100"],
    ["audit", "--loops", "1000"],
], ids=["grid-100", "audit-1000"])
def test_integrand_calls_stay_under_the_batch_cap(tmp_path, capsys, monkeypatch, argv):
    pair = torus_pair_file(tmp_path)
    sizes = []
    evaluate = FormStack.eval_complex
    monkeypatch.setattr(FormStack, "eval_complex", lambda self, z: sizes.append(np.size(z)) or evaluate(self, z))
    assert main(["pluriharm", argv[0], "--pair", pair, *argv[1:]]) == 0
    capsys.readouterr()
    assert max(sizes) == MAX_BATCH_POINTS  # the big batches are split at the cap
    assert all(0 < n <= MAX_BATCH_POINTS for n in sizes)
