import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from residuum.cech import (
    CohomologySpace,
    coboundary,
    fundamental_two_cycle,
    pair_with_cycle,
    standard_good_nerves,
    validate_nerve,
)
from residuum.chern import (
    HodgeRecord,
    TransitionData,
    TransitionError,
    Verdict,
    chern_cocycle,
    double_delta,
    has_property_h,
    kernel_dimension,
    parse_hodge_text,
    parse_transition_text,
    residue_feasible,
    sphere_cover_membership,
    sphere_divisor_transitions,
    sphere_point_transitions,
)
from residuum.divisor import CDivisor
from residuum.exact import ExactComplex, ONE, ZERO
from residuum.rational import Polynomial, RationalFunction, linear_roots
from residuum.sphere import SpherePoint

SPHERE_NERVE = standard_good_nerves("sphere")
TORUS_NERVE = standard_good_nerves("torus")
IWASAWA = HodgeRecord(4, 2, 2, 4)
CURVE = HodgeRecord(2, 1, 1, 1)
BROKEN = HodgeRecord(3, 1, 1, 1)

CENTER_POINT = ExactComplex.coerce("1/10 + 1/20 i")


def abstract_data(values, name="W", nerve=SPHERE_NERVE):
    return TransitionData(nerve, name, abstract_values=values)


def test_mode_exclusivity():
    with pytest.raises(TransitionError):
        TransitionData(SPHERE_NERVE, "W")


def test_abstract_zero_cocycle():
    data = abstract_data({})
    assert chern_cocycle(data).is_zero()


def test_abstract_cocycle_validation():
    # on a solid tetrahedron the coboundary of a 2-cochain can be nonzero:
    # (d n)_{0123} = n_123 - n_023 + n_013 - n_012
    solid = validate_nerve([(0, 1, 2, 3)], maximal=True)
    bad = TransitionData(solid, "W", abstract_values={(0, 1, 2): 1})
    with pytest.raises(TransitionError):
        chern_cocycle(bad)
    ok = TransitionData(
        solid, "W", abstract_values={(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 0, (1, 2, 3): 0}
    )
    assert not chern_cocycle(ok).is_zero()  # 0 - 0 + 1 - 1 = 0: a genuine cocycle


def test_constant_transitions_give_zero():
    # point far outside every set pair: all g identically 1 happens for no
    # actual point, so feed constants through the abstract route instead
    data = abstract_data({(0, 1, 2): 0, (0, 1, 3): 0, (0, 2, 3): 0, (1, 2, 3): 0})
    assert chern_cocycle(data).is_zero()


def test_point_divisor_pairs_to_one():
    td = sphere_point_transitions(CENTER_POINT)
    cocycle = chern_cocycle(td)
    cycle = fundamental_two_cycle(SPHERE_NERVE)
    assert pair_with_cycle(cocycle, cycle) in (ONE, -ONE)
    cls = double_delta(CDivisor.from_pairs([(td.component, ONE)]), [td])
    assert cls.coordinates == (ONE,)


@pytest.mark.parametrize(
    "point",
    [
        "1/10 + 1/20 i",
        "-1/10 + 1/8 i",
        "0",
        "inf",
        "-21/20 + 1/10 i",  # in the cap
        "11/20 + 1/5 i",  # in a sector
    ],
)
def test_point_divisor_class_is_one_everywhere(point):
    td = sphere_point_transitions(point)
    cls = double_delta(CDivisor.from_pairs([(td.component, ONE)]), [td])
    assert cls.coordinates == (ONE,)


def test_winding_stability_under_node_doubling():
    td = sphere_point_transitions(CENTER_POINT)
    assert chern_cocycle(td, nodes=64).values == chern_cocycle(td, nodes=128).values


def test_winding_residual_rejected():
    # hand-built data whose branch continuation lands halfway between
    # integers: log z continued along half the unit circle gives 1/2
    from residuum.chern import ConcreteTransitions
    from residuum.periods import Path, arc

    nerve = validate_nerve([(0, 1, 2)], maximal=True)
    half_circle = Path([arc(0j, 1.0, 0.0, math.pi)])
    data = TransitionData(
        nerve,
        "W",
        concrete=ConcreteTransitions(
            g={(0, 1): {ZERO: 1}, (0, 2): {}, (1, 2): {}},
            base_points={(0, 1): 1.0 + 0j, (0, 2): 1.0 + 0j, (1, 2): 1.0 + 0j},
            paths={((0, 1), (0, 1, 2)): half_circle},
        ),
    )
    with pytest.raises(TransitionError, match="residual"):
        chern_cocycle(data)


def reference_defining_function(point, i):
    """f_i on U_i as a reduced rational function: 1 off U_i, else z - p,
    (z - p)/z on the cap U0, and 1/z for infinity."""
    z = Polynomial([ZERO, ONE])
    if not sphere_cover_membership(point, i):
        return RationalFunction(Polynomial([ONE]))
    if point.is_infinity:
        return RationalFunction(Polynomial([ONE]), z)
    linear = Polynomial([-point.value, ONE])
    return RationalFunction(linear, z) if i == 0 else RationalFunction(linear)


RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=20)
COVER_POINTS = st.one_of(
    st.just(SpherePoint.infinity()),
    st.builds(
        lambda re, im: SpherePoint.finite(ExactComplex(re, im)), RATIONAL, RATIONAL
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(COVER_POINTS)
def test_transitions_are_the_exponents_of_the_reduced_quotient(point):
    # g_ij holds m for each root of the numerator of f_i / f_j and -m for
    # each root of its denominator; the quotient's leading coefficient is 1
    g = sphere_point_transitions(point).concrete.g
    for i, j in SPHERE_NERVE.k_simplices(1):
        q = reference_defining_function(point, i) / reference_defining_function(point, j)
        assert q.num.leading() == ONE
        exponents = {a: m for a, m in linear_roots(q.num)}
        exponents.update({a: -m for a, m in linear_roots(q.den)})
        assert g[(i, j)] == exponents


def test_double_delta_zero_divisor():
    td = sphere_point_transitions(CENTER_POINT)
    cls = double_delta(CDivisor.from_pairs([(td.component, ZERO)]), [td])
    assert cls.is_zero()


def test_double_delta_difference_vanishes_with_witness():
    p = sphere_point_transitions("1/10 + 1/20 i", component="p")
    q = sphere_point_transitions("-1/10 + 1/8 i", component="q")
    div = CDivisor.from_pairs([("p", ONE), ("q", -ONE)])
    cls = double_delta(div, [p, q])
    assert cls.is_zero()
    witness = CohomologySpace(SPHERE_NERVE, 2).coboundary_witness(cls.cocycle)
    assert witness is not None
    assert coboundary(SPHERE_NERVE, witness).values == cls.cocycle.values


def test_double_delta_linearity():
    rng = random.Random(12)
    p = sphere_point_transitions("1/10 + 1/20 i", component="p")
    q = sphere_point_transitions("-1/10 + 1/8 i", component="q")
    for _ in range(10):
        a = ExactComplex(rng.randint(-4, 4), rng.randint(-4, 4))
        b = ExactComplex(rng.randint(-4, 4), rng.randint(-4, 4))
        cls = double_delta(CDivisor.from_pairs([("p", a), ("q", b)]), [p, q])
        assert cls.coordinates == (a + b,)


def test_feasibility_single_point_infeasible():
    td = sphere_point_transitions(CENTER_POINT)
    res = residue_feasible(CDivisor.from_pairs([(td.component, ONE)]), [td], CURVE)
    assert res.verdict is Verdict.INFEASIBLE
    assert res.exit_code == 1


def test_feasibility_pair_feasible():
    tds = sphere_divisor_transitions(
        CDivisor.from_pairs([("1/10 + 1/20 i", ONE), ("-1/10 + 1/8 i", -ONE)])
    )
    div = CDivisor.from_pairs([("1/10 + 1/20 i", ONE), ("-1/10 + 1/8 i", -ONE)])
    res = residue_feasible(div, tds, CURVE)
    assert res.verdict is Verdict.FEASIBLE
    assert res.exit_code == 0


def test_feasibility_inconclusive_without_property_h():
    zero = abstract_data({}, name="W")
    res = residue_feasible(CDivisor.from_pairs([("W", ONE)]), [zero], BROKEN)
    assert res.verdict is Verdict.INCONCLUSIVE
    assert res.exit_code == 3


def test_property_h_examples():
    assert has_property_h(IWASAWA)
    assert has_property_h(CURVE)
    assert not has_property_h(BROKEN)


def test_hodge_record_rejects_negative():
    with pytest.raises(ValueError):
        HodgeRecord(-1, 0, 0, 0)


def test_kernel_dimension_same_nonzero_class():
    tds = [
        sphere_point_transitions("1/10 + 1/20 i", component="a"),
        sphere_point_transitions("-1/10 + 1/8 i", component="b"),
        sphere_point_transitions("1/8 - 1/10 i", component="c"),
    ]
    assert kernel_dimension(tds) == 2


def test_kernel_dimension_zero_classes():
    tds = [abstract_data({}, name=f"W{i}") for i in range(3)]
    assert kernel_dimension(tds) == 3


def test_kernel_dimension_empty():
    assert kernel_dimension([]) == 0


def test_kernel_dimension_mixed_synthetic():
    # two copies of the generator and one zero class on the torus nerve
    tris = TORUS_NERVE.k_simplices(2)
    cycle = fundamental_two_cycle(TORUS_NERVE)
    gen = {t: 1 for t in tris if t in cycle and cycle[t] == ONE}
    # a multiple of the fundamental cocycle: put 1 on a single triangle
    one_tri = {tris[0]: 1}
    tds = [
        TransitionData(TORUS_NERVE, "A", abstract_values=one_tri),
        TransitionData(TORUS_NERVE, "B", abstract_values=one_tri),
        TransitionData(TORUS_NERVE, "C", abstract_values={}),
    ]
    assert kernel_dimension(tds) == 2


def test_nerve_mismatch_rejected():
    a = abstract_data({}, name="A", nerve=SPHERE_NERVE)
    b = abstract_data({}, name="B", nerve=TORUS_NERVE)
    with pytest.raises(TransitionError):
        kernel_dimension([a, b])
    div = CDivisor.from_pairs([("A", ONE), ("B", ONE)])
    with pytest.raises(TransitionError):
        double_delta(div, [a, b])


def test_parse_hodge_text():
    rec = parse_hodge_text("b1 = 4\nd_omega0 = 2\nh01 = 2\nh2 = 4\n")
    assert rec == IWASAWA
    with pytest.raises(ValueError):
        parse_hodge_text("b1 = 1\n")


def test_parse_transition_text_abstract():
    text = "mode abstract\ncomponent W\n0,1,2 : 1\n1,2,3 : -1\n"
    tds = parse_transition_text(text, nerve=SPHERE_NERVE)
    assert len(tds) == 1 and tds[0].component == "W"
    cocycle = chern_cocycle(tds[0])
    assert cocycle[(0, 1, 2)] == ONE
    assert cocycle[(1, 2, 3)] == -ONE


def test_parse_transition_text_sphere_point():
    text = "mode sphere-point\ncomponent p : 1/10 + 1/20 i\n"
    tds = parse_transition_text(text)
    assert tds[0].mode == "concrete"
    cls = double_delta(CDivisor.from_pairs([("p", ONE)]), tds)
    assert cls.coordinates == (ONE,)


def test_parse_transition_text_errors():
    with pytest.raises(TransitionError):
        parse_transition_text("mode nonsense\n")
    with pytest.raises(TransitionError):
        parse_transition_text("0,1,2 : 1\n", nerve=SPHERE_NERVE)
    with pytest.raises(TransitionError):
        parse_transition_text("mode abstract\ncomponent W\n0,1,2 : 1\n", nerve=None)


def test_parse_transition_text_mode_argument():
    text = "mode sphere-point\ncomponent p : 1/10 + 1/20 i\n"
    # `concrete` is the CLI alias for the built-in sphere-point expansion
    tds = parse_transition_text(text, mode="concrete")
    assert tds[0].mode == "concrete"
    with pytest.raises(TransitionError, match="contradicts"):
        parse_transition_text(text, mode="abstract")
    # the argument alone suffices, no in-file header needed
    tds = parse_transition_text("component p : 1/10 + 1/20 i\n", mode="concrete")
    assert tds[0].component == "p"


def test_constant_concrete_transitions_zero_cocycle():
    # all g identically 1: every branch-fixed log is the zero branch
    from residuum.chern import ConcreteTransitions

    base = {e: 2.0 + 0j for e in SPHERE_NERVE.k_simplices(1)}
    data = TransitionData(
        SPHERE_NERVE,
        "flat",
        concrete=ConcreteTransitions(
            g={e: {} for e in SPHERE_NERVE.k_simplices(1)},
            base_points=base,
            paths={},
        ),
    )
    assert chern_cocycle(data).is_zero()


def test_feasibility_cross_checked_against_construction():
    # the nerve-level verdict and the constructive sphere machinery agree:
    # feasible exactly when a form with those residues can be built
    import random

    from helpers import random_cover_divisor
    from residuum.models import SphereModel, prescribe_residues
    from residuum.sphere import SphereError

    rng = random.Random(21)
    hodge = HodgeRecord(0, 0, 0, 1)
    for k in range(100):
        divisor = random_cover_divisor(rng, force_zero_sum=(k % 2 == 0))
        transitions = sphere_divisor_transitions(divisor)
        verdict = residue_feasible(divisor, transitions, hodge).verdict
        try:
            prescribe_residues(SphereModel(), divisor)
            constructive = Verdict.FEASIBLE
        except SphereError:
            constructive = Verdict.INFEASIBLE
        assert verdict is constructive
