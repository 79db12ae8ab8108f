"""The garden reader names the file line of a bad `component` or `loop`
literal, as the other text readers do."""

import pytest

from residuum.periods import GardenError, parse_garden_text

TORUS = "model torus\ntau = 0.3 + 1.1 i\ncomponent 1/5 + 3/10 i\ncomponent 3/5 + 7/10 i\n"


@pytest.mark.parametrize("text, message", [
    ("model sphere\ncomponent 0\ncomponent 1/0\n", "line 3: zero denominator in '1/0'"),
    ("model sphere\n# comment\ncomponent 0\ncomponent x\n", "line 4: "),
    ("model torus\ntau = 0.3 + 1.1 i\ncomponent 1/5 + 3/0 i\n", "line 3: zero denominator"),
    (TORUS + "loop circle 1/0 ; 0.1\nloop circle 0.3 ; 0.1\n", "line 5: zero denominator in '1/0'"),
    (TORUS + "loop circle 0.3 ; 0.1\nloop circle 0.3 ; wide\n", "line 6: "),
    (TORUS + "loop circle 0.3\n", "line 5: loop circle needs `center ; radius`"),
    (TORUS + "loop segment 0 ; 1\n", "line 5: unknown loop kind 'segment'"),
    ("model sphere\ncomponent 0\nloop polyline 1 ; 2\n", "line 3: sphere loops must close exactly"),
], ids=["component-zero-denominator", "component-word", "torus-component", "loop-center",
        "loop-radius", "loop-arity", "loop-kind", "sphere-loop-open"])
def test_bad_component_and_loop_lines_name_their_line(text, message):
    with pytest.raises(GardenError) as err:
        parse_garden_text(text)
    assert str(err.value).startswith(message)
