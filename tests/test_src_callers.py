"""Every public function and method of `residuum` has a caller in the
package itself, is exported through `residuum.__all__`, runs a subcommand,
or is one of the paper-level checks the tests keep as oracles.  Code that
only tests call is deleted instead (ROADMAP item 11)."""

import ast
from collections import Counter
from pathlib import Path

import residuum
from residuum import cli

PACKAGE = Path(residuum.__file__).resolve().parent

TEST_ORACLES = {
    "chern.sphere_divisor_transitions",
    "exact.ExactComplex.is_real",
    "cech.pair_with_cycle",
    "cech.CohomologySpace.coboundary_witness",
    "pluriharmonic.AntiMeromorphicForm.integrate",
    "pluriharmonic.log_field",
    "rational.laurent_coefficient",
    "linalg.matvec",
    "periods.well_defined_residue_check",
    "sphere.RationalForm.zero",
}


def trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(modules):
    """(qualified name, def node) for each public module-level function and
    each public method of a module-level class."""
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{stem}.{node.name}.{item.name}", item


def references(node):
    """Names read under the node, as bare identifiers or attributes."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) or isinstance(sub, ast.Attribute)
    )


def test_no_public_function_is_test_only():
    modules = trees()
    everywhere = sum((references(tree) for tree in modules.values()), Counter())
    entry_points = set(residuum.__all__) | {f"cmd_{name}" for name in cli.COMMANDS}
    uncalled = []
    for qualified, node in public_definitions(modules):
        name = node.name
        if name.startswith("_") or name in entry_points or qualified in TEST_ORACLES:
            continue
        if everywhere[name] - references(node)[name] <= 0:
            uncalled.append(qualified)
    assert uncalled == []


def test_the_oracle_list_names_real_definitions():
    defined = {qualified for qualified, _ in public_definitions(trees())}
    assert TEST_ORACLES <= defined
