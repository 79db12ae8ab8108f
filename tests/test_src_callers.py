"""Every public function and method of `residuum` has a caller in the
package itself, is exported through `residuum.__all__`, runs a subcommand,
or is one of the paper-level checks the tests keep as oracles.  Code that
only tests call is deleted instead (ROADMAP item 11).  Likewise every
defaulted parameter is set by some call in the package, or is listed with
the reason it stays; a setting that no caller chooses is a constant."""

import ast
import math
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


# defaulted parameters that no call in src sets, each with the reason it stays
UNSET_DEFAULTS = {
    "cech.validate_nerve.vertex_count": "isolated vertices, which a nerve file cannot express",
    "cli.main.argv": "the entry point: the console script passes none, so main reads sys.argv",
}


def defaulted_parameters(node, is_method):
    """(slot, name) of each parameter with a default: its position after
    `self` if it can be passed by position, else None."""
    args = node.args
    plain = args.posonlyargs + args.args
    skip = int(is_method and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list))
    for i, arg in enumerate(plain[len(plain) - len(args.defaults):], start=len(plain) - len(args.defaults)):
        if i >= skip:
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


class Calls(ast.NodeVisitor):
    """Each call in a module as (called name, positional count, keyword
    names, forwarded), where `forwarded` maps a position or keyword to the
    (definition, parameter) whose defaulted value the call passes on
    unchanged.  `ClassName(...)` is a call of `__init__`; `*args` counts
    as every position and `**kwargs` as every keyword."""

    def __init__(self, stem, classes):
        self.scope, self.defaults, self.classes, self.calls = [stem], [{}], classes, []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        is_method = len(self.scope) == 2 and self.scope[-1] in self.classes
        self.scope.append(node.name)
        self.defaults.append({name: ".".join(self.scope) for _, name in defaulted_parameters(node, is_method)})
        self.generic_visit(node)
        self.defaults.pop()
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        slots = [(k.arg, k.value) for k in node.keywords] + list(enumerate(node.args))
        forwarded = {
            slot: (self.defaults[-1][value.id], value.id)
            for slot, value in slots
            if isinstance(value, ast.Name) and value.id in self.defaults[-1]
        }
        positional = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = {k.arg for k in node.keywords}
        self.calls.append(("__init__" if name in self.classes else name, positional, keywords, forwarded))
        self.generic_visit(node)


def unset_defaults(modules):
    """Defaulted parameters of public functions and methods (and `__init__`)
    that no call in src sets: a call that only passes on the caller's own
    unset default does not count."""
    classes = {node.name for tree in modules.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    calls = []
    for stem, tree in modules.items():
        visitor = Calls(stem, classes)
        visitor.visit(tree)
        calls += visitor.calls
    definitions = list(public_definitions(modules)) + [
        (f"{stem}.{node.name}.__init__", item)
        for stem, tree in modules.items() for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    params = {
        (qualified, name): (node.name, slot)
        for qualified, node in definitions
        for slot, name in defaulted_parameters(node, qualified.count(".") == 2)
    }
    done, grew = set(), True
    while grew:
        grew = False
        for param, (called, slot) in params.items():
            for name, positional, keywords, forwarded in calls:
                if param in done or name != called:
                    continue
                key = param[1] if param[1] in keywords or None in keywords else slot
                if key is None or (key == slot and positional <= slot):
                    continue
                source = forwarded.get(key)
                if source is None or source not in params or source in done:
                    done.add(param)
                    grew = True
    return sorted(f"{qualified}.{name}" for qualified, name in set(params) - done)


def test_every_default_is_set_by_some_call():
    assert [name for name in unset_defaults(trees()) if name not in UNSET_DEFAULTS] == []


def test_the_unset_default_list_names_unset_parameters():
    assert set(UNSET_DEFAULTS) <= set(unset_defaults(trees()))
