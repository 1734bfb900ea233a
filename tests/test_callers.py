"""Every definition in ``src/sodfeeder`` has a caller in ``src``.

A pure-AST scan, so it imports nothing and runs in well under a second.  A
function or class (methods included, dunders not) counts as used when any
``src`` module references its name, ``__init__``'s re-exports included.  A
name that only tests, demos or the bench harness use either moves out of
``src`` or gets an entry in ``ALLOWED`` with its reason.  The scan also fails
on an import that its module never uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sodfeeder"

# name -> why it stays in src without a src caller
ALLOWED = {
    "travel_distance": "Network.travel_distance: bench/tracer.py times it "
                       "with travel_time",
    "flat_params": "MLP.flat_params: bench/harness.py sums the trained "
                   "parameters with it",
    "to_yaml": "Scenario.to_yaml: the README's way to write a config file",
    "paired_bootstrap_ge_zero": "acceptance criteria 8-10 and demo 04 test "
                                "paired differences with it",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    """Every name the module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def test_every_src_definition_has_a_src_caller():
    trees = _trees()
    used = set().union(*map(_referenced, trees.values()))
    callerless = ["%s:%d %s" % (fname, line, name)
                  for fname, tree in trees.items()
                  for name, line in _definitions(tree)
                  if name not in used and name not in ALLOWED]
    assert not callerless, (
        "no src module uses these; delete them, move them to tests/, or "
        "add them to ALLOWED with a reason: %s" % callerless)


def test_allowed_names_are_defined_and_still_callerless():
    trees = _trees()
    used = set().union(*map(_referenced, trees.values()))
    defined = {name for tree in trees.values()
               for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & used, "a src caller makes the entry unneeded"


def test_no_unused_import_in_src():
    unused = []
    for fname, tree in _trees().items():
        if fname == "__init__.py":   # its imports are the package's exports
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in loaded:
                        unused.append("%s:%d %s" % (fname, node.lineno,
                                                    bound))
    assert not unused, "unused imports: %s" % unused
