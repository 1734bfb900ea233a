"""Every definition in ``src/sodfeeder`` has a caller in ``src``.

A pure-AST scan, so it imports nothing and runs in well under a second.  A
function or class (methods included, dunders not) counts as used when some
``src`` module loads its name or reads it as an attribute; an import is not
a use, so ``__init__``'s re-exports do not count.  A name that only tests,
demos or the bench harness use either moves out of ``src`` or gets an entry
in ``ALLOWED`` with its reason.  The scan also fails on an import that its
module never uses, on a module other than ``econ.py`` that imports
``csv`` (``econ.write_table`` is the one writer of the program's tables),
and on a second module-level alias of one enum member, or one outside the
enum's own module: each alias has one home, beside its enum.

Nor may ``src`` keep write-only state: every attribute that a class stores
(an assignment to ``self.X`` in a method, or a field of a dataclass that is
not frozen) must be read as an attribute in some ``src`` module, or have an
entry in ``OUTSIDE_READERS`` naming who reads it.  The output records that
``src`` returns to its callers are exempt.
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
    "paired_bootstrap_ge_zero": "acceptance criteria 8-10 and demo 04 test "
                                "paired differences with it",
}


# "Class.attribute" -> who reads it, for state that src stores and only
# tests or the bench harness read
OUTSIDE_READERS = {
    "World.lateness_skips": "bench/tracer.py counts the skipped dispatches "
                            "of each step with it",
    "Request.vehicle": "the bench audit and the tests check each rider's "
                       "vehicle with it",
}
# records that src fills for its callers, every field of which is output
OUTPUT_RECORDS = {"RunMetrics", "StepReport", "MatchReport"}


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    """Every name the module loads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
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


def _imports_csv(node):
    return (isinstance(node, ast.Import)
            and any(a.name == "csv" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "csv")


def test_only_econ_imports_csv():
    importers = sorted({fname for fname, tree in _trees().items()
                        for node in ast.walk(tree) if _imports_csv(node)})
    assert importers == ["econ.py"], (
        "write tables with econ.write_table, not csv: %s" % importers)


def _enum_aliases(trees):
    """``(aliases, homes)``: ``(enum, member) -> ["module:line NAME", ...]``
    over every module-level ``NAME = Enum.MEMBER`` of a ``src`` enum, and
    each enum's module."""
    homes = {cls.name: fname for fname, tree in trees.items()
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             and any(getattr(b, "id", None) in ("Enum", "IntEnum")
                     for b in cls.bases)}
    aliases = {}
    for fname, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and getattr(node.value.value, "id", None) in homes):
                continue
            key = (node.value.value.id, node.value.attr)
            for target in node.targets:
                aliases.setdefault(key, []).append("%s:%d %s" % (
                    fname, node.lineno, getattr(target, "id", "?")))
    return aliases, homes


def test_each_enum_alias_has_one_home():
    aliases, homes = _enum_aliases(_trees())
    assert {"StopKind", "VehicleStatus", "FleetClass"} <= set(homes)
    misplaced = {"%s.%s" % key: where for key, where in aliases.items()
                 if len(where) > 1
                 or not where[0].startswith(homes[key[0]] + ":")}
    assert not misplaced, (
        "alias each enum member once, in its enum's module, and import the "
        "alias from there: %s" % misplaced)


def _mutable_dataclass(cls):
    """Whether the class is a dataclass that is not frozen."""
    for d in cls.decorator_list:
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
        if (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id == "dataclass"):
            return not any(k.arg == "frozen" and getattr(k.value, "value", 0)
                           for k in d.keywords)
    return False


def _stored(tree):
    """``(class, attribute, line)`` of each attribute the module's classes
    store: a field of a dataclass that is not frozen, or an assignment to
    ``self.X`` in a method."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _mutable_dataclass(cls):
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    yield cls.name, node.target.id, node.lineno
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield cls.name, node.attr, node.lineno


def _read_attributes(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_stored_attribute_is_read():
    trees = _trees()
    read = _read_attributes(trees)
    unread = sorted({"%s:%d %s.%s" % (fname, line, cls, attr)
                     for fname, tree in trees.items()
                     for cls, attr, line in _stored(tree)
                     if attr not in read and cls not in OUTPUT_RECORDS
                     and "%s.%s" % (cls, attr) not in OUTSIDE_READERS})
    assert not unread, (
        "src stores these and never reads them; delete them, or add them "
        "to OUTSIDE_READERS with their reader: %s" % unread)


def test_outside_readers_are_stored_and_still_unread_in_src():
    trees = _trees()
    stored = {"%s.%s" % (cls, attr) for tree in trees.values()
              for cls, attr, _ in _stored(tree)}
    read = _read_attributes(trees)
    assert set(OUTSIDE_READERS) <= stored
    assert OUTPUT_RECORDS <= {name.split(".")[0] for name in stored}
    assert not {name.split(".")[1] for name in OUTSIDE_READERS} & read, (
        "a src reader makes the entry unneeded")
