"""The package names nothing it does not use, apart from a documented list."""
import ast
from pathlib import Path

import cylgf

#: Names defined in src/cylgf that no other code there names, each kept for
#: a reason outside the package.  Removing dead code shrinks this list.
KEEP = {
    # wrapped by name in bench/tracer.py, like Series.__mul__; the tests
    # also enumerate slices through iter_slices
    "Series.invert",
    "slices.contains",
    "slices.iter_slices",
    "slices.min_slices",
    # bench/checks.py lists partitions with it
    "cylindric.iter_partitions",
    # the tests run every catalog tag from it
    "genfun.IDENTITY_TAGS",
    # the profiles whose series a catalog tag gives, for `verify --profile`
    # (ROADMAP item 5); the tests check each pair
    "genfun.PROFILE_IDENTITIES",
}


def test_every_unnamed_definition_is_kept_on_purpose():
    # module-level functions, classes and assigned names as module.name,
    # methods as Class.name; a definition is used if any Name read,
    # attribute or import in the package names it.  Dunders are read by
    # Python, and the cli's cmd_* handlers are the commands themselves.
    defined, named = set(), set()
    for path in Path(cylgf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update((path.stem, target.id) for target in targets
                               if isinstance(target, ast.Name))
            if isinstance(node, ast.ClassDef):
                defined.update((node.name, item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = {f"{owner}.{name}" for owner, name in defined
               if name not in named and not name.startswith("cmd_")
               and not (name.startswith("__") and name.endswith("__"))}
    assert unnamed == KEEP


def test_no_local_is_assigned_and_never_read():
    # every module-level function and method, with the functions nested in
    # it: a name it stores must also be loaded somewhere in it.  `_` is the
    # name of a value thrown away on purpose.
    unread = set()
    for path in Path(cylgf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        functions = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [item for node in tree.body
                      if isinstance(node, ast.ClassDef) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        for function in functions:
            names = [node for node in ast.walk(function)
                     if isinstance(node, ast.Name)]
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            unread.update(f"{path.stem}.{function.name}: {name}"
                          for name in stored - loaded - {"_"})
    assert unread == set()
