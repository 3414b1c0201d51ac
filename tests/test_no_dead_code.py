"""Dead-code guard: the package keeps only what its programs use.

The programs are everything under src/, demos/ and benchmarks/; tests do
not count, so a name or option that only a test reaches fails here.  The
scan reads the source with ast and resolves no types, so a reference is
by name: any `.forward` or `forward(...)` counts for every definition
named forward.  Dunder methods are called by the language, not by name,
and are exempt from the reference check.

The test helpers in tests/_oracles.py and tests/_corrupt.py are held to
the same rule against the test modules: each must be reached from some
test module, directly or through another helper that is.  And no module
of the programs or the tests imports a name it never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nimbus"
PROGRAM_DIRS = ("src", "demos", "benchmarks")
TESTS = ROOT / "tests"
HELPERS = ("_oracles.py", "_corrupt.py")


def _trees():
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """(path, node, enclosing class or None) for each module-level function
    and class and each method of a module-level class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item, node


def _walk(node, enclosing=()):
    """Yield (node, the definitions around it) for every node below node."""
    for child in ast.iter_child_nodes(node):
        yield child, enclosing
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = enclosing + ((child.name, child.lineno),)
        yield from _walk(child, inner)


def _name_of(node):
    """The name a Name, Attribute or string constant refers to (the last
    segment of a dotted string, as tracers patch by name), else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _references():
    """name -> list of (path, the definitions around the use), for every
    Name, Attribute and string constant in the programs."""
    refs = {}
    for path, tree in _trees():
        for node, enclosing in _walk(tree):
            name = _name_of(node)
            if name is not None:
                refs.setdefault(name, []).append((path, enclosing))
    return refs


def _calls():
    """callee name -> list of ast.Call, the callee being the called Name or
    the attribute of a called Attribute."""
    calls = {}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_outside_itself():
    refs = _references()
    unused = []
    for path, node, _ in _definitions():
        if _is_dunder(node.name):
            continue
        own = (node.name, node.lineno)
        if not any(p != path or own not in enclosing for p, enclosing in refs.get(node.name, [])):
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], unused


def test_every_instance_attribute_is_read():
    """Each attribute the package stores on self must be read somewhere in
    the programs, as a loaded attribute or a string constant (getattr and
    the tracers reach attributes by name); a store alone, plain or
    augmented, is not a read."""
    read = {_name_of(node) for _, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in read):
                unread.append(f"{path.relative_to(ROOT)}:{node.lineno} self.{node.attr}")
    assert unread == [], unread


def _names_in(node):
    return {name for child in ast.walk(node) if (name := _name_of(child)) is not None}


def test_every_test_helper_is_reached_from_a_test_module():
    """Reachability over the helpers' top-level statements: a function or
    class is reached by its name, a table such as BAD_CHECKPOINTS by the
    name it assigns, and a reached statement reaches every name in it.  A
    use inside a helper's own body reaches nothing, because the walk only
    enters a statement once it is reached from outside."""
    defines = {}    # helper name -> (file, line, the top-level statement defining it)
    for helper in HELPERS:
        for stmt in ast.parse((TESTS / helper).read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defines[stmt.name] = (helper, stmt.lineno, stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defines[target.id] = (helper, stmt.lineno, stmt)
    pending = set()
    for path in sorted(TESTS.glob("test_*.py")):
        pending |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    reached = set()
    while pending:
        name = pending.pop()
        if name in defines and name not in reached:
            reached.add(name)
            pending |= _names_in(defines[name][2])
    unreached = [f"tests/{helper}:{line} {name}" for name, (helper, line, stmt) in defines.items()
                 if name not in reached and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    assert unreached == [], unreached


def test_every_top_level_import_is_used():
    """A name that a module-level import binds must be read somewhere in
    the module; `from __future__` imports bind nothing."""
    unused = []
    for top in PROGRAM_DIRS + ("tests",):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for stmt in tree.body:
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    for alias in stmt.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unused.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    assert unused == [], unused


def _defaulted(func, owner):
    """(position or None, name) of each parameter of func that has a
    default; position counts the arguments a call passes, so a method's
    self or cls is not one of them, and None marks a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in func.decorator_list)
    skip = 1 if owner is not None and not static else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, positional[i].arg) for i in range(first, len(positional))]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, position, name):
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    unpassed = []
    for path, node, owner in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = owner.name if owner is not None and node.name == "__init__" else node.name
        for position, name in _defaulted(node, owner):
            if not any(_passes(c, position, name) for c in calls.get(callee, [])):
                unpassed.append(f"{path.relative_to(ROOT)}:{node.lineno} {callee}({name}=)")
    assert unpassed == [], unpassed
