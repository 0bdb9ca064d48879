import ast
import inspect
import textwrap
from pathlib import Path

import quditqec

# __init__.py re-exports what it imports, so it is left out
MODULES = sorted(p for p in Path(quditqec.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def module_imports(tree: ast.Module):
    """(bound name, line) of each import at module level, including those
    under a top-level ``if`` or ``try``; ``__future__`` imports bind
    nothing that is read."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def test_module_imports_are_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in module_imports(tree) if name not in read]
    assert not unused, f"imported but never used: {unused}"


def module_private_names(tree: ast.Module):
    """(name, line) of each ``_name`` a module binds at its top level by
    assignment, ``def`` or ``class``; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def names_read(tree: ast.Module):
    """Every name a module reads: loaded names, attributes, imported
    names and strings (``monkeypatch.setattr(module, "_name", ...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_module_private_names_are_read():
    package = Path(quditqec.__file__).parent
    sources = [*package.rglob("*.py"),
               *Path(__file__).parent.rglob("*.py")]
    read = set()
    for path in sources:
        read.update(names_read(ast.parse(path.read_text(),
                                         filename=str(path))))
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for name, line in module_private_names(ast.parse(
                  path.read_text(), filename=str(path)))
              if name not in read]
    assert not unread, f"defined but never read: {unread}"


def test_public_functions_and_classes_have_docstrings():
    missing = []
    for name in quditqec.__all__:
        obj = getattr(quditqec, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        # read the source: a dataclass without one gets a generated __doc__
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(obj))).body
        if not ast.get_docstring(node):
            missing.append(name)
    assert not missing, f"no docstring: {missing}"


def package_imports(tree: ast.Module):
    """(module, imported names) of each relative import of a module, at any
    depth; ``from . import x`` has module None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.name for alias in node.names]


def test_stabilizer_layering():
    # the verifier's privates stay its own, and the stabilizer module sits
    # below the verifier and the channel, which both read it
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES}
    private = [f"{name}.py: {imported}"
               for name, tree in trees.items()
               for module, names in package_imports(tree)
               if module == "verifier"
               for imported in names if imported.startswith("_")]
    assert not private, f"private names imported from .verifier: {private}"
    above = {module for module, _ in package_imports(trees["stabilizer"])}
    assert not above & {"verifier", "channel"}, above


def test_package_imports_form_no_cycle():
    graph = {path.stem: {module for module, _ in package_imports(
        ast.parse(path.read_text(), filename=str(path)))} for path in MODULES}
    done = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {path + [name]}"
        if name not in done:
            for module in graph.get(name, ()):
                visit(module, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])
