import ast
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
