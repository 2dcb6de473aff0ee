"""Static guards over the package source."""

import ast
import importlib
import types
from pathlib import Path

import boselab

SRC = Path(boselab.__file__).parent


def _module_names(tree: ast.Module, package: str) -> set[str]:
    """Names a module binds to other modules through its imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = importlib.import_module(
                "." * node.level + (node.module or ""), package
            ) if node.level else importlib.import_module(node.module)
            for alias in node.names:
                if isinstance(getattr(base, alias.name, None), types.ModuleType):
                    names.add(alias.asname or alias.name)
    return names


def _targets(node: ast.AST) -> list[ast.expr]:
    """What an assignment or ``del`` binds, with tuple targets unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return []
    out = []
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            out.append(target)
    return out


def test_no_global_state_is_mutated():
    """No ``global`` statement and no assignment to another module's attribute.

    Run-time settings such as the dense cap live in context variables, so a
    run cannot leak them into the next one.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = _module_names(tree, "boselab")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
            for target in _targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in modules
                ):
                    found.append(f"{path.name}:{target.lineno}: {target.value.id}.{target.attr}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in modules
            ):
                found.append(f"{path.name}:{node.lineno}: {node.func.id}({node.args[0].id}, ...)")
    assert found == []
