"""Static guards over the package source."""

import ast
import dataclasses
import importlib
import inspect
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


# every clock the standard library offers a module, by its dotted name
_CLOCKS = {
    f"time.{name}"
    for name in (
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns",
    )
} | {"datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today"}

# cli: the manifest's created_utc
_CLOCK_READERS = {"cli.py"}


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted name of what it was imported as (absolute imports)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                names[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node: ast.AST, names: dict[str, str]) -> str | None:
    """``a.b.c`` with ``a`` resolved through the imports, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    return ".".join([names[node.id], *reversed(parts)])


def test_only_evolve_and_cli_read_a_clock():
    """Reports repeat byte for byte, so no other module may read the time."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in _CLOCK_READERS:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = _dotted(node, names)
                if dotted in _CLOCKS:
                    found.append(f"{path.name}:{node.lineno}: {dotted}")
    assert found == []


def test_cli_imports_no_private_name():
    """The CLI reaches the library through public names only."""
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = [
        f"cli.py:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "boselab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_one_refusal_per_cap_and_no_factor_tags():
    """The dense cap is refused in one place in ``evolve``, the basis cap in one in ``fock``.

    Local unitaries are chains of (G, tau) pairs, so no "expm" or "mat"
    factor tag is left for code to branch on.
    """
    refusals, tags = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ResourceLimitError", "DenseCapError"):
                    refusals[path.name] = refusals.get(path.name, 0) + 1
            if isinstance(node, ast.Constant) and node.value in ("expm", "mat"):
                tags.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert refusals == {"evolve.py": 1, "fock.py": 1}
    assert tags == []


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _is_two(node: ast.expr) -> bool:
    """The literal 2 or -2, the orders that make ``norm`` a matrix 2-norm."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 2


def test_only_evolve_takes_operator_two_norms():
    """Dense 2-norms run per N-block in ``evolve._norm2``; SVDs live in ``evolve``.

    No other module calls ``norm(A, 2)`` (or ``ord=2``, ``-2``) or any
    ``svd``, ``svds`` or ``svdvals``.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "evolve.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            orders = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
            if name in ("svd", "svds", "svdvals") or (
                name == "norm" and any(_is_two(order) for order in orders)
            ):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []



def _callers(name: str) -> list[str]:
    """``module.function`` around every call of ``name`` in the package.

    The innermost enclosing function counts; a call at module level is
    ``module.<module>``.
    """
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module: str) -> None:
            self.stack = [f"{module}.<module>"]

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self.stack.append(f"{self.stack[0].split('.')[0]}.{node.name}")
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node: ast.Call) -> None:
            if _call_name(node) == name:
                found.append(self.stack[-1])
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_one_factorisation_per_grid():
    """H is factorised in one place per path, and each serves a whole grid of times.

    The Krylov loop has one caller of its step, ``evolve._march``, which
    marches a grid; the one ``eigh`` of H's blocks is in
    ``evolve._eigenbasis``, whose eigenpairs build the Heisenberg operators
    of a whole grid.  The ground-state solve keeps its own whole-matrix
    ``eigh``.
    """
    assert _callers("_lanczos_step") == ["evolve._march"]
    assert sorted(_callers("eigh")) == ["evolve._eigenbasis", "probes.ground_state"]


def test_assembly_takes_its_flags_from_the_row_build():
    """Only ``_wrap`` runs the whole-matrix Hermiticity check, and no assembly wraps.

    ``_hopping_rows`` builds Hermitian operators by construction, so an
    assembled Hamiltonian never pays for a transpose and a difference
    matrix; ``_wrap`` serves the custom matrices of ``local_operator``.
    """
    assert _callers("_check_hermitian") == ["model._wrap"]
    wrappers = _callers("_wrap")
    assert "model.assemble_hamiltonian" not in wrappers
    assert "model._hopping_rows" not in wrappers


def test_only_the_light_cone_path_refuses_the_dense_cap():
    """The dense cap is refused in H's eigensolve and the Heisenberg stack alone.

    Those are the dense operator paths that commutator norms take; no local
    step, quench or approximation error builds a dense matrix.
    """
    assert sorted(_callers("_require_dense")) == [
        "evolve._eigenbasis", "evolve._heisenberg_stack",
    ]


def test_approx_imports_no_private_evolve_name():
    """``approx`` reaches ``evolve`` through its public names only: no dense helper."""
    tree = ast.parse((SRC / "approx.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "evolve"
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_cli_applies_steps_to_states_only():
    """``cli.py`` calls no ``.conjugate(`` and no ``_product(``: no step product on a CLI path."""
    text = (SRC / "cli.py").read_text()
    assert ".conjugate(" not in text
    assert "_product(" not in text


def test_a_quench_does_its_r_independent_work_once():
    """H, H + h_X0 and the exact quenched state are made in ``quench_reference``.

    ``run_quench`` runs once per R: it assembles no Hamiltonian of its own
    (its step generators come from the step builder) and evolves only the
    echo steps, through ``_apply_pairs``, the one ``evolve_state`` call site
    that applies a step's pairs.
    """
    assemblers = _callers("assemble_hamiltonian")
    assert assemblers.count("approx.quench_reference") == 2
    assert "approx.run_quench" not in assemblers
    evolvers = _callers("evolve_state")
    assert "approx.run_quench" not in evolvers
    assert evolvers.count("approx._apply_pairs") == 1
    assert evolvers.count("approx.quench_reference") == 1
    assert _callers("_apply_pairs").count("approx.run_quench") == 1


def test_every_assembly_names_only_the_region_keywords():
    """``assemble_hamiltonian`` takes the spec, the basis and three keywords.

    A term such as a quench is one more interaction of the spec it is given,
    never an operator passed beside it, so every call in the package passes
    only ``hop_sites``, ``int_sites`` and ``truncation``, each by name (no
    ``**`` splat).
    """
    allowed = {"hop_sites", "int_sites", "truncation"}
    keyword_only = [
        p.name for p in inspect.signature(boselab.model.assemble_hamiltonian).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert sorted(keyword_only) == sorted(allowed)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _call_name(node) == "assemble_hamiltonian":
                found += [
                    f"{path.name}:{node.lineno}: {kw.arg or '**'}"
                    for kw in node.keywords if kw.arg not in allowed
                ]
    assert found == []


def test_probes_read_the_basis_states_in_one_place():
    """Moments, tails and the mgf condition all read one occupation histogram.

    ``probes._occupation_weights`` is the only function in ``probes`` that
    reads a basis's ``states``; a probe with its own per-site loop fails here.
    """
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack = ["<module>"]

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Attribute(self, node: ast.Attribute) -> None:
            if node.attr == "states":
                found.append(self.stack[-1])
            self.generic_visit(node)

    Visitor().visit(ast.parse((SRC / "probes.py").read_text(), filename="probes.py"))
    assert found and set(found) == {"_occupation_weights"}


def test_every_import_is_at_module_level():
    """No function, method or branch of the package imports anything."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert found == []


def test_every_exported_name_resolves():
    """Each name in the package's and its modules' ``__all__`` is bound.

    A deleted public name left in an ``__all__`` fails here, where a star
    import would otherwise be the first to notice.
    """
    missing = []
    for name in ("boselab", "boselab.lattice", "boselab.fock", "boselab.model", "boselab.evolve"):
        module = importlib.import_module(name)
        missing += [f"{name}.{key}" for key in module.__all__ if not hasattr(module, key)]
    assert missing == []


def test_every_bound_constant_is_read():
    """Each ``BoundConstants`` field is read as ``self.<f>`` or ``consts.<f>``.

    Reads inside ``__post_init__`` and its overflow terms ``_log_terms``,
    which only validate, do not count: a constant that no bound reads is a
    knob that changes nothing.
    """
    read = set()

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node.name not in ("__post_init__", "_log_terms"):
                self.generic_visit(node)

        def visit_Attribute(self, node: ast.Attribute) -> None:
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "consts"):
                read.add(node.attr)
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Visitor().visit(ast.parse(path.read_text(), filename=str(path)))
    fields = [f.name for f in dataclasses.fields(boselab.bounds.BoundConstants)]
    assert [f for f in fields if f not in read] == []


def test_cli_draws_no_ball():
    """``cli.py`` calls no ``ball``: a step's regions come from ``approx.halo``."""
    assert not [c for c in _callers("ball") if c.startswith("cli.")]
