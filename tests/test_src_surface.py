"""``src/iotfed`` holds only what the pipeline or the benchmark runs.

Every public module-level function and class must be referenced in
``src/iotfed`` outside its own definition, or in ``perfbench/``. A
reference is an AST ``Name``, an ``Attribute`` or an imported name. A
function that only tests call fails here: it belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Public names kept without a pipeline caller, each with its reason.
EXEMPT = {
    "autoencoder.forward": "with backward, the gradient checks' handle on the backward calls "
                           "that train runs",
    "autoencoder.backward": "the gradient checks compare it with finite differences of the loss",
    "autoencoder.load_weights": "the read side of the bundle's weight format, which "
                                "save_weights writes",
}


def references(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, looks up as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in sub.names}
    return names


def unreferenced() -> list[str]:
    """``module.name`` of each public module-level function and class that
    nothing in ``src/iotfed`` but its own definition, and nothing in
    ``perfbench/``, refers to."""
    statements = [(path.stem, stmt) for path in sorted((ROOT / "src" / "iotfed").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used_by = [references(stmt) for _, stmt in statements]
    benchmark = set().union(*(references(ast.parse(path.read_text()))
                              for path in sorted((ROOT / "perfbench").glob("*.py"))))
    missing = []
    for i, (module, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
                and stmt.name not in benchmark
                and not any(stmt.name in names for j, names in enumerate(used_by) if j != i)):
            missing.append(f"{module}.{stmt.name}")
    return missing


def test_every_public_name_in_src_has_a_pipeline_or_benchmark_caller():
    assert sorted(unreferenced()) == sorted(EXEMPT)

