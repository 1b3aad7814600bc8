"""Every package name the benchmark under ``perfbench/`` reaches must exist.

The benchmark imports names with ``from loopqkd.<module> import <name>``
(also inside the code strings it runs in a child interpreter) and calls
``harness.<name>`` and ``loopnet.<name>`` by attribute.  A deleted or renamed
name would break the benchmark only when it runs, so it is checked here.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
BY_ATTRIBUTE = ("harness", "loopnet")


def benchmark_trees():
    """Syntax trees of each benchmark file and of each code string in it."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "loopqkd" in node.value:
                try:
                    yield ast.parse(node.value)
                except SyntaxError:
                    pass


def reached_names() -> set[tuple[str, str]]:
    """(module, name) for every package import and attribute use."""
    reached = set()
    for tree in benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopqkd"):
                reached.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in BY_ATTRIBUTE
            ):
                reached.add((f"loopqkd.{node.value.id}", node.attr))
    return reached


def resolves(module: str, name: str) -> bool:
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule of the package
    except ImportError:
        return False
    return True


def test_benchmark_reaches_only_existing_names():
    reached = reached_names()
    # the scan sees the benchmark's run and trace paths
    assert {("loopqkd.harness", "run"), ("loopqkd.loopnet", "noise_taps")} <= reached
    assert {("loopqkd.session", "PURPOSE_NOISE_BASE"), ("loopqkd", "harness")} <= reached
    missing = sorted(f"{module}.{name}" for module, name in reached if not resolves(module, name))
    assert missing == [], f"perfbench reaches names the package no longer has: {missing}"
