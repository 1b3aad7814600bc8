"""Every public top-level function and class of the package, and every
public method and property of its public classes, is reached from the
package itself or from the benchmark, not only from tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loopqkd"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names that only tests reach, each kept on purpose.
ALLOWED_UNUSED = {
    "diattenuator": "builds the polarization-dependent-loss elements that tests put into loops",
}


def _public(node: ast.AST) -> bool:
    defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    return defines and not node.name.startswith("_")


def public_definitions() -> set[str]:
    """Public top-level names of the package, and ``Class.member`` for the
    public methods and properties of its public classes."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _public(node):
                continue
            found.add(node.name)
            if isinstance(node, ast.ClassDef):
                found.update(
                    f"{node.name}.{member.name}"
                    for member in node.body
                    if _public(member) and not isinstance(member, ast.ClassDef)
                )
    return found


def referenced_names() -> set[str]:
    """Every name used as a Name, an Attribute or an import in the users."""
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_no_public_code_is_reached_only_from_tests():
    used = referenced_names()
    # a member counts as used when its name is: the scan does not resolve types
    unused = {name for name in public_definitions() if name.rpartition(".")[2] not in used}
    # an allowed name that gains a user leaves the list too
    assert unused == set(ALLOWED_UNUSED)
