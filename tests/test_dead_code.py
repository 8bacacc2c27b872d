"""Guard against dead helpers: every module-level function of the
package must be referenced somewhere in src/, scripts/ or tests/."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symprice"


def test_every_module_level_function_is_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for d in ("src", "scripts", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.parent == PACKAGE:
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined[node.name] = path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    dead = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not dead, f"module-level functions referenced nowhere: {dead}"
