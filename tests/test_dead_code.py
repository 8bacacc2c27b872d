"""Guard against dead code: every module-level function, class and
constant of the package must be referenced somewhere in src/, scripts/
or tests/.  Guard the one slice rule: only ``digraph`` reads the slice
bound, so every batch is cut by ``digraph.slices``.  Guard the one slot
table: inside ``search._CodeSpace`` only ``__init__`` reads the kind of
code space.  And guard the integer closed forms: only the functions of
``formulas`` whose argument may be rational name ``Fraction``."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symprice"


def _unreferenced(kinds):
    """Names defined by module-level package statements of the given
    kinds that no src/, scripts/ or tests/ file reads, as a name or an
    attribute (an assignment target is not a read)."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for d in ("src", "scripts", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.parent == PACKAGE:
                for node in tree.body:
                    if isinstance(node, kinds):
                        for name in _defined_names(node):
                            defined[name] = path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_module_level_function_is_referenced():
    dead = _unreferenced((ast.FunctionDef, ast.AsyncFunctionDef))
    assert not dead, f"module-level functions referenced nowhere: {dead}"


def test_every_module_level_class_and_constant_is_referenced():
    dead = _unreferenced((ast.ClassDef, ast.Assign, ast.AnnAssign))
    assert not dead, f"module-level classes and constants referenced nowhere: {dead}"


def test_only_digraph_cuts_batches():
    # a batch is cut by digraph.slices or digraph.stream alone: no other
    # package module reads the slice bound TABLE_ENTRIES
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "digraph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "TABLE_ENTRIES" in names:
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"modules that cut batches by hand: {readers}"


def test_only_the_code_space_constructor_reads_its_kind():
    # a code space's layout is its slot table, built once in __init__; the
    # methods read the table and never branch on digraph or tournament
    tree = ast.parse((PACKAGE / "search.py").read_text())
    space = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_CodeSpace")
    readers = [f"{fn.name}:{node.lineno}" for fn in space.body
               if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
               for node in ast.walk(fn) if "oriented" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert not readers, f"_CodeSpace methods that read the kind: {readers}"


def test_formulas_compute_in_integers():
    # an integral closed form is one numerator over one denominator, divided
    # by formulas._exact; Fraction serves only a possibly rational argument
    tree = ast.parse((PACKAGE / "formulas.py").read_text())
    named = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and any(isinstance(node, ast.Name) and node.id == "Fraction"
                     for node in ast.walk(fn))}
    rational = {"pos_cubic", "crossover_sign"}
    assert named <= rational, f"integer forms that name Fraction: {sorted(named - rational)}"
