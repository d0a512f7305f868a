"""The package ships only code that runs: every function, class, method
and property of ``src/ctie`` is reached from the package's own code or
from the benchmark (``perfbench/``), not from the tests alone.

A name counts as reached when it is read (as a name, an attribute, an
imported name or a dotted string such as ``perfbench/tracing.py``'s
``"Extractor.extract_text"``) by module-level code, by the benchmark, or
by the body of a definition that is itself reached. ``__init__.py`` only
re-exports, so its imports reach nothing. Names are matched without
their owner, so this is a lower bound: a method shares its reach with
every attribute of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the only writer of the ``--pretrained-embeddings`` format, which a user
# needs to build that file; ``train`` only reads it
SHIPPED_FOR_USERS = {"model.save_embedding_file"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.update(sub.name.split("."))
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(sub.value.split("."))
    return names


def _definitions():
    """(module, qualified name, name, nodes its reach reads, module-level
    code) for each module of ``src/ctie``."""
    defs, module_code = [], []
    for path in sorted((ROOT / "src" / "ctie").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                # a class's fields, decorators and bases, and its dunder
                # methods, which Python calls implicitly, come with the class
                members = [n for n in node.body if isinstance(n, _DEFS)]
                own = [n for n in node.body if not isinstance(n, _DEFS)]
                own += node.decorator_list + node.bases
                own += [n for n in members if n.name.startswith("__")]
                defs.append((module, node.name, node.name, own))
                defs += [(module, f"{node.name}.{n.name}", n.name, [n])
                         for n in members if not n.name.startswith("__")]
            elif isinstance(node, _DEFS):
                defs.append((module, node.name, node.name, [node]))
            else:
                module_code.append(node)
    return defs, module_code


def test_every_public_name_is_reached_without_the_tests():
    defs, module_code = _definitions()
    reached = _names_read(module_code)
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= _names_read([ast.parse(path.read_text(encoding="utf-8"))])
    pending = list(defs)
    grew = True
    while grew:
        grew = False
        for item in list(pending):
            if item[2] in reached:
                reached |= _names_read(item[3])
                pending.remove(item)
                grew = True
    unreached = sorted(f"{module}.{qualname}" for module, qualname, _name, _ in pending)
    assert unreached == sorted(SHIPPED_FOR_USERS)
