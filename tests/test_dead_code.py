"""Dead-code guard: every function, class and method that ``src/qgat`` defines
is used somewhere in ``src/qgat`` or ``perfbench``, and every configuration
key is read by some module other than ``config``.

A name counts as used when it appears as a ``Name``, an ``Attribute`` or an
import alias in either tree.  A string constant in ``perfbench`` also counts,
because the tracer names the attributes it patches by string.  Tests do not
count: a name that only tests reach is an entry point nothing else needs.

The package's own text names no definition that is gone: every
``module.name`` it quotes resolves, and every `qgat <command>` it quotes
names a subcommand.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgat"

# module.name -> why it stays although nothing in src/ or perfbench/ uses it
ALLOWED = {
    "training.load_checkpoint": "reads the checkpoints that `qgat train` writes",
    "inductive.load_collection": "reads the collections that `qgat synth` writes",
}


def defined_names() -> dict[str, str]:
    """{"module.name": name} for module-level functions and classes and the
    non-dunder methods of those classes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def used_names() -> set[str]:
    used = set()
    for tree, strings_count in ((PACKAGE, False), (ROOT / "perfbench", True)):
        for path in sorted(tree.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
                elif (strings_count and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used.add(node.value)
    return used


def test_every_definition_has_a_user():
    used = used_names()
    unused = sorted(key for key, name in defined_names().items()
                    if name not in used and key not in ALLOWED)
    assert not unused, f"defined in src/qgat but used nowhere in src/ or perfbench/: {unused}"


def test_allowlist_names_existing_unused_definitions():
    defined, used = defined_names(), used_names()
    for key in ALLOWED:
        assert key in defined, f"{key} is allowlisted but not defined"
        assert defined[key] not in used, f"{key} is allowlisted but used"


def test_every_config_key_is_read():
    """A key is read when it configures a training run (``TRAIN_KEYS``) or a
    module other than ``config`` names it as a string, as ``cfg.get`` does."""
    from qgat.config import SCHEMA, TRAIN_KEYS

    strings = {node.value for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = sorted(f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys
                    if (section, key) not in TRAIN_KEYS and key not in strings)
    assert not unread, f"configuration keys that nothing outside config.py reads: {unread}"


def test_docstring_references_resolve():
    """Every ``module.name`` or ``module.Class.attr`` that ``src/qgat`` quotes
    in double backticks, ``module`` one of the package's, resolves by
    ``getattr``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    quoted, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for dotted in re.findall(r"``([A-Za-z_]\w*(?:\.\w+)+)``", path.read_text()):
            head, *attrs = dotted.split(".")
            if head not in modules:
                continue
            quoted += 1
            try:
                functools.reduce(getattr, attrs, importlib.import_module(f"qgat.{head}"))
            except AttributeError:
                stale.append(f"{path.name}: {dotted}")
    assert quoted, "the pattern found no reference to check"
    assert not stale, f"references to names that do not exist: {stale}"


def test_command_references_resolve():
    """Every `qgat <word>` that ``src/qgat`` quotes in backticks, as an error
    message does to name the command that runs a task, names a key of
    ``cli.COMMANDS``."""
    from qgat.cli import COMMANDS

    quoted, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for word in re.findall(r"`qgat ([\w-]+)`", path.read_text()):
            quoted += 1
            if word not in COMMANDS:
                stale.append(f"{path.name}: qgat {word}")
    assert quoted, "the pattern found no reference to check"
    assert not stale, f"references to subcommands that do not exist: {stale}"
