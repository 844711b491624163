"""The package's public names are the union of its modules' ``__all__``, and
its modules import each other in one order."""

import ast
from pathlib import Path

import aggeval
from aggeval import core, description, hierarchy, network, priority

MODULES = (core, description, hierarchy, network, priority)
# Each module imports only modules before it; the package's __init__ and
# __main__ come after all of them.
LAYERS = ("core", "network", "priority", "hierarchy", "description", "cli")


def test_package_names_have_no_duplicates():
    assert len(aggeval.__all__) == len(set(aggeval.__all__))


def test_package_names_are_the_union_of_the_module_names():
    assert set(aggeval.__all__) == {name for module in MODULES for name in module.__all__}


def test_each_package_name_is_the_module_attribute():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(aggeval, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_package_names():
    namespace: dict = {}
    exec("from aggeval import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(aggeval.__all__)
    for name, value in namespace.items():
        assert value is getattr(aggeval, name)


def test_modules_import_only_earlier_layers_and_only_at_module_level():
    faults = []
    for path in sorted(Path(aggeval.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rank = LAYERS.index(path.stem) if path.stem in LAYERS else len(LAYERS)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node not in tree.body:
                    faults.append(f"{path.name}:{node.lineno}: imports inside a block")
                if node.module not in LAYERS[:rank]:
                    faults.append(f"{path.name}:{node.lineno}: imports {node.module}")
    assert faults == []
