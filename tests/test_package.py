"""The package's public names are the union of its modules' ``__all__``."""

import aggeval
from aggeval import core, description, hierarchy, network, priority

MODULES = (core, description, hierarchy, network, priority)


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
