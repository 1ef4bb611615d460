"""Each public name is declared once, in the module that defines it; the
package's __all__ is the modules' lists in a fixed order plus __version__."""

import inspect

import pytest

import cvdfusion
from cvdfusion import core, errors, formats, fusion, measures

MODULES = (core, measures, fusion, formats, errors)


def test_package_all_is_the_module_lists_plus_version():
    expected = [name for module in MODULES for name in module.__all__]
    assert cvdfusion.__all__ == [*expected, "__version__"]
    assert len(set(cvdfusion.__all__)) == len(cvdfusion.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_listed_name_is_defined_by_its_module(module):
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(cvdfusion, name) is value
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_star_import_gives_exactly_the_listed_names(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
