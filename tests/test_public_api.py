"""The public surface: dkpscatter exports exactly its modules' __all__."""

import pytest

import dkpscatter
from dkpscatter import algebra, errors, oracle, scattering, specfun, wavefield

# in the order of dkpscatter.__all__
MODULES = (errors, specfun, algebra, scattering, wavefield, oracle)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_names_are_the_package_names(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(dkpscatter, name) is getattr(module, name), name


def test_package_all_is_the_modules_all():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert dkpscatter.__all__ == names
    assert len(set(names)) == len(names)


def test_errors_all_lists_every_exception():
    defined = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__]
    assert sorted(errors.__all__) == sorted(defined)
