"""The package's exports: ``__all__`` and the names ``idstab`` binds agree."""

import types

import idstab


def test_all_matches_the_package_names():
    # ``from idstab import *`` fails on a name in ``__all__`` that is not bound
    assert [name for name in idstab.__all__ if not hasattr(idstab, name)] == []
    # every public name bound here but a submodule is exported; ``idstab.stability``
    # is the function, which rebinds the submodule's name
    bound = {
        name
        for name, value in vars(idstab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(idstab.__all__)) == []
