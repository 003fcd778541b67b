"""The package's public names: everything in ``__all__`` must exist.

A name left in ``__all__`` after its definition is deleted breaks
``from ringdecay import *`` for every user; this catches it here first.
"""

import ringdecay


def test_every_exported_name_resolves():
    missing = [name for name in ringdecay.__all__ if not hasattr(ringdecay, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from ringdecay import *", namespace)
    assert set(ringdecay.__all__) <= set(namespace)


def test_one_list_of_names():
    from ringdecay import ring_model, specfun, spectrum, validation

    modules = (ring_model, specfun, spectrum, validation)
    assert len(ringdecay.__all__) == len(set(ringdecay.__all__))
    assert set(ringdecay.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
