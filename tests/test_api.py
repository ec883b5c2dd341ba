"""The package exports its public names, and no submodule."""

import types

import starchart


def test_all_names_resolve_to_no_module():
    assert len(set(starchart.__all__)) == len(starchart.__all__)
    for name in starchart.__all__:
        assert not isinstance(getattr(starchart, name), types.ModuleType), name
    namespace: dict = {}
    exec("from starchart import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(starchart.__all__)
