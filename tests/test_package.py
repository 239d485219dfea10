"""The package namespace: what ``from probecut import *`` exports."""

import types

import probecut


def test_all_names_resolve_to_non_module_attributes():
    assert len(set(probecut.__all__)) == len(probecut.__all__)
    for name in probecut.__all__:
        assert not isinstance(getattr(probecut, name), types.ModuleType), name

