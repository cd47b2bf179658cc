"""The package's public names."""

import modborder


def test_every_exported_name_resolves():
    missing = [name for name in modborder.__all__ if not hasattr(modborder, name)]
    assert missing == []
    assert len(set(modborder.__all__)) == len(modborder.__all__)
