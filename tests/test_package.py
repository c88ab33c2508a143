"""The package's public surface."""

import ffinit


def test_every_public_name_resolves():
    assert len(set(ffinit.__all__)) == len(ffinit.__all__)
    missing = [name for name in ffinit.__all__ if not hasattr(ffinit, name)]
    assert not missing
