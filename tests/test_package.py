"""The package's public surface."""

import pytest

import ffinit
import helpers


def test_every_public_name_resolves():
    assert len(set(ffinit.__all__)) == len(ffinit.__all__)
    missing = [name for name in ffinit.__all__ if not hasattr(ffinit, name)]
    assert not missing


@pytest.mark.parametrize("name", ["branch_predictions", "local_branch_update"])
def test_unchecked_kernels_are_not_exported(name):
    assert not hasattr(ffinit, name)
    assert name not in ffinit.__all__


def test_oracles_hold_only_the_containers():
    """The oracles in ``helpers`` build their inputs with the package's
    containers and compute everything else themselves."""
    held = {name for name, obj in vars(helpers).items()
            if str(getattr(obj, "__module__", "")).startswith("ffinit")
            or str(getattr(obj, "__name__", "")).startswith("ffinit")}
    assert held == {"Activation", "LayerSpec", "NetworkParams", "NetworkState"}
