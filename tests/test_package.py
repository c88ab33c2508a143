"""The package's public surface."""

import inspect

import pytest

import ffinit
import helpers


def test_every_public_name_resolves():
    assert len(set(ffinit.__all__)) == len(ffinit.__all__)
    missing = [name for name in ffinit.__all__ if not hasattr(ffinit, name)]
    assert not missing


def test_exported_errors_are_the_five_kept_classes():
    exported = {name for name in ffinit.__all__
                if inspect.isclass(getattr(ffinit, name))
                and issubclass(getattr(ffinit, name), BaseException)}
    assert exported == {"FfinitError", "ConfigurationError", "InvalidInputError",
                        "DatasetError", "CheckpointError"}
    assert all(issubclass(getattr(ffinit, name), ffinit.FfinitError) for name in exported)
    # Each leaf is also a ValueError, so an ``except ValueError`` caller still catches it.
    for name in exported - {"FfinitError"}:
        assert issubclass(getattr(ffinit, name), ValueError)


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
