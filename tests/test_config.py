"""Property tests of the configuration constructors' validation.

Every value is either accepted as given or rejected with
ConfigurationError; no other exception escapes, NaN and infinities never
pass, and counts must be integers.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from ffinit import ConfigurationError, RelaxationConfig, Scheme, TrainConfig

ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
EDGE_CASES = (math.nan, math.inf, -math.inf, 2.5, 1.0, 1, 0, -1, True, "1", None)


def over_any_value(test):
    """Run ``test`` on drawn values and on every edge case."""
    test = given(ANY_VALUE)(test)
    for value in EDGE_CASES:
        test = example(value)(test)
    return test


def accepts(make, **kwargs) -> bool:
    """True if ``make(**kwargs)`` constructs, False on ConfigurationError."""
    try:
        make(**kwargs)
    except ConfigurationError:
        return False
    return True


def is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def is_count(x, minimum) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= minimum


class TestRelaxationConfig:
    @over_any_value
    def test_tau(self, tau):
        ok = is_real(tau) and tau >= 1.0
        assert accepts(RelaxationConfig, scheme=Scheme.LEAKY, tau=tau) is ok
        if ok:
            assert RelaxationConfig(scheme=Scheme.LEAKY, tau=tau).tau == tau
            assert RelaxationConfig(tau=tau).tau == 1.0

    @over_any_value
    def test_tol(self, tol):
        assert accepts(RelaxationConfig, tol=tol) is (is_real(tol) and tol > 0.0)

    @over_any_value
    def test_noise_scale(self, noise):
        ok = is_real(noise) and noise > 0.0
        assert accepts(RelaxationConfig, scheme=Scheme.LANGEVIN, noise_scale=noise) is ok
        assert accepts(RelaxationConfig, noise_scale=noise) is (is_real(noise) and noise == 0)

    @over_any_value
    def test_max_iters(self, n):
        assert accepts(RelaxationConfig, max_iters=n) is is_count(n, 1)

    @over_any_value
    def test_seed(self, seed):
        assert accepts(RelaxationConfig, seed=seed) is is_count(seed, 0)


class TestTrainConfig:
    @over_any_value
    def test_learning_rate(self, lr):
        assert accepts(TrainConfig, learning_rate=lr) is (is_real(lr) and lr >= 0.0)

    @over_any_value
    def test_init_scale(self, scale):
        assert accepts(TrainConfig, init_scale=scale) is (is_real(scale) and scale >= 0.0)

    @over_any_value
    def test_epochs(self, n):
        assert accepts(TrainConfig, epochs=n) is is_count(n, 1)

    @over_any_value
    def test_batch_size(self, n):
        assert accepts(TrainConfig, batch_size=n) is is_count(n, 1)

    @over_any_value
    def test_seed(self, seed):
        assert accepts(TrainConfig, seed=seed) is is_count(seed, 0)
