"""Property tests of the configuration constructors' validation, and of
the JSON config schema they define.

Every value is either accepted as given or rejected with
ConfigurationError; no other exception escapes, NaN and infinities never
pass, counts must be integers, and an enum field takes a member or its
value string.
"""

import enum
import math
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffinit import (
    ConfigurationError,
    DataSource,
    DatasetSpec,
    ExperimentSpec,
    LayerSpec,
    RelaxationConfig,
    Scheme,
    TrainConfig,
    TrainRule,
    experiment_spec_from_config,
)

ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
EDGE_CASES = (math.nan, math.inf, -math.inf, 2.5, 1.0, 1, 0, -1, True, "1", None)


MEMBERS = [member for kind in (Scheme, TrainRule, DataSource) for member in kind]
MEMBER_NAMES = [member.value for member in MEMBERS] + [member.name for member in MEMBERS]


def over(values, edge_cases):
    """Run the test on drawn ``values`` and on every edge case."""
    def decorate(test):
        test = given(values)(test)
        for value in edge_cases:
            test = example(value)(test)
        return test
    return decorate


over_any_value = over(ANY_VALUE, EDGE_CASES)
over_member_like = over(st.one_of(ANY_VALUE, st.sampled_from(MEMBERS + MEMBER_NAMES)),
                        EDGE_CASES + tuple(MEMBERS + MEMBER_NAMES))


def member_of(kind: type[enum.Enum], value):
    """The member of ``kind`` that ``value`` is or whose value it is, else None."""
    return {**{m: m for m in kind}, **{m.value: m for m in kind}}.get(value)


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

    @over_member_like
    def test_scheme(self, scheme):
        member = member_of(Scheme, scheme)
        noise = 0.1 if member is Scheme.LANGEVIN else 0.0
        assert accepts(RelaxationConfig, scheme=scheme, noise_scale=noise) is (member is not None)
        if member is not None:
            assert RelaxationConfig(scheme=scheme, noise_scale=noise).scheme is member


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

    @over_member_like
    def test_rule(self, rule):
        member = member_of(TrainRule, rule)
        assert accepts(TrainConfig, rule=rule) is (member is not None)
        if member is not None:
            assert TrainConfig(rule=rule).rule is member

    @over(ANY_VALUE, EDGE_CASES + ("false", "true"))
    def test_tie_decoder(self, tie):
        assert accepts(TrainConfig, tie_decoder=tie) is isinstance(tie, bool)


class TestDatasetSpec:
    @over_member_like
    def test_source(self, source):
        member = member_of(DataSource, source)
        assert accepts(DatasetSpec, source=source) is (member is not None)
        if member is not None:
            assert DatasetSpec(source=source).source is member

    @over_any_value
    def test_path(self, path):
        assert accepts(DatasetSpec, path=path) is (path is None or isinstance(path, str))


SECTIONS = {"dataset": DatasetSpec, "relaxation": RelaxationConfig, "train": TrainConfig}
REQUIRED = {"sizes": [5, 4], "regimes": ["random-tied"]}
# Between them these configs give every field of every section a valid value
# other than its default (tie_decoder excludes the local-branch rule).
NON_DEFAULT = (
    {"sizes": [6, 5, 4], "regimes": ["trained-ae", "random-tied"],
     "n_inputs_evaluated": 3, "output_dir": "elsewhere", "seed": 2,
     "dataset": {"source": "idx-file", "path": "images.idx", "n_items": 7, "n_clusters": 3,
                 "spread": 0.5},
     "relaxation": {"scheme": "langevin", "tau": 2.5, "noise_scale": 0.1, "max_iters": 9,
                    "tol": 1e-3, "seed": 4},
     "train": {"learning_rate": 0.1, "epochs": 3, "batch_size": 4, "rule": "local-branch",
               "init_scale": 0.5, "seed": 6}},
    {**REQUIRED, "relaxation": {"scheme": "leaky", "tau": 3.0},
     "train": {"tie_decoder": True}},
)


def as_json(value):
    """A parsed spec value in the form its config key takes."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, LayerSpec):
        return list(value.sizes)
    return list(value) if isinstance(value, tuple) else value


class TestConfigSchema:
    def test_the_configs_cover_every_field(self):
        assert {key for doc in NON_DEFAULT for key in doc} == {
            f.name for f in fields(ExperimentSpec)}
        for where, cls in SECTIONS.items():
            assert {key for doc in NON_DEFAULT for key in doc.get(where, {})} == {
                f.name for f in fields(cls)}

    @pytest.mark.parametrize("doc", NON_DEFAULT)
    def test_non_default_values_reach_the_spec(self, doc):
        spec = experiment_spec_from_config(doc)
        default = ExperimentSpec(sizes=LayerSpec(sizes=(5, 4)), regimes=("random-tied",))
        for key, value in doc.items():
            if key in SECTIONS:
                for name, sub_value in value.items():
                    assert as_json(getattr(getattr(spec, key), name)) == sub_value
                    assert as_json(getattr(SECTIONS[key](), name)) != sub_value
            else:
                assert as_json(getattr(spec, key)) == value
                assert key in REQUIRED or as_json(getattr(default, key)) != value

    def test_omitted_keys_take_the_dataclass_defaults(self):
        spec = experiment_spec_from_config(REQUIRED)
        assert spec == ExperimentSpec(sizes=LayerSpec(sizes=(5, 4)), regimes=("random-tied",))
        assert (spec.dataset, spec.relaxation, spec.train) == (
            DatasetSpec(), RelaxationConfig(), TrainConfig())

    @pytest.mark.parametrize("where", ["config", *SECTIONS])
    def test_unknown_key_rejected(self, where):
        doc = ({**REQUIRED, "typo": 1} if where == "config"
               else {**REQUIRED, where: {"typo": 1}})
        with pytest.raises(ConfigurationError, match=rf"unknown {where} keys: \['typo'\]"):
            experiment_spec_from_config(doc)

    @pytest.mark.parametrize("where", ["config", *SECTIONS])
    def test_section_that_is_not_an_object_rejected(self, where):
        doc = [1] if where == "config" else {**REQUIRED, where: [1]}
        with pytest.raises(ConfigurationError, match=f"{where} must be a JSON object"):
            experiment_spec_from_config(doc)
