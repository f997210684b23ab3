"""Property tests of setting and state I/O and of the setting builders.

The loaders take arbitrary JSON, so any JSON-like value must either load
or raise ``ValueError``, which the CLI turns into exit 2.  Dimensions are
drawn from small integers, from non-integral values and from integers
above ``MAX_JSON_DIM``: an integral ``d`` up to that bound is a valid
request for a d x d matrix and its eigensolve.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supergram.golden import golden_setting
from supergram.gram import MAX_JSON_DIM, GramSetting, build_setting, setting_from_json, setting_to_json
from supergram.sampling import random_setting
from supergram.states import state_from_json

# JSON scalars, plus the values that once crashed or were truncated:
# huge integers overflow float(), 1e400 is an infinity, 2.5 and 1.5 are
# not integers
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([10**400, 1.5, 2.5, 3.0]),
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(alphabet="ijd0.5e-", max_size=4),
)
KEYS = ["i", "j", "re", "im", "overlaps", "coeffs", "normalized"]
json_like = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=10,
)
dims = st.one_of(st.integers(-1, 5),
                 st.sampled_from([2.5, 3.0, float("inf"), float("nan"), None, "3", [3], MAX_JSON_DIM + 1, 10**6]))
part = st.floats(-0.6, 0.6)
entries = st.one_of(
    json_like,
    st.fixed_dictionaries({}, optional={"i": json_like, "j": json_like, "re": json_like, "im": json_like}),
    st.fixed_dictionaries({"i": st.integers(0, 5), "j": st.integers(0, 5)}, optional={"re": part, "im": part}),
)


@st.composite
def well_formed_settings(draw):
    """A loadable setting object: integer d, distinct pairs i < j, |s| < 1."""
    d = draw(st.integers(2, 4))
    pairs = draw(st.lists(st.sampled_from([(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]),
                          unique=True))
    return {"d": d, "overlaps": [{"i": i, "j": j, "re": draw(part), "im": draw(part)} for i, j in pairs]}


setting_objects = st.one_of(
    json_like,
    st.fixed_dictionaries({"d": dims}, optional={"overlaps": st.one_of(st.lists(entries, max_size=5), json_like)}),
    well_formed_settings(),
)
coefficient = st.fixed_dictionaries({}, optional={"re": st.floats(-2.0, 2.0), "im": st.floats(-2.0, 2.0)})
state_objects = st.one_of(
    json_like,
    st.fixed_dictionaries({"coeffs": st.one_of(st.lists(st.one_of(entries, coefficient), max_size=4), json_like)},
                          optional={"normalized": json_like}),
    st.fixed_dictionaries({"coeffs": st.lists(st.fixed_dictionaries({"re": st.floats(0.1, 2.0), "im": part}),
                                              min_size=2, max_size=3)}),
)

SETTINGS = [build_setting(2, [(1, 2, 0.6)]), build_setting(3, [(1, 2, -0.2), (2, 3, 0.3j)])]


@given(setting_objects)
def test_setting_json_loads_or_raises_value_error(obj):
    try:
        setting = setting_from_json(obj)
    except ValueError:
        return
    assert setting.gram.shape == (setting.d, setting.d)


@given(state_objects, st.sampled_from(SETTINGS))
def test_state_json_loads_or_raises_value_error(obj, setting):
    try:
        psi = state_from_json(obj, setting)
    except ValueError:
        return
    assert psi.coeffs.shape == (setting.d,)


@given(st.one_of(st.booleans(), st.text(alphabet="0.5e-", max_size=4)), st.sampled_from(["re", "im"]),
       st.sampled_from(SETTINGS))
def test_non_number_values_raise_value_error(value, key, setting):
    # numeric strings such as "0.5" included: values are as strict as indices
    with pytest.raises(ValueError):
        setting_from_json({"d": 2, "overlaps": [{"i": 1, "j": 2, key: value}]})
    with pytest.raises(ValueError):
        state_from_json({"coeffs": [{"re": 1.0, key: value}] * setting.d}, setting)


@st.composite
def gram_matrices(draw):
    """A valid, not necessarily positive definite, Gram matrix; about one
    pair in four is exactly zero."""
    d = draw(st.integers(2, 5))
    part = st.floats(-0.7, 0.7)
    value = st.one_of(st.just(0j), st.builds(complex, part, part))
    upper = np.triu(np.array(draw(st.lists(value, min_size=d * d, max_size=d * d))).reshape(d, d), 1)
    return np.eye(d) + upper + upper.conj().T


@given(gram_matrices())
def test_setting_json_round_trip_is_exact(G):
    setting = GramSetting(G)
    text = json.dumps(setting_to_json(setting))
    assert np.array_equal(setting_from_json(json.loads(text)).gram, setting.gram)


def rebuilt(setting):
    d = setting.d
    return build_setting(d, [(i + 1, j + 1, setting.gram[i, j]) for i in range(d) for j in range(i + 1, d)])


@given(st.integers(2, 8), st.floats(0.0, 0.99), st.lists(st.floats(-7.0, 7.0), min_size=8, max_size=8))
def test_golden_setting_is_build_setting_of_its_upper_triangle(d, frac, phases):
    setting = golden_setting(d, -frac / (d - 1), phases[:d])
    assert setting.gram.tobytes() == rebuilt(setting).gram.tobytes()


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_random_setting_is_build_setting_of_its_upper_triangle(d, seed):
    setting = random_setting(d, np.random.default_rng(seed))
    assert setting.gram.tobytes() == rebuilt(setting).gram.tobytes()
