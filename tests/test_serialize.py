import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtcert import Channel, DensityMatrix, PureState
from qhtcert import demo, serialize
from qhtcert.errors import QhtcertError, ValidationError

from conftest import random_density


def test_matrix_round_trip(rng):
    m = random_density(3, rng).matrix
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_rectangular_matrix_round_trip():
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    obj = serialize.matrix_to_json(v)
    assert obj["rows"] == 3 and obj["cols"] == 2
    assert np.array_equal(serialize.matrix_from_json(obj), v)


def test_matrix_shape_validation():
    zero = [[0.0, 0.0], [0.0, 0.0]]
    for obj in (
        {"dim": 3, "re": [[1.0, 0.0], [0.0, 0.0]], "im": zero},
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0]]},
        {"rows": 2, "cols": 3, "re": [[1.0, 0.0], [0.0, 0.0]], "im": zero},
    ):
        with pytest.raises(ValidationError):
            serialize.matrix_from_json(obj)


def test_density_round_trip(rng):
    dm = random_density(2, rng)
    back = serialize.density_from_json(serialize.density_to_json(dm))
    assert np.allclose(back.matrix, dm.matrix, atol=1e-15)


def test_pure_state_round_trip():
    psi = PureState.bloch(1.1, -0.7)
    back = serialize.pure_from_json(serialize.pure_to_json(psi))
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_state_dispatch():
    as_pure = serialize.state_from_json(serialize.pure_to_json(demo.benign_state()))
    as_density = serialize.state_from_json(serialize.density_to_json(DensityMatrix(np.eye(2) / 2)))
    assert as_pure.dim == as_density.dim == 2


def test_channel_round_trip():
    ch = demo.hemisphere_classifier().channel
    back = serialize.channel_from_json(serialize.channel_to_json(ch))
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))
    assert isinstance(back, Channel)


def test_classifier_round_trip():
    cl = demo.hemisphere_classifier()
    back = serialize.classifier_from_json(serialize.classifier_to_json(cl))
    assert back.labels == cl.labels
    assert all(np.array_equal(a, b) for a, b in zip(back.povm.elements, cl.povm.elements))


def test_classifier_labels_may_sit_in_the_povm_object():
    obj = serialize.classifier_to_json(demo.hemisphere_classifier())
    del obj["labels"]
    obj["povm"]["labels"] = ["down", "up"]
    assert serialize.classifier_from_json(obj).labels == ("down", "up")


def test_top_level_labels_win_over_the_povm_object():
    obj = serialize.classifier_to_json(demo.hemisphere_classifier())
    obj["labels"], obj["povm"]["labels"] = ["down", "up"], ["left", "right"]
    assert serialize.classifier_from_json(obj).labels == ("down", "up")


def test_canonical_hash_is_stable():
    obj = serialize.classifier_to_json(demo.hemisphere_classifier())
    assert serialize.content_hash(obj) == serialize.content_hash(
        serialize.classifier_to_json(demo.hemisphere_classifier())
    )
    other = serialize.classifier_to_json(demo.balanced_classifier())
    assert serialize.content_hash(obj) != serialize.content_hash(other)


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    serialize.save_json(serialize.pure_to_json(demo.benign_state()), path)
    loaded = serialize.state_from_json(serialize.load_json(path))
    assert np.allclose(loaded.matrix, demo.benign_state().density().matrix)


# ---------------------------------------------------------------------------
# malformed records

_JSON_KEYS = ["re", "im", "dim", "rows", "cols", "kraus", "elements", "labels", "channel", "povm",
              "amplitudes_re", "amplitudes_im"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=4),
    max_leaves=10,
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


_VALID_RECORDS = {
    "classifier": serialize.classifier_to_json(demo.hemisphere_classifier()),
    "pure state": serialize.pure_to_json(demo.benign_state()),
    "density": serialize.density_to_json(demo.benign_state().density()),
}


@given(data=st.data(), kind=st.sampled_from(sorted(_VALID_RECORDS)))
@settings(max_examples=200, deadline=None)
def test_loaders_reject_wrong_shapes_with_handled_errors(data, kind):
    # Any JSON value at any position of a valid record either loads or raises
    # one of the errors the CLI reports as a JSON record, never a TypeError.
    base = _VALID_RECORDS[kind]
    path = data.draw(st.sampled_from(list(_paths(base))))
    record = _replace(base, path, data.draw(_JSON_VALUES))
    load = serialize.classifier_from_json if kind == "classifier" else serialize.state_from_json
    try:
        load(record)
    except (QhtcertError, ValueError):
        pass
