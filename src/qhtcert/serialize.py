"""JSON file formats for states, channels and classifiers.

Complex matrices are stored as separate real/imaginary double arrays in
row-major order, so dumps are bit-stable:

* matrix:     {"dim": d, "re": [[...]], "im": [[...]]}
              (rectangular matrices use {"rows": r, "cols": c, ...})
* pure state: {"amplitudes_re": [...], "amplitudes_im": [...]}
* channel:    {"kraus": [matrix, ...]}
* classifier: {"labels": [...], "channel": {...}, "povm": {"elements": [matrix, ...]}}
              (the labels may sit in the "povm" object instead)

Files are read and written as UTF-8, whatever the locale.  The loaders check
that every key they read is present, the JSON type of every container they
index and that every array leaf is a number, and raise ValidationError on a
record of the wrong shape.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .classifier import Classifier
from .errors import ValidationError
from .states import Channel, DensityMatrix, Povm, PureState, validate_density


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    out: dict = {}
    if m.shape[0] == m.shape[1]:
        out["dim"] = int(m.shape[0])
    else:
        out["rows"] = int(m.shape[0])
        out["cols"] = int(m.shape[1])
    out["re"] = m.real.tolist()
    out["im"] = m.imag.tolist()
    return out


_JSON_TYPE_NAMES = {dict: "object", list: "array", int: "integer"}


def _expect(value, kind: type, what: str):
    """value, checked to be a JSON object, array or integer."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, what: str):
    """obj[key], checked to be present."""
    if key not in obj:
        raise ValidationError(f"{what} lacks the key {key!r}")
    return obj[key]


def _reals(value, what: str) -> np.ndarray:
    """value as a float array.  Strings, nulls and booleans are refused: a
    float conversion would read "1" and true as 1.0 and null as nan."""
    try:
        reals = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a (nested) array of numbers: {exc}") from None
    leaves = [value]
    for _ in range(reals.ndim):
        leaves = [x for row in leaves for x in row]
    if reals.dtype.kind not in "iuf" or bool in map(type, leaves):
        raise ValidationError(f"{what} must be a (nested) array of numbers, not of strings, booleans or nulls")
    return reals.astype(float, copy=False)


def matrix_from_json(obj: dict) -> np.ndarray:
    obj = _expect(obj, dict, "matrix")
    re = _reals(_field(obj, "re", "matrix"), "matrix re")
    im = _reals(_field(obj, "im", "matrix"), "matrix im")
    if re.shape != im.shape:
        raise ValidationError("re and im parts have different shapes")
    if "dim" in obj:
        d = _expect(obj["dim"], int, "matrix dim")
        if re.shape != (d, d):
            raise ValidationError(f"declared dim {d} does not match data shape {re.shape}")
    else:
        rows, cols = _field(obj, "rows", "matrix"), _field(obj, "cols", "matrix")
        if re.shape != (_expect(rows, int, "matrix rows"), _expect(cols, int, "matrix cols")):
            raise ValidationError("declared rows/cols do not match data shape")
    return re + 1j * im


def density_to_json(dm: DensityMatrix) -> dict:
    return matrix_to_json(dm.matrix)


def density_from_json(obj: dict) -> DensityMatrix:
    return validate_density(matrix_from_json(obj))


def pure_to_json(psi: PureState) -> dict:
    return {
        "amplitudes_re": psi.amplitudes.real.tolist(),
        "amplitudes_im": psi.amplitudes.imag.tolist(),
    }


def pure_from_json(obj: dict) -> PureState:
    obj = _expect(obj, dict, "pure state")
    re = _reals(_field(obj, "amplitudes_re", "pure state"), "amplitudes_re")
    im = _reals(_field(obj, "amplitudes_im", "pure state"), "amplitudes_im")
    if re.shape != im.shape:
        raise ValidationError(f"amplitudes_re and amplitudes_im have different shapes {re.shape} and {im.shape}")
    return PureState(re + 1j * im)


def state_from_json(obj: dict) -> DensityMatrix:
    """Accept either a density-matrix or a pure-state record."""
    if "amplitudes_re" in _expect(obj, dict, "state"):
        return pure_from_json(obj).density()
    return density_from_json(obj)


def channel_to_json(ch: Channel) -> dict:
    return {"kraus": [matrix_to_json(k) for k in ch.kraus]}


def channel_from_json(obj: dict) -> Channel:
    kraus = _expect(_field(_expect(obj, dict, "channel"), "kraus", "channel"), list, "channel kraus")
    return Channel(tuple(matrix_from_json(k) for k in kraus))


def classifier_to_json(cl: Classifier) -> dict:
    return {
        "labels": list(cl.labels),
        "channel": channel_to_json(cl.channel),
        "povm": {"elements": [matrix_to_json(e) for e in cl.povm.elements]},
    }


def classifier_from_json(obj: dict) -> Classifier:
    obj = _expect(obj, dict, "classifier")
    channel = channel_from_json(_field(obj, "channel", "classifier"))
    povm_obj = _expect(_field(obj, "povm", "classifier"), dict, "povm")
    labels = tuple(_expect(obj.get("labels", povm_obj.get("labels", [])), list, "labels"))
    elements = tuple(matrix_from_json(e) for e in _expect(_field(povm_obj, "elements", "povm"), list, "povm elements"))
    povm = Povm(elements, labels if labels else None)
    return Classifier(channel, povm)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj) -> str:
    """The text of every JSON file and record the package writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def content_hash(obj) -> str:
    """sha256 of the canonical JSON encoding; used to fingerprint inputs."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def load_json(path) -> dict:
    """The JSON value in the file at path, read as UTF-8 (RFC 8259, 8.1)
    whatever the locale.  Nesting too deep for the decoder raises
    ValidationError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to decode") from None


def save_json(obj: dict, path) -> None:
    Path(path).write_text(pretty_dumps(obj), encoding="utf-8")
