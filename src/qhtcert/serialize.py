"""JSON file formats for states, channels, POVMs and classifiers.

Complex matrices are stored as separate real/imaginary double arrays in
row-major order, so dumps are bit-stable:

* matrix:     {"dim": d, "re": [[...]], "im": [[...]]}
              (rectangular matrices use {"rows": r, "cols": c, ...})
* pure state: {"amplitudes_re": [...], "amplitudes_im": [...]}
* channel:    {"kraus": [matrix, ...]}
* POVM:       {"labels": [...], "elements": [matrix, ...]}
* classifier: {"labels": [...], "channel": {...}, "povm": {...}}

The loaders check the JSON type of every container they index and raise
ValidationError on a record of the wrong shape.
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


def _reals(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a (nested) array of numbers: {exc}") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    obj = _expect(obj, dict, "matrix")
    re = _reals(obj["re"], "matrix re")
    im = _reals(obj["im"], "matrix im")
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    if "dim" in obj:
        d = _expect(obj["dim"], int, "matrix dim")
        if re.shape != (d, d):
            raise ValueError(f"declared dim {d} does not match data shape {re.shape}")
    else:
        if re.shape != (_expect(obj["rows"], int, "matrix rows"), _expect(obj["cols"], int, "matrix cols")):
            raise ValueError("declared rows/cols do not match data shape")
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
    re = _reals(obj["amplitudes_re"], "amplitudes_re")
    im = _reals(obj["amplitudes_im"], "amplitudes_im")
    return PureState(re + 1j * im)


def state_from_json(obj: dict) -> DensityMatrix:
    """Accept either a density-matrix or a pure-state record."""
    if "amplitudes_re" in _expect(obj, dict, "state"):
        return pure_from_json(obj).density()
    return density_from_json(obj)


def channel_to_json(ch: Channel) -> dict:
    return {"kraus": [matrix_to_json(k) for k in ch.kraus]}


def channel_from_json(obj: dict) -> Channel:
    kraus = _expect(_expect(obj, dict, "channel")["kraus"], list, "channel kraus")
    return Channel(tuple(matrix_from_json(k) for k in kraus))


def povm_to_json(povm: Povm) -> dict:
    return {
        "labels": list(povm.labels),
        "elements": [matrix_to_json(e) for e in povm.elements],
    }


def povm_from_json(obj: dict) -> Povm:
    obj = _expect(obj, dict, "povm")
    elements = tuple(matrix_from_json(e) for e in _expect(obj["elements"], list, "povm elements"))
    labels = tuple(_expect(obj["labels"], list, "povm labels")) if "labels" in obj else None
    return Povm(elements, labels)


def classifier_to_json(cl: Classifier) -> dict:
    return {
        "labels": list(cl.labels),
        "channel": channel_to_json(cl.channel),
        "povm": {"elements": [matrix_to_json(e) for e in cl.povm.elements]},
    }


def classifier_from_json(obj: dict) -> Classifier:
    obj = _expect(obj, dict, "classifier")
    channel = channel_from_json(obj["channel"])
    povm_obj = _expect(obj["povm"], dict, "povm")
    labels = tuple(_expect(obj.get("labels", povm_obj.get("labels", [])), list, "labels"))
    elements = tuple(matrix_from_json(e) for e in _expect(povm_obj["elements"], list, "povm elements"))
    povm = Povm(elements, labels if labels else None)
    return Classifier(channel, povm, labels if labels else None)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """sha256 of the canonical JSON encoding; used to fingerprint inputs."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
