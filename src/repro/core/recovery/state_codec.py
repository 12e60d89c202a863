"""Bitwise-faithful JSON codec for engine state.

Checkpoints are JSON, not pickle: a snapshot must be inspectable,
diffable, and safe to load from an untrusted disk. The price is that
engine state is full of things JSON cannot carry natively — numpy
arrays, tuples, dicts with integer keys whose *insertion order* is
semantic (bin buffers), RNG bit-generator state, the fitted model. The
tagged encoding here closes that gap while staying bit-exact:

* ``ndarray`` → ``{"__repro__": "ndarray", dtype, shape, base64 bytes}``
  — the raw buffer round-trips to the identical array;
* ``tuple`` → tagged item list (decode restores tuple-ness);
* ``dict`` with any non-string key → tagged key/value *pair list*, so
  integer keys and insertion order survive (a plain string-keyed dict
  stays a plain JSON object, whose key order the writer sorts);
* ``set`` / ``frozenset`` → tagged sorted item list (sets are order-free);
* an instance of a class in the caller's allowlist (``types``, name →
  class), or of a subclass, saved as that class →
  ``{"__repro__": "object", type, state}``, the state pickle saves.
  A frozen dataclass is rebuilt through its constructor, so its
  validation runs; any other object by ``cls.__new__`` and
  ``__setstate__`` (else a ``__dict__`` update). An enum member →
  ``{"__repro__": "enum", type, value}``. Any other name is refused
  before anything is built: nothing is imported;
* floats ride on Python's ``repr``-based JSON formatting, which
  round-trips every finite float64 exactly; ints are arbitrary
  precision in JSON, so 128-bit PCG64 state is safe.

On top of the value codec sit :func:`capture` and :func:`restore`, the
one checkpoint of a :class:`~repro.core.streaming.StreamingScrubber` or
a :class:`~repro.core.parallel.engine.ShardedStreamingScrubber`:
``{format, bin_seconds, engine, model, shadow}``, where ``engine`` is
the engine's pickled state under the engine allowlist (its
``__getstate__`` leaves out what is derived), ``model`` the model
document of :mod:`repro.core.persistence` and ``shadow`` the
equivalence shadow's own document. Restore decodes and checks the whole
document before it assigns anything: another format or bin width, other
construction parameters (the engine's ``_PARAMS``) or a shadow on one
side only raise :class:`CheckpointConfigError`; a document that does
not decode, lacks a field or holds one of another type raises
:class:`CorruptSnapshotError`.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import functools
from typing import Any, Mapping, Optional

import numpy as np

from repro.core.recovery.errors import CheckpointConfigError, CorruptSnapshotError
from repro.netflow.dataset import BIN_SECONDS

__all__ = ["encode_value", "decode_value", "capture", "restore"]

#: Engine document layout; a snapshot of any other (or none) is refused.
#: Format 2 leaves the drift tracker's settings out (they are constants).
ENGINE_FORMAT = 2

_TAG = "__repro__"

#: The default allowlist: no class may be encoded or built.
_NO_TYPES: Mapping[str, type] = {}


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
def encode_value(value: Any, types: Mapping[str, type] = _NO_TYPES) -> Any:
    """Encode a state value into JSON-safe form (see module docstring);
    ``types`` allowlists the classes whose instances may be encoded."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        # Scalars keep their dtype by riding as 0-d arrays.
        return _encode_array(np.asarray(value))
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v, types) for v in value]}
    if isinstance(value, list):
        return [encode_value(v, types) for v in value]
    if isinstance(value, (set, frozenset)):
        tag = "frozenset" if isinstance(value, frozenset) else "set"
        return {_TAG: tag, "items": [encode_value(v, types) for v in sorted(value)]}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _TAG not in value:
            return {k: encode_value(v, types) for k, v in value.items()}
        return {
            _TAG: "map",
            "items": [[encode_value(k, types), encode_value(v, types)] for k, v in value.items()],
        }
    # A subclass (a test double, say) is saved as its allowlisted base.
    for cls in type(value).__mro__:
        if types.get(cls.__name__) is not cls:
            continue
        if isinstance(value, enum.Enum):
            return {_TAG: "enum", "type": cls.__name__, "value": encode_value(value.value, types)}
        state = encode_value(_pickled_state(value), types)
        return {_TAG: "object", "type": cls.__name__, "state": state}
    raise TypeError(f"cannot encode {type(value).__name__} for checkpointing")


def decode_value(value: Any, types: Mapping[str, type] = _NO_TYPES) -> Any:
    """Inverse of :func:`encode_value` under the same allowlist."""
    if isinstance(value, list):
        return [decode_value(v, types) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v, types) for k, v in value.items()}
        if tag == "ndarray":
            return _decode_array(value)
        if tag == "tuple":
            return tuple(decode_value(v, types) for v in value["items"])
        if tag in ("set", "frozenset"):
            items = (decode_value(v, types) for v in value["items"])
            return set(items) if tag == "set" else frozenset(items)
        if tag == "map":
            return {
                decode_value(k, types): decode_value(v, types) for k, v in value["items"]
            }
        if tag in ("enum", "object"):
            return _decode_instance(tag, value, types)
        raise CorruptSnapshotError(f"unknown state tag {tag!r}")
    return value


def _pickled_state(obj: Any) -> Any:
    """What pickle saves of ``obj``: its ``__getstate__()``, else its
    ``__dict__`` (Python before 3.11 has no default ``__getstate__``)."""
    getstate = getattr(obj, "__getstate__", None)
    state = vars(obj) if getstate is None else getstate()
    return {} if state is None else state


def _decode_instance(tag: str, value: dict, types: Mapping[str, type]) -> Any:
    """An allowlisted enum member or object, as pickle would rebuild it."""
    name = value.get("type")
    cls = types.get(name) if isinstance(name, str) else None
    if cls is None or (tag == "enum") != issubclass(cls, enum.Enum):
        raise CorruptSnapshotError(f"snapshot names a disallowed {tag} type {name!r}")
    try:
        if tag == "enum":
            return cls(decode_value(value["value"], types))
        state = decode_value(value["state"], types)
        if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
            return cls(**state)
        obj = cls.__new__(cls)
        setstate = getattr(obj, "__setstate__", None)
        if setstate is None:
            obj.__dict__.update(state)
        else:
            setstate(state)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptSnapshotError(f"undecodable {name} in snapshot: {exc!r}") from exc
    return obj


def _encode_array(array: np.ndarray) -> dict:
    # ascontiguousarray promotes 0-d to 1-d, so take the shape from the
    # original array — the buffer bytes are identical either way.
    contiguous = np.ascontiguousarray(array)
    return {
        _TAG: "ndarray",
        "dtype": str(contiguous.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(value: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(value["data"].encode("ascii"), validate=True)
        dtype = np.dtype(value["dtype"])
        shape = tuple(int(s) for s in value["shape"])
        array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptSnapshotError(f"undecodable array in snapshot: {exc}") from exc
    return array.copy()  # frombuffer views are read-only


# ----------------------------------------------------------------------
# Engine capture / restore
# ----------------------------------------------------------------------
@functools.cache
def _engine_types() -> dict[str, type]:
    """The engine allowlist: the model's classes and the engine's own."""
    from repro.bgp.blackhole import BlackholeEvent, BlackholeRegistry
    from repro.bgp.prefix import Prefix
    from repro.core.drift import DriftTracker
    from repro.core.features.sketches import SketchParams
    from repro.core.parallel.sharding import ShardPlan
    from repro.core.persistence import MODEL_TYPES
    from repro.netflow.dataset import FlowDataset

    own = (BlackholeRegistry, BlackholeEvent, Prefix, DriftTracker, FlowDataset, SketchParams,
           ShardPlan)
    return {**MODEL_TYPES, **{cls.__name__: cls for cls in own}}


def capture(engine) -> dict:
    """The checkpoint document of ``engine`` (see module docstring)."""
    from repro.core.persistence import scrubber_to_dict

    state = engine.__getstate__()
    model = state.pop("_scrubber")
    shadow = state.pop("_shadow", None)
    return {
        "format": ENGINE_FORMAT,
        "bin_seconds": BIN_SECONDS,
        "engine": encode_value(state, _engine_types()),
        "model": None if model is None else scrubber_to_dict(model),
        "shadow": None if shadow is None else capture(shadow),
    }


def restore(engine, document: dict) -> None:
    """Overwrite ``engine``'s state from a :func:`capture` document, or
    refuse it and leave the engine as it was. Each snapshot is unpickled
    into a scratch instance whose fields the live engine then adopts: it
    keeps what is not captured (registry, backend, shadow object)."""
    for target, scratch in _staged(engine, document):
        vars(target).update(vars(scratch))


def _staged(engine, document: Any) -> list:
    """``[(engine, scratch)]`` for ``engine`` and its shadow, or a refusal."""
    if not isinstance(document, dict) or not document:
        raise CorruptSnapshotError("snapshot holds no engine document")
    layout = document.get("format"), document.get("bin_seconds")
    if layout != (ENGINE_FORMAT, BIN_SECONDS):
        raise CheckpointConfigError(
            f"snapshot engine format and bin width {layout} are not this "
            f"build's {ENGINE_FORMAT, BIN_SECONDS}; start the run afresh"
        )
    types = _engine_types()
    live = engine.__getstate__()
    del live["_scrubber"]
    shadow = live.pop("_shadow", None)
    try:
        state = decode_value(document["engine"], types)
        model_document, shadow_document = document["model"], document["shadow"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptSnapshotError(f"undecodable engine snapshot: {exc!r}") from exc
    if not isinstance(state, dict) or state.keys() != live.keys():
        raise CorruptSnapshotError(
            f"snapshot engine state is not the engine's fields {sorted(live)}"
        )
    taken = {k: encode_value(state[k], types) for k in engine._PARAMS}
    built = {k: encode_value(live[k], types) for k in engine._PARAMS}
    if taken != built or (shadow_document is None) != (shadow is None):
        raise CheckpointConfigError(
            f"snapshot was taken under other engine parameters: {taken!r} (shadow: "
            f"{shadow_document is not None}) != {built!r} (shadow: {shadow is not None})"
        )
    for key, value in state.items():
        if live[key] is not None and type(value) is not type(live[key]):
            raise CorruptSnapshotError(
                f"snapshot field {key} holds a {type(value).__name__}, "
                f"not a {type(live[key]).__name__}"
            )
    model = _restore_model(model_document)
    scratch = type(engine).__new__(type(engine))
    try:
        scratch.__setstate__({**state, "_scrubber": model})
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"engine snapshot does not load: {exc!r}") from exc
    staged = [(engine, scratch)]
    if shadow is not None:
        staged += _staged(shadow, shadow_document)
    return staged


def _restore_model(document: Optional[dict]):
    """The snapshot's model, or a typed refusal: another format version
    (or bin width) is a config mismatch, an undecodable document corrupt."""
    from repro.core.persistence import scrubber_from_dict

    if document is None:
        return None
    try:
        return scrubber_from_dict(document)
    except ValueError as exc:
        raise CheckpointConfigError(f"snapshot model: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptSnapshotError(f"undecodable model in snapshot: {exc!r}") from exc
