"""Bitwise-faithful JSON codec for engine state.

Checkpoints are JSON, not pickle: a snapshot must be inspectable,
diffable, and safe to load from an untrusted disk. The price is that
engine state is full of things JSON cannot carry natively — numpy
arrays, tuples, dicts with integer keys whose *insertion order* is
semantic (``OrderedDict`` bin buffers), RNG bit-generator state. The
tagged encoding here closes that gap while staying bit-exact:

* ``ndarray`` → ``{"__repro__": "ndarray", dtype, shape, base64 bytes}``
  — the raw buffer round-trips to the identical array;
* ``tuple`` → tagged item list (decode restores tuple-ness);
* ``dict`` with any non-string key → tagged key/value *pair list*, so
  integer keys and insertion order survive (a plain string-keyed dict
  stays a plain JSON object for readability);
* ``set`` → tagged sorted item list (engine sets are order-free);
* floats ride on Python's ``repr``-based JSON formatting, which
  round-trips every finite float64 exactly; ints are arbitrary
  precision in JSON, so 128-bit PCG64 state is safe.

On top of the value codec sit the engine-level capture/restore
functions for :class:`~repro.core.streaming.StreamingScrubber` and
:class:`~repro.core.parallel.engine.ShardedStreamingScrubber`. They are
deliberately *constructive*: restore validates that the live engine was
built with the same parameters the snapshot was taken under
(:class:`CheckpointConfigError` otherwise), then overwrites its mutable
state wholesale. Per-bin part lists are stored concatenated —
``FlowDataset.concat`` is plain ``np.concatenate``, so collapsing a
part list to one part is bitwise-neutral for every later concat.
"""

from __future__ import annotations

import base64
import dataclasses
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.core.recovery.errors import CheckpointConfigError, CorruptSnapshotError
from repro.netflow.dataset import BIN_SECONDS

__all__ = [
    "encode_value",
    "decode_value",
    "capture_engine_state",
    "restore_engine_state",
    "capture_sharded_state",
    "restore_sharded_state",
]

_TAG = "__repro__"


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode a state value into JSON-safe form (see module docstring)."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        # Scalars keep their dtype by riding as 0-d arrays.
        return _encode_array(np.asarray(value))
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {_TAG: "set", "items": [encode_value(v) for v in sorted(value)]}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _TAG not in value:
            return {k: encode_value(v) for k, v in value.items()}
        return {
            _TAG: "map",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise TypeError(f"cannot encode {type(value).__name__} for checkpointing")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in value.items()}
        if tag == "ndarray":
            return _decode_array(value)
        if tag == "tuple":
            return tuple(decode_value(v) for v in value["items"])
        if tag == "set":
            return set(decode_value(v) for v in value["items"])
        if tag == "map":
            return {
                decode_value(k): decode_value(v) for k, v in value["items"]
            }
        raise CorruptSnapshotError(f"unknown state tag {tag!r}")
    return value


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
# FlowDataset / registry helpers
# ----------------------------------------------------------------------
def _encode_flows(flows) -> dict:
    return encode_value({name: flows.column(name) for name in _schema_names()})


def _decode_flows(state: dict):
    from repro.netflow.dataset import FlowDataset

    return FlowDataset(decode_value(state))


def _schema_names() -> tuple:
    from repro.netflow.dataset import SCHEMA

    return tuple(SCHEMA)


def _capture_blackholes(registry) -> dict:
    open_entries = [
        [key[0].network, key[0].length, key[1], start]
        for key, start in registry._open.items()  # insertion order is semantic
    ]
    events = [
        [e.prefix.network, e.prefix.length, e.origin_asn, e.start, e.end]
        for e in registry._events
    ]
    return {
        "open": open_entries,
        "events": events,
        "last_time": registry._last_time,
    }


def _restore_blackholes(state: dict):
    from repro.bgp.blackhole import BlackholeEvent, BlackholeRegistry
    from repro.bgp.prefix import Prefix

    registry = BlackholeRegistry()
    for network, length, origin, start in state["open"]:
        key = (Prefix(network=int(network), length=int(length)), int(origin))
        registry._open[key] = int(start)
    for network, length, origin, start, end in state["events"]:
        registry._events.append(
            BlackholeEvent(
                prefix=Prefix(network=int(network), length=int(length)),
                origin_asn=int(origin),
                start=int(start),
                end=None if end is None else int(end),
            )
        )
    registry._last_time = (
        None if state["last_time"] is None else int(state["last_time"])
    )
    return registry


# ----------------------------------------------------------------------
# StreamingScrubber capture / restore
# ----------------------------------------------------------------------
def _engine_params(engine) -> dict:
    return {
        "window_days": engine.window_days,
        "bins_per_day": engine.bins_per_day,
        "min_flows_per_verdict": engine.min_flows_per_verdict,
        "label_grace_bins": engine.label_grace_bins,
        # The bin width is a constant, not a config field; the format
        # carries it so a snapshot cut at any other width is refused.
        "config": encode_value(
            {**dataclasses.asdict(engine.config), "bin_seconds": BIN_SECONDS}
        ),
    }


def capture_engine_state(engine) -> dict:
    """Capture the full mutable state of a :class:`StreamingScrubber`."""
    from repro.core.persistence import scrubber_to_dict

    return {
        "params": _engine_params(engine),
        "rng": encode_value(engine._rng.bit_generator.state),
        "blackholes": _capture_blackholes(engine._blackholes),
        "model": (
            None if engine._scrubber is None else scrubber_to_dict(engine._scrubber)
        ),
        "open_bins": [
            [int(b), _encode_flows(_concat(parts))]
            for b, parts in engine._open_bins.items()
        ],
        "pending_label": [
            [int(b), _encode_flows(flows)]
            for b, flows in engine._pending_label.items()
        ],
        "day_buffers": [
            [int(d), _encode_flows(_concat(parts))]
            for d, parts in engine._day_buffers.items()
        ],
        "last_trained_day": engine._last_trained_day,
        "horizon": engine._horizon,
        "counted_bins": sorted(engine._counted_bins),
        "counted_verdicts": [list(t) for t in sorted(engine._counted_verdicts)],
        "drift": engine._drift.to_state(),
    }


def restore_engine_state(engine, state: dict) -> None:
    """Overwrite ``engine``'s mutable state from a captured snapshot.

    The engine must have been constructed with the same parameters the
    snapshot was taken under; anything else raises
    :class:`CheckpointConfigError` rather than resuming into a stream
    that matches neither the old run nor a fresh one.
    """
    from repro.core.drift import DriftTracker
    from repro.core.persistence import scrubber_from_dict

    expected = _engine_params(engine)
    if state["params"] != expected:
        raise CheckpointConfigError(
            "snapshot was taken under different engine parameters: "
            f"snapshot={state['params']!r} engine={expected!r}"
        )
    engine._rng.bit_generator.state = decode_value(state["rng"])
    engine._blackholes = _restore_blackholes(state["blackholes"])
    engine._scrubber = (
        None if state["model"] is None else scrubber_from_dict(state["model"])
    )
    engine._open_bins = OrderedDict(
        (int(b), [_decode_flows(flows)]) for b, flows in state["open_bins"]
    )
    engine._pending_label = OrderedDict(
        (int(b), _decode_flows(flows)) for b, flows in state["pending_label"]
    )
    engine._day_buffers = OrderedDict(
        (int(d), [_decode_flows(flows)]) for d, flows in state["day_buffers"]
    )
    engine._last_trained_day = (
        None if state["last_trained_day"] is None else int(state["last_trained_day"])
    )
    engine._horizon = int(state["horizon"])
    engine._counted_bins = set(int(b) for b in state["counted_bins"])
    engine._counted_verdicts = set(
        (int(b), int(t)) for b, t in state["counted_verdicts"]
    )
    engine._drift = DriftTracker.from_state(state["drift"])


def _concat(parts: list):
    from repro.netflow.dataset import FlowDataset

    return FlowDataset.concat(parts)


# ----------------------------------------------------------------------
# ShardedStreamingScrubber capture / restore
# ----------------------------------------------------------------------
def _plan_params(n_shards: int) -> dict:
    """The shard plan entry of a snapshot. Only ``n_shards`` varies; the
    granularity and the empty pin list are written so that snapshots
    from before they became constants still compare equal."""
    from repro.core.parallel.sharding import PREFIX_BITS

    return {"n_shards": n_shards, "prefix_bits": PREFIX_BITS, "pins": []}


def capture_sharded_state(engine) -> dict:
    """Capture a sharded engine: coordinator, plan, agg mode, shadow."""
    params = engine._sketch_params
    return {
        "agg": "exact" if params is None else "sketch",
        "sketch_params": None if params is None else dataclasses.asdict(params),
        "plan": _plan_params(engine.n_shards),
        "coordinator": capture_engine_state(engine),
        "shadow": (
            None if engine._shadow is None else capture_engine_state(engine._shadow)
        ),
    }


def restore_sharded_state(engine, state: dict) -> None:
    """Restore a sharded engine from :func:`capture_sharded_state` output.

    Aggregation mode, sketch parameters, and shard plan must match the
    live engine — they shape the verdict stream. The restored model is
    *not* pushed to workers here; clearing ``_broadcast_model`` makes
    the next classify re-broadcast it through the normal path.
    """
    params = engine._sketch_params
    agg = "exact" if params is None else "sketch"
    sketch_params = None if params is None else dataclasses.asdict(params)
    if state["agg"] != agg or state["sketch_params"] != sketch_params:
        raise CheckpointConfigError(
            f"snapshot aggregation mode ({state['agg']!r}, "
            f"{state['sketch_params']!r}) does not match the engine "
            f"({agg!r}, {sketch_params!r})"
        )
    plan = _plan_params(engine.n_shards)
    if state["plan"] != plan:
        raise CheckpointConfigError(
            "snapshot shard plan does not match the engine: "
            f"snapshot={state['plan']!r} engine={plan!r}"
        )
    restore_engine_state(engine, state["coordinator"])
    if engine._shadow is not None:
        if state["shadow"] is None:
            raise CheckpointConfigError(
                "engine has an equivalence shadow but the snapshot was "
                "taken without one; the shadow cannot catch up mid-stream"
            )
        restore_engine_state(engine._shadow, state["shadow"])
    engine._broadcast_model = None
