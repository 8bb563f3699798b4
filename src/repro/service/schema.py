"""Request/response schema of the localization service.

One locate request is a JSON object::

    {
      "key": "tenant-42",            # API key (rate-limit bucket)
      "scenario": "vicon",           # warm-pool key (anchor geometry)
      "observations": {
        "frequencies_hz": [...],                 # (K,)
        "tag_to_anchor": [[[[re, im], ...]]],    # (I, J, K, 2)
        "master_to_anchor": [[[[re, im], ...]]], # (I, J, K, 2)
        "band_snr_db": [[...]]                   # optional, (I, K)
      }
    }

The anchor geometry deliberately does **not** travel with the request:
it is what the server's warm pool is keyed on, so a client names a
scenario and ships only the measured channels.  Complex arrays are
encoded as a trailing ``[re, im]`` axis -- strict JSON has no complex
type and no Inf/NaN, and the decoder enforces both.

Validation failures raise :class:`SchemaError`, a typed error carrying
the offending field, which the HTTP layer maps to a structured 400
response.  Scenario existence is *not* checked here: an unknown
scenario is a routing concern (404), not a schema concern (400).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.observations import ChannelObservations
from repro.errors import ReproError
from repro.rf.antenna import Anchor

#: Hard cap on request body size: the default 4x4x37 scenario encodes to
#: ~120 kB, so 4 MiB leaves two orders of magnitude of headroom while
#: still bounding a hostile payload.
MAX_BODY_BYTES = 4 * 1024 * 1024


class SchemaError(ReproError):
    """A request failed schema validation (maps to HTTP 400).

    Attributes:
        field: dotted path of the offending field (``"body"`` when the
            envelope itself is unusable).
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class LocateRequest:
    """A validated locate-request envelope (observations still encoded).

    Attributes:
        api_key: the caller's API key (None when omitted).
        scenario: warm-pool key naming the anchor geometry.
        observations: the raw observations payload; decoded against the
            scenario's geometry by :func:`decode_observations` once the
            scenario is resolved.
    """

    api_key: Optional[str]
    scenario: str
    observations: Dict[str, Any]


def encode_complex(array: np.ndarray) -> list:
    """Encode a complex ndarray as nested lists with a [re, im] axis."""
    stacked = np.stack(
        [np.asarray(array).real, np.asarray(array).imag], axis=-1
    )
    return stacked.tolist()


def _decode_float_array(
    value: Any, field: str, shape: Optional[Tuple[int, ...]] = None
) -> np.ndarray:
    """Nested JSON lists -> float ndarray, with shape/finiteness checks."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(field, f"not a numeric array: {exc}") from exc
    if shape is not None and array.shape != shape:
        raise SchemaError(
            field, f"shape {array.shape} != expected {shape}"
        )
    if not np.all(np.isfinite(array)):
        raise SchemaError(field, "contains non-finite values")
    return array


def decode_complex(
    value: Any, field: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Decode a [re, im]-trailing nested list into a complex ndarray."""
    array = _decode_float_array(value, field, shape=(*shape, 2))
    return array[..., 0] + 1j * array[..., 1]


def encode_observations(observations: ChannelObservations) -> dict:
    """Serialize one fix's channels for a locate request body."""
    payload: Dict[str, Any] = {
        "frequencies_hz": observations.frequencies_hz.tolist(),
        "tag_to_anchor": encode_complex(observations.tag_to_anchor),
        "master_to_anchor": encode_complex(observations.master_to_anchor),
    }
    if observations.band_snr_db is not None:
        snr = np.nan_to_num(
            observations.band_snr_db, nan=-999.0
        )  # strict JSON has no NaN; -999 dB is unambiguously "no signal"
        payload["band_snr_db"] = snr.tolist()
    return payload


def decode_observations(
    payload: Any,
    anchors: Sequence[Anchor],
    master_index: int,
    field: str = "observations",
) -> ChannelObservations:
    """Decode an observations payload against a scenario's geometry.

    Args:
        payload: the request's ``observations`` object.
        anchors: the scenario's anchor descriptors (server-side truth;
            shapes in the payload must match them).
        master_index: the scenario's master anchor.
        field: dotted prefix used in :class:`SchemaError` paths.

    Raises:
        SchemaError: missing keys, wrong shapes, non-finite values.
    """
    if not isinstance(payload, dict):
        raise SchemaError(field, "must be an object")
    for key in ("frequencies_hz", "tag_to_anchor", "master_to_anchor"):
        if key not in payload:
            raise SchemaError(f"{field}.{key}", "missing")
    frequencies = _decode_float_array(
        payload["frequencies_hz"], f"{field}.frequencies_hz"
    )
    if frequencies.ndim != 1 or frequencies.size < 1:
        raise SchemaError(
            f"{field}.frequencies_hz", "must be a non-empty 1-D array"
        )
    num_anchors = len(anchors)
    num_antennas = max(a.num_antennas for a in anchors)
    shape = (num_anchors, num_antennas, int(frequencies.size))
    tag = decode_complex(
        payload["tag_to_anchor"], f"{field}.tag_to_anchor", shape
    )
    master = decode_complex(
        payload["master_to_anchor"], f"{field}.master_to_anchor", shape
    )
    snr: Optional[np.ndarray] = None
    if payload.get("band_snr_db") is not None:
        snr = _decode_float_array(
            payload["band_snr_db"],
            f"{field}.band_snr_db",
            shape=(num_anchors, int(frequencies.size)),
        )
    return ChannelObservations(
        anchors=list(anchors),
        master_index=master_index,
        frequencies_hz=frequencies,
        tag_to_anchor=tag,
        master_to_anchor=master,
        band_snr_db=snr,
    )


def parse_locate_request(raw: bytes) -> LocateRequest:
    """Parse and validate a locate request body (envelope level).

    Raises:
        SchemaError: oversized body, malformed JSON, wrong field types.
    """
    if len(raw) > MAX_BODY_BYTES:
        raise SchemaError(
            "body", f"exceeds {MAX_BODY_BYTES} bytes ({len(raw)})"
        )
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("body", f"invalid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise SchemaError("body", "must be a JSON object")
    scenario = body.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise SchemaError("scenario", "must be a non-empty string")
    api_key = body.get("key")
    if api_key is not None and not isinstance(api_key, str):
        raise SchemaError("key", "must be a string when present")
    observations = body.get("observations")
    if not isinstance(observations, dict):
        raise SchemaError("observations", "must be an object")
    return LocateRequest(
        api_key=api_key, scenario=scenario, observations=observations
    )


def error_body(code: str, message: str, **extra: Any) -> dict:
    """The service's uniform error envelope."""
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"error": error}


def locate_response(
    position_x: float,
    position_y: float,
    provider: str,
    scenario: str,
    request_id: str,
    latency_s: float,
    quality: Optional[dict] = None,
    fallback_reasons: Optional[List[str]] = None,
    trace_id: str = "",
) -> dict:
    """The 200 response body of one locate request.

    ``trace_id`` is the request's distributed-trace identity (also
    emitted as the ``traceparent`` response header); clients quote it
    to ``repro obs trace`` to reconstruct the request's span tree.
    """
    return {
        "position": {"x": position_x, "y": position_y},
        "provider": provider,
        "scenario": scenario,
        "request_id": request_id,
        "latency_s": latency_s,
        "quality": quality or {},
        "fallback_reasons": fallback_reasons or [],
        "trace_id": trace_id,
    }
