"""Schema layer: encode/decode round trips and typed validation errors."""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.service.schema import (
    MAX_BODY_BYTES,
    SchemaError,
    decode_observations,
    encode_observations,
    error_body,
    parse_locate_request,
)


def _valid_body(observations) -> dict:
    return {
        "scenario": "vicon",
        "observations": encode_observations(observations),
    }


class TestParseLocateRequest:
    def test_valid_envelope(self, observations):
        body = _valid_body(observations)
        body["key"] = "tenant-1"
        request = parse_locate_request(json.dumps(body).encode())
        assert request.scenario == "vicon"
        assert request.api_key == "tenant-1"
        assert "tag_to_anchor" in request.observations

    def test_key_optional(self, observations):
        request = parse_locate_request(
            json.dumps(_valid_body(observations)).encode()
        )
        assert request.api_key is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"{not json",
            b"",
            b"\xff\xfe",
            b"[1, 2, 3]",
            b'"just a string"',
        ],
    )
    def test_malformed_body_rejected(self, raw):
        with pytest.raises(SchemaError, match="body"):
            parse_locate_request(raw)

    def test_missing_scenario_rejected(self):
        with pytest.raises(SchemaError, match="scenario"):
            parse_locate_request(json.dumps({"observations": {}}).encode())

    def test_non_string_key_rejected(self, observations):
        body = _valid_body(observations)
        body["key"] = 42
        with pytest.raises(SchemaError, match="key"):
            parse_locate_request(json.dumps(body).encode())

    def test_missing_observations_rejected(self):
        with pytest.raises(SchemaError, match="observations"):
            parse_locate_request(json.dumps({"scenario": "vicon"}).encode())

    def test_oversized_body_rejected(self):
        raw = b"x" * (MAX_BODY_BYTES + 1)
        with pytest.raises(SchemaError, match="exceeds"):
            parse_locate_request(raw)


def _with_snr(observations):
    """``observations`` with a per-(anchor, band) SNR that has a NaN."""
    snr = np.linspace(
        -5.0, 30.0, observations.num_anchors * observations.num_bands
    ).reshape(observations.num_anchors, observations.num_bands)
    snr[1, 2] = np.nan
    return replace(observations, band_snr_db=snr)


class TestObservationsCodec:
    def test_round_trip(self, testbed, observations):
        observations = _with_snr(observations)
        payload = encode_observations(observations)
        decoded = decode_observations(
            payload, testbed.anchors, testbed.master_index
        )
        assert np.array_equal(
            decoded.tag_to_anchor, observations.tag_to_anchor
        )
        assert np.array_equal(
            decoded.master_to_anchor, observations.master_to_anchor
        )
        assert np.array_equal(
            decoded.frequencies_hz, observations.frequencies_hz
        )
        # NaN travels as the -999 dB "no signal" stand-in.
        assert np.array_equal(
            decoded.band_snr_db,
            np.nan_to_num(observations.band_snr_db, nan=-999.0),
        )
        assert decoded.master_index == testbed.master_index

    def test_decoded_arrays_are_native_and_writable(
        self, testbed, observations
    ):
        decoded = decode_observations(
            encode_observations(_with_snr(observations)),
            testbed.anchors,
            testbed.master_index,
        )
        for array in (
            decoded.frequencies_hz,
            decoded.tag_to_anchor,
            decoded.master_to_anchor,
            decoded.band_snr_db,
        ):
            assert array.dtype.isnative
            assert array.flags.writeable

    def test_arrays_travel_as_base64_strings(self, observations):
        payload = encode_observations(_with_snr(observations))
        raw = base64.b64decode(payload["tag_to_anchor"], validate=True)
        assert raw == observations.tag_to_anchor.astype("<c16").tobytes()
        assert all(isinstance(value, str) for value in payload.values())

    def test_wrong_shape_rejected(self, testbed, observations):
        # One band short: the byte count no longer fits (I, J, K).
        payload = encode_observations(observations)
        payload["tag_to_anchor"] = encode_observations(
            observations.select_bands(range(observations.num_bands - 1))
        )["tag_to_anchor"]
        with pytest.raises(SchemaError, match="tag_to_anchor"):
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )

    def test_fewer_anchors_rejected_with_expected_bytes(
        self, testbed, observations
    ):
        assert observations.num_anchors == 4
        master = observations.master_index
        three = observations.select_anchors(
            [master] + [i for i in range(4) if i != master][:2]
        )
        payload = encode_observations(three)
        expected = 16 * observations.tag_to_anchor.size
        with pytest.raises(SchemaError) as excinfo:
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )
        assert excinfo.value.field == "observations.tag_to_anchor"
        assert f"expected {expected}" in excinfo.value.message

    def test_missing_field_rejected(self, testbed, observations):
        payload = encode_observations(observations)
        del payload["master_to_anchor"]
        with pytest.raises(SchemaError, match="master_to_anchor"):
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )

    def test_non_numeric_rejected(self, testbed, observations):
        payload = encode_observations(observations)
        payload["frequencies_hz"] = ["not", "numbers"]
        with pytest.raises(SchemaError, match="frequencies_hz"):
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda valid: [[[[1.0, 0.0]]]],  # the retired [re, im] lists
            lambda valid: 42,
            lambda valid: valid[:8] + "!" + valid[8:],  # junk in base64
            lambda valid: valid[:-4],  # base64 of too few bytes
            lambda valid: base64.b64encode(
                base64.b64decode(valid) + bytes(16)
            ).decode(),  # one <c16 value too many
            lambda valid: "\u00e9t\u00e9",
        ],
        ids=[
            "nested-list", "number", "junk-char", "short", "long", "non-ascii"
        ],
    )
    def test_malformed_value_rejected(self, testbed, observations, corrupt):
        payload = encode_observations(observations)
        payload["master_to_anchor"] = corrupt(payload["master_to_anchor"])
        with pytest.raises(SchemaError) as excinfo:
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )
        assert excinfo.value.field == "observations.master_to_anchor"

    def test_empty_frequencies_rejected(self, testbed, observations):
        payload = encode_observations(observations)
        payload["frequencies_hz"] = ""
        with pytest.raises(SchemaError, match="non-empty"):
            decode_observations(
                payload, testbed.anchors, testbed.master_index
            )

    def test_non_finite_rejected(self, testbed, observations):
        # Both CSI fields, each bad value injected before encoding.
        cases = itertools.product(
            ("tag_to_anchor", "master_to_anchor"),
            (np.nan, np.inf, complex(0.0, -np.inf)),
        )
        for field, bad in cases:
            channels = getattr(observations, field).copy()
            channels[0, 0, 0] = bad
            payload = encode_observations(
                replace(observations, **{field: channels})
            )
            with pytest.raises(SchemaError, match="non-finite") as excinfo:
                decode_observations(
                    payload, testbed.anchors, testbed.master_index
                )
            assert excinfo.value.field == f"observations.{field}"


class TestErrorBody:
    def test_envelope_shape(self):
        body = error_body("rate_limited", "slow down", retry_after_s=1.5)
        assert body["error"]["code"] == "rate_limited"
        assert body["error"]["message"] == "slow down"
        assert body["error"]["retry_after_s"] == 1.5
