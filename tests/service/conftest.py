"""Fixtures for the service tests: one warm pool, one live server.

The pool is session-scoped because warming a scenario builds a steering
cache entry (the expensive part); the grid is coarsened so the whole
service suite warms once in about a second.  Tests observe cache state
through deltas (hits before/after), so sharing the pool across tests is
safe.
"""

from __future__ import annotations

import json
import threading
from typing import Iterator, Tuple

import pytest

from repro.service import (
    LocalizationService,
    LocalizerPool,
    ServiceConfig,
    encode_observations,
    make_server,
)

#: Coarse service grid for tests: fast warmups, still a real pipeline.
TEST_RESOLUTION_M = 0.35


@pytest.fixture(scope="session")
def service_pool() -> LocalizerPool:
    """One warm pool shared by the whole service suite."""
    return LocalizerPool(grid_resolution_m=TEST_RESOLUTION_M)


@pytest.fixture(scope="session")
def service_app(
    service_pool: LocalizerPool,
) -> Iterator[LocalizationService]:
    """A service with generous rate limits (throttling tests build
    their own)."""
    service = LocalizationService(
        pool=service_pool,
        config=ServiceConfig(rate_per_s=10_000.0, burst=10_000),
    )
    yield service
    service.close()


@pytest.fixture(scope="session")
def live_server(
    service_app: LocalizationService,
) -> Iterator[Tuple[str, int]]:
    """The service bound on an ephemeral port, serving in a thread."""
    server = make_server(service_app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield str(host), int(port)
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="session")
def locate_body(observations) -> bytes:
    """A valid vicon locate body built from the shared observations."""
    return json.dumps(
        {
            "scenario": "vicon",
            "observations": encode_observations(observations),
        }
    ).encode("utf-8")
