"""The ``service_mixed`` workload: open-loop HTTP load on a server process.

One generator process (this one) sends pre-built locate bodies on a
fixed schedule over at most :data:`CONNECTIONS` keep-alive connections.
A request that comes due while every connection is busy waits, so
latency is timed from when the request was *due*, and the generator's
lateness is reported.  The run is a fixed-rate phase (the latency and
accuracy figures), then a fixed rate ladder that stops at the first
rung missing the latency limit or building a backlog (``capacity``).

Traffic mix: ~80% ``vicon`` / ~20% ``open_room``; ~10% of requests
carry a one-anchor band outage that the quality gate sends to AoA;
requests rotate over enough API keys that the 50/s-per-key limiter
never refuses.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    BENCH_DIR,
    DEPLOYMENT_SEED,
    WORK_DIR,
    Campaign,
    HostProbe,
    Outcome,
    derive_seed,
    end_to_end,
    generate,
    p50,
    pin_child,
    program_cpu,
    room_check,
    round_offset,
    say,
    tail,
)
from layers import handle_times, per_layer_metrics
from server import RESOLUTION_M
from spans import Span, SpanIndex

#: Connections of the generator (the sizing host's cpu count).
CONNECTIONS = 2
#: Offered rate of the fixed-rate phase (requests/s); lasts --seconds.
FIXED_RATE = 10.0
#: Rate ladder for capacity (requests/s).  Doubling steps keep the seed
#: code's capacity (31-34/s on the sizing host) well inside one gap, so
#: the passing rung does not flip between runs.  Each rung sends
#: RUNG_REQUESTS_PER_SECOND x --seconds requests.
LADDER = (25.0, 50.0, 100.0, 200.0)
RUNG_REQUESTS_PER_SECOND = 4.0
#: A rung passes when every request succeeds, its tail latency is within
#: LATENCY_LIMIT_S and the generator's lateness over the rung's last
#: quarter stays within BACKLOG_LIMIT_S (no growing backlog).
LATENCY_LIMIT_S = 0.25
BACKLOG_LIMIT_S = 0.1
PAUSE_S = 0.3
VICON_SHARE = 0.8
OUTAGE_SHARE = 0.1
OUTAGE_BANDS = 24
API_KEYS = 16
SERVER_SETUPS = 5
REQUEST_TIMEOUT_S = 10.0
SERVER_TIMEOUT_S = 60.0
GRID_MARGIN_M = 0.25
#: In-process re-location of `bloc` answers: how many, and how close.
CHECK_SAMPLE = 24
CHECK_TOLERANCE_M = 1e-6


@dataclass
class Request:
    index: int
    scenario: str
    outage: bool
    body: bytes
    truth: Tuple[float, float]


@dataclass
class Sent:
    request: Request
    phase: str
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0
    payload: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency(self) -> float:
        return self.done - self.due


def phase_plan(seconds: float, trace: bool) -> List[Tuple[str, float, int]]:
    """(phase, rate, requests) in order; the ladder may stop early."""
    fixed = max(11, int(round(FIXED_RATE * seconds)))
    rung = max(11, int(round(RUNG_REQUESTS_PER_SECOND * seconds)))
    if trace:
        plan = [("untraced", FIXED_RATE, fixed // 2),
                ("fixed", FIXED_RATE, fixed - fixed // 2)]
    else:
        plan = [("fixed", FIXED_RATE, fixed)]
    return plan + [(f"ladder-{rate:g}", rate, rung) for rate in LADDER]


def build_requests(seed: int, count: int) -> Tuple[List[Request], float]:
    """The run's request bodies, deterministic per seed."""
    from repro.service import default_scenarios, encode_observations
    from repro.sim.interference import inject_band_outage

    # The traffic layout (scenario, outage and position of request k) is
    # fixed; the run's seed draws fresh measurements of it.
    rng = np.random.default_rng(derive_seed(DEPLOYMENT_SEED, "service-mix"))
    scenario_of = np.where(rng.random(count) < VICON_SHARE, "vicon", "open_room")
    outage_of = rng.random(count) < OUTAGE_SHARE
    names = ("vicon", "open_room")
    campaigns = [
        Campaign(
            name,
            max(1, int(np.sum(scenario_of == name))),
            derive_seed(DEPLOYMENT_SEED, f"service-{name}"),
            round_offset(seed),
        )
        for name in names
    ]
    measured, gen_s = generate(campaigns)
    testbeds = {name: default_scenarios()[name].factory() for name in names}
    taken = {name: 0 for name in names}
    requests = []
    for index in range(count):
        name = str(scenario_of[index])
        source = measured[names.index(name)]
        (obs,) = source.observations(testbeds[name], [taken[name]])
        taken[name] += 1
        if outage_of[index]:
            anchor = int(rng.integers(0, obs.num_anchors))
            bands = rng.choice(obs.num_bands, OUTAGE_BANDS, replace=False)
            obs = inject_band_outage(obs, anchor, sorted(int(b) for b in bands))
        body = json.dumps({
            "key": f"bench-{index % API_KEYS:02d}",
            "scenario": name,
            "observations": encode_observations(obs),
        }).encode("utf-8")
        truth = (obs.ground_truth.x, obs.ground_truth.y)
        requests.append(Request(index, name, bool(outage_of[index]), body, truth))
    return requests, gen_s


# ---------------------------------------------------------------- server


class ServerProcess:
    """One server subprocess on ``cpu``; always stopped and reaped by ``stop``."""

    def __init__(self, cpu: int, trace_path: Optional[Path] = None):
        command = [sys.executable, str(BENCH_DIR / "server.py")]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self.final: Dict = {}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            preexec_fn=pin_child(cpu),
        )
        try:
            self.port = int(self._line()["port"])
        except (RuntimeError, ValueError, KeyError):
            self.stop()
            raise

    def _line(self) -> Dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def wait_warm(self) -> float:
        """Seconds from spawn until /v1/health reports every scenario warm."""
        deadline = time.perf_counter() + SERVER_TIMEOUT_S
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/health")
                health = json.loads(conn.getresponse().read())
            except (OSError, http.client.HTTPException, ValueError):
                health = {}
            finally:
                conn.close()
            if health.get("scenarios") and set(health.get("warm", ())) == set(
                health["scenarios"]
            ):
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("server never became warm")

    def stop(self) -> Dict:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.close()
                self.final = self._line()
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        return self.final


# ---------------------------------------------------------------- generator


def drive(port: int, phase: str, rate: float, requests: Sequence[Request]) -> List[Sent]:
    """Send ``requests`` at ``rate``/s, open loop, over CONNECTIONS."""
    origin = time.perf_counter() + 0.05
    records = [
        Sent(request=r, phase=phase, due=origin + k / rate)
        for k, r in enumerate(requests)
    ]
    pending = deque(records)
    lock = threading.Lock()

    def sender() -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    record = pending.popleft()
                delay = record.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record.sent = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/v1/locate", body=record.request.body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                    record.status = response.status
                    record.payload = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    record.error = type(exc).__name__
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
                    )
                record.done = time.perf_counter()
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, name=f"load-{i}")
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


@dataclass
class PhaseStats:
    phase: str
    rate: float
    sent: int
    succeeded: int
    failed: int
    achieved_rps: float
    latencies: List[float]
    lateness_p50: float
    lateness_max: float
    backlog_s: float
    passed: bool

    def line(self) -> str:
        lat = tail(self.latencies) if self.latencies else None
        tail_text = (
            f"tail {lat.value * 1e3:.1f} ms ({lat.describe()})" if lat else "-"
        )
        return (
            f"{self.phase:<12} offered {self.rate:6.1f}/s sent {self.sent:4d} "
            f"ok {self.succeeded:4d} failed {self.failed:3d} "
            f"achieved {self.achieved_rps:6.2f}/s p50 "
            f"{(p50(self.latencies) * 1e3 if self.latencies else float('nan')):.1f} ms "
            f"{tail_text}; generator late p50 {self.lateness_p50 * 1e3:.1f} ms "
            f"max {self.lateness_max * 1e3:.1f} ms -> "
            f"{'pass' if self.passed else 'FAIL'}"
        )


def phase_stats(phase: str, rate: float, records: List[Sent]) -> PhaseStats:
    ok = [r for r in records if r.ok]
    latencies = [r.latency for r in ok]
    lateness = [r.sent - r.due for r in records]
    last_quarter = lateness[-max(1, len(lateness) // 4):]
    span = max(r.done for r in records) - min(r.due for r in records)
    backlog = p50(last_quarter)
    passed = (
        len(ok) == len(records)
        and bool(latencies)
        and tail(latencies).value <= LATENCY_LIMIT_S
        and backlog <= BACKLOG_LIMIT_S
    )
    return PhaseStats(
        phase=phase,
        rate=rate,
        sent=len(records),
        succeeded=len(ok),
        failed=len(records) - len(ok),
        achieved_rps=len(ok) / span if span > 0 else 0.0,
        latencies=latencies,
        lateness_p50=p50(lateness),
        lateness_max=max(lateness),
        backlog_s=backlog,
        passed=passed,
    )


def run_phases(server: ServerProcess, plan, requests, cursor: int,
               probe: HostProbe):
    """Run ``plan`` in order; ladder rungs stop at the first failure.

    The host probe runs in the pause after each phase, while the server
    is idle.
    """
    results: List[Tuple[PhaseStats, List[Sent]]] = []
    for phase, rate, count in plan:
        batch = requests[cursor:cursor + count]
        cursor += count
        records = drive(server.port, phase, rate, batch)
        stats = phase_stats(phase, rate, records)
        results.append((stats, records))
        say(stats.line())
        paused = time.perf_counter()
        probe.measure()
        time.sleep(max(0.0, PAUSE_S - (time.perf_counter() - paused)))
        if phase.startswith("ladder") and not stats.passed:
            break
    return results, cursor


# ---------------------------------------------------------------- checks


def check_outputs(records: List[Sent], testbeds) -> List[str]:
    """Positions finite and in the room; `bloc` answers re-located."""
    from repro.core import BlocConfig, BlocLocalizer
    from repro.service import decode_observations
    from repro.utils.geometry2d import Point

    bad = []
    bloc_answers = []
    for r in records:
        if not r.ok:
            if not r.error and not isinstance(r.payload.get("error"), dict):
                bad.append(f"request {r.request.index}: untyped {r.status}")
            continue
        position = r.payload.get("position") or {}
        point = Point(float(position.get("x", np.nan)),
                      float(position.get("y", np.nan)))
        if not room_check(testbeds[r.request.scenario], point, GRID_MARGIN_M):
            bad.append(f"request {r.request.index}: position {point} outside")
        if r.payload.get("provider") == "bloc":
            bloc_answers.append((r, point))
    step = max(1, len(bloc_answers) // CHECK_SAMPLE)
    localizers = {}
    worst = 0.0
    for r, point in bloc_answers[::step][:CHECK_SAMPLE]:
        name = r.request.scenario
        if name not in localizers:
            localizers[name] = BlocLocalizer(config=BlocConfig(
                grid_resolution_m=RESOLUTION_M,
                grid_margin_m=GRID_MARGIN_M,
                selection="score",
                refine_peaks=True,
            ))
        testbed = testbeds[name]
        observations = decode_observations(
            json.loads(r.request.body)["observations"],
            testbed.anchors,
            testbed.master_index,
        )
        local = localizers[name].locate(observations, keep_map=False).position
        worst = max(worst, (local - point).norm())
    checked = len(bloc_answers[::step][:CHECK_SAMPLE])
    ok = worst <= CHECK_TOLERANCE_M
    say(f"check: {checked} bloc answers re-located in process at "
        f"{RESOLUTION_M} m: max difference {worst:.3g} m "
        f"(tolerance {CHECK_TOLERANCE_M:g} m) {'ok' if ok else 'MISMATCH'}")
    if not ok:
        bad.append(f"bloc answers differ from in-process locate by {worst} m")
    return bad


def errors_m(records: List[Sent]) -> List[float]:
    out = []
    for r in records:
        if r.ok:
            position = r.payload["position"]
            out.append(float(np.hypot(position["x"] - r.request.truth[0],
                                      position["y"] - r.request.truth[1])))
    return out


def _load_spans(path: Path) -> SpanIndex:
    return SpanIndex([Span(**data) for data in json.loads(path.read_text())])


# ---------------------------------------------------------------- workload


def service_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.service import default_scenarios

    plan = phase_plan(seconds, trace)
    total = sum(count for _, _, count in plan)
    requests, gen_s = build_requests(seed, total)
    testbeds = {n: s.factory() for n, s in default_scenarios().items()}
    say(f"inputs: {total} distinct request bodies "
        f"({sum(r.scenario == 'vicon' for r in requests)} vicon, "
        f"{sum(r.outage for r in requests)} with a band outage, median "
        f"{p50([len(r.body) for r in requests]) / 1e3:.1f} kB), generated in "
        f"{gen_s:.1f} s (not gated)")
    say(f"open loop: {CONNECTIONS} connections, latency limit "
        f"{LATENCY_LIMIT_S} s on the tail, backlog limit {BACKLOG_LIMIT_S} s")

    results: List[Tuple[PhaseStats, List[Sent]]] = []
    setups: List[float] = []
    final: Dict = {}
    spans_path = WORK_DIR / f"spans-service_mixed-{seed}.json"
    servers: List[ServerProcess] = []
    # The server and the host probe share one cpu; the generator keeps
    # off it where the host has another.
    cpu = program_cpu()
    cpus = os.sched_getaffinity(0)
    probe = HostProbe(cpu, share=False)
    os.sched_setaffinity(0, (cpus - {cpu}) or cpus)
    try:
        probe.measure()
        if trace:
            server = ServerProcess(cpu)
            servers.append(server)
            server.wait_warm()
            part, cursor = run_phases(server, plan[:1], requests, 0, probe)
            results += part
            server.stop()
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            server = ServerProcess(cpu, trace_path=spans_path)
            servers.append(server)
            server.wait_warm()
            part, _ = run_phases(server, plan[1:], requests, cursor, probe)
            results += part
        else:
            for _ in range(SERVER_SETUPS):
                server = ServerProcess(cpu)
                servers.append(server)
                setups.append(server.wait_warm())
                probe.measure()
                if len(setups) < SERVER_SETUPS:
                    server.stop()
            results, _ = run_phases(server, plan, requests, 0, probe)
        final = server.stop()
    finally:
        for server in servers:
            server.stop()
        probe.close()
        os.sched_setaffinity(0, cpus)

    records = [r for _, rs in results for r in rs]
    bad = check_outputs(records, testbeds)
    for line in bad[:5]:
        say(f"check failed: {line}")
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    providers: Dict[str, int] = {}
    for r in records:
        if r.ok:
            name = r.payload.get("provider", "?")
            providers[name] = providers.get(name, 0) + 1
    say(f"requests attempted {attempted}, failed {failed}; providers "
        + ", ".join(f"{k} {v}" for k, v in sorted(providers.items())))
    if final.get("absent"):
        say(f"wrapped targets absent: {', '.join(final['absent'])}")

    by_phase = {stats.phase: (stats, rs) for stats, rs in results}
    fixed_stats, fixed_records = by_phase["fixed"]
    passing = [s for s, _ in results if s.passed]
    capacity = max(
        (s.achieved_rps for s in passing), default=fixed_stats.achieved_rps
    )
    if trace:
        index = _load_spans(spans_path)
        handled = handle_times(index)
        transport = [
            (r.done - r.sent) - handled[r.payload["request_id"]]
            for r in records
            if r.ok and r.payload.get("request_id") in handled
        ]
        untraced = by_phase["untraced"][0]
        overhead = p50(fixed_stats.latencies) / p50(untraced.latencies) - 1.0
        values = per_layer_metrics(index, transport, overhead)
        say(
            "request p50 split (s): schema "
            f"{values['schema.decode_s_p50']:.6f}, batcher wait "
            f"{values['batcher.queue_wait_s_p50']:.6f}, providers (self) "
            f"{values['providers.self_s_p50']:.6f}, Eq. 17 (likelihood self) "
            f"{values['likelihood.self_s_p50']:.6f}, handle_locate "
            f"{values['app.handle_locate_s_p50']:.6f}, transport "
            f"{values['app.transport_s_p50']:.6f}"
        )
        return Outcome(not bad, attempted, failed, values)

    say(f"setup_s is spawn-to-warm; req_* are at {FIXED_RATE:g}/s, timed "
        f"from the due time; peak_rss_mb is the server's VmHWM; "
        f"capacity_rps is a rung's achieved rate, not scaled")
    # Accuracy over the requests every run sends whatever its capacity:
    # the fixed-rate phase and the first ladder rung.
    metrics = end_to_end(
        ("capacity_rps", "req_p50_s", "req_tail_s"),
        setups,
        capacity,
        fixed_stats.latencies,
        errors_m(fixed_records + results[1][1]),
        final.get("vmhwm_kb", 0) / 1024.0,
        probe=probe,
        scale_throughput=False,
    )
    return Outcome(not bad, attempted, failed, metrics)
