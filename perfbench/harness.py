"""Shared plumbing: paths, pinned environment, statistics, seeded inputs.

Inputs are channel-fidelity measurements from the program's own
simulator.  They are generated from the run's seed before any timing,
in at most two helper processes (``gen_worker.py``), and cached per
campaign under ``perfbench/.work/inputs`` so a repeated seed skips the
generation.  Every fix gets a fresh ``round_index`` and a distinct
position, so no input repeats inside a run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Thread pools of the numeric libraries, pinned to one thread before
#: numpy loads (helper and server processes inherit the setting).  With
#: two BLAS threads on a small shared host every Eq. 17 call waits for
#: the slower core, so one busy neighbour process doubled the warm fix
#: p50 (8.0 -> 15.7 ms on the sizing host); single-threaded it moved
#: 13.35 -> 13.39 ms.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

#: Environment switches of the program; the benchmark always runs with
#: them unset (contracts and lock checks are test-suite instruments,
#: the experiment knobs would resize workloads behind its back).
PINNED_ENV = (
    "REPRO_CONTRACTS",
    "REPRO_LOCK_CHECKS",
    "REPRO_EVAL_POINTS",
    "REPRO_GRID_RES",
)

#: Helper processes used for input generation (the sizing host has 2 cpus).
GEN_WORKERS = 2
#: Generated campaigns kept on disk (~5-12 MB each).
CACHED_CAMPAIGNS = 40

#: Seed of the simulated deployment (element calibration and RF-chain
#: errors) and of the tag layouts, fixed across runs like the paper's
#: one testbed and its fixed placements.  A run's seed selects fresh
#: measurements of them (noise and oscillator draws, through
#: ``round_index``): with fixed positions the run-to-run spread of the
#: error metrics is noise, not layout luck.  2018 is the seed of
#: repro.experiments' campaign.
DEPLOYMENT_SEED = 2018
#: round_index block per run seed (no campaign measures more fixes).
ROUNDS_PER_SEED = 2**12


def round_offset(seed: int) -> int:
    """First ``round_index`` of a run's campaigns.

    Seed 2018 starts at 0, which makes its sweep the experiments'
    dataset; every other seed gets its own disjoint block.
    """
    return ((seed - DEPLOYMENT_SEED) % 2**20) * ROUNDS_PER_SEED


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def pin_environment() -> Dict[str, str]:
    """Unset the program's switches; report what each one was."""
    state = {}
    for name in PINNED_ENV:
        value = os.environ.pop(name, None)
        state[name] = "unset" if value is None else f"unset (was {value!r})"
    for name in THREAD_ENV:
        state[name] = os.environ[name]
    return state


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro  # noqa: F401


def host_info() -> Dict[str, object]:
    """CPU count and L3 size of the host, for the output header."""
    l3 = "unknown"
    size_file = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if size_file.is_file():
        l3 = size_file.read_text().strip()
    return {
        "cpus": os.cpu_count() or 1,
        "l3": l3,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input stream of a run."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- statistics


def p50(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has 10 samples beyond it."""

    value: float
    percentile: float
    samples: int

    def describe(self) -> str:
        return f"p{self.percentile:g}, n={self.samples}, 10 beyond"


def tail(values: Sequence[float], beyond: int = 10) -> Tail:
    """Sample value with ``beyond`` samples above it (max if too few)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    if n <= beyond:
        return Tail(float(ordered[-1]), 100.0, n)
    index = n - beyond - 1
    return Tail(float(ordered[index]), round(100.0 * (index + 1) / n, 2), n)


@dataclass(frozen=True)
class BlockTail(Tail):
    """Median over consecutive blocks of each block's :func:`tail`."""

    blocks: int = 1

    def describe(self) -> str:
        return (f"p{self.percentile:g} per block of "
                f"{self.samples // self.blocks}, 10 beyond, median of "
                f"{self.blocks} blocks, n={self.samples}")


def block_tail(values: Sequence[float], block: int) -> BlockTail:
    """The tail of each run of ``block`` consecutive samples, then their median.

    A stall of the shared host slows a stretch of consecutive samples;
    it moves the tail of the blocks it falls in, not the median of them.
    """
    data = np.asarray(values, dtype=float)
    count = max(1, data.size // block)
    tails = [tail(chunk) for chunk in np.array_split(data, count)]
    return BlockTail(p50([t.value for t in tails]),
                     p50([t.percentile for t in tails]), data.size, count)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def block_rate(durations: Sequence[float], blocks: int = 10) -> float:
    """Median over ``blocks`` consecutive blocks of items per second.

    ``durations`` are back-to-back item times; a block that a transient
    stall on the shared host slowed does not move the median.
    """
    chunks = np.array_split(np.asarray(durations, dtype=float), blocks)
    return p50([c.size / c.sum() for c in chunks if c.size and c.sum() > 0])


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Campaign:
    """One seeded measurement campaign on a named testbed.

    Fix ``k`` is tag position ``k`` of the layout drawn from
    ``position_seed``, measured with ``round_index = round_offset + k``.
    With ``testbed="vicon"``, ``position_seed=2018`` and
    ``round_offset=0`` this is exactly the evaluation dataset
    ``repro.experiments`` builds.
    """

    testbed: str
    count: int
    position_seed: int
    round_offset: int
    model_seed: int = DEPLOYMENT_SEED
    min_separation_m: float = 0.1
    snr_db: float = 18.0

    def cache_key(self) -> str:
        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class Measured:
    """Generated inputs of one campaign (arrays share the fix axis)."""

    campaign: Campaign
    positions: np.ndarray  # (N, 2)
    frequencies_hz: np.ndarray  # (K,)
    tag: np.ndarray  # (N, I, J, K) complex
    master: np.ndarray  # (N, I, J, K) complex

    def observations(self, testbed, indices: Optional[Sequence[int]] = None):
        """ChannelObservations for the chosen fixes, with ground truth."""
        from repro.core.observations import ChannelObservations
        from repro.utils.geometry2d import Point

        chosen = range(self.campaign.count) if indices is None else indices
        return [
            ChannelObservations(
                anchors=list(testbed.anchors),
                master_index=testbed.master_index,
                frequencies_hz=self.frequencies_hz,
                tag_to_anchor=self.tag[i],
                master_to_anchor=self.master[i],
                ground_truth=Point(*map(float, self.positions[i])),
            )
            for i in chosen
        ]


def _load(path: Path, campaign: Campaign) -> Measured:
    with np.load(path) as data:
        return Measured(
            campaign=campaign,
            positions=data["positions"],
            frequencies_hz=data["frequencies_hz"],
            tag=data["tag"],
            master=data["master"],
        )


def generate(campaigns: Sequence[Campaign]) -> Tuple[List[Measured], float]:
    """Measure every campaign (cached); returns inputs and seconds spent.

    Each uncached campaign is split in halves across helper processes;
    at most :data:`GEN_WORKERS` run at once, and all are waited for.
    """
    started = time.perf_counter()
    cache = WORK_DIR / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    parts_of: Dict[str, List[Path]] = {}
    jobs = []
    for campaign in campaigns:
        key = campaign.cache_key()
        if (cache / f"{key}.npz").is_file() or key in parts_of:
            continue
        parts_of[key] = []
        step = -(-campaign.count // GEN_WORKERS)
        for start in range(0, campaign.count, step):
            part = cache / f"{key}.{start}.part.npz"
            parts_of[key].append(part)
            stop = min(start + step, campaign.count)
            jobs.append((campaign, start, stop, part))
    running: List[subprocess.Popen] = []
    try:
        for campaign, start, stop, part in jobs:
            while len(running) >= GEN_WORKERS:
                _reap(running.pop(0))
            running.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        str(BENCH_DIR / "gen_worker.py"),
                        json.dumps(asdict(campaign)),
                        str(start),
                        str(stop),
                        str(part),
                    ],
                    stdin=subprocess.DEVNULL,
                )
            )
        while running:
            _reap(running.pop(0))
    finally:
        for proc in running:
            proc.kill()
            proc.wait()
    for key, parts in parts_of.items():
        final = cache / f"{key}.npz"
        loaded = [np.load(p) for p in parts]
        try:
            merged = {
                "positions": loaded[0]["positions"],
                "frequencies_hz": loaded[0]["frequencies_hz"],
                "tag": np.concatenate([d["tag"] for d in loaded]),
                "master": np.concatenate([d["master"] for d in loaded]),
            }
        finally:
            for data in loaded:
                data.close()
        tmp = final.with_suffix(".tmp.npz")
        np.savez(tmp, **merged)
        os.replace(tmp, final)
        for part in parts:
            part.unlink()
    measured = []
    for campaign in campaigns:
        path = cache / f"{campaign.cache_key()}.npz"
        os.utime(path)  # most recently used
        measured.append(_load(path, campaign))
    # Keep the cache bounded: drop the least recently used campaigns.
    finals = sorted(
        (p for p in cache.glob("*.npz") if p.name.count(".") == 1),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in finals[:-CACHED_CAMPAIGNS]:
        stale.unlink()
    return measured, time.perf_counter() - started


def _reap(proc: subprocess.Popen, timeout_s: float = 170.0) -> None:
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("input generation timed out")
    if code != 0:
        raise RuntimeError(f"input generation failed (exit {code})")


#: Median answer of the host probe on the sizing host (a unit choice:
#: scaled timings read as seconds on a host whose probe reads this).
PROBE_SIZING_S = 0.0077
PROBE_TIMEOUT_S = 60.0


def program_cpu() -> int:
    """The cpu that the timed program and the host probe share."""
    return max(os.sched_getaffinity(0))


def pin_child(cpu: int):
    """``preexec_fn`` starting a child on ``cpu`` (spawn with no threads)."""
    return lambda: os.sched_setaffinity(0, {cpu})


class HostProbe:
    """The reference-kernel helper process (``probe_worker.py``).

    The shared host's speed drifts by up to a third over minutes, and the
    timings drift with it.  A workload calls :meth:`measure` between
    stretches of work; :meth:`scale` then takes the run's timings to the
    sizing host's speed.  The probe runs on the program's cpu: the host
    slows its cpus unevenly, so a probe on another cpu misses the
    slowdown the program sees.  With ``share`` this process moves to
    that cpu too while the probe lives (the sweeps run the program
    in-process).  Use as a context manager: leaving it ends the helper,
    waits for it and gives this process back its cpus.
    """

    def __init__(self, cpu: int, share: bool) -> None:
        self.times: List[float] = []
        self.cpus = os.sched_getaffinity(0)
        if share:
            os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe_worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=pin_child(cpu),
        )

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def measure(self) -> None:
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("host probe did not answer")
        self.times.append(float(line))

    def scale(self) -> float:
        """Sizing-host probe time over this run's median probe time."""
        return PROBE_SIZING_S / p50(self.times)

    def describe(self) -> str:
        return (f"host probe {p50(self.times) * 1e3:.2f} ms (median of "
                f"{len(self.times)}; sizing host {PROBE_SIZING_S * 1e3:g} ms): "
                f"timings x {self.scale():.4f}")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=PROBE_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.cpus)


def testbed_named(name: str):
    """The testbeds the workloads use, with every parameter explicit."""
    from repro.sim.testbed import open_room_testbed, vicon_testbed

    if name == "vicon":
        return vicon_testbed(
            num_antennas=4, clutter_seed=7, num_extra_clutter=2
        )
    if name == "open_room":
        return open_room_testbed(num_antennas=4)
    raise ValueError(f"unknown testbed {name!r}")


def room_check(testbed, position, margin_m: float) -> bool:
    """Finite and inside the room grown by the localizer's grid margin."""
    x, y = float(position.x), float(position.y)
    if not (np.isfinite(x) and np.isfinite(y)):
        return False
    x_min, x_max, y_min, y_max = testbed.environment.bounds()
    return (
        x_min - margin_m <= x <= x_max + margin_m
        and y_min - margin_m <= y <= y_max + margin_m
    )


# ---------------------------------------------------------------- output


@dataclass
class Outcome:
    """What a workload run reports: checks, counts and metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, object]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(
    names: Tuple[str, str, str],
    setups: Sequence[float],
    throughput: float,
    latencies: Sequence[float],
    errors: Sequence[float],
    rss_mb: float,
    tail_block: int = 0,
    probe: Optional[HostProbe] = None,
    scale_throughput: bool = True,
) -> Dict[str, object]:
    """The end-to-end metrics; the report uses the workload's own names.

    ``names`` are what throughput, median and tail latency mean on this
    workload, e.g. ``("fixes_per_s", "fix_p50_s", "fix_tail_s")``.  With
    ``tail_block`` the tail is a :func:`block_tail` over ``latencies`` in
    the order they were measured.  With ``probe`` every timing is taken
    to the sizing host's speed (:meth:`HostProbe.scale`), throughput
    too unless ``scale_throughput`` is false; the report lines print the
    raw value beside each scaled one.
    """
    latency_tail = (block_tail(latencies, tail_block) if tail_block
                    else tail(latencies))
    scale = probe.scale() if probe is not None else 1.0
    # (JSON name, reported name, raw value, unit, power of scale, note)
    values = [
        ("setup_s", "setup_s", p50(setups), "s", 1,
         f"median of {len(setups)} set-ups"),
        ("throughput_per_s", names[0], throughput, "1/s",
         -1 if scale_throughput else 0, ""),
        ("latency_p50_s", names[1], p50(latencies), "s", 1, ""),
        ("latency_tail_s", names[2], latency_tail.value, "s", 1,
         latency_tail.describe()),
        ("error_median_m", "error_median_m", p50(errors), "m", 0, ""),
        ("error_p90_m", "error_p90_m", percentile(errors, 90), "m", 0, ""),
        ("peak_rss_mb", "peak_rss_mb", rss_mb, "MB", 0, ""),
    ]
    if probe is not None:
        say(probe.describe())
    metrics = {}
    for name, shown, raw, unit, power, note in values:
        value = raw * scale**power
        if power and probe is not None:
            note = f"raw {raw:.6g} {unit}" + (f", {note}" if note else "")
        say(f"{shown:<18} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
        metrics[name] = metric(value, unit)
    return metrics


def say(line: str = "") -> None:
    """Human-readable report line (the JSON result is the last line)."""
    print(f"# {line}" if line else "#", flush=True)
