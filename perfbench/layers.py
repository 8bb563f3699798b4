"""The layers the traced run wraps, and the per-layer metrics.

Each :class:`~spans.Target` names one public function or method of a
program module; :func:`per_layer_metrics` turns the recorded spans into
the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer a workload
never calls (or a target a later version deleted) reads 0.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from harness import p50, tail
from spans import Span, SpanIndex, Target

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("runner.overhead_s_per_fix", "s"),
    ("localizer.locate.self_s_p50", "s"),
    ("localizer.fixes_per_batch_call", "count"),
    ("localizer.child_share", "ratio"),
    ("correction.calls", "count"),
    ("correction.self_s_p50", "s"),
    ("engine.lookups", "count"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.evictions", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.build_s_p50", "s"),
    ("engine.build_s_total", "s"),
    ("engine.entry_bytes", "B"),
    ("likelihood.self_s_p50", "s"),
    ("likelihood.share_of_fix", "ratio"),
    ("likelihood.bytes_per_fix", "B"),
    ("likelihood.gbps", "GB/s"),
    ("peaks.find_s_p50", "s"),
    ("peaks.refine_s_p50", "s"),
    ("peaks.candidates_per_fix", "count"),
    ("scoring.self_s_p50", "s"),
    ("scoring.peaks_per_fix", "count"),
    ("baselines.aoa.calls", "count"),
    ("baselines.aoa.self_s_p50", "s"),
    ("baselines.rssi.calls", "count"),
    ("schema.decode_s_p50", "s"),
    ("schema.body_bytes", "B"),
    ("ratelimit.denied", "count"),
    ("batcher.queue_wait_s_p50", "s"),
    ("batcher.queue_wait_s_tail", "s"),
    ("batcher.batch_size_mean", "count"),
    ("batcher.batches", "count"),
    ("providers.self_s_p50", "s"),
    ("providers.bloc_share", "ratio"),
    ("providers.gated", "count"),
    ("pool.prewarm_s", "s"),
    ("app.handle_locate_s_p50", "s"),
    ("app.transport_s_p50", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _size_of(position: int):
    def observe(span: Span, args, kwargs, result, before) -> None:
        span.attrs["n"] = len(args[position])

    return observe


def _result_len(name: str):
    def observe(span: Span, args, kwargs, result, before) -> None:
        span.attrs[name] = len(result)

    return observe


def _cache_counters(args, kwargs) -> Tuple[int, int, int]:
    cache = args[0]
    return tuple(
        int(getattr(cache, name, 0)) for name in ("hits", "misses", "evictions")
    )


def _cache_lookup(span: Span, args, kwargs, result, before) -> None:
    after = _cache_counters(args, kwargs)
    for name, old, new in zip(("hits", "misses", "evictions"), before, after):
        span.attrs[name] = new - old
    span.attrs["bytes"] = int(getattr(result, "nbytes", 0))


def _entry_bytes(span: Span, args, kwargs, result, before) -> None:
    span.attrs["bytes"] = int(getattr(result, "nbytes", 0))


def _evaluated(span: Span, args, kwargs, result, before) -> None:
    span.attrs["fixes"] = len(getattr(result, "records", ()))


def _chain(span: Span, args, kwargs, result, before) -> None:
    span.attrs["obs"] = [id(o) for o in args[1]]
    span.attrs["providers"] = [
        getattr(outcome, "provider", "error") for outcome in result
    ]


def _request_id(args, kwargs, result) -> Optional[str]:
    body = result[1] if isinstance(result, tuple) else None
    if not isinstance(body, dict):
        return None
    return body.get("request_id") or body.get("error", {}).get("request_id")


TARGETS: List[Target] = [
    Target("repro.sim.runner", "evaluate", "runner.evaluate",
           observe=_evaluated),
    Target("repro.sim.runner", "evaluate_anchor_subsets", "runner.evaluate",
           observe=_evaluated),
    Target("repro.core.localizer", "BlocLocalizer.locate",
           "localizer.locate"),
    Target("repro.core.localizer", "BlocLocalizer.locate_batch",
           "localizer.locate_batch", observe=_size_of(1)),
    Target("repro.core.correction", "correct_phase_offsets",
           "correction.correct"),
    Target("repro.core.engine", "SteeringCache.entry_for",
           "engine.entry_for", before=_cache_counters,
           observe=_cache_lookup),
    Target("repro.core.engine", "build_steering_entry", "engine.build",
           observe=_entry_bytes),
    Target("repro.core.likelihood", "compute_likelihood_map",
           "likelihood.map"),
    Target("repro.core.likelihood", "compute_likelihood_maps_batched",
           "likelihood.map_batch", observe=_size_of(0)),
    Target("repro.core.peaks", "find_peaks", "peaks.find",
           observe=_result_len("candidates")),
    Target("repro.core.peaks", "local_maxima_batch", "peaks.maxima_batch",
           observe=_size_of(0)),
    Target("repro.core.peaks", "select_peaks", "peaks.select",
           observe=_result_len("candidates")),
    Target("repro.core.peaks", "refine_peak_position", "peaks.refine"),
    Target("repro.core.scoring", "score_peaks", "scoring.score",
           observe=_size_of(0)),
    Target("repro.baselines.aoa", "AoaLocalizer.locate", "baselines.aoa"),
    Target("repro.baselines.rssi", "RssiTrilateration.locate",
           "baselines.rssi"),
    Target("repro.service.schema", "parse_locate_request", "schema.parse",
           observe=_size_of(0)),
    Target("repro.service.schema", "decode_observations", "schema.decode"),
    Target("repro.service.ratelimit", "RateLimiter.check",
           "ratelimit.check",
           observe=lambda span, a, k, r, b: span.attrs.update(
               allowed=bool(getattr(r, "allowed", True)))),
    Target("repro.service.batcher", "MicroBatcher.submit", "batcher.submit",
           observe=lambda span, a, k, r, b: span.attrs.update(obs=id(a[1]))),
    Target("repro.service.providers", "ProviderChain.locate_batch",
           "providers.chain", observe=_chain),
    Target("repro.service.providers", "ProviderChain.gate_reason",
           "providers.gate",
           observe=lambda span, a, k, r, b: span.attrs.update(
               gated=r is not None)),
    Target("repro.service.pool", "LocalizerPool.prewarm", "pool.prewarm"),
    Target("repro.service.app", "LocalizationService.handle_locate",
           "app.handle_locate", key=_request_id),
]


def _median(values: Sequence[float]) -> float:
    return p50(values) if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(sum(values)) / len(values) if len(values) else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def queue_waits(index: SpanIndex) -> List[float]:
    """Submit-to-batch-start wait of every request the batcher served."""
    starts: Dict[int, List[float]] = {}
    for chain in index.named("providers.chain"):
        for obs in chain.attrs.get("obs", ()):
            starts.setdefault(obs, []).append(chain.start)
    for values in starts.values():
        values.sort()
    waits = []
    for submit in index.named("batcher.submit"):
        candidates = starts.get(submit.attrs.get("obs"), [])
        at = bisect.bisect_left(candidates, submit.start)
        if at < len(candidates):
            waits.append(candidates[at] - submit.start)
    return waits


def handle_times(index: SpanIndex) -> Dict[str, float]:
    """Server-side ``handle_locate`` seconds per request id."""
    return {
        span.key: span.duration
        for span in index.named("app.handle_locate")
        if span.key is not None
    }


#: Span names of each pipeline layer, for the fix-time breakdown.
FIX_LAYERS = {
    "core.correction": ("correction.correct",),
    "core.engine": ("engine.entry_for", "engine.build"),
    "core.likelihood": ("likelihood.map", "likelihood.map_batch"),
    "core.peaks": (
        "peaks.find", "peaks.select", "peaks.maxima_batch", "peaks.refine",
    ),
    "core.scoring": ("scoring.score",),
}


def fix_time_shares(index: SpanIndex) -> Dict[str, float]:
    """Share of localizer time spent in each layer's own code.

    ``core.localizer`` is the locate calls' self time, so the shares of
    all layers add up to 1.
    """
    calls = index.named("localizer.locate", "localizer.locate_batch")
    total = sum(s.duration for s in calls)
    shares = {}
    for layer, names in FIX_LAYERS.items():
        inside = [
            index.self_time(s)
            for s in index.named(*names)
            if index.ancestor(s, "localizer.locate", "localizer.locate_batch")
        ]
        shares[layer] = _ratio(sum(inside), total)
    shares["core.localizer"] = _ratio(
        sum(index.self_time(s) for s in calls), total
    )
    return shares


def per_layer_metrics(
    index: SpanIndex,
    transport_s: Sequence[float] = (),
    overhead_frac: float = 0.0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    ``transport_s`` are client latencies minus server ``handle_locate``
    time (service only); ``overhead_frac`` compares the traced pass to
    the untraced pass of the same run.
    """
    out: Dict[str, float] = {}
    st = index.self_time

    evaluations = index.named("runner.evaluate")
    evaluated = sum(s.attrs.get("fixes", 0) for s in evaluations)
    out["runner.overhead_s_per_fix"] = _ratio(
        sum(st(s) for s in evaluations), evaluated
    )

    locates = index.named("localizer.locate")
    batch_calls = index.named("localizer.locate_batch")
    calls = locates + batch_calls
    located = len(locates) + sum(s.attrs.get("n", 0) for s in batch_calls)
    locate_time = sum(s.duration for s in calls)
    out["localizer.locate.self_s_p50"] = _median([st(s) for s in calls])
    out["localizer.fixes_per_batch_call"] = _ratio(located, len(calls))
    out["localizer.child_share"] = _ratio(
        sum(index.child_time(s) for s in calls), locate_time
    )

    corrections = index.named("correction.correct")
    out["correction.calls"] = float(len(corrections))
    out["correction.self_s_p50"] = _median([st(s) for s in corrections])

    lookups = index.named("engine.entry_for")
    builds = index.named("engine.build")
    hits = sum(s.attrs.get("hits", 0) for s in lookups)
    out["engine.lookups"] = float(len(lookups))
    out["engine.hits"] = float(hits)
    out["engine.misses"] = float(sum(s.attrs.get("misses", 0) for s in lookups))
    out["engine.evictions"] = float(
        sum(s.attrs.get("evictions", 0) for s in lookups)
    )
    out["engine.hit_ratio"] = _ratio(hits, len(lookups))
    out["engine.build_s_p50"] = _median([s.duration for s in builds])
    out["engine.build_s_total"] = float(sum(s.duration for s in builds))
    out["engine.entry_bytes"] = _median(
        [s.attrs.get("bytes", 0) for s in lookups]
    )

    maps = index.named("likelihood.map", "likelihood.map_batch")
    streamed, stream_time, per_fix_bytes = 0.0, 0.0, []
    for span in maps:
        entry = sum(
            c.attrs.get("bytes", 0)
            for c in index.children.get(span.id, ())
            if c.name == "engine.entry_for"
        )
        streamed += entry
        stream_time += st(span)
        per_fix_bytes.append(entry / max(1, span.attrs.get("n", 1)))
    out["likelihood.self_s_p50"] = _median([st(s) for s in maps])
    out["likelihood.share_of_fix"] = _ratio(
        sum(
            st(s)
            for s in maps
            if index.ancestor(s, "localizer.locate", "localizer.locate_batch")
        ),
        locate_time,
    )
    out["likelihood.bytes_per_fix"] = _median(per_fix_bytes)
    out["likelihood.gbps"] = _ratio(streamed, stream_time) / 1e9

    finds = index.named("peaks.find")
    selects = index.named("peaks.select")
    maxima_share = {
        s.parent: s.duration / max(1, s.attrs.get("n", 1))
        for s in index.named("peaks.maxima_batch")
    }
    find_times = [s.duration for s in finds] + [
        s.duration + maxima_share.get(s.parent, 0.0)
        for s in selects
        if index.by_id.get(s.parent) is None
        or index.by_id[s.parent].name != "peaks.find"
    ]
    out["peaks.find_s_p50"] = _median(find_times)
    out["peaks.refine_s_p50"] = _median(
        [s.duration for s in index.named("peaks.refine")]
    )
    out["peaks.candidates_per_fix"] = _mean(
        [s.attrs.get("candidates", 0) for s in selects]
    )

    scores = index.named("scoring.score")
    out["scoring.self_s_p50"] = _median([st(s) for s in scores])
    out["scoring.peaks_per_fix"] = _mean([s.attrs.get("n", 0) for s in scores])

    aoa = index.named("baselines.aoa")
    out["baselines.aoa.calls"] = float(len(aoa))
    out["baselines.aoa.self_s_p50"] = _median([st(s) for s in aoa])
    out["baselines.rssi.calls"] = float(len(index.named("baselines.rssi")))

    schema_by_request: Dict[str, float] = {}
    for span in index.named("schema.parse", "schema.decode"):
        key = index.key_of(span) or f"span-{span.id}"
        schema_by_request[key] = schema_by_request.get(key, 0.0) + span.duration
    out["schema.decode_s_p50"] = _median(list(schema_by_request.values()))
    out["schema.body_bytes"] = _median(
        [s.attrs.get("n", 0) for s in index.named("schema.parse")]
    )

    out["ratelimit.denied"] = float(
        sum(
            1
            for s in index.named("ratelimit.check")
            if not s.attrs.get("allowed", True)
        )
    )

    waits = queue_waits(index)
    chains = index.named("providers.chain")
    out["batcher.queue_wait_s_p50"] = _median(waits)
    out["batcher.queue_wait_s_tail"] = tail(waits).value if waits else 0.0
    out["batcher.batch_size_mean"] = _mean(
        [len(s.attrs.get("obs", ())) for s in chains]
    )
    out["batcher.batches"] = float(len(chains))

    providers = [p for s in chains for p in s.attrs.get("providers", ())]
    out["providers.self_s_p50"] = _median([st(s) for s in chains])
    out["providers.bloc_share"] = _ratio(providers.count("bloc"), len(providers))
    out["providers.gated"] = float(
        sum(1 for s in index.named("providers.gate") if s.attrs.get("gated"))
    )

    out["pool.prewarm_s"] = float(
        sum(s.duration for s in index.named("pool.prewarm"))
    )
    out["app.handle_locate_s_p50"] = _median(
        [s.duration for s in index.named("app.handle_locate")]
    )
    out["app.transport_s_p50"] = _median(list(transport_s))
    out["trace.overhead_frac"] = float(overhead_frac)
    return out
