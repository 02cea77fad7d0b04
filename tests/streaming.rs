//! Streaming-trace pipeline tests: a [`qoslb::obs::StreamSink`] must
//! produce the same JSONL a post-hoc [`Recorder`] dump produces for the
//! same seeded run, ring-wraparound drop accounting must survive replay,
//! and a trace cut mid-record (a crash during a write) must replay with
//! the `truncated` flag instead of failing.

use proptest::prelude::*;
use qoslb::engine::{run_observed, Executor, RunConfig};
use qoslb::obs::recorder::Record;
use qoslb::obs::replay::Summary;
use qoslb::obs::{
    ClassSlo, Histogram, LatencyDigest, Phase, RateSample, Recorder, Sink, StatsSnapshot,
    StreamSink,
};
use qoslb::prelude::*;
use qoslb::workload::calibrate_slack;

/// Strategy: a feasible single-class instance with a hotspot-ish start
/// (same shape as `tests/properties.rs`).
fn small_instance() -> impl Strategy<Value = (Instance, State, u64)> {
    (
        2usize..=64,                                 // n
        1usize..=12,                                 // m
        1u32..=8,                                    // base cap
        proptest::collection::vec(0u32..=6, 1..=12), // cap jitter
        0u64..=u64::MAX,                             // seed
    )
        .prop_map(|(n, m, base, jitter, seed)| {
            let mut caps: Vec<u32> = (0..m)
                .map(|r| base + jitter.get(r % jitter.len()).copied().unwrap_or(0))
                .collect();
            let total: u64 = caps.iter().map(|&c| c as u64).sum();
            if total < n as u64 {
                calibrate_slack(&mut caps, n, 1.25);
            }
            let inst = Instance::with_capacities(n, caps).unwrap();
            let state = State::random(&inst, seed);
            (inst, state, seed)
        })
}

/// Canonicalize the clock-derived fields of a trace. Two separate runs of
/// the same seeded trajectory read different clocks, so byte-identity
/// between a streamed trace and a post-hoc dump holds for every field
/// *except* wall-clock durations: `Phase` and `Shard` totals/maxima, the
/// `ShardUtil` ratio, and everything in a `LatencyHist` but its sample
/// count (the percentiles
/// and power-of-two buckets bin clock readings). Each line is parsed as a
/// typed [`Record`] and re-serialized, so the normalization itself fails
/// loudly if the line framing ever breaks.
fn normalize_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut record: Record = serde_json::from_str(line).expect("well-formed record line");
        match &mut record {
            Record::Phase {
                total_ns, max_ns, ..
            }
            | Record::Shard {
                total_ns, max_ns, ..
            } => {
                *total_ns = 0;
                *max_ns = 0;
            }
            Record::LatencyHist {
                total_ns,
                max_ns,
                p50_ns,
                p95_ns,
                buckets,
                ..
            } => {
                *total_ns = 0;
                *max_ns = 0;
                *p50_ns = 0;
                *p95_ns = 0;
                buckets.clear();
            }
            Record::ShardUtil { mean_round_pct } => {
                *mean_round_pct = 0.0;
            }
            _ => {}
        }
        out.push_str(&serde_json::to_string(&record).expect("record re-serializes"));
        out.push('\n');
    }
    out
}

/// Stream a run into an in-memory writer and return the finished bytes.
fn stream_run(
    inst: &Instance,
    state: State,
    proto: &dyn qoslb::core::Protocol,
    cfg: RunConfig,
) -> String {
    let mut sink = StreamSink::new(Vec::new());
    run_observed(inst, state, proto, cfg, &mut sink);
    let bytes = sink.finish().expect("in-memory writer cannot fail");
    String::from_utf8(bytes).expect("trace is UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Streamed == recorded.** For every registered protocol, the JSONL
    /// a `StreamSink` emits incrementally during the run is byte-for-byte
    /// identical to the post-hoc `Recorder::to_jsonl()` dump of the same
    /// seeded run (modulo the wall-clock phase timings, which are genuine
    /// clock readings and differ across the two runs).
    #[test]
    fn streamed_trace_matches_recorder_dump_bytes(
        (inst, state, seed) in small_instance(),
        budget in 1u64..200,
    ) {
        for proto in qoslb::core::protocol::registry(&inst) {
            // dense sequential, and pooled with the profiling records on:
            // the trailer then carries Shard / LatencyHist / TopK lines too
            let configs = [
                RunConfig::new(seed, budget),
                RunConfig::new(seed, budget)
                    .with_executor(Executor::Threaded(3))
                    .with_topk_resources(3),
            ];
            for cfg in configs {
                let name = proto.name();

                let mut rec = Recorder::default();
                run_observed(&inst, state.clone(), proto.as_ref(), cfg, &mut rec);
                let dump = rec.to_jsonl();

                let streamed = stream_run(&inst, state.clone(), proto.as_ref(), cfg);
                prop_assert_eq!(
                    normalize_timings(&streamed),
                    normalize_timings(&dump),
                    "stream != dump for {}",
                    name
                );

                // and both replay to the same summary (phase timings aside)
                let a = Summary::from_jsonl(&streamed).expect("streamed trace replays");
                let b = Summary::from_jsonl(&dump).expect("dump replays");
                prop_assert_eq!(&a.events_by_kind, &b.events_by_kind, "{}", name);
                prop_assert_eq!(a.ring, b.ring, "{}", name);
                prop_assert_eq!(&a.counters, &b.counters, "{}", name);
                prop_assert_eq!(&a.gauges, &b.gauges, "{}", name);
                let phase_counts = |s: &Summary| -> Vec<(String, u64)> {
                    s.phases.iter().map(|(k, v)| (k.clone(), v.0)).collect()
                };
                prop_assert_eq!(phase_counts(&a), phase_counts(&b), "{}", name);
                // per-shard round counts and the decimated top-k series are
                // trajectory-derived, so they agree exactly across the runs
                let shard_rounds = |s: &Summary| -> Vec<u64> {
                    s.shards.iter().map(|&(r, _, _)| r).collect()
                };
                prop_assert_eq!(shard_rounds(&a), shard_rounds(&b), "{}", name);
                prop_assert_eq!(&a.topk, &b.topk, "{}", name);
                prop_assert!(a.saw_trailer(), "finished stream carries a trailer ({})", name);
                prop_assert!(!a.truncated, "finished stream is not truncated ({})", name);
            }
        }
    }

    /// **Crash tolerance.** Cutting a finished trace at *any* byte that
    /// removes the final newline looks like a mid-write crash: replay must
    /// succeed, set `truncated`, and report exactly the records of the
    /// surviving complete prefix.
    #[test]
    fn any_midwrite_cut_replays_as_truncated(
        (inst, state, seed) in small_instance(),
        budget in 1u64..120,
        cut_back in 1usize..40,
    ) {
        // pooled + top-k so the cut can land inside the new Shard /
        // LatencyHist / TopK trailer lines as well
        let cfg = RunConfig::new(seed, budget)
            .with_executor(Executor::Threaded(2))
            .with_topk_resources(2);
        let full = stream_run(&inst, state, &SlackDamped::default(), cfg);

        // chop `cut_back` bytes off the end, then make sure the cut is
        // mid-record (no trailing newline) — otherwise it is just a clean
        // shorter trace
        let cut = full.len().saturating_sub(cut_back).max(1);
        prop_assume!(full.is_char_boundary(cut));
        let chopped = &full[..cut];
        // a cut that leaves a newline is a clean shorter trace, and one
        // that leaves a full `...}` object may still parse — keep only
        // cuts whose final partial line cannot be valid JSON
        prop_assume!(!chopped.ends_with('\n') && !chopped.ends_with('}'));

        let summary = Summary::from_jsonl(chopped).expect("truncated trace replays");
        prop_assert!(summary.truncated, "mid-record cut must set `truncated`");

        // the surviving prefix replays identically to itself parsed clean
        let clean_prefix = match chopped.rfind('\n') {
            Some(i) => &chopped[..=i],
            None => "",
        };
        let clean = Summary::from_jsonl(clean_prefix).expect("clean prefix replays");
        prop_assert_eq!(summary.events_by_kind, clean.events_by_kind);
        prop_assert_eq!(summary.counters, clean.counters);
    }
}

/// A synthetic but fully populated telemetry snapshot — every field and
/// nested vector exercised so the JSONL round trip covers the whole wire
/// shape, including exactly representable f64 fractions.
fn synth_snapshot(tick: u64, seed: u64) -> StatsSnapshot {
    StatsSnapshot {
        tick,
        uptime_ms: tick * 250,
        active: 100 + seed % 50,
        unsatisfied: seed % 4,
        backlog: seed % 17,
        budget: 1 + seed % 8,
        budget_max: 8,
        starved_ticks: seed % 3,
        rates: vec![
            RateSample {
                name: "requests".to_string(),
                r1s: (seed % 7) as f64 * 0.5,
                r10s: (seed % 11) as f64 * 0.25,
                r60s: (seed % 13) as f64 * 0.125,
            },
            RateSample {
                name: "placements".to_string(),
                r1s: (seed % 5) as f64,
                r10s: (seed % 9) as f64 * 0.5,
                r60s: (seed % 3) as f64 * 0.25,
            },
        ],
        latency: vec![LatencyDigest {
            name: "request_latency".to_string(),
            count: tick * 64,
            p50_ns: 4_096 + seed % 1_000,
            p95_ns: 8_192 + seed % 1_000,
            p99_ns: 16_384 + seed % 1_000,
        }],
        classes: vec![ClassSlo {
            class: 0,
            active: 100,
            unsatisfied: seed % 4,
            violation_windowed: (seed % 4) as f64 * 0.25,
            violation_total: (seed % 8) as f64 * 0.125,
        }],
        rejects_pool: seed % 23,
        rejects_capacity: seed % 19,
        rejects_draining: seed % 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// **Telemetry snapshots round-trip byte-identically.** The sim engine
    /// never emits [`StatsSnapshot`]s, so feed a synthetic series through
    /// [`Sink::stats_snapshot`] into both a `Recorder` and a `StreamSink`
    /// on top of the same seeded run: the trailer records must be
    /// byte-for-byte identical across the two sinks, and replay must
    /// reconstruct the exact snapshots — every counter, rate, digest, and
    /// SLO fraction — through the JSONL round trip.
    #[test]
    fn stats_snapshots_round_trip_byte_identical(
        (inst, state, seed) in small_instance(),
        budget in 1u64..60,
        count in 1u64..40,
    ) {
        let cfg = RunConfig::new(seed, budget);
        let proto = SlackDamped::default();
        let snaps: Vec<StatsSnapshot> = (1..=count)
            .map(|i| synth_snapshot(i, seed.wrapping_mul(i)))
            .collect();

        let mut rec = Recorder::default();
        run_observed(&inst, state.clone(), &proto, cfg, &mut rec);
        for s in &snaps {
            rec.stats_snapshot(s);
        }
        let dump = rec.to_jsonl();

        let mut sink = StreamSink::new(Vec::new());
        run_observed(&inst, state.clone(), &proto, cfg, &mut sink);
        for s in &snaps {
            sink.stats_snapshot(s);
        }
        let bytes = sink.finish().expect("in-memory writer cannot fail");
        let streamed = String::from_utf8(bytes).expect("trace is UTF-8");

        prop_assert_eq!(normalize_timings(&streamed), normalize_timings(&dump));

        let summary = Summary::from_jsonl(&streamed).expect("snapshot trace replays");
        prop_assert_eq!(&summary.stats_snapshots, &snaps);
        prop_assert!(summary.saw_trailer());
    }

    /// **Windowed quantiles equal whole-run quantiles.** The windowed view
    /// differences a cumulative histogram into per-period deltas
    /// ([`Histogram::delta_since`]) and folds them back with
    /// [`Histogram::merge`]: for any sample stream and any period
    /// boundaries, the merged histogram must equal the whole-run one
    /// exactly — same buckets, count, sum, and therefore identical
    /// quantiles at every probe point.
    #[test]
    fn windowed_hist_merge_matches_whole_run(
        samples in proptest::collection::vec(0u64..(1u64 << 48), 1..200),
        period in 1usize..20,
    ) {
        let mut cum = Histogram::default();
        let mut prev = Histogram::default();
        let mut merged = Histogram::default();
        for chunk in samples.chunks(period) {
            for &v in chunk {
                cum.observe(v);
            }
            merged.merge(&cum.delta_since(&prev));
            prev = cum.clone();
        }
        prop_assert_eq!(&merged, &cum);
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), cum.quantile(q), "quantile {} diverges", q);
        }
    }
}

/// Ring wraparound is not an error: a `Recorder` with a tiny event ring
/// drops early events but keeps exact drop accounting, and that accounting
/// survives the JSONL round-trip into a replay [`Summary`].
#[test]
fn ring_wraparound_drop_accounting_survives_replay() {
    let inst = Instance::uniform(256, 32, 10).unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    let cfg = RunConfig::new(11, 10_000);

    let mut rec = Recorder::with_ring_capacity(8);
    let out = run_observed(&inst, state, &SlackDamped::default(), cfg, &mut rec);
    assert!(out.converged);

    let recorded = rec.events().total_recorded();
    let dropped = rec.events().dropped();
    assert!(
        dropped > 0,
        "a converged 256-user run must overflow an 8-slot ring"
    );
    assert_eq!(recorded - dropped, 8, "ring retains exactly its capacity");

    let summary = Summary::from_jsonl(&rec.to_jsonl()).expect("wrapped trace replays");
    assert_eq!(
        summary.ring,
        (recorded, dropped),
        "drop accounting round-trips"
    );
    assert!(!summary.truncated);
    // the surviving events are the trailing window, so the per-kind tally
    // covers exactly the retained slots
    let retained: u64 = summary.events_by_kind.values().sum();
    assert_eq!(retained, 8);
    // counters are ring-independent: the full run is still accounted
    assert_eq!(summary.counters.get("rounds"), Some(&out.rounds));
}

/// The per-shard profile is consistent with the aggregate phase timers and
/// survives the JSONL round trip intact: every pooled round contributes
/// its longest (wall-clipped) shard to `Phase::Compute`, so the profile's
/// critical path equals the aggregate compute total *exactly*, and the
/// shard table, skew/wake histograms, and decimated top-k series replay
/// unchanged.
#[test]
fn pooled_profile_matches_aggregate_compute_and_round_trips() {
    let inst = Instance::uniform(512, 64, 10).unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    let cfg = RunConfig::new(5, 10_000)
        .with_executor(Executor::Threaded(3))
        .with_topk_resources(4);

    let mut rec = Recorder::default();
    let out = run_observed(&inst, state, &SlackDamped::default(), cfg, &mut rec);
    assert!(out.converged);

    let st = rec.shard_timers();
    assert!(!st.is_empty(), "pooled run must record a shard profile");
    assert_eq!(st.num_shards(), 3);
    assert_eq!(st.rounds(), st.skew().count(), "one skew sample per round");
    // sample-by-sample: max over wall-clipped shard computes IS the
    // Phase::Compute sample, so the totals agree to the nanosecond
    assert_eq!(st.critical_ns(), rec.timers().total_ns(Phase::Compute));
    // each shard saw every pooled round
    for i in 0..st.num_shards() {
        assert_eq!(st.shard(i).0, st.rounds());
    }

    let summary = Summary::from_jsonl(&rec.to_jsonl()).expect("trace replays");
    assert_eq!(summary.shards.len(), 3);
    for (i, &row) in summary.shards.iter().enumerate() {
        assert_eq!(row, st.shard(i), "shard {i} row round-trips");
    }
    let skew = &summary.latency_hists["barrier_skew"];
    assert_eq!(skew.count, st.skew().count());
    assert_eq!(skew.max_ns, st.skew().max());
    let wake = &summary.latency_hists["dispatch_wake"];
    assert_eq!(wake.count, st.dispatch().count());
    let expected: Vec<(u64, Vec<(u64, u64)>)> = rec
        .topk_series()
        .samples()
        .iter()
        .map(|(r, es)| (*r, es.iter().map(|e| (e.resource, e.load)).collect()))
        .collect();
    assert!(!expected.is_empty(), "top-k sampling was on");
    assert_eq!(summary.topk, expected, "top-k series round-trips");
}

/// An interrupted stream (sink dropped without `finish`) has no trailer:
/// replay works, reports per-event data, and `saw_trailer()` stays false —
/// this is how `qlb-trace --follow` tells a live run from a finished one.
#[test]
fn dropped_sink_stream_replays_without_trailer() {
    let inst = Instance::uniform(64, 8, 10).unwrap();
    let state = State::all_on(&inst, ResourceId(0));
    let cfg = RunConfig::new(3, 10_000);

    let mut buf = Vec::new();
    {
        let mut sink = StreamSink::new(&mut buf);
        run_observed(&inst, state, &SlackDamped::default(), cfg, &mut sink);
        // sink dropped here without finish(): buffered lines are pushed,
        // but no trailer is written
    }
    let text = String::from_utf8(buf).unwrap();
    assert!(text.ends_with('\n'), "drop still flushes whole lines");

    let summary = Summary::from_jsonl(&text).expect("trailer-less trace replays");
    assert!(
        !summary.saw_trailer(),
        "no RingInfo trailer without finish()"
    );
    assert!(!summary.truncated, "whole-line flushes never truncate");
    assert!(
        summary.events_by_kind.get("RoundEnd").copied().unwrap_or(0) > 0,
        "per-round events still present"
    );
}
