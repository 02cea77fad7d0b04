//! `qlb-serve` — the QoS placement daemon.
//!
//! ```text
//! qlb-serve --socket /tmp/qlb.sock --resources 64 --cap 16
//! qlb-serve --tcp 127.0.0.1:7070 --scenario fleet.json --trace serve.jsonl
//! ```
//!
//! Speak the line-delimited JSON protocol over the socket (see
//! `DESIGN.md` §8), or use `qlb-serve-load` as a ready-made client. With
//! `--trace`, tail the file with `qlb-trace --follow` for a live ops
//! dashboard; the trailer (request/placement latency histograms,
//! admission counters, periodic stats snapshots) is flushed on clean
//! shutdown. `--metrics-http ADDR` additionally serves Prometheus text
//! exposition, and `{"op":"stats"}` answers with the windowed telemetry
//! view — see `qlb-trace watch` for the live dashboard.

use qlb_obs::{NoopSink, StreamSink};
use qlb_serve::{
    run_daemon_telemetry, DaemonOptions, FlightOptions, ServeConfig, ServeCore, ServeListener,
    ServeProtocol, TelemetryOptions,
};
use qlb_workload::Scenario;
use std::io::BufWriter;
use std::process::exit;
use std::time::Duration;

// Counting allocator so `--mem-summary` can report the daemon's high-water
// mark at shutdown; without the flag the bookkeeping is four relaxed
// atomics per allocation — negligible next to socket I/O.
#[global_allocator]
static GLOBAL: qlb_obs::CountingAlloc = qlb_obs::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_u64 = |flag: &str, default: u64| -> u64 {
        get(flag).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad {flag}");
                exit(2)
            })
        })
    };

    // --- core configuration ---
    let seed = parse_u64("--seed", 0);
    let protocol = match get("--protocol").as_deref() {
        None => ServeProtocol::SlackDamped,
        Some(name) => ServeProtocol::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown protocol {name}; choose slack-damped | conditional");
            exit(2)
        }),
    };
    let admit_frac: f64 = get("--admit-frac").map_or(0.95, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad --admit-frac");
            exit(2)
        })
    });
    if !(admit_frac > 0.0 && admit_frac <= 1.0) {
        eprintln!("--admit-frac must be in (0, 1]");
        exit(2);
    }
    let cfg = ServeConfig::new(seed)
        .with_protocol(protocol)
        .with_admit_frac(admit_frac)
        .with_max_tick_rounds(parse_u64("--tick-rounds", 8) as u32)
        .with_probes(parse_u64("--probes", 2) as u32)
        .with_threads(parse_u64("--threads", 1) as usize);

    // --- the world: a scenario file or a flat fleet ---
    let core = if let Some(path) = get("--scenario") {
        let sc = Scenario::from_path(&path).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
        let extra = parse_u64("--extra-slots", (sc.num_users() / 4).max(64) as u64) as usize;
        let build_seed = parse_u64("--build-seed", seed);
        ServeCore::from_scenario(&sc, build_seed, extra, cfg).unwrap_or_else(|e| {
            eprintln!("cannot serve scenario {path}: {e}");
            exit(1)
        })
    } else {
        let m = parse_u64("--resources", 64) as usize;
        let cap = parse_u64("--cap", 16) as u32;
        if m == 0 || cap == 0 {
            eprintln!("--resources and --cap must be at least 1");
            exit(2);
        }
        let pool = parse_u64("--pool", (m as u64) * (cap as u64)) as usize;
        ServeCore::with_capacities(&vec![cap; m], pool, cfg).unwrap_or_else(|e| {
            eprintln!("cannot build fleet: {e}");
            exit(1)
        })
    };

    // --- the socket ---
    let listener = match (get("--socket"), get("--tcp")) {
        (Some(path), None) => ServeListener::bind_unix(&path).unwrap_or_else(|e| {
            eprintln!("cannot bind unix socket {path}: {e}");
            exit(1)
        }),
        (None, Some(addr)) => ServeListener::bind_tcp(&addr).unwrap_or_else(|e| {
            eprintln!("cannot bind tcp {addr}: {e}");
            exit(1)
        }),
        _ => {
            eprintln!("need exactly one of --socket PATH or --tcp ADDR");
            exit(2);
        }
    };

    let opts = DaemonOptions {
        max_batch: parse_u64("--batch", 256).max(1) as usize,
        idle_poll: Duration::from_millis(parse_u64("--idle-ms", 20).max(1)),
    };

    // --- telemetry plane: trailer-snapshot cadence + Prometheus endpoint ---
    let metrics_http = get("--metrics-http").map(|addr| {
        std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
            eprintln!("cannot bind metrics endpoint {addr}: {e}");
            exit(1)
        })
    });
    if let Some(l) = &metrics_http {
        if let Ok(addr) = l.local_addr() {
            println!("qlb-serve metrics exposition on http://{addr}/metrics");
        }
    }
    let flight = get("--flight-recorder").map(|dir| {
        let mut fo = FlightOptions::new(dir);
        fo.p99_bound_ns = parse_u64("--flight-p99-ns", fo.p99_bound_ns);
        fo.reject_spike = parse_u64("--flight-reject-spike", fo.reject_spike);
        fo
    });
    // Spans default on (every 64th op) whenever the flight recorder is
    // armed — a black box without spans is only tick marks.
    let span_default = if flight.is_some() { 64 } else { 0 };
    let tel_opts = TelemetryOptions {
        metrics_http,
        stats_every: parse_u64("--stats-every", TelemetryOptions::DEFAULT_STATS_EVERY),
        span_sample: parse_u64("--span-sample", span_default),
        flight,
    };

    let pool_slots = core.free_slots() + core.active_slots();
    println!(
        "qlb-serve listening on {} — {} resources, {} classes, pool {}, protocol {}, φ {admit_frac}",
        listener.describe(),
        core.num_resources(),
        core.num_classes(),
        pool_slots,
        protocol.name(),
    );

    // --- run, with or without a streaming trace ---
    let served = if let Some(path) = get("--trace") {
        let file = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1)
        });
        let mut sink = StreamSink::new(BufWriter::new(file));
        let served = run_daemon_telemetry(core, listener, &mut sink, opts, tel_opts)
            .unwrap_or_else(|e| {
                eprintln!("serve loop failed: {e}");
                exit(1)
            });
        if let Err(e) = sink.finish() {
            eprintln!("error finishing trace {path}: {e}");
            exit(1);
        }
        println!("trace written to {path}");
        served
    } else {
        run_daemon_telemetry(core, listener, &mut NoopSink, opts, tel_opts).unwrap_or_else(|e| {
            eprintln!("serve loop failed: {e}");
            exit(1)
        })
    };
    if args.iter().any(|a| a == "--mem-summary") {
        let peak = qlb_obs::mem::peak_bytes();
        println!(
            "memory: peak {peak} bytes ({:.2} bytes/slot over pool {pool_slots}), {} allocations",
            peak as f64 / (pool_slots as f64).max(1.0),
            qlb_obs::mem::total_allocs(),
        );
    }
    println!("qlb-serve: clean shutdown after {served} requests");
}

fn print_help() {
    println!(
        "qlb-serve — long-running QoS placement daemon\n\n\
         USAGE:\n  qlb-serve --socket PATH | --tcp ADDR [options]\n\n\
         WORLD:     --resources M (default 64) --cap C (default 16) --pool N (default M·C)\n           \
         --scenario FILE [--build-seed N] [--extra-slots K] — serve a workload\n           \
         scenario's fleet instead, with its placement pre-admitted\n\
         POLICY:    --protocol slack-damped (default) | conditional — the rebalance kernel\n           \
         --admit-frac F (default 0.95) — admission utilization bound φ\n           \
         --tick-rounds K (default 8) — rebalance budget per idle tick (halves per\n           \
         doubling of request backlog, floor 1)\n           \
         --probes D (default 2) — placement candidates sampled per request\n\
         RUNTIME:   --seed N (default 0) --threads T (default 1; >1 enables pooled rounds)\n           \
         --batch B (default 256) --idle-ms MS (default 20)\n\
         TRACE:     --trace FILE.jsonl — stream the obs trace, flushed after every\n           \
         rebalance round; tail it with `qlb-trace --follow FILE.jsonl` as a live\n           \
         dashboard. The trailer carries request/placement latency histograms\n           \
         and admission counters.\n\
         TELEMETRY: --metrics-http ADDR — serve Prometheus text exposition at /metrics\n           \
         (answered from the serve loop itself; no extra writer threads)\n           \
         --stats-every N (default 32) — record a StatsSnapshot trailer record\n           \
         every N scheduler ticks when tracing (0 = never)\n           \
         --mem-summary — print the peak allocation and bytes/slot at shutdown\n\
         SPANS:     --span-sample N — trace every Nth wire op as a causal span\n           \
         (1 = all, 0 = off; default 0, or 64 when the flight recorder is on).\n           \
         Spans ride the trace trailer; read them with `qlb-trace spans`.\n           \
         --flight-recorder DIR — arm the anomaly-triggered flight recorder:\n           \
         dump a black-box JSONL into DIR when a starved tick, SLO burn,\n           \
         reject spike, or p99 bound fires; read with `qlb-trace blackbox`\n           \
         --flight-p99-ns NS (default off) --flight-reject-spike N (default 64)\n           \
         — tune the latency / reject triggers\n\n\
         PROTOCOL (line-delimited JSON over the socket):\n  \
         {{\"op\":\"place\"[,\"class\":K][,\"weight\":W]}}   admission + placement\n  \
         {{\"op\":\"depart\",\"user\":U}}                  release a placement\n  \
         {{\"op\":\"query\"[,\"resource\":R]}}             congestion / satisfaction\n  \
         {{\"op\":\"stats\"}}                            windowed rates + SLO accounting\n  \
         {{\"op\":\"drain\",\"resource\":R}}               retire a resource\n  \
         {{\"op\":\"shutdown\"}}                         flush trailer, exit"
    );
}
