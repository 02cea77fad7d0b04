//! `qlb-perfbench`: the repository benchmark.
//!
//! ```text
//! qlb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|toy]
//! qlb-perfbench --record [--scale full|toy]
//! ```
//!
//! Workloads: `sim-crowded`, `sim-tight` (engine runs to a legal state) and
//! `serve-sync`, `serve-pipelined` (`qlb-serve` over a Unix socket). The
//! last stdout line is the result object; the lines before it are the
//! human report and the run metadata. Exit code 1 when a correctness check
//! failed, 2 on bad arguments.

mod report;
mod serve;
mod sim;

use report::{result_json, Outcome};

/// Problem size: `full` is the benchmark, `toy` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Toy => "toy",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            a.record = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => {
                a.seed = val
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad("expected a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                a.scale = match val.as_str() {
                    "full" => Scale::Full,
                    "toy" => Scale::Toy,
                    _ => return Err(bad("expected full or toy")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn run(a: &Args) -> Result<Outcome, String> {
    Ok(match a.workload.as_str() {
        "sim-crowded" => sim::run(&sim::CROWDED, a.scale, a.seed, a.seconds, a.trace),
        "sim-tight" => sim::run(&sim::TIGHT, a.scale, a.seed, a.seconds, a.trace),
        "serve-sync" => serve::run(&serve::SYNC, a.scale, a.seed, a.seconds, a.trace),
        "serve-pipelined" => serve::run(&serve::PIPELINED, a.scale, a.seed, a.seconds, a.trace),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Host and run metadata, printed with every result.
fn metadata(a: &Args, out: &Outcome) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("QLB_PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"profile\": \"{profile}\", \"commit\": \"{commit}\", \"engine_threads\": {}, \"client_connections\": {}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        a.scale.name(),
        sim::THREADS,
        serve::CONNECTIONS
    );
    for (k, v) in &out.params {
        s.push_str(&format!(", \"{k}\": {v:?}"));
    }
    s.push('}');
    s
}

fn print_phase(name: &str, p: &report::Phase) {
    let error_frac = p.failed as f64 / p.attempted.max(1) as f64;
    let reject_frac = p.rejected as f64 / p.attempted.max(1) as f64;
    println!(
        "{name:<9} attempted {:>9}  succeeded {:>9}  rejected {:>7}  failed {:>5}  reject_frac {reject_frac:.6}  error_frac {error_frac:.6}",
        p.attempted, p.succeeded, p.rejected, p.failed
    );
}

fn main() {
    let a = match parse_args() {
        Ok(a) if a.record || !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("qlb-perfbench: --workload is required");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("qlb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if a.record {
        for w in [&sim::CROWDED, &sim::TIGHT] {
            for line in sim::record(w, a.scale) {
                println!("{line}");
            }
        }
        return;
    }
    let mut out = match run(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qlb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if out.measured.attempted == 0 {
        out.fail("the measured phase attempted no operation".into());
    }
    for l in &out.lines {
        println!("{l}");
    }
    print_phase("warm-up", &out.warmup);
    print_phase("measured", &out.measured);
    let table = if a.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in table {
        println!("  {name:<30} {:>16.6} {unit}", out.get(name));
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("meta {}", metadata(&a, &out));
    println!("{}", result_json(&out, a.trace));
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
