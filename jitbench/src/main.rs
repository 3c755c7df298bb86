//! End-to-end and per-layer benchmark of the cascade-rs JIT ladder.
//!
//! ```text
//! jitbench --workload <pow_jit|regex_fifo|serve_mixed|grade_batch>
//!          --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Inputs come from `--seed` only. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics and writes the run's
//! spans to `<dir>/trace-<workload>-<seed>.jsonl` (default
//! `jitbench-out`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod alloc;
mod designs;
mod jit;
mod ladder;
mod serve;
mod stats;
mod trace;

use stats::Samples;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["pow_jit", "regex_fifo", "serve_mixed", "grade_batch"];

/// Seconds of serve mix behind the serve layer's numbers in `pow_jit`'s
/// traced run. `serve_mixed` is not in `BENCHMARK.json`: its latencies
/// follow the host's thread wake-up latency too closely to gate on (see
/// `README.md`), so the serve layer is measured there instead.
const SERVE_LAYER_SECONDS: u64 = 5;

/// Every end-to-end metric, printed by every untraced run.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "eval_p50_ms",
    "eval_p90_ms",
    "first_hw_ms",
    "sw_ticks_per_s",
    "hw_ticks_per_s",
    "ticks_per_s",
    "req_p50_ms",
    "req_p90_ms",
    "vectors_per_s",
    "peak_rss_mb",
];

/// Every per-layer metric, printed by every traced run. A layer the
/// workload does not call reads 0.
const PER_LAYER: [&str; 38] = [
    "verilog.parse_ms",
    "sim.elaborate_ms",
    "sim.compile_ms",
    "sim.cycles_per_s",
    "netlist.synth_ms",
    "netlist.cycles_per_s",
    "netlist.batch1_cycles_per_s",
    "netlist.batch64_vector_cycles_per_s",
    "fpga.toolchain_ms",
    "core.eval_glue_ms",
    "core.promote_ms",
    "core.sw_glue_x",
    "core.hw_glue_x",
    "core.allocs_per_sw_tick",
    "core.allocs_per_hw_tick",
    "core.promotions",
    "core.watchdog_cancels",
    "core.cache_hits",
    "serve.codec_us",
    "serve.run_overhead_ms",
    "serve.phase.queue_mean_ms",
    "serve.phase.wake_mean_ms",
    "serve.phase.compile_mean_ms",
    "serve.phase.eval_sw_mean_ms",
    "serve.phase.eval_hw_mean_ms",
    "serve.phase.flush_mean_ms",
    "serve.phase.journal_mean_ms",
    "serve.steals",
    "serve.promotions",
    "serve.revocations",
    "serve.revocations_suppressed",
    "serve.hibernations",
    "serve.wakes",
    "serve.dedup_joins",
    "serve.bitstream_hit_ratio",
    "serve.output_dropped",
    "serve.allocs_per_request",
    "bench.trace_overhead",
];

/// Operations attempted and failed. A failure is an error reply, a
/// refusal or backpressure, a wrong output, or a sample that ran in
/// another mode than its label.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; logs and counts its failure.
    pub fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                None
            }
        }
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }
}

/// The `q` quantile of `s`, which must have at least ten samples beyond
/// it; too few samples is a failed operation.
pub fn tail(s: &Samples, q: f64, what: &str, tally: &mut Tally) -> f64 {
    if s.beyond(q) < 10 {
        tally.op::<()>(
            what,
            Err(format!(
                "only {} samples beyond p{}",
                s.beyond(q),
                q * 100.0
            )),
        );
    }
    s.quantile(q)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("jitbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(args)
}

/// The unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    match name.rsplit_once('_').map_or("", |(_, suffix)| suffix) {
        "ms" => "ms",
        "us" => "us",
        "s" => "1/s",
        "x" => "x",
        "overhead" => "%",
        "ratio" => "ratio",
        _ => "count",
    }
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jitbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_id = args.seed.rotate_left(32)
        ^ std::process::id() as u64
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    let mut tr = Tracer::new(args.trace, run_id);
    let mut tally = Tally::default();
    let (seed, secs) = (args.seed, args.seconds);
    let mut metrics = match args.workload.as_str() {
        "pow_jit" => {
            let mut m = jit::run(jit::Kind::Pow, seed, secs, &mut tr, &mut tally);
            if args.trace {
                let serve =
                    serve::layers(seed, SERVE_LAYER_SECONDS, &args.out, &mut tr, &mut tally);
                m.0.extend(serve.0);
            }
            m
        }
        "regex_fifo" => jit::run(jit::Kind::Regex, seed, secs, &mut tr, &mut tally),
        "grade_batch" => jit::run(jit::Kind::Grade, seed, secs, &mut tr, &mut tally),
        _ => serve::run(seed, secs, &args.out, &mut tr, &mut tally),
    };
    if !args.trace {
        metrics.push("peak_rss_mb", "MB", peak_rss_mb());
        for name in END_TO_END {
            if !metrics.0.iter().any(|(n, _, _)| *n == name) {
                tally.op::<()>(name, Err("metric not measured".into()));
            }
        }
    } else {
        for name in PER_LAYER {
            if !metrics.0.iter().any(|(n, _, _)| *n == name) {
                println!("{name}: layer not called by this workload");
                metrics.push(name, unit_of(name), 0.0);
            }
        }
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("jitbench: cannot create {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        let path = args
            .out
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("jitbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, n, total, own) in tr.summary() {
            println!("{name:<28} {n:>7} {total:>12.3} {own:>12.3}");
        }
        println!("spans written to {}", path.display());
    }
    let mut body = Vec::new();
    for (name, unit, value) in &metrics.0 {
        println!("{name:<40} {value:>16.6} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
