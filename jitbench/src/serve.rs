//! `serve_mixed`: an in-process `Server` with 16 sessions on 2 fabrics,
//! the durable journal and hibernation on, driven by two load threads (no
//! more than a 2-core host has):
//!
//! - bulk: 8 miner tenants sharing one source (compile dedup, bitstream
//!   cache, lease arbitration) kept busy by closed-loop `run` bursts, each
//!   followed by a `drain` whose `FOUND` lines are checked and a short
//!   pause;
//! - interactive: 8 counter tenants on a fixed open-loop schedule of
//!   `eval` edit → `wait_compile` → short `run` → `probe` (checked against
//!   the closed form) → `drain`. Four tenants come round three times as
//!   often as the other four, which idle past the hibernation threshold,
//!   so wake-up is on the measured path.
//!
//! Modeled compile latency is not compressed, so every promotion goes
//! through `wait_compile`, never through host timing.

use crate::designs::{Miner, MinerCheck};
use crate::jit::{self, PromotedMiner, FLOOR};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{alloc, Metrics, Tally};
use cascade_bits::prng::Prng;
use cascade_serve::{EvalResult, InProcClient, Json, Request, ServeConfig, Server};
use cascade_workloads::sha256::CYCLES_PER_ATTEMPT;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BULK: usize = 8;
const INTERACTIVE: usize = 8;
/// Ticks per bulk `run` burst.
const BULK_TICKS: u64 = 2_000;
/// Pause of the bulk client after each burst. Without it the bulk path
/// keeps one of two cores busy all the time, and interactive latency
/// mostly measures how the host preempts that core (a 15% slower host
/// doubled it); with it, it measures the mix.
const BULK_THINK: Duration = Duration::from_millis(10);
/// Ticks per interactive `run`.
const SHORT_TICKS: u64 = 200;
/// One interactive interaction is due every `SLOT`; a cycle of 16 slots
/// visits tenants 0-3 three times each and tenants 4-7 once.
const SLOT: Duration = Duration::from_millis(60);
const CYCLE: [usize; 16] = [0, 1, 2, 3, 4, 0, 1, 2, 3, 5, 0, 1, 2, 3, 6, 7];
/// Edits a tenant's session takes before it is closed and reopened with
/// the base design, so designs (and wake-up replays) stay the same size
/// however long the run is.
const EDITS_PER_SESSION: u64 = 8;
/// Idle seconds after which a session hibernates: longer than the hot
/// tenants' revisit time (4 slots), shorter than the cold tenants' (16).
const HIBERNATE_AFTER_S: f64 = 0.5;
/// Fresh servers timed for `setup_s`, and promotions timed on each for
/// `first_hw_ms`.
const SETUP_REPS: usize = 10;
const PROMOTIONS_PER_REP: u64 = 2;
/// Width of the windows `ticks_per_s` takes its median over.
const WINDOW: Duration = Duration::from_millis(500);

fn config(dir: &Path, hibernate: bool) -> ServeConfig {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    ServeConfig {
        fabrics: 2,
        workers,
        hibernate_after_s: if hibernate { HIBERNATE_AFTER_S } else { 0.0 },
        durable_dir: Some(dir.join("durable").to_string_lossy().into_owned()),
        hibernate_spill_dir: Some(dir.join("spill").to_string_lossy().into_owned()),
        ..ServeConfig::default()
    }
}

fn counter_source(tenant: usize) -> String {
    format!(
        "reg [31:0] cnt = 0;\nalways @(posedge clk.val) cnt <= cnt + 32'd{};",
        step(tenant)
    )
}

fn step(tenant: usize) -> u64 {
    3 + 2 * tenant as u64
}

fn eval_ok(c: &mut InProcClient, src: &str) -> Result<(), String> {
    match c.eval(src)? {
        EvalResult::Evaluated(_) => Ok(()),
        other => Err(format!("eval: {other:?}")),
    }
}

/// A server with its 16 sessions, eval'd and run one tick each.
struct Fleet {
    server: Arc<Server>,
    bulk: Vec<InProcClient>,
    interactive: Vec<InProcClient>,
    dir: PathBuf,
}

impl Fleet {
    fn open(dir: PathBuf, miner: &Miner, tr: &mut Tracer) -> Result<Fleet, String> {
        let server = tr
            .time("serve.server_new", || Server::new(config(&dir, true)))
            .0;
        let mut fleet = Fleet {
            bulk: Vec::new(),
            interactive: Vec::new(),
            server,
            dir,
        };
        let src = miner.cascade_source();
        for i in 0..BULK + INTERACTIVE {
            let mut c = InProcClient::connect(&fleet.server);
            tr.time("serve.open", || c.open()).0?;
            let src = if i < BULK {
                src.clone()
            } else {
                counter_source(i - BULK)
            };
            tr.time("serve.eval", || eval_ok(&mut c, &src)).0?;
            if i < BULK {
                fleet.bulk.push(c);
            } else {
                fleet.interactive.push(c);
            }
        }
        for c in fleet.bulk.iter_mut().chain(fleet.interactive.iter_mut()) {
            let r = tr.time("serve.run", || c.run(1)).0?;
            if r.ticks != 1 || r.backpressure {
                return Err(format!("first run: {r:?}"));
            }
        }
        Ok(fleet)
    }

    fn close(self) {
        drop(self.bulk);
        drop(self.interactive);
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One set-up repetition: a fresh server with its sessions (`setup_s`),
/// then extra sessions, one at a time, each with a miner of its own source
/// promoted through `wait_compile` (`first_hw_ms`: eval to the first run
/// in hardware) and closed again.
fn setup_rep(
    dir: PathBuf,
    miner: &Miner,
    rep: u64,
    tr: &mut Tracer,
) -> Result<(Fleet, f64, Vec<f64>), String> {
    let t0 = Instant::now();
    let open = tr.begin("serve.setup");
    let fleet = Fleet::open(dir, miner, tr);
    tr.end(open);
    let fleet = fleet?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut first_hw = Vec::new();
    for k in 0..PROMOTIONS_PER_REP {
        let own = Miner {
            data: miner.data ^ (rep * PROMOTIONS_PER_REP + k + 1).wrapping_mul(0x9e37_79b9) as u32,
            ..miner.clone()
        };
        let mut c = InProcClient::connect(&fleet.server);
        c.open()?;
        let t1 = Instant::now();
        let open = tr.begin("serve.first_hw");
        let r = tr
            .time("serve.eval", || eval_ok(&mut c, &own.cascade_source()))
            .0;
        let r = r.and_then(|_| tr.time("serve.wait_compile", || c.wait_compile()).0);
        let r = r.and_then(|_| tr.time("serve.run", || c.run(1)).0);
        tr.end(open);
        let r = r?;
        first_hw.push(t1.elapsed().as_secs_f64());
        if r.mode != "hardware_forwarded" {
            return Err(format!("first hardware run ran in {}", r.mode));
        }
        c.close()?;
    }
    Ok((fleet, setup_s, first_hw))
}

#[derive(Default)]
struct BulkRecord {
    sw_rate: Samples,
    hw_rate: Samples,
    window_rate: Samples,
    on: Samples,
    off: Samples,
}

fn bulk_load(
    clients: &mut [InProcClient],
    miner: &Miner,
    deadline: Instant,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> BulkRecord {
    let traced = tr.enabled();
    let mut rec = BulkRecord::default();
    let mut checks: Vec<MinerCheck> = clients.iter().map(|_| miner.checker()).collect();
    let mut modes: Vec<String> = Vec::new();
    for c in clients.iter_mut() {
        let r = tally.op("bulk wait_compile", c.wait_compile());
        let mode = r
            .as_ref()
            .and_then(|j| j.get("mode"))
            .and_then(Json::as_str);
        modes.push(mode.unwrap_or("").to_string());
    }
    let mut window = (Instant::now(), 0u64);
    let mut n = 0usize;
    while Instant::now() < deadline {
        let t = n % clients.len();
        let on = traced && (n / clients.len()).is_multiple_of(2);
        tr.set_on(on);
        let c = &mut clients[t];
        let (r, secs) = tr.time("serve.bulk_run", || c.run(BULK_TICKS));
        n += 1;
        let Some(r) = tally.op("bulk run", r) else {
            continue;
        };
        if r.backpressure || r.ticks != BULK_TICKS {
            tally.op::<()>("bulk run", Err(format!("reply {r:?}")));
            continue;
        }
        if modes[t] == r.mode {
            let rate = BULK_TICKS as f64 / secs;
            match r.mode.as_str() {
                "software" => rec.sw_rate.push(rate),
                "hardware_forwarded" => rec.hw_rate.push(rate),
                _ => {}
            }
        }
        if on {
            rec.on.push(secs);
        } else {
            rec.off.push(secs);
        }
        modes[t] = r.mode;
        std::thread::sleep(BULK_THINK);
        window.1 += BULK_TICKS;
        let span = window.0.elapsed();
        if span >= WINDOW {
            rec.window_rate.push(window.1 as f64 / span.as_secs_f64());
            window = (Instant::now(), 0);
        }
        let drained = tr.time("serve.bulk_drain", || c.drain()).0;
        if let Some((lines, dropped)) = tally.op("bulk drain", drained) {
            let wrong = checks[t].check(&lines);
            if wrong > 0 || dropped > 0 {
                tally.op::<()>(
                    "bulk output",
                    Err(format!("{wrong} wrong, {dropped} dropped")),
                );
            }
        }
    }
    tr.set_on(traced);
    rec
}

#[derive(Default)]
struct InteractiveRecord {
    req_ms: Samples,
    eval_ms: Samples,
    late_ms: f64,
}

/// One interaction: edit, compile, run, check, drain.
fn interact(
    c: &mut InProcClient,
    tenant: usize,
    edit: u64,
    mask: u32,
    ticks: &mut u64,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let item = format!("wire [31:0] e{edit} = cnt ^ 32'h{mask:08x};");
    let (r, eval_s) = tr.time("serve.eval", || eval_ok(c, &item));
    r?;
    tr.time("serve.wait_compile", || c.wait_compile()).0?;
    let r = tr.time("serve.run", || c.run(SHORT_TICKS)).0?;
    if r.backpressure || r.ticks != SHORT_TICKS {
        return Err(format!("run reply {r:?}"));
    }
    *ticks += r.ticks;
    let got = tr.time("serve.probe", || c.probe("cnt")).0?;
    let want = step(tenant).wrapping_mul(*ticks) & 0xffff_ffff;
    if got != Some(want) {
        return Err(format!("tenant {tenant}: cnt {got:?}, want {want}"));
    }
    let (_, dropped) = tr.time("serve.drain", || c.drain()).0?;
    if dropped > 0 {
        return Err(format!("{dropped} output lines dropped"));
    }
    Ok(eval_s)
}

/// Replaces a tenant's session with a fresh one running the base design.
fn reopen(c: &mut InProcClient, tenant: usize) -> Result<(), String> {
    c.close()?;
    c.open()?;
    eval_ok(c, &counter_source(tenant))
}

fn interactive_load(
    clients: &mut [InProcClient],
    seed: u64,
    deadline: Instant,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> InteractiveRecord {
    let mut rec = InteractiveRecord::default();
    let mut rng = Prng::new(seed ^ 0x1a7e_0000);
    let mut ticks = vec![1u64; clients.len()];
    let mut edits = vec![0u64; clients.len()];
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + SLOT * k;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        rec.late_ms = rec.late_ms.max(late);
        let t = CYCLE[k as usize % CYCLE.len()];
        let mask = rng.next_u64() as u32;
        let open = tr.begin("serve.interaction");
        let mut r = Ok(());
        if edits[t] == EDITS_PER_SESSION {
            r = tr.time("serve.reopen", || reopen(&mut clients[t], t)).0;
            (edits[t], ticks[t]) = (0, 0);
        }
        edits[t] += 1;
        let r = r.and_then(|_| interact(&mut clients[t], t, edits[t], mask, &mut ticks[t], tr));
        tr.end(open);
        if let Some(eval_s) = tally.op("interaction", r) {
            rec.eval_ms.push(eval_s * 1e3);
            rec.req_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
    }
    rec
}

/// One loaded run: the set-up samples, both load threads' records, and
/// the server they ran against.
struct Mix {
    setup: Samples,
    first_hw: Samples,
    bulk: BulkRecord,
    inter: InteractiveRecord,
    fleet: Fleet,
    base: PathBuf,
}

impl Mix {
    fn close(self) {
        self.fleet.close();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// Times the set-ups, then runs both load threads for `seconds`.
fn mix(seed: u64, seconds: u64, out: &Path, tr: &mut Tracer, tally: &mut Tally) -> Option<Mix> {
    let miner = Miner::from_seed(seed);
    let base = out.join(format!("serve-{}", std::process::id()));
    let mut setup = Samples::default();
    let mut first_hw = Samples::default();
    let mut fleet = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some(f) = fleet.take() {
            Fleet::close(f);
        }
        let dir = base.join(format!("rep{rep}"));
        if let Some((f, s, hw)) = tally.op("set-up", setup_rep(dir, &miner, rep, tr)) {
            setup.push(s);
            for h in hw {
                first_hw.push(h * 1e3);
            }
            fleet = Some(f);
        }
    }
    let Some(mut fleet) = fleet else {
        let _ = std::fs::remove_dir_all(&base);
        return None;
    };

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut bulk_tr = tr.fork("bulk");
    let mut inter_tr = tr.fork("interactive");
    let mut bulk_tally = Tally::default();
    let mut inter_tally = Tally::default();
    let (bulk, inter) = std::thread::scope(|s| {
        let b = s.spawn(|| {
            bulk_load(
                &mut fleet.bulk,
                &miner,
                deadline,
                &mut bulk_tr,
                &mut bulk_tally,
            )
        });
        let i = s.spawn(|| {
            interactive_load(
                &mut fleet.interactive,
                seed,
                deadline,
                &mut inter_tr,
                &mut inter_tally,
            )
        });
        (
            b.join().expect("bulk load thread"),
            i.join().expect("interactive load thread"),
        )
    });
    for t in [bulk_tally, inter_tally] {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    tr.join(bulk_tr);
    tr.join(inter_tr);
    println!(
        "samples: setup {} first_hw {} sw {} hw {} windows {} interactions {}; \
         interactive generator ran up to {:.1} ms late",
        setup.len(),
        first_hw.len(),
        bulk.sw_rate.len(),
        bulk.hw_rate.len(),
        bulk.window_rate.len(),
        inter.req_ms.len(),
        inter.late_ms
    );
    Some(Mix {
        setup,
        first_hw,
        bulk,
        inter,
        fleet,
        base,
    })
}

/// The `serve_mixed` workload. Its traced run adds the serve layer to the
/// miner's per-layer numbers.
pub fn run(seed: u64, seconds: u64, out: &Path, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    if tr.enabled() {
        m = jit::miner_layers(seed, tr, tally);
    }
    let Some(mut x) = mix(seed, seconds, out, tr, tally) else {
        return m;
    };
    if tr.enabled() {
        server_layers(&mut x.fleet, seed, &x.base, tally, &mut m);
        let overhead = jit::overhead_pct(&x.bulk.on, &x.bulk.off);
        m.push("bench.trace_overhead", "%", overhead);
    } else {
        let (bulk, inter) = (&x.bulk, &x.inter);
        m.push("setup_s", "s", x.setup.median());
        m.push("eval_p50_ms", "ms", inter.eval_ms.median());
        m.push(
            "eval_p90_ms",
            "ms",
            crate::tail(&inter.eval_ms, 0.9, "eval p90", tally),
        );
        m.push("first_hw_ms", "ms", x.first_hw.median());
        m.push("sw_ticks_per_s", "1/s", bulk.sw_rate.quantile(FLOOR));
        m.push("hw_ticks_per_s", "1/s", bulk.hw_rate.quantile(FLOOR));
        m.push("ticks_per_s", "1/s", bulk.window_rate.quantile(FLOOR));
        m.push("req_p50_ms", "ms", inter.req_ms.median());
        m.push(
            "req_p90_ms",
            "ms",
            crate::tail(&inter.req_ms, 0.9, "request p90", tally),
        );
        // Nonce attempts per second across the bulk tenants.
        let attempts = bulk.window_rate.quantile(FLOOR) / CYCLES_PER_ATTEMPT as f64;
        m.push("vectors_per_s", "1/s", attempts);
    }
    x.close();
    m
}

/// The serve layer's per-layer numbers from a mix of `seconds`, for the
/// traced run of `pow_jit`, whose miner the bulk tenants run.
pub fn layers(seed: u64, seconds: u64, out: &Path, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    if let Some(mut x) = mix(seed, seconds, out, tr, tally) {
        server_layers(&mut x.fleet, seed, &x.base, tally, &mut m);
        x.close();
    }
    m
}

/// The request phases the server attributes wall time to, with the
/// metric each one's mean is reported as.
const PHASES: [(&str, &str); 7] = [
    ("queue", "serve.phase.queue_mean_ms"),
    ("wake", "serve.phase.wake_mean_ms"),
    ("compile", "serve.phase.compile_mean_ms"),
    ("eval_sw", "serve.phase.eval_sw_mean_ms"),
    ("eval_hw", "serve.phase.eval_hw_mean_ms"),
    ("flush", "serve.phase.flush_mean_ms"),
    ("journal", "serve.phase.journal_mean_ms"),
];

/// Sums every sample of one metric family in a Prometheus exposition.
fn exposed(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with([' ', '{']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The server layer's numbers: counters and phase means from the loaded
/// server, then codec, run overhead and allocations on a quiet one.
fn server_layers(fleet: &mut Fleet, seed: u64, base: &Path, tally: &mut Tally, m: &mut Metrics) {
    let c = &mut fleet.interactive[0];
    if let Some(text) = tally.op("server metrics", c.server_metrics()) {
        for (p, name) in PHASES {
            let sum = exposed(&text, &format!("serve_phase_{p}_seconds_sum"));
            let count = exposed(&text, &format!("serve_phase_{p}_seconds_count"));
            m.push(
                name,
                "ms",
                if count > 0.0 { sum / count * 1e3 } else { 0.0 },
            );
        }
        m.push(
            "serve.promotions",
            "count",
            exposed(&text, "jit_hw_promotions_total"),
        );
    }
    if let Some(stats) = tally.op("server stats", c.server_stats()) {
        let get = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        m.push("serve.steals", "count", get("steals"));
        m.push("serve.revocations", "count", get("fabric_revocations"));
        m.push(
            "serve.revocations_suppressed",
            "count",
            get("fabric_revocations_suppressed"),
        );
        m.push("serve.hibernations", "count", get("hibernates"));
        m.push("serve.wakes", "count", get("wakes"));
        m.push("serve.dedup_joins", "count", get("compiles_coalesced"));
        let lookups = get("cache_hits") + get("cache_misses");
        let ratio = if lookups > 0.0 {
            get("cache_hits") / lookups
        } else {
            0.0
        };
        m.push("serve.bitstream_hit_ratio", "ratio", ratio);
        m.push("serve.output_dropped", "count", get("output_dropped"));
    }
    // Codec: the same request through the wire path and the typed path.
    let probe = |id: u64| Request::Probe {
        session: id,
        port: "cnt".to_string(),
    };
    if let Some(id) = tally.op(
        "session id",
        c.stats().map(|s| s.get("session").and_then(Json::as_u64)),
    ) {
        let id = id.unwrap_or(0);
        let line = probe(id).to_line();
        let (mut wire, mut typed) = (Samples::default(), Samples::default());
        for _ in 0..200 {
            let t = Instant::now();
            std::hint::black_box(fleet.server.handle_line(&line));
            wire.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let req = Request::parse(&line);
            let _ = std::hint::black_box(req.map(|r| fleet.server.request(r)));
            typed.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.push("serve.codec_us", "us", wire.median() - typed.median());
    }
    quiet_server_layers(seed, base, tally, m);
}

/// Run overhead and allocations per request on a quiet one-session server
/// (hibernation off), against a standalone runtime of the same miner.
fn quiet_server_layers(seed: u64, base: &Path, tally: &mut Tally, m: &mut Metrics) {
    let miner = Miner::from_seed(seed);
    let dir = base.join("quiet");
    // With one session the sweeper has nothing to do; keeping it asleep
    // keeps its allocations out of the count.
    let server = Server::new(ServeConfig {
        sweeper_poll_ms: 3_600_000,
        ..config(&dir, false)
    });
    let mut c = InProcClient::connect(&server);
    let ready = c
        .open()
        .and_then(|_| eval_ok(&mut c, &miner.cascade_source()));
    let ready = ready.and_then(|_| c.wait_compile()).and_then(|_| c.run(1));
    let standalone = PromotedMiner::new(seed);
    if let (Some(r), Some(mut alone)) = (
        tally.op("quiet server", ready),
        tally.op("standalone", standalone),
    ) {
        if r.mode != "hardware_forwarded" {
            tally.op::<()>("quiet server", Err(format!("promoted to {}", r.mode)));
        }
        let mut check = miner.checker();
        let (mut served, mut direct) = (Samples::default(), Samples::default());
        for _ in 0..40 {
            let t = Instant::now();
            let r = c.run(BULK_TICKS);
            served.push(t.elapsed().as_secs_f64() * 1e3);
            tally.op("quiet run", r.map(|_| ()));
            if let Some((lines, _)) = tally.op("quiet drain", c.drain()) {
                let wrong = check.check(&lines);
                if wrong > 0 {
                    tally.op::<()>("quiet output", Err(format!("{wrong} wrong")));
                }
            }
            if let Some(secs) = tally.op("standalone run", alone.run(BULK_TICKS)) {
                direct.push(secs * 1e3);
            }
        }
        m.push(
            "serve.run_overhead_ms",
            "ms",
            served.median() - direct.median(),
        );
        // A fixed mix of four requests, counted per window. A reply
        // channel allocates when the client blocks before the reply is
        // sent, which depends on thread timing; the fewest allocations
        // over many windows is the count without that race, and repeats.
        let mut fewest = u64::MAX;
        for _ in 0..40 {
            let (r, n) = alloc::count(|| -> Result<(), String> {
                c.probe("nonce")?;
                c.run(100)?;
                c.drain()?;
                c.stats().map(|_| ())
            });
            if tally.op("alloc requests", r).is_some() {
                fewest = fewest.min(n);
            }
        }
        m.push("serve.allocs_per_request", "count", fewest as f64 / 4.0);
    }
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
