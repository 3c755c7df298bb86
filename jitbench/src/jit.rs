//! `pow_jit`, `regex_fifo` and `grade_batch`: one design in `Runtime`s,
//! measured in each execution mode separately, plus (regex, grade) the same
//! design driven in batch through `BatchHarness` lanes.
//!
//! The objects compared are interleaved round by round so host phases hit
//! each equally: a runtime promoted to `HardwareForwarded` through the
//! public API (never by host timing), a software twin built with
//! `auto_compile: false`, an editor runtime taking a stream of small evals,
//! and the batch calls. Every runtime sample is tagged with the mode it
//! ran in; a sample in any other mode is a failed operation. Runtimes are
//! replaced every [`ROTATE_ROUNDS`] rounds, so medians also average over
//! fresh objects, and each replacement is a timed set-up.

use crate::designs::{self, Miner, MinerCheck, Traffic, NW_CELL_WIDTH, NW_LEN};
use crate::ladder::Ladder;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{alloc, Metrics, Tally};
use cascade_bits::prng::Prng;
use cascade_bits::Bits;
use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_workloads::batch::{grade_corpus_batched, match_corpus_batched};
use cascade_workloads::needleman::nw_score;
use cascade_workloads::regex::Dfa;
use cascade_workloads::sha256::CYCLES_PER_ATTEMPT;
use std::time::{Duration, Instant};

/// The quantile rates are reported at: the rate nine samples in ten reach.
/// Other tenants of a shared host speed this code up in bursts (up to
/// 1.6×, seconds to minutes long) that move a median by a quarter from run
/// to run; the slower floor stays within a few percent.
pub const FLOOR: f64 = 0.1;
/// Rounds between runtime replacements.
const ROTATE_ROUNDS: u64 = 8;
/// Fresh constructions timed at each replacement (the last one is kept).
const SETUP_REPS: usize = 3;
/// Evals an editor takes before it is replaced, so the edited design's
/// size does not drift with the length of the run, and evals per round.
const EDITS_PER_EDITOR: u64 = 16;
const EDITS_PER_ROUND: usize = 2;
/// Ticks after the last byte of a FIFO sample for the matcher to drain it
/// (the read request lags `empty` by a cycle).
const DRAIN_TICKS: u64 = 4;
/// Lanes of the batch calls, and lane-widths of work per batch sample.
const LANES: u32 = 64;
const BATCH_CHUNKS: usize = 4;
/// Bytes per stream of the batched matcher.
const STREAM_BYTES: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pow,
    Regex,
    Grade,
}

/// The design under test and how to feed and check it.
struct Job {
    kind: Kind,
    seed: u64,
    miner: Miner,
    dfa: Dfa,
    /// The pair the runtime grader scores (grade only).
    pair: (Vec<u8>, Vec<u8>),
    src: String,
    /// A signal the editor's taps read.
    tap: &'static str,
    /// Ticks per runtime sample in software and hardware mode, sized to
    /// take about 20 ms each on a 2-core x86-64 host.
    sw_ticks: u64,
    hw_ticks: u64,
}

impl Job {
    fn new(kind: Kind, seed: u64) -> Job {
        let miner = Miner::from_seed(seed);
        let dfa = designs::dfa();
        let pair = designs::nw_corpus(seed ^ 0x9a1d, 1, NW_LEN).remove(0);
        let (src, tap, sw_ticks, hw_ticks) = match kind {
            Kind::Pow => (miner.cascade_source(), "nonce", 8_000, 4_000),
            Kind::Regex => (designs::matcher_cascade(&dfa), "match_count", 4_000, 4_000),
            // The grader finishes after 2n+1 ticks and then holds its
            // score, so its software ticks are cheap.
            Kind::Grade => (
                designs::grader_cascade(&pair.0, &pair.1),
                "score",
                16_000,
                4_000,
            ),
        };
        Job {
            kind,
            seed,
            miner,
            dfa,
            pair,
            src,
            tap,
            sw_ticks,
            hw_ticks,
        }
    }
}

/// Output check state of one runtime instance.
enum Check {
    Miner(MinerCheck),
    Regex { traffic: Traffic, fed: Vec<u8> },
    Grade { want: i64 },
}

struct Inst {
    rt: Runtime,
    board: Board,
    /// The source this instance evals.
    src: String,
    check: Check,
}

impl Inst {
    /// A fresh runtime for instance `serial`. Each pow instance mines its
    /// own data word, so a run's medians cover many netlists rather than
    /// the one its seed picks.
    fn new(job: &Job, config: JitConfig, serial: u64) -> Result<Inst, String> {
        let board = Board::new();
        board.set_fifo_capacity(1 << 16);
        let rt = Runtime::new(board.clone(), config).map_err(|e| e.to_string())?;
        let miner = Miner {
            data: job.miner.data ^ (serial as u32).wrapping_mul(0x9e37_79b9),
            ..job.miner.clone()
        };
        let src = match job.kind {
            Kind::Pow => miner.cascade_source(),
            _ => job.src.clone(),
        };
        let check = match job.kind {
            Kind::Pow => Check::Miner(miner.checker()),
            Kind::Regex => Check::Regex {
                traffic: Traffic::new(job.seed.wrapping_mul(1_000_003).wrapping_add(serial)),
                fed: Vec::new(),
            },
            Kind::Grade => Check::Grade {
                want: nw_score(&job.pair.0, &job.pair.1),
            },
        };
        Ok(Inst {
            rt,
            board,
            src,
            check,
        })
    }

    /// Runs one sample of `ticks` ticks, which must run wholly in `want`;
    /// returns the host seconds it took. Regex samples include pushing the
    /// sample's bytes into the board FIFO.
    fn sample(&mut self, ticks: u64, want: ExecMode, tr: &mut Tracer) -> Result<f64, String> {
        let before = self.rt.mode();
        let bytes = match &mut self.check {
            Check::Regex { traffic, .. } => traffic.bytes((ticks - DRAIN_TICKS) as usize),
            _ => Vec::new(),
        };
        let open = tr.begin(match want {
            ExecMode::Software => "core.run_ticks.sw",
            _ => "core.run_ticks.hw",
        });
        for &b in &bytes {
            self.board.fifo_push(Bits::from_u64(8, b as u64));
        }
        let ran = self.rt.run_ticks(ticks);
        let secs = tr.end(open);
        let ran = ran.map_err(|e| format!("run_ticks: {e}"))?;
        let after = self.rt.mode();
        if before != want || after != want {
            return Err(format!(
                "sample labelled {} ran in {} -> {}",
                want.name(),
                before.name(),
                after.name()
            ));
        }
        if ran != ticks {
            return Err(format!("ran {ran} of {ticks} ticks"));
        }
        tr.count(&format!("core.ticks.{}", want.name()), ticks);
        self.check_output(bytes)?;
        Ok(secs)
    }

    /// Checks what the last sample produced.
    fn check_output(&mut self, bytes: Vec<u8>) -> Result<(), String> {
        match &mut self.check {
            Check::Miner(c) => {
                let wrong = c.check(&self.rt.drain_output());
                if wrong > 0 {
                    return Err(format!("{wrong} wrong FOUND lines"));
                }
            }
            Check::Regex { fed, .. } => {
                fed.extend_from_slice(&bytes);
                if self.board.fifo_pops() != fed.len() as u64 {
                    return Err(format!(
                        "matcher consumed {} of {} bytes",
                        self.board.fifo_pops(),
                        fed.len()
                    ));
                }
            }
            Check::Grade { .. } => {}
        }
        Ok(())
    }

    /// The final check before an instance is dropped.
    fn retire(mut self, dfa: &Dfa) -> Result<(), String> {
        let probe = |rt: &mut Runtime, port: &str| rt.probe(port).map(|b| b.to_u64());
        match &self.check {
            Check::Regex { fed, .. } => {
                let want = dfa.count_matches(fed) & 0xffff_ffff;
                let got = probe(&mut self.rt, "match_count");
                if got != Some(want) {
                    return Err(format!("match_count {got:?}, want {want}"));
                }
            }
            Check::Grade { want } if self.rt.ticks() > 2 * NW_LEN as u64 + 2 => {
                let leds = self.board.leds().to_u64();
                let score = designs::sign_extend(leds & 0x7f, 7);
                if leds >> 7 != 1 || score != *want {
                    return Err(format!(
                        "LEDs {leds:#04x} in {}: want done and score {want}",
                        self.rt.mode().name()
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// A fresh default-configured runtime, eval'd and promoted. Returns the
/// instance with its set-up time (construction to first tick) and its time
/// to hardware (eval to first `HardwareForwarded` tick, with the modeled
/// toolchain latency fast-forwarded).
fn setup_rep(job: &Job, serial: u64, tr: &mut Tracer) -> Result<(Inst, f64, f64), String> {
    let t0 = Instant::now();
    let setup = tr.begin("core.setup");
    let inst = tr.time("core.runtime_new", || {
        Inst::new(job, JitConfig::default(), serial)
    });
    let mut inst = inst.0?;
    let t_eval = Instant::now();
    let evald = tr.time("core.eval", || inst.rt.eval(&inst.src)).0;
    evald.map_err(|e| format!("eval: {e}"))?;
    let ran = tr.time("core.first_tick", || inst.rt.run_ticks(1)).0;
    ran.map_err(|e| e.to_string())?;
    tr.end(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    if inst.rt.mode() != ExecMode::Software {
        return Err(format!("first tick ran in {}", inst.rt.mode().name()));
    }
    promote(&mut inst.rt, tr)?;
    let first_hw = t_eval.elapsed().as_secs_f64();
    inst.check_output(Vec::new())?;
    Ok((inst, setup_s, first_hw))
}

/// Drives a runtime to `HardwareForwarded` through the public API: wait
/// for the compile worker, fast-forward the modeled clock to the outcome,
/// and run one tick.
fn promote(rt: &mut Runtime, tr: &mut Tracer) -> Result<(), String> {
    let open = tr.begin("core.promote");
    tr.time("core.wait_compile", || rt.wait_for_compile_worker());
    let ready = rt.compile_ready_at().ok_or("no compile in flight")?;
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1e-9);
    let r = tr.time("core.first_hw_tick", || rt.run_ticks(1)).0;
    tr.end(open);
    r.map_err(|e| e.to_string())?;
    if rt.mode() != ExecMode::HardwareForwarded {
        let st = rt.stats();
        return Err(format!(
            "promotion left the runtime in {} (compile in flight {}, retries {}, \
             watchdog cancels {}, promotions {})",
            rt.mode().name(),
            st.compile_in_flight,
            st.compile_retries,
            st.compile_watchdog_cancels,
            st.hw_promotions
        ));
    }
    Ok(())
}

fn software_config() -> JitConfig {
    JitConfig {
        auto_compile: false,
        ..JitConfig::default()
    }
}

fn twin(job: &Job, serial: u64) -> Result<Inst, String> {
    let mut inst = Inst::new(job, software_config(), serial)?;
    inst.rt.eval(&inst.src).map_err(|e| format!("eval: {e}"))?;
    Ok(inst)
}

/// Runs one untimed sample so the open-loop controller has adapted before
/// anything is timed.
fn warm(inst: &mut Inst, ticks: u64, mode: ExecMode) -> Result<(), String> {
    inst.sample(ticks, mode, &mut Tracer::new(false, 0))
        .map(|_| ())
}

/// The editor of the eval stream: a software runtime taking small appended
/// items, half of them taps whose value `probe` checks.
struct Editor {
    rt: Runtime,
    edits: u64,
}

impl Editor {
    fn new(job: &Job) -> Result<Editor, String> {
        let mut rt = Runtime::new(Board::new(), software_config()).map_err(|e| e.to_string())?;
        rt.eval(&job.src).map_err(|e| format!("eval: {e}"))?;
        rt.run_ticks(64).map_err(|e| e.to_string())?;
        Ok(Editor { rt, edits: 0 })
    }

    /// One timed eval; returns its host seconds.
    fn edit(&mut self, job: &Job, rng: &mut Prng, tr: &mut Tracer) -> Result<f64, String> {
        let i = self.edits;
        self.edits += 1;
        let r = rng.next_u64() as u32;
        let tap = rng.chance(1, 2);
        let item = if tap {
            format!("wire [31:0] tap_{i} = {} ^ 32'h{r:08x};", job.tap)
        } else {
            format!("reg [7:0] note_{i} = 8'd{};", r & 0xff)
        };
        let (res, secs) = tr.time("core.eval_edit", || self.rt.eval(&item));
        res.map_err(|e| format!("eval `{item}`: {e}"))?;
        if self.rt.mode() != ExecMode::Software {
            return Err(format!("edit left the editor in {}", self.rt.mode().name()));
        }
        self.rt.run_ticks(16).map_err(|e| e.to_string())?;
        self.rt.drain_output();
        if tap {
            let base = self.rt.probe(job.tap).map(|b| b.to_u64());
            let got = self.rt.probe(&format!("tap_{i}")).map(|b| b.to_u64());
            if base.is_none() || got != base.map(|n| (n ^ r as u64) & 0xffff_ffff) {
                return Err(format!(
                    "tap_{i} = {got:?}, {} {base:?}, mask {r:#x}",
                    job.tap
                ));
            }
        }
        Ok(secs)
    }
}

/// Batched grading (grade) or matching (regex) of seeded corpora, each
/// sample checked against the software reference.
struct Batch {
    rng: Prng,
}

impl Batch {
    /// Runs one batch call over `vectors` inputs; returns its host seconds.
    fn sample(&mut self, job: &Job, vectors: usize, tr: &mut Tracer) -> Result<f64, String> {
        if job.kind == Kind::Grade {
            let pairs = designs::nw_corpus(self.rng.next_u64(), vectors, NW_LEN);
            let want: Vec<i64> = pairs.iter().map(|(a, b)| nw_score(a, b)).collect();
            let (got, secs) = tr.time("workloads.grade_corpus_batched", || {
                grade_corpus_batched(&pairs, NW_LEN, NW_CELL_WIDTH, LANES, 1)
            });
            let got = got?;
            if got != want {
                let bad = got.iter().zip(&want).filter(|(g, w)| g != w).count();
                return Err(format!("{bad} of {vectors} scores differ from nw_score"));
            }
            return Ok(secs);
        }
        let mut traffic = Traffic::new(self.rng.next_u64());
        let streams: Vec<Vec<u8>> = (0..vectors).map(|_| traffic.bytes(STREAM_BYTES)).collect();
        let want: Vec<u64> = streams.iter().map(|s| job.dfa.count_matches(s)).collect();
        let (got, secs) = tr.time("workloads.match_corpus_batched", || {
            match_corpus_batched(&job.dfa, &streams, LANES, 1)
        });
        if got? != want {
            return Err("match counts differ from count_matches".into());
        }
        Ok(secs)
    }
}

/// The per-sample records of one run.
#[derive(Default)]
struct Record {
    setup_s: Samples,
    first_hw_ms: Samples,
    sw_rate: Samples,
    hw_rate: Samples,
    eval_ms: Samples,
    /// Latency of every runtime sample (pow, regex) or batch call (grade).
    req_ms: Samples,
    vector_rate: Samples,
    /// Ticks per second over each round's two runtime samples.
    round_rate: Samples,
    /// Hardware sample seconds with the tracer on and off (traced runs
    /// alternate by round), for the tracing overhead.
    hw_on: Samples,
    hw_off: Samples,
}

pub fn run(kind: Kind, seed: u64, seconds: u64, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    let job = Job::new(kind, seed);
    if tr.enabled() {
        let mut m = layer_metrics(&job, tr, tally);
        let rec = measure(&job, seconds, tr, tally);
        m.push(
            "bench.trace_overhead",
            "%",
            overhead_pct(&rec.hw_on, &rec.hw_off),
        );
        return m;
    }
    let rec = measure(&job, seconds, tr, tally);
    let mut m = Metrics::default();
    m.push("setup_s", "s", rec.setup_s.median());
    m.push("eval_p50_ms", "ms", rec.eval_ms.median());
    m.push(
        "eval_p90_ms",
        "ms",
        crate::tail(&rec.eval_ms, 0.9, "eval p90", tally),
    );
    m.push("first_hw_ms", "ms", rec.first_hw_ms.median());
    m.push("sw_ticks_per_s", "1/s", rec.sw_rate.quantile(FLOOR));
    m.push("hw_ticks_per_s", "1/s", rec.hw_rate.quantile(FLOOR));
    m.push("ticks_per_s", "1/s", rec.round_rate.quantile(FLOOR));
    m.push("req_p50_ms", "ms", rec.req_ms.median());
    m.push(
        "req_p90_ms",
        "ms",
        crate::tail(&rec.req_ms, 0.9, "request p90", tally),
    );
    let vectors = match kind {
        // Nonce attempts per second in hardware mode.
        Kind::Pow => rec.hw_rate.quantile(FLOOR) / CYCLES_PER_ATTEMPT as f64,
        _ => rec.vector_rate.quantile(FLOOR),
    };
    m.push("vectors_per_s", "1/s", vectors);
    println!(
        "samples: setup {} first_hw {} sw {} hw {} eval {} req {} batch {}",
        rec.setup_s.len(),
        rec.first_hw_ms.len(),
        rec.sw_rate.len(),
        rec.hw_rate.len(),
        rec.eval_ms.len(),
        rec.req_ms.len(),
        rec.vector_rate.len()
    );
    for (name, r) in [("sw", &rec.sw_rate), ("hw", &rec.hw_rate)] {
        let q = |x| r.quantile(x) / 1e3;
        println!(
            "{name} ticks/s p10 {:.0}K p50 {:.0}K p90 {:.0}K",
            q(0.1),
            q(0.5),
            q(0.9)
        );
    }
    m
}

/// Tracing overhead in percent: traced sample time over untraced.
pub fn overhead_pct(on: &Samples, off: &Samples) -> f64 {
    (on.median() / off.median() - 1.0) * 100.0
}

fn measure(job: &Job, seconds: u64, tr: &mut Tracer, tally: &mut Tally) -> Record {
    let traced = tr.enabled();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rec = Record::default();
    let mut rng = Prng::new(job.seed ^ 0xed17_0000);
    let mut batch = Batch {
        rng: Prng::new(job.seed ^ 0xba7c_0000),
    };
    let mut serial = 0u64;
    let mut promoted: Option<Inst> = None;
    let mut sw: Option<Inst> = None;
    let mut editor: Option<Editor> = None;
    let mut round = 0u64;
    while Instant::now() < deadline {
        if round.is_multiple_of(ROTATE_ROUNDS) {
            tr.set_on(traced);
            for old in [promoted.take(), sw.take()].into_iter().flatten() {
                tally.op("final check", old.retire(&job.dfa));
            }
            for _ in 0..SETUP_REPS {
                serial += 1;
                if let Some((inst, setup_s, first_hw)) =
                    tally.op("set-up", setup_rep(job, serial, tr))
                {
                    if job.kind != Kind::Grade {
                        rec.setup_s.push(setup_s);
                    }
                    rec.first_hw_ms.push(first_hw * 1e3);
                    promoted = Some(inst);
                }
            }
            serial += 1;
            sw = tally.op("twin", twin(job, serial));
            if let Some(p) = promoted.as_mut() {
                tally.op(
                    "warm-up",
                    warm(p, job.hw_ticks, ExecMode::HardwareForwarded),
                );
            }
            if let Some(s) = sw.as_mut() {
                tally.op("warm-up", warm(s, job.sw_ticks, ExecMode::Software));
            }
        }
        let (Some(p), Some(s)) = (promoted.as_mut(), sw.as_mut()) else {
            tally.op::<()>("measurement", Err("no runtime to measure".into()));
            break;
        };
        // Traced runs alternate the tracer by round to measure its cost.
        let on = traced && round.is_multiple_of(2);
        tr.set_on(on);
        let (mut ticks_done, mut secs_done) = (0, 0.0);
        for leg in 0..2 {
            let (inst, ticks, mode) = if (round + leg).is_multiple_of(2) {
                (&mut *p, job.hw_ticks, ExecMode::HardwareForwarded)
            } else {
                (&mut *s, job.sw_ticks, ExecMode::Software)
            };
            let label = if mode == ExecMode::Software {
                "sw sample"
            } else {
                "hw sample"
            };
            let Some(secs) = tally.op(label, inst.sample(ticks, mode, tr)) else {
                continue;
            };
            ticks_done += ticks;
            secs_done += secs;
            if job.kind != Kind::Grade {
                rec.req_ms.push(secs * 1e3);
            }
            if mode == ExecMode::Software {
                rec.sw_rate.push(ticks as f64 / secs);
            } else {
                rec.hw_rate.push(ticks as f64 / secs);
                if on {
                    rec.hw_on.push(secs);
                } else {
                    rec.hw_off.push(secs);
                }
            }
        }
        if ticks_done > 0 {
            rec.round_rate.push(ticks_done as f64 / secs_done);
        }
        for _ in 0..EDITS_PER_ROUND {
            if editor.as_ref().is_none_or(|e| e.edits >= EDITS_PER_EDITOR) {
                editor = tally.op("editor", Editor::new(job));
            }
            if let Some(e) = editor.as_mut() {
                if let Some(secs) = tally.op("eval", e.edit(job, &mut rng, tr)) {
                    rec.eval_ms.push(secs * 1e3);
                }
            }
        }
        if job.kind == Kind::Grade {
            // Batch set-up: parse, elaborate, synthesize, build the harness
            // and grade one pair.
            if let Some(secs) = tally.op("batch set-up", batch.sample(job, 1, tr)) {
                rec.setup_s.push(secs);
            }
        }
        if job.kind != Kind::Pow {
            let n = LANES as usize * BATCH_CHUNKS;
            if let Some(secs) = tally.op("batch", batch.sample(job, n, tr)) {
                rec.vector_rate.push(n as f64 / secs);
                if job.kind == Kind::Grade {
                    rec.req_ms.push(secs * 1e3);
                }
            }
        }
        round += 1;
    }
    tr.set_on(traced);
    for old in [promoted, sw].into_iter().flatten() {
        tally.op("final check", old.retire(&job.dfa));
    }
    rec
}

/// The traced run's per-layer numbers for this design.
fn layer_metrics(job: &Job, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let (ported, top, inputs) = match job.kind {
        Kind::Pow => (job.miner.ported_source(), "Miner", Vec::new()),
        Kind::Regex => (designs::matcher_driven(&job.dfa), "Driven", Vec::new()),
        Kind::Grade => {
            let bits = NW_LEN as u32 * 2;
            let pack = cascade_workloads::needleman::pack_sequence;
            (
                cascade_workloads::needleman::grader_module(NW_LEN, NW_CELL_WIDTH),
                "NwGrader",
                vec![
                    ("seq_a", Bits::from_u64(bits, pack(&job.pair.0))),
                    ("seq_b", Bits::from_u64(bits, pack(&job.pair.1))),
                ],
            )
        }
    };
    let Some(lad) = tally.op("ladder", Ladder::build(&ported, top, inputs, tr)) else {
        return m;
    };
    lad.front_end_metrics(&mut m);

    // Runtime layer: promotions and their counters.
    let mut promotions = 0;
    let mut cancels = 0;
    let mut hits = 0;
    let mut promoted = None;
    let mut local = tr.fork("main");
    for serial in 0..4 {
        if let Some((inst, _, _)) = tally.op("set-up", setup_rep(job, 1000 + serial, &mut local)) {
            let st = inst.rt.stats();
            promotions += st.hw_promotions;
            cancels += st.compile_watchdog_cancels;
            hits += st.compile_cache_hits;
            promoted = Some(inst);
        }
    }
    if let Some(n) = tally.op("quick-scale watchdog probe", quick_scale_cancels(job)) {
        cancels += n;
    }
    m.push("core.promotions", "count", promotions as f64);
    m.push("core.watchdog_cancels", "count", cancels as f64);
    m.push("core.cache_hits", "count", hits as f64);
    m.push(
        "core.promote_ms",
        "ms",
        local.durations_ms("core.promote").median(),
    );
    let front_end_ms = lad.parse_ms + lad.elaborate_ms + lad.compile_ms;
    let eval_ms = local.durations_ms("core.eval").median();
    m.push("core.eval_glue_ms", "ms", eval_ms - front_end_ms);
    tr.join(local);

    let (Some(mut p), Some(mut s)) = (promoted, tally.op("twin", twin(job, 2000))) else {
        return m;
    };
    tally.op(
        "warm-up",
        warm(&mut p, job.hw_ticks, ExecMode::HardwareForwarded),
    );
    tally.op("warm-up", warm(&mut s, job.sw_ticks, ExecMode::Software));
    // Allocation counts repeat exactly: no other thread runs meanwhile.
    let quiet = &mut Tracer::new(false, 0);
    let (r, n) = alloc::count(|| s.sample(job.sw_ticks, ExecMode::Software, quiet));
    tally.op("alloc sample", r);
    m.push(
        "core.allocs_per_sw_tick",
        "count",
        n as f64 / job.sw_ticks as f64,
    );
    let (r, n) = alloc::count(|| p.sample(job.hw_ticks, ExecMode::HardwareForwarded, quiet));
    tally.op("alloc sample", r);
    m.push(
        "core.allocs_per_hw_tick",
        "count",
        n as f64 / job.hw_ticks as f64,
    );

    let mut sample = |mode: ExecMode, t: &mut Tracer| {
        let (inst, ticks) = match mode {
            ExecMode::Software => (&mut s, job.sw_ticks),
            _ => (&mut p, job.hw_ticks),
        };
        inst.sample(ticks, mode, t).map(|secs| ticks as f64 / secs)
    };
    let glue = lad.glue(tr, tally, job.sw_ticks, job.hw_ticks, &mut sample);
    if let Some(glue) = tally.op("engine comparison", glue) {
        Ladder::engine_metrics(&glue, &mut m);
    }
    for inst in [p, s] {
        tally.op("final check", inst.retire(&job.dfa));
    }
    m
}

/// Shows the scaled-watchdog defect as a count: with the compile clock
/// compressed to `1e-6` (the serve `quick` configuration), the modeled
/// 3600 s watchdog is 3.6 ms of modeled time, which a few hundred software
/// ticks pass while synthesis is still running on the host. The probe
/// reaches that deadline directly, right after the eval, on the miner in
/// every workload: its synthesis and toolchain run (~10 ms of host time)
/// outlast the gap by far, so the count repeats.
fn quick_scale_cancels(job: &Job) -> Result<u64, String> {
    let src = job.miner.cascade_source();
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    let deadline = config.compile_watchdog_s * config.toolchain.time_scale;
    let mut rt = Runtime::new(Board::new(), config).map_err(|e| e.to_string())?;
    rt.eval(&src).map_err(|e| e.to_string())?;
    rt.advance_wall(deadline * 1.5);
    rt.run_ticks(1).map_err(|e| e.to_string())?;
    let cancels = rt.stats().compile_watchdog_cancels;
    // The cancelled compile is retried; let that worker finish too.
    rt.wait_for_compile_worker();
    Ok(cancels)
}

/// The `pow_jit` per-layer numbers, for the serve workload's traced run:
/// its bulk tenants run the same miner.
pub fn miner_layers(seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    layer_metrics(&Job::new(Kind::Pow, seed), tr, tally)
}

/// A standalone miner runtime promoted to hardware, whose output is
/// checked like the workloads' own.
pub struct PromotedMiner(Inst);

impl PromotedMiner {
    pub fn new(seed: u64) -> Result<PromotedMiner, String> {
        let job = Job::new(Kind::Pow, seed);
        setup_rep(&job, 0, &mut Tracer::new(false, 0)).map(|(inst, _, _)| PromotedMiner(inst))
    }

    /// Runs `ticks` ticks in hardware; returns the host seconds taken.
    pub fn run(&mut self, ticks: u64) -> Result<f64, String> {
        let quiet = &mut Tracer::new(false, 0);
        self.0.sample(ticks, ExecMode::HardwareForwarded, quiet)
    }
}
