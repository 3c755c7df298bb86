//! The layers below the runtime, each timed through its public entry point
//! on a workload's standalone (ported) design: parse, elaborate, bytecode
//! compile, synthesis, the modeled toolchain, and the bare `CompiledSim`,
//! `NetlistSim` and `BatchHarness` engines.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Metrics, Tally};
use cascade_bits::Bits;
use cascade_core::ExecMode;
use cascade_fpga::{Device, Toolchain};
use cascade_netlist::{synthesize, BatchHarness, Netlist, NetlistSim};
use cascade_sim::{elaborate, library_from_source, CompiledSim, Design, SwProgram};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions of each front-end layer.
const FRONT_END_REPS: usize = 7;
/// How long the interleaved engine comparison runs.
const GLUE_TIME: Duration = Duration::from_secs(2);
/// Lanes of the wide batch.
const WIDE_LANES: u32 = 64;

pub struct Ladder {
    design: Arc<Design>,
    netlist: Arc<Netlist>,
    inputs: Vec<(String, Bits)>,
    pub parse_ms: f64,
    pub elaborate_ms: f64,
    pub compile_ms: f64,
    synth_ms: f64,
    toolchain_ms: f64,
}

/// Runs one runtime sample in the given mode; returns its rate.
pub type RuntimeSample<'a> = &'a mut dyn FnMut(ExecMode, &mut Tracer) -> Result<f64, String>;

/// Same-run engine rates, in cycles (or ticks) per host second.
#[derive(Default)]
pub struct Glue {
    sim: f64,
    sw: f64,
    netlist: f64,
    hw: f64,
    batch1: f64,
    batch_wide_vectors: f64,
}

fn median_ms(tr: &Tracer, name: &str) -> f64 {
    tr.durations_ms(name).median()
}

impl Ladder {
    /// Times the front end on `src` (top module `top`, clock port `clk`, with
    /// constant `inputs`) and keeps the artefacts for the engines.
    pub fn build(
        src: &str,
        top: &str,
        inputs: Vec<(&str, Bits)>,
        tr: &mut Tracer,
    ) -> Result<Ladder, String> {
        // The medians are of this ladder's own spans only.
        let mut local = tr.fork("ladder");
        let mut built = None;
        for _ in 0..FRONT_END_REPS {
            let unit = local
                .time("verilog.parse", || cascade_verilog::parse(src))
                .0;
            unit.map_err(|e| e.to_string())?;
            let lib = library_from_source(src).map_err(|e| e.to_string())?;
            let design = local
                .time("sim.elaborate", || {
                    elaborate(top, &lib, &Default::default())
                })
                .0
                .map_err(|e| e.to_string())?;
            let prog = local.time("sim.compile", || SwProgram::compile(&design)).0;
            let nl = local
                .time("netlist.synth", || synthesize(&design))
                .0
                .map_err(|e| e.to_string())?;
            let nl = Arc::new(nl);
            let toolchain = Toolchain::new(Device::cyclone_v());
            local
                .time("fpga.toolchain", || {
                    toolchain.compile_netlist(Arc::clone(&nl))
                })
                .0
                .map_err(|e| e.to_string())?;
            std::hint::black_box(&prog);
            built = Some((design, nl));
        }
        let (design, netlist) = built.expect("at least one repetition");
        let ladder = Ladder {
            design: Arc::new(design),
            netlist,
            inputs: inputs
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            parse_ms: median_ms(&local, "verilog.parse"),
            elaborate_ms: median_ms(&local, "sim.elaborate"),
            compile_ms: median_ms(&local, "sim.compile"),
            synth_ms: median_ms(&local, "netlist.synth"),
            toolchain_ms: median_ms(&local, "fpga.toolchain"),
        };
        tr.join(local);
        Ok(ladder)
    }

    pub fn front_end_metrics(&self, m: &mut Metrics) {
        m.push("verilog.parse_ms", "ms", self.parse_ms);
        m.push("sim.elaborate_ms", "ms", self.elaborate_ms);
        m.push("sim.compile_ms", "ms", self.compile_ms);
        m.push("netlist.synth_ms", "ms", self.synth_ms);
        m.push("fpga.toolchain_ms", "ms", self.toolchain_ms);
    }

    /// Interleaves the bare engines with the runtime's samples for
    /// [`GLUE_TIME`], and returns median rates. `runtime` runs one sample
    /// in the given mode and returns its rate.
    pub fn glue(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        sw_ticks: u64,
        hw_ticks: u64,
        runtime: RuntimeSample,
    ) -> Result<Glue, String> {
        let clk = self.design.var("clk").ok_or("no clk port")?;
        let mut sim = CompiledSim::new(Arc::clone(&self.design));
        sim.initialize().map_err(|e| e.to_string())?;
        for (port, v) in &self.inputs {
            sim.poke(port, v.clone());
        }
        sim.settle().map_err(|e| e.to_string())?;
        let mut nl = NetlistSim::new(Arc::clone(&self.netlist)).map_err(|e| e.to_string())?;
        let mut b1 = BatchHarness::new(Arc::clone(&self.netlist), 1).map_err(|e| e.to_string())?;
        let mut bw =
            BatchHarness::new(Arc::clone(&self.netlist), WIDE_LANES).map_err(|e| e.to_string())?;
        for (port, v) in &self.inputs {
            nl.set_by_name(port, v.clone());
            b1.set_all_by_name(port, v.clone());
            bw.set_all_by_name(port, v.clone());
        }
        let wide_cycles = (hw_ticks / 8).max(64);
        let mut rates: [Samples; 6] = Default::default();
        let deadline = Instant::now() + GLUE_TIME;
        let mut round = 0;
        while round < 3 || Instant::now() < deadline {
            let (n, secs) = tr.time("sim.tick_n", || {
                let mut done = 0;
                while done < sw_ticks {
                    match sim.tick_n(clk, sw_ticks - done) {
                        Ok(0) | Err(_) => break,
                        Ok(k) => done += k,
                    }
                    sim.drain_events();
                }
                done
            });
            rates[0].push(n as f64 / secs);
            let (n, secs) = tr.time("netlist.run_cycles", || {
                let n = nl.run_cycles(hw_ticks, usize::MAX);
                nl.drain_tasks();
                n
            });
            rates[2].push(n as f64 / secs);
            let (n, secs) = tr.time("netlist.batch1", || b1.run_cycles(hw_ticks));
            rates[4].push(n as f64 / secs);
            let (n, secs) = tr.time("netlist.batch_wide", || bw.run_cycles(wide_cycles));
            rates[5].push(n as f64 * WIDE_LANES as f64 / secs);
            for (i, mode) in [(1, ExecMode::Software), (3, ExecMode::HardwareForwarded)] {
                if let Some(rate) = tally.op("runtime sample", runtime(mode, tr)) {
                    rates[i].push(rate);
                }
            }
            round += 1;
        }
        let [sim, sw, netlist, hw, batch1, batch_wide_vectors] = rates.map(|s| s.median());
        Ok(Glue {
            sim,
            sw,
            netlist,
            hw,
            batch1,
            batch_wide_vectors,
        })
    }

    pub fn engine_metrics(glue: &Glue, m: &mut Metrics) {
        m.push("sim.cycles_per_s", "1/s", glue.sim);
        m.push("netlist.cycles_per_s", "1/s", glue.netlist);
        m.push("netlist.batch1_cycles_per_s", "1/s", glue.batch1);
        m.push(
            "netlist.batch64_vector_cycles_per_s",
            "1/s",
            glue.batch_wide_vectors,
        );
        m.push("core.sw_glue_x", "x", glue.sim / glue.sw);
        m.push("core.hw_glue_x", "x", glue.netlist / glue.hw);
    }
}
