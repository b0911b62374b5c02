//! dist-halo: Gauss–Seidel on measured cooperative ranks — few ranks with
//! large blocks (2×2 over 48³) and many ranks with small blocks (8×8 over
//! 32³). Each op is one `Compiled::run()`, bit-identical to single-rank
//! serial execution. The only workload that enters mpisim/distexec.

use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, Compiler, DegradationRung, DistProvenance, Target};

use crate::programs::{self, Expected, Family, Program, RefCache};
use crate::stats::{Block, Rng};
use crate::trace::Trace;
use crate::Workload;

/// (interior size, time steps, process grid).
const CASES: [(usize, usize, [i64; 2]); 2] = [(48, 4, [2, 2]), (32, 4, [8, 8])];
/// Runs of each case per block.
const REPEATS: usize = 20;

pub struct DistHalo {
    programs: Vec<Program>,
    /// Single-rank serial outputs (bit-identity) and the GS reference.
    serial: Vec<Expected>,
    reference: Vec<Expected>,
    workers: usize,
    compiled: Vec<Compiled>,
    order: Vec<usize>,
}

impl DistHalo {
    pub fn new(seed: u64, workers: usize, refs: &RefCache) -> Result<DistHalo, String> {
        let programs: Vec<Program> = CASES
            .iter()
            .map(|&(n, steps, _)| Program::new(Family::Gs, n, steps, ""))
            .collect();
        let mut serial = Vec::new();
        for p in &programs {
            let exec = Compiler::run(&p.source, &CompileOptions::for_target(Target::StencilCpu))
                .map_err(|e| format!("{}: serial run failed: {}", p.label(), e.message))?;
            serial.push(Expected::Exact(programs::outputs_of(p, &exec)?));
        }
        let reference = programs
            .iter()
            .map(|p| programs::reference(p, refs))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..programs.len())
            .flat_map(|i| std::iter::repeat_n(i, REPEATS))
            .collect();
        Rng::new(seed).shuffle(&mut order);
        Ok(DistHalo {
            programs,
            serial,
            reference,
            workers,
            compiled: Vec::new(),
            order,
        })
    }

    fn options(&self, case: usize) -> CompileOptions {
        CompileOptions {
            dist_workers: self.workers,
            ..CompileOptions::for_target(Target::StencilDistributed {
                grid: CASES[case].2.to_vec(),
            })
        }
    }

    fn label(&self, case: usize) -> String {
        let g = CASES[case].2;
        format!("{} on {}x{} ranks", self.programs[case].label(), g[0], g[1])
    }

    /// Compile every program with the jit cache purged and run each once,
    /// checked; returns each one's wall time for both, and the programs.
    fn compile_all(&self) -> Result<(Vec<f64>, Vec<Compiled>), String> {
        fsc_exec::jit::shared_cache().purge();
        let runs = (0..self.programs.len())
            .map(|i| self.compile_and_run(i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(runs.into_iter().unzip())
    }

    /// Compile case `i` and run it once, checked; returns the wall time of
    /// both and the compiled program.
    fn compile_and_run(&self, i: usize) -> Result<(f64, Compiled), String> {
        let t0 = Instant::now();
        let compiled = Compiler::compile(&self.programs[i].source, &self.options(i))
            .map_err(|e| format!("{}: compile failed: {}", self.label(i), e.message))?;
        let exec = compiled
            .run()
            .map_err(|e| format!("{}: first run failed: {}", self.label(i), e.message))?;
        let seconds = t0.elapsed().as_secs_f64();
        self.check(i, &exec)?;
        Ok((seconds, compiled))
    }

    /// Check what a run of case `i` attests and computes.
    fn check(&self, i: usize, exec: &fsc_core::Execution) -> Result<(), String> {
        let r = &exec.report;
        let d = r
            .distributed
            .as_ref()
            .ok_or_else(|| format!("{}: no distributed report", self.label(i)))?;
        if r.degradation.ran != DegradationRung::Stencil
            || d.provenance != Some(DistProvenance::Measured)
            || d.modeled_dispatches != 0
            || d.dispatches == 0
        {
            return Err(format!(
                "{}: expected measured ranks on the full stencil rung, got rung '{}', \
                 provenance {:?}, {} measured and {} modeled dispatches",
                self.label(i),
                r.degradation.ran.describe(),
                d.provenance.map(DistProvenance::as_str),
                d.dispatches,
                d.modeled_dispatches
            ));
        }
        let p = &self.programs[i];
        programs::check(p, &self.serial[i], |name| exec.array(name))?;
        programs::check(p, &self.reference[i], |name| exec.array(name))
    }
}

impl Workload for DistHalo {
    fn sources(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.source.as_str()).collect()
    }

    fn threads(&self) -> String {
        format!(
            "{} coop scheduler workers for {} and {} ranks",
            self.workers,
            CASES[0].2.iter().product::<i64>(),
            CASES[1].2.iter().product::<i64>()
        )
    }

    /// Rank wait plus everything outside rank compute and packing: host
    /// time, dispatch set-up, and idle time within the makespan.
    fn named_layer(&self) -> &'static [&'static str] {
        &["exec.run", "exec.kernel", "dist.makespan", "dist.wait"]
    }

    /// The distributed compiles, each followed by its first run.
    fn setup(&mut self) -> Result<Vec<f64>, String> {
        let (cold, compiled) = self.compile_all()?;
        self.compiled = compiled;
        Ok(cold)
    }

    fn cold_probe(&mut self) -> Option<Result<Vec<f64>, String>> {
        Some(self.compile_all().map(|(cold, _)| cold))
    }

    fn block(&mut self, trace: &mut Trace) -> Block {
        let mut block = Block::default();
        for &i in &self.order {
            let t0 = Instant::now();
            let op = trace.begin_op("op");
            let span = trace.begin("exec.run");
            let exec = self.compiled[i].run();
            trace.end(span);
            trace.end(op);
            let wall = t0.elapsed().as_secs_f64();
            let outcome = exec
                .map_err(|e| format!("{}: run failed: {}", self.label(i), e.message))
                .and_then(|exec| {
                    self.check(i, &exec)?;
                    if trace.enabled() {
                        let r = &exec.report;
                        let d = r.distributed.as_ref().expect("checked above");
                        let ranks = d.ranks.max(1) as f64;
                        let kernel =
                            trace.derived(span, "exec.kernel", r.kernel_wall.as_secs_f64());
                        let makespan = trace.derived(kernel, "dist.makespan", d.measured_seconds);
                        trace.derived(
                            makespan,
                            "dist.compute",
                            (d.interior_seconds + d.boundary_seconds) / ranks,
                        );
                        trace.derived(makespan, "dist.pack", d.pack_seconds / ranks);
                        trace.derived(makespan, "dist.wait", d.wait_seconds / ranks);
                        block.add("halo_messages", d.logical_messages as f64);
                        block.add("halo_bytes", d.logical_bytes as f64);
                        block.add("physical_messages", d.physical_messages as f64);
                        block.add("exchange_rounds", d.exchange_rounds as f64);
                        block.add("steals", d.steals as f64);
                        block.add("parks", d.parks as f64);
                        block.add("modeled_dispatches", d.modeled_dispatches as f64);
                        block.add("interp_ops", r.interp.ops as f64);
                        block.add("kernel_cells", r.kernel_cells as f64);
                        block.add("computed_bytes", self.programs[i].computed_bytes() as f64);
                        block.add("cells", self.programs[i].cells() as f64);
                    }
                    Ok(())
                });
            block.cells += self.programs[i].cells();
            block.latency.push(wall);
            block.record(wall, outcome);
        }
        block
    }
}
