//! run-steady: the five families, compiled once during set-up, each op one
//! `Compiled::run()` at an in-cache size on single-core `StencilCpu`.
//! Kernels do almost all the work; nothing is compiled in an op.

use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, Compiler, DegradationRung, Execution, Target};

use crate::compile_cold::count_nests;
use crate::programs::{self, Expected, Family, Program, RefCache};
use crate::stats::{Block, Rng};
use crate::trace::Trace;
use crate::Workload;

/// Interior size: every family's arrays fit in a 2 MiB L2 cache, so
/// the workload measures kernels rather than the shared last-level cache.
const N: usize = 32;
/// Runs of each program per block.
const REPEATS: usize = 12;

/// Time steps per family, chosen so kernels take at least 75% of a run.
fn steps(family: Family) -> usize {
    match family {
        Family::Pw => 24,
        _ => 48,
    }
}

pub struct RunSteady {
    programs: Vec<Program>,
    expected: Vec<Expected>,
    compiled: Vec<Compiled>,
    order: Vec<usize>,
}

impl RunSteady {
    pub fn new(seed: u64, refs: &RefCache) -> Result<RunSteady, String> {
        let programs: Vec<Program> = Family::ALL
            .iter()
            .map(|&f| Program::new(f, N, steps(f), ""))
            .collect();
        let expected = programs
            .iter()
            .map(|p| programs::reference(p, refs))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..programs.len())
            .flat_map(|i| std::iter::repeat_n(i, REPEATS))
            .collect();
        Rng::new(seed).shuffle(&mut order);
        Ok(RunSteady {
            programs,
            expected,
            compiled: Vec::new(),
            order,
        })
    }
}

impl RunSteady {
    /// Compile every program with the jit cache purged and run each once,
    /// checked; returns each one's wall time for both, and the programs.
    fn compile_all(&self) -> Result<(Vec<f64>, Vec<Compiled>), String> {
        fsc_exec::jit::shared_cache().purge();
        let runs = (0..self.programs.len())
            .map(|i| self.compile_and_run(i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(runs.into_iter().unzip())
    }

    /// Compile program `i` and run it once, checked; returns the wall time
    /// of both and the compiled program.
    fn compile_and_run(&self, i: usize) -> Result<(f64, Compiled), String> {
        let p = &self.programs[i];
        let t0 = Instant::now();
        let compiled =
            Compiler::compile(&p.source, &CompileOptions::for_target(Target::StencilCpu))
                .map_err(|e| format!("{}: compile failed: {}", p.label(), e.message))?;
        let exec = compiled
            .run()
            .map_err(|e| format!("{}: first run failed: {}", p.label(), e.message))?;
        let seconds = t0.elapsed().as_secs_f64();
        check_run(p, &self.expected[i], &exec)?;
        Ok((seconds, compiled))
    }
}

/// Check an execution of `p`: the full stencil rung ran and every output
/// matches its reference.
fn check_run(p: &Program, expected: &Expected, exec: &Execution) -> Result<(), String> {
    if exec.report.degradation.ran != DegradationRung::Stencil {
        return Err(format!(
            "{}: ran on rung '{}'",
            p.label(),
            exec.report.degradation.ran.describe()
        ));
    }
    programs::check(p, expected, |name| exec.array(name))
}

impl Workload for RunSteady {
    fn sources(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.source.as_str()).collect()
    }

    fn threads(&self) -> String {
        "1 thread (single-core StencilCpu runs on the calling thread)".into()
    }

    fn named_layer(&self) -> &'static [&'static str] {
        &["exec.kernel"]
    }

    /// Compile every family and run each once: the latency of a program
    /// never run before is compile plus first run.
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
            let p = &self.programs[i];
            let t0 = Instant::now();
            let op = trace.begin_op("op");
            let span = trace.begin("exec.run");
            let exec = self.compiled[i].run();
            trace.end(span);
            trace.end(op);
            let wall = t0.elapsed().as_secs_f64();
            let outcome = exec
                .map_err(|e| format!("{}: run failed: {}", p.label(), e.message))
                .and_then(|exec| {
                    check_run(p, &self.expected[i], &exec)?;
                    if trace.enabled() {
                        let r = &exec.report;
                        trace.derived(span, "exec.kernel", r.kernel_wall.as_secs_f64());
                        block.add("interp_ops", r.interp.ops as f64);
                        block.add("kernel_cells", r.kernel_cells as f64);
                        block.add("computed_bytes", p.computed_bytes() as f64);
                        block.add("cells", p.cells() as f64);
                        count_nests(&mut block, &self.compiled[i]);
                    }
                    Ok(())
                });
            block.cells += p.cells();
            block.latency.push(wall);
            block.record(wall, outcome);
        }
        block
    }
}
