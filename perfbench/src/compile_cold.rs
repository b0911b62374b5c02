//! compile-cold: every op compiles a distinct program from source with the
//! shared jit cache purged, runs it once at a small size, and checks it.
//! Compilation is at least 90% of the op; discovery most of that.

use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, Compiler, DegradationRung, Target};
use fsc_exec::ExecPath;

use crate::programs::{self, Expected, Family, Program, RefCache};
use crate::stats::{Block, Rng};
use crate::trace::{SpanId, Trace};
use crate::Workload;

/// Interior sizes and time steps: each family compiles every pair once per
/// block, so every seed gets the same family and size distribution.
const SIZES: [usize; 6] = [6, 7, 8, 9, 10, 11];
const STEPS: [usize; 2] = [1, 2];

pub struct CompileCold {
    programs: Vec<Program>,
    expected: Vec<Expected>,
    order: Vec<usize>,
    warmup: Program,
}

impl CompileCold {
    pub fn new(seed: u64, refs: &RefCache) -> Result<CompileCold, String> {
        let mut rng = Rng::new(seed);
        let mut programs = Vec::new();
        for family in Family::ALL {
            for n in SIZES {
                for steps in STEPS {
                    let tag = format!("s{:08x}p{}", rng.next_u64() as u32, programs.len());
                    programs.push(Program::new(family, n, steps, &tag));
                }
            }
        }
        let expected = programs
            .iter()
            .map(|p| programs::reference(p, refs))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        let warmup = Program::new(Family::Gs, 8, 1, &format!("warmup{seed:x}"));
        Ok(CompileCold {
            programs,
            expected,
            order,
            warmup,
        })
    }
}

fn options() -> CompileOptions {
    CompileOptions::for_target(Target::StencilCpu)
}

fn purge_jit_cache() {
    fsc_exec::jit::shared_cache().purge();
}

/// Total jit codegen time so far, in milliseconds.
fn jit_codegen_total_ms() -> f64 {
    let s = fsc_core::jit_cache_stats();
    s.codegen_mean_ms * s.codegen_count as f64
}

impl Workload for CompileCold {
    fn sources(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.source.as_str()).collect()
    }

    fn threads(&self) -> String {
        "1 thread (compile and single-core StencilCpu run on the calling thread)".into()
    }

    fn named_layer(&self) -> &'static [&'static str] {
        &["passes.discover"]
    }

    fn setup(&mut self) -> Result<Vec<f64>, String> {
        purge_jit_cache();
        let compiled = Compiler::compile(&self.warmup.source, &options())
            .map_err(|e| format!("warm-up compile failed: {}", e.message))?;
        compiled
            .run()
            .map_err(|e| format!("warm-up run failed: {}", e.message))?;
        Ok(Vec::new())
    }

    fn block(&mut self, trace: &mut Trace) -> Block {
        let mut block = Block::default();
        let ops = self.order.len() as f64;
        for &i in &self.order {
            let p = &self.programs[i];
            purge_jit_cache();
            let jit_before = fsc_core::jit_cache_stats();
            let codegen_before = jit_codegen_total_ms();
            let t0 = Instant::now();
            let op = trace.begin_op("op");
            let span = trace.begin("core.compile");
            let compiled = Compiler::compile(&p.source, &options());
            trace.end(span);
            let compile_span = span;
            let run = compiled.as_ref().ok().map(|c| {
                let span = trace.begin("exec.run");
                let exec = c.run();
                trace.end(span);
                (span, exec)
            });
            trace.end(op);
            let wall = t0.elapsed().as_secs_f64();

            let outcome = (|| {
                let compiled = compiled
                    .as_ref()
                    .map_err(|e| format!("{}: compile failed: {}", p.label(), e.message))?;
                let degraded = compiled.degradation.ran != DegradationRung::Stencil
                    || compiled.degradation.degraded();
                if trace.enabled() {
                    block.add("rungs_degraded", f64::from(u8::from(degraded)));
                }
                if degraded {
                    return Err(format!(
                        "{}: ran on rung '{}', not the full stencil pipeline",
                        p.label(),
                        compiled.degradation.ran.describe()
                    ));
                }
                let (run_span, exec) = run.expect("a compiled program was run");
                let exec = exec.map_err(|e| format!("{}: run failed: {}", p.label(), e.message))?;
                programs::check(p, &self.expected[i], |name| exec.array(name))?;
                if trace.enabled() {
                    let r = &exec.report;
                    trace.derived(run_span, "exec.kernel", r.kernel_wall.as_secs_f64());
                    let jit = fsc_core::jit_cache_stats();
                    block.add("jit_builds", (jit.builds - jit_before.builds) as f64);
                    block.add("jit_hits", (jit.hits - jit_before.hits) as f64);
                    block.add(
                        "jit_codegen_ms",
                        (jit_codegen_total_ms() - codegen_before) / ops,
                    );
                    block.add("interp_ops", r.interp.ops as f64);
                    block.add("kernel_cells", r.kernel_cells as f64);
                    block.add("computed_bytes", p.computed_bytes() as f64);
                    block.add("cells", p.cells() as f64);
                    count_nests(&mut block, compiled);
                    replay(p, compiled, compile_span, trace, &mut block)?;
                }
                Ok(())
            })();
            block.cells += p.cells();
            block.latency.push(wall);
            block.cold.push(wall);
            block.record(wall, outcome);
        }
        block
    }
}

pub fn count_nests(block: &mut Block, compiled: &Compiled) {
    for nest in compiled.kernels.values().flat_map(|k| k.nests.iter()) {
        let name = match nest.path {
            ExecPath::Specialized => "nests_specialized",
            ExecPath::Jit => "nests_jit",
            ExecPath::FusedVm => "nests_fused_vm",
            ExecPath::GenericVm => "nests_generic_vm",
        };
        block.add(name, 1.0);
    }
}

/// Recompile `p` phase by phase through the public entry points the ladder
/// calls (strict pass managers, no snapshots or per-pass verification),
/// with the jit cache purged again, and lay the phase times under the
/// `core.compile` span of the op. Whatever `Compiler::compile` spent beyond
/// these phases stays as that span's self time: the ladder's overhead. The
/// replay must lift the same stencil module and the same kernels on the
/// same tiers, or the op fails.
fn replay(
    p: &Program,
    compiled: &Compiled,
    compile_span: SpanId,
    trace: &mut Trace,
    block: &mut Block,
) -> Result<(), String> {
    let fail =
        |what: &str, e: fsc_ir::IrError| format!("{}: replay {what}: {}", p.label(), e.message);
    purge_jit_cache();

    let t = Instant::now();
    let mut fir = fsc_fortran::compile_to_fir(&p.source).map_err(|e| fail("frontend", e))?;
    trace.derived(compile_span, "fortran.frontend", t.elapsed().as_secs_f64());
    block.add("ir_ops_fir", fir.live_op_count() as f64);

    let stats = fsc_passes::pipelines::discovery_pipeline()
        .run(&mut fir)
        .map_err(|e| fail("discovery", e))?;
    for s in &stats {
        let name = match s.name.as_str() {
            "discover-stencils" => "passes.discover",
            "merge-stencils" => "passes.merge",
            _ => "passes.other",
        };
        trace.derived(compile_span, name, s.duration.as_secs_f64());
    }

    let t = Instant::now();
    let mut stencil =
        fsc_passes::extract::extract_stencils(&mut fir).map_err(|e| fail("extraction", e))?;
    trace.derived(compile_span, "passes.extract", t.elapsed().as_secs_f64());
    block.add("ir_ops_stencil", stencil.live_op_count() as f64);
    let mut applies = 0u64;
    fsc_ir::walk::walk_module(&stencil, &mut |op| {
        if stencil.op(op).name.full() == "stencil.apply" {
            applies += 1;
        }
    });
    block.add("stencils_lifted", applies as f64);

    let stats = fsc_passes::pipelines::cpu_pipeline()
        .and_then(|pm| pm.run(&mut stencil))
        .map_err(|e| fail("target pipeline", e))?;
    let target: f64 = stats.iter().map(|s| s.duration.as_secs_f64()).sum();
    trace.derived(compile_span, "passes.target", target);

    let mut names: Vec<String> = compiled.kernels.keys().cloned().collect();
    names.sort();
    for name in &names {
        let t = Instant::now();
        let kernel = fsc_exec::kernel::compile_kernel(&stencil, name)
            .map_err(|e| fail("kernel compile", e))?;
        trace.derived(
            compile_span,
            "exec.compile_kernel",
            t.elapsed().as_secs_f64(),
        );
        let paths = |k: &fsc_exec::kernel::CompiledKernel| {
            k.nests.iter().map(|n| n.path).collect::<Vec<_>>()
        };
        if paths(&kernel) != paths(&compiled.kernels[name]) {
            return Err(format!(
                "{}: replayed kernel {name} runs on other tiers",
                p.label()
            ));
        }
    }
    let same_module = compiled
        .stencil_module
        .as_ref()
        .is_some_and(|m| fsc_ir::print::print_module(m) == fsc_ir::print::print_module(&stencil));
    if !same_module {
        return Err(format!(
            "{}: the replayed compile lifted a different stencil module",
            p.label()
        ));
    }
    Ok(())
}
