//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-cold|run-steady|serve-warm|dist-halo> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every line but the last starts with `#`
//! and describes the run; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md for the workloads,
//! the metrics and the timing rule.

mod compile_cold;
mod dist_halo;
mod host;
mod programs;
mod run_steady;
mod serve_warm;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{median, tail, Block};
use trace::Trace;

/// One workload: a seeded op sequence over one layer of the system.
pub trait Workload {
    /// The generated program set, for the digest.
    fn sources(&self) -> Vec<&str>;
    /// The thread and worker counts the workload runs with.
    fn threads(&self) -> String;
    /// The program-side calls made before the first measured op. Returns
    /// the latencies of the never-seen programs it ran, if any.
    fn setup(&mut self) -> Result<Vec<f64>, String>;
    /// One pass over the op sequence.
    fn block(&mut self, trace: &mut Trace) -> Block;
    /// Where ops never see a new program: compile and first-run every
    /// program once more, outside any op, returning the seconds each took.
    /// Called between blocks, so these latencies spread over the run.
    fn cold_probe(&mut self) -> Option<Result<Vec<f64>, String>> {
        None
    }
    /// The op class the latency and per-layer metrics cover.
    fn latency_class(&self) -> Option<&'static str> {
        None
    }
    /// Spans whose self times make up the layer this workload isolates.
    fn named_layer(&self) -> &'static [&'static str];
}

pub const WORKLOADS: [&str; 4] = ["compile-cold", "run-steady", "serve-warm", "dist-halo"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Stop adding blocks this long after the requested run length, however
/// few have finished.
const OVERRUN: Duration = Duration::from_secs(60);

/// End-to-end metrics: name, unit, and whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 7] = [
    ("setup_s", "s", false),
    ("ops_per_s", "1/s", true),
    ("latency_p50_ms", "ms", false),
    ("latency_tail_ms", "ms", false),
    ("mcells_per_s", "MCells/s", true),
    ("cold_latency_p50_ms", "ms", false),
    ("peak_rss_mb", "MiB", false),
];

/// Per-layer metrics of the traced run: name and unit. Times are per op,
/// counts per block (one pass over the op sequence).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("frontend_ms", "ms"),
    ("discovery_ms", "ms"),
    ("merge_ms", "ms"),
    ("extract_ms", "ms"),
    ("target_passes_ms", "ms"),
    ("stencils_lifted", "count"),
    ("ir_ops_fir", "count"),
    ("ir_ops_stencil", "count"),
    ("ladder_overhead_ms", "ms"),
    ("rungs_degraded", "count"),
    ("kernel_compile_ms", "ms"),
    ("jit_codegen_ms", "ms"),
    ("jit_builds", "count"),
    ("jit_hits", "count"),
    ("nests_specialized", "count"),
    ("nests_jit", "count"),
    ("nests_fused_vm", "count"),
    ("nests_generic_vm", "count"),
    ("kernel_ms", "ms"),
    ("kernel_mcells_per_s", "MCells/s"),
    ("host_ms", "ms"),
    ("interp_ops", "count"),
    ("computed_bytes", "B"),
    ("kernel_cells", "count"),
    ("dist_makespan_ms", "ms"),
    ("dist_compute_ms", "ms"),
    ("dist_pack_ms", "ms"),
    ("dist_wait_ms", "ms"),
    ("dist_other_ms", "ms"),
    ("halo_messages", "count"),
    ("halo_bytes", "B"),
    ("physical_messages", "count"),
    ("exchange_rounds", "count"),
    ("steals", "count"),
    ("parks", "count"),
    ("modeled_dispatches", "count"),
    ("server_compile_ms", "ms"),
    ("server_run_ms", "ms"),
    ("serve_overhead_ms", "ms"),
    ("queue_wait_p99_ms", "ms"),
    ("cold_server_compile_ms", "ms"),
    ("server_compiles", "count"),
    ("artifact_hit_ratio", "ratio"),
    ("op_wall_ms", "ms"),
    ("span_coverage", "ratio"),
    ("named_layer_share", "ratio"),
    ("tracing_overhead_ms", "ms"),
    ("tracing_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// The end-to-end timings of one block.
struct BlockTimes {
    ops_per_s: f64,
    p50_ms: f64,
    tail: (f64, f64, usize),
    mcells_per_s: f64,
    cold_p50_ms: Option<f64>,
}

fn block_times(b: &Block) -> Result<BlockTimes, String> {
    let wall: f64 = b.walls.iter().sum();
    let (tail_s, pct, n) =
        tail(&b.latency).ok_or("a block needs at least eleven latency samples")?;
    Ok(BlockTimes {
        ops_per_s: b.walls.len() as f64 / wall,
        p50_ms: median(&b.latency) * 1e3,
        tail: (tail_s * 1e3, pct, n),
        mcells_per_s: b.cells as f64 / wall / 1e6,
        cold_p50_ms: (!b.cold.is_empty()).then(|| median(&b.cold) * 1e3),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let run_dir = PathBuf::from("perfbench/.run");
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    // A fixed, explicit thread count no larger than the machine.
    let threads = host::nproc().min(2);
    let steal_before = host::steal_ticks();

    let refs = programs::RefCache::new(&run_dir);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "compile-cold" => Box::new(compile_cold::CompileCold::new(args.seed, &refs)?),
        "run-steady" => Box::new(run_steady::RunSteady::new(args.seed, &refs)?),
        "serve-warm" => Box::new(serve_warm::ServeWarm::new(
            args.seed,
            1,
            run_dir.clone(),
            &refs,
        )?),
        "dist-halo" => Box::new(dist_halo::DistHalo::new(args.seed, threads, &refs)?),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    let sources = workload.sources();
    let digest = programs::digest(sources.iter().copied());
    let program_count = sources.len();

    let mut setup_s = Vec::new();
    // Per set-up or probe: the latency of each never-seen program.
    let mut cold_samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let cold = workload.setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        cold_samples.push(cold);
    }

    // Blocks until the run length is spent; in a traced run every other
    // block is traced, so both kinds spread over the whole run.
    let mut trace = Trace::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut blocks: Vec<(Block, bool)> = Vec::new();
    loop {
        let traced = args.trace && blocks.len() % 2 == 1;
        trace.set_enabled(traced);
        let block = workload.block(&mut trace);
        blocks.push((block, traced));
        trace.set_enabled(false);
        if let Some(probe) = workload.cold_probe() {
            cold_samples.push(probe.map_err(|e| format!("never-seen program probe failed: {e}"))?);
        }
        let untraced = blocks.iter().filter(|(_, t)| !t).count();
        let enough = untraced >= 1 && (!args.trace || blocks.len() >= 2);
        let elapsed = start.elapsed();
        if (elapsed >= budget && enough) || elapsed >= budget + OVERRUN {
            break;
        }
    }
    trace.set_enabled(false);
    let measured_s = start.elapsed().as_secs_f64();
    let steal_after = host::steal_ticks();

    let attempted: u64 = blocks.iter().map(|(b, _)| b.attempted).sum();
    let failed: u64 = blocks.iter().map(|(b, _)| b.failed).sum();
    let plain: Vec<&Block> = blocks.iter().filter(|(_, t)| !t).map(|(b, _)| b).collect();
    let traced: Vec<&Block> = blocks.iter().filter(|(_, t)| *t).map(|(b, _)| b).collect();
    // Each op's best wall across the untraced blocks; the metrics are
    // taken over these bests.
    let best = block_times(&Block::best_per_op(&plain))?;
    // Never-seen programs that ran only in set-up and between blocks: each
    // program's best.
    let cold_per_program = stats::min_per_position(&cold_samples);
    let cold_ms = best
        .cold_p50_ms
        .unwrap_or_else(|| median(&cold_per_program) * 1e3);
    // Whole-block figures, to show how far blocks spread.
    let times: Vec<BlockTimes> = plain
        .iter()
        .map(|b| block_times(b))
        .collect::<Result<_, _>>()?;
    let spread = |f: &dyn Fn(&BlockTimes) -> f64| -> (f64, f64, f64) {
        let v: Vec<f64> = times.iter().map(f).collect();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, median(&v), hi)
    };
    let peak_rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("ops_per_s", best.ops_per_s);
    e2e.insert("latency_p50_ms", best.p50_ms);
    e2e.insert("latency_tail_ms", best.tail.0);
    e2e.insert("mcells_per_s", best.mcells_per_s);
    e2e.insert("cold_latency_p50_ms", cold_ms);
    e2e.insert("peak_rss_mb", peak_rss);

    println!(
        "# perfbench {} seed={} programs={program_count} digest={digest}",
        args.workload, args.seed
    );
    println!(
        "# conditions: nproc={} threads=\"{}\" rustc=\"{}\" git_rev={} steal_ticks={} \
         measured_s={measured_s:.3} blocks={} traced_blocks={}",
        host::nproc(),
        workload.threads(),
        host::rustc_version(),
        host::git_rev(),
        match (steal_before, steal_after) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "unavailable".to_string(),
        },
        plain.len(),
        traced.len()
    );
    println!(
        "# setup_s: median {:.6} of {SETUP_REPS} (min {:.6}, max {:.6})",
        median(&setup_s),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max)
    );
    for (name, unit, value, (lo, med, hi)) in [
        ("ops_per_s", "1/s", best.ops_per_s, spread(&|t| t.ops_per_s)),
        ("latency_p50_ms", "ms", best.p50_ms, spread(&|t| t.p50_ms)),
        ("latency_tail_ms", "ms", best.tail.0, spread(&|t| t.tail.0)),
        (
            "mcells_per_s",
            "MCells/s",
            best.mcells_per_s,
            spread(&|t| t.mcells_per_s),
        ),
    ] {
        println!(
            "# {name}: {value:.6} {unit} over per-op bests; whole blocks {lo:.6} .. {med:.6} .. {hi:.6}"
        );
    }
    println!("# cold_latency_p50_ms: {cold_ms:.6} ms");
    if best.cold_p50_ms.is_none() {
        let ms: Vec<String> = cold_per_program
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect();
        println!(
            "# cold_latency_p50_ms is the median of per-program bests [{}] ms over {} set-ups and {} probes",
            ms.join(", "),
            SETUP_REPS,
            cold_samples.len() - SETUP_REPS
        );
    }
    println!(
        "# latency_tail_ms is p{:.2} of {} ops (10 ops beyond it)",
        best.tail.1, best.tail.2
    );
    println!("# peak_rss_mb: {peak_rss:.3} MiB (VmHWM of this process)");

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let layers = per_layer(workload.as_ref(), &trace, &traced, &plain);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layers.get(name).copied().unwrap_or(0.0)));
        }
        let path = run_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# trace: {} spans over {} ops written to {}",
            trace.span_count(),
            trace.ops(None),
            path.display()
        );
        for (name, unit, value) in &metrics {
            println!("# {name} = {value} {unit}");
        }
    } else {
        for (name, unit, _) in END_TO_END {
            metrics.push((name, unit, e2e[name]));
        }
    }

    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && finite
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// The per-layer metrics of the traced blocks.
fn per_layer(
    workload: &dyn Workload,
    trace: &Trace,
    traced: &[&Block],
    plain: &[&Block],
) -> BTreeMap<&'static str, f64> {
    let class = workload.latency_class();
    let totals = trace.totals(class);
    let ops = trace.ops(class).max(1) as f64;
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let per_op_ms = |seconds: f64| seconds / ops * 1e3;

    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for b in traced {
        for (&k, &v) in &b.counts {
            *counts.entry(k).or_insert(0.0) += v;
        }
    }
    for v in counts.values_mut() {
        *v /= traced.len() as f64;
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("frontend_ms", "fortran.frontend"),
        ("discovery_ms", "passes.discover"),
        ("merge_ms", "passes.merge"),
        ("extract_ms", "passes.extract"),
        ("target_passes_ms", "passes.target"),
        ("ladder_overhead_ms", "core.compile"),
        ("kernel_compile_ms", "exec.compile_kernel"),
        ("serve_overhead_ms", "serve.request"),
    ] {
        m.insert(metric, per_op_ms(self_s(span)));
    }
    for (metric, span) in [
        ("kernel_ms", "exec.kernel"),
        ("dist_makespan_ms", "dist.makespan"),
        ("dist_compute_ms", "dist.compute"),
        ("dist_pack_ms", "dist.pack"),
        ("dist_wait_ms", "dist.wait"),
        ("server_compile_ms", "serve.compile"),
        ("server_run_ms", "serve.run"),
        ("op_wall_ms", "op"),
    ] {
        m.insert(metric, per_op_ms(total_s(span)));
    }
    m.insert(
        "host_ms",
        per_op_ms(self_s("exec.run") + self_s("serve.run")),
    );
    if total_s("dist.makespan") > 0.0 {
        m.insert(
            "dist_other_ms",
            per_op_ms(total_s("exec.run") - total_s("dist.makespan")),
        );
    }
    let kernel_s_per_block = total_s("exec.kernel") / traced.len().max(1) as f64;
    if kernel_s_per_block > 0.0 {
        m.insert(
            "kernel_mcells_per_s",
            count("cells") / kernel_s_per_block / 1e6,
        );
    }
    let op_s = total_s("op");
    if op_s > 0.0 {
        m.insert("span_coverage", 1.0 - self_s("op") / op_s);
        let named: f64 = workload.named_layer().iter().map(|s| self_s(s)).sum();
        m.insert("named_layer_share", named / op_s);
    }
    if count("server_requests") > 0.0 {
        m.insert(
            "artifact_hit_ratio",
            count("server_artifact_hits") / count("server_requests"),
        );
    }
    for (name, value) in counts {
        m.entry(name).or_insert(value);
    }

    // Tracing overhead: per-op bests of the traced blocks against those of
    // the untraced ones, over the ops the latency metrics cover.
    let best_wall = |blocks: &[&Block]| Block::best_per_op(blocks).latency.iter().sum::<f64>();
    let (on, off) = (best_wall(traced), best_wall(plain));
    let per_block = traced.first().map_or(1, |b| b.latency.len()).max(1) as f64;
    m.insert("tracing_overhead_ms", (on - off) / per_block * 1e3);
    m.insert("tracing_overhead_pct", (on / off - 1.0) * 100.0);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_ir::json::Json;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// BENCHMARK.json names exactly the workloads and metrics this binary
    /// runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = names(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&spec, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&spec, "per_layer"), layers);
        for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
            let higher = END_TO_END
                .iter()
                .find(|(n, _, _)| Some(*n) == m.get("name").and_then(Json::as_str))
                .map(|(_, _, h)| *h)
                .unwrap();
            let better = m.get("better").and_then(Json::as_str);
            assert_eq!(better, Some(if higher { "higher" } else { "lower" }));
        }
    }
}
