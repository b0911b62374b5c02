//! serve-warm: a self-hosted `fsc-serve` on a private socket and plan
//! cache, driven by one client connection in a closed loop. Most requests
//! are tiny warm shapes served from the artifact cache; a fixed seeded
//! share are never-seen shapes that compile fresh.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fsc_core::{CompileOptions, Compiler, DegradationRung, Target};
use fsc_ir::json::Json;
use fsc_serve::{Client, Server, ServerConfig};

use crate::programs::{self, Expected, Family, Program, RefCache};
use crate::stats::{Block, Rng};
use crate::trace::Trace;
use crate::Workload;

/// Warm shapes: every family at these (interior size, time steps).
const WARM_SIZES: [(usize, usize); 2] = [(4, 2), (6, 1)];
/// Requests per warm shape per block.
const WARM_REPEATS: usize = 24;
/// The never-seen shapes of one block: Gauss–Seidel at these sizes, each
/// under a program name no earlier request used.
const COLD_SIZES: [(usize, usize); 12] = [
    (4, 1),
    (5, 1),
    (6, 1),
    (7, 1),
    (4, 2),
    (5, 2),
    (6, 2),
    (7, 2),
    (4, 3),
    (5, 3),
    (6, 3),
    (7, 3),
];

enum Slot {
    Warm(usize),
    Cold(usize),
}

/// In-process measurement of one warm shape, standing in for the server's
/// run: the response carries `run_ms` but not its kernel share.
#[derive(Clone, Copy, Default)]
struct RunSplit {
    kernel_s: f64,
    interp_ops: u64,
    kernel_cells: u64,
}

pub struct ServeWarm {
    seed: u64,
    workers: usize,
    run_dir: PathBuf,
    warm: Vec<Program>,
    warm_expected: Vec<Expected>,
    slots: Vec<Slot>,
    cold_expected: HashMap<(usize, usize), Expected>,
    split: Vec<RunSplit>,
    server: Option<Server>,
    client: Option<Client>,
    setups: usize,
    blocks: usize,
}

impl ServeWarm {
    pub fn new(
        seed: u64,
        workers: usize,
        run_dir: PathBuf,
        refs: &RefCache,
    ) -> Result<ServeWarm, String> {
        let mut rng = Rng::new(seed);
        let mut warm = Vec::new();
        for family in Family::ALL {
            for (n, steps) in WARM_SIZES {
                let tag = format!("w{:08x}", rng.next_u64() as u32);
                warm.push(Program::new(family, n, steps, &tag));
            }
        }
        let warm_expected = warm
            .iter()
            .map(|p| programs::reference(p, refs))
            .collect::<Result<_, _>>()?;
        let mut cold_expected = HashMap::new();
        for (n, steps) in COLD_SIZES {
            cold_expected.insert(
                (n, steps),
                programs::reference(&Program::new(Family::Gs, n, steps, ""), refs)?,
            );
        }
        let mut slots: Vec<Slot> = (0..warm.len())
            .flat_map(|i| std::iter::repeat_with(move || Slot::Warm(i)).take(WARM_REPEATS))
            .chain((0..COLD_SIZES.len()).map(Slot::Cold))
            .collect();
        rng.shuffle(&mut slots);
        Ok(ServeWarm {
            seed,
            workers,
            run_dir,
            warm,
            warm_expected,
            slots,
            cold_expected,
            split: Vec::new(),
            server: None,
            client: None,
            setups: 0,
            blocks: 0,
        })
    }

    /// Never-seen shape `k` of the current block.
    fn cold_program(&self, k: usize) -> Program {
        let (n, steps) = COLD_SIZES[k];
        let tag = format!("c{:x}b{}k{}", self.seed, self.blocks, k);
        Program::new(Family::Gs, n, steps, &tag)
    }

    fn stop_server(&mut self) {
        self.client = None;
        if let Some(mut server) = self.server.take() {
            server.stop();
            let _ = std::fs::remove_file(server.socket_path());
        }
    }

    /// Drop every cached artifact and send each warm shape once more.
    fn rewarm(&mut self) -> Result<(), String> {
        self.server
            .as_ref()
            .ok_or("no server running")?
            .service()
            .purge_artifacts();
        let client = self.client.as_mut().ok_or("no client connected")?;
        for (p, expected) in self.warm.iter().zip(&self.warm_expected) {
            let response = request(client, p)?;
            check_response(p, expected, &response, "fresh")?;
        }
        Ok(())
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.client
            .as_mut()
            .ok_or("no client connected")?
            .stats()
            .map_err(|e| format!("stats request failed: {e}"))
    }
}

impl Drop for ServeWarm {
    fn drop(&mut self) {
        self.stop_server();
        let _ = std::fs::remove_file(
            self.run_dir
                .join(format!("plans-{}.json", std::process::id())),
        );
    }
}

/// One request: send, check, and return the response.
fn request(client: &mut Client, p: &Program) -> Result<Json, String> {
    client
        .run(&p.source, "cpu", false, p.family.outputs())
        .map_err(|e| format!("{}: request failed: {e}", p.label()))
}

/// Check a response: success, the rung and artifact source it must attest,
/// and the arrays it returned against the reference.
fn check_response(
    p: &Program,
    expected: &Expected,
    response: &Json,
    artifact: &str,
) -> Result<(), String> {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{}: error response {}",
            p.label(),
            response.render()
        ));
    }
    let rung = response.get("rung").and_then(Json::as_str);
    if rung != Some(DegradationRung::Stencil.describe()) {
        return Err(format!("{}: served on rung {rung:?}", p.label()));
    }
    let got = response.get("artifact").and_then(Json::as_str);
    if got != Some(artifact) {
        return Err(format!(
            "{}: artifact attested {got:?}, expected '{artifact}'",
            p.label()
        ));
    }
    let arrays: BTreeMap<&str, Vec<f64>> = p
        .family
        .outputs()
        .iter()
        .filter_map(|name| {
            let items = response.get("arrays")?.get(name)?.as_array()?;
            let values: Option<Vec<f64>> = items.iter().map(Json::as_f64).collect();
            Some((*name, values?))
        })
        .collect();
    programs::check(p, expected, |name| arrays.get(name).map(Vec::as_slice))
}

fn number(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

impl Workload for ServeWarm {
    fn sources(&self) -> Vec<&str> {
        self.warm.iter().map(|p| p.source.as_str()).collect()
    }

    fn threads(&self) -> String {
        format!(
            "{} server worker, 1 client connection in a closed loop",
            self.workers
        )
    }

    fn latency_class(&self) -> Option<&'static str> {
        Some("warm")
    }

    /// Socket, JSON and queue time plus host time of the server's run.
    fn named_layer(&self) -> &'static [&'static str] {
        &["serve.request", "serve.run"]
    }

    /// Start a server and send the first request of every warm shape.
    fn setup(&mut self) -> Result<Vec<f64>, String> {
        self.stop_server();
        fsc_exec::jit::shared_cache().purge();
        let pid = std::process::id();
        let socket = self.run_dir.join(format!("s{pid}-{}.sock", self.setups));
        self.setups += 1;
        let config = ServerConfig {
            workers: self.workers,
            queue_depth: 64,
            plan_cache: Some(self.run_dir.join(format!("plans-{pid}.json"))),
            ..ServerConfig::default()
        };
        let server =
            Server::start(&socket, config).map_err(|e| format!("server start failed: {e}"))?;
        self.server = Some(server);
        let mut client =
            Client::connect(&socket).map_err(|e| format!("client connect failed: {e}"))?;
        let mut cold = Vec::new();
        for (p, expected) in self.warm.iter().zip(&self.warm_expected) {
            let t0 = Instant::now();
            let response = request(&mut client, p)?;
            cold.push(t0.elapsed().as_secs_f64());
            check_response(p, expected, &response, "fresh")?;
        }
        self.client = Some(client);
        Ok(cold)
    }

    fn block(&mut self, trace: &mut Trace) -> Block {
        let mut block = Block::default();
        if trace.enabled() && self.split.is_empty() {
            self.split = self.warm.iter().map(split_of).collect();
        }
        let before = self.stats().unwrap_or(Json::Null);
        let jit_before = fsc_core::jit_cache_stats();
        let mut cold_compile_ms = 0.0;
        let mut client = self.client.take().expect("set-up connected a client");
        for slot in &self.slots {
            let (p, class, artifact) = match *slot {
                Slot::Warm(i) => (self.warm[i].clone(), "warm", "cached"),
                Slot::Cold(k) => (self.cold_program(k), "cold", "fresh"),
            };
            let t0 = Instant::now();
            let op = trace.begin_op(class);
            let span = trace.begin("serve.request");
            let response = request(&mut client, &p);
            trace.end(span);
            trace.end(op);
            let wall = t0.elapsed().as_secs_f64();
            let expected = match *slot {
                Slot::Warm(i) => &self.warm_expected[i],
                Slot::Cold(_) => &self.cold_expected[&(p.n, p.steps)],
            };
            let outcome = response.and_then(|r| {
                if trace.enabled() {
                    let degraded = r.get("degraded").and_then(Json::as_bool) == Some(true);
                    block.add("rungs_degraded", f64::from(u8::from(degraded)));
                }
                check_response(&p, expected, &r, artifact)?;
                if trace.enabled() {
                    let compile_s = number(&r, "compile_ms") / 1e3;
                    let run_s = number(&r, "run_ms") / 1e3;
                    trace.derived(span, "serve.compile", compile_s);
                    let run = trace.derived(span, "serve.run", run_s);
                    if let Slot::Warm(i) = *slot {
                        let s = self.split[i];
                        trace.derived(run, "exec.kernel", s.kernel_s.min(run_s));
                        block.add("interp_ops", s.interp_ops as f64);
                        block.add("kernel_cells", s.kernel_cells as f64);
                        block.add("computed_bytes", p.computed_bytes() as f64);
                        block.add("cells", p.cells() as f64);
                    } else {
                        cold_compile_ms += compile_s * 1e3;
                    }
                }
                Ok(())
            });
            block.cells += p.cells();
            match *slot {
                Slot::Warm(_) => block.latency.push(wall),
                Slot::Cold(_) => block.cold.push(wall),
            }
            block.record(wall, outcome);
        }
        self.client = Some(client);
        self.blocks += 1;
        let jit_after = fsc_core::jit_cache_stats();
        let after = self.stats().unwrap_or(Json::Null);
        // Start the next block from the same server state, with only the
        // warm shapes cached: the artifact cache is FIFO, so a stream of
        // never-seen shapes would otherwise evict the warm ones.
        if let Err(e) = self.rewarm() {
            block.failed += 1;
            eprintln!("perfbench: {e}");
        }
        let delta = |key: &str| number(&after, key) - number(&before, key);
        let compiles = delta("compiles");
        if compiles != COLD_SIZES.len() as f64 {
            block.failed += 1;
            eprintln!(
                "perfbench: the server compiled {compiles} programs for {} never-seen shapes",
                COLD_SIZES.len()
            );
        }
        if trace.enabled() {
            block.add("server_compiles", compiles);
            block.add("server_artifact_hits", delta("artifact_hits"));
            block.add("server_requests", self.slots.len() as f64);
            block.add("queue_wait_p99_ms", number(&after, "queue_wait_p99_ms"));
            block.add(
                "cold_server_compile_ms",
                cold_compile_ms / COLD_SIZES.len() as f64,
            );
            block.add("jit_builds", (jit_after.builds - jit_before.builds) as f64);
            block.add("jit_hits", (jit_after.hits - jit_before.hits) as f64);
        }
        block
    }
}

/// Run a warm shape in process to split its run into kernel and host time.
fn split_of(p: &Program) -> RunSplit {
    let Ok(compiled) =
        Compiler::compile(&p.source, &CompileOptions::for_target(Target::StencilCpu))
    else {
        return RunSplit::default();
    };
    let mut best: Option<RunSplit> = None;
    let mut best_wall = Duration::MAX;
    for _ in 0..5 {
        if let Ok(exec) = compiled.run() {
            let r = &exec.report;
            if r.wall < best_wall {
                best_wall = r.wall;
                best = Some(RunSplit {
                    kernel_s: r.kernel_wall.as_secs_f64(),
                    interp_ops: r.interp.ops,
                    kernel_cells: r.kernel_cells,
                });
            }
        }
    }
    best.unwrap_or_default()
}
