//! Lock-free server metrics: counters, a queue-depth gauge, and a
//! log₂-bucketed latency histogram good enough for p50/p99 without
//! recording individual samples.
//!
//! Everything is relaxed atomics — metrics must never contend with the
//! request path they are measuring. Quantiles are read as the upper bound
//! of the bucket containing the target rank, i.e. conservative to within
//! a factor of two, which is the right fidelity for a load-shedding
//! daemon's `/stats` endpoint (the loadgen additionally reports exact
//! client-side quantiles from its own samples).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bucket *i* holds samples in `[2^i, 2^(i+1))` microseconds,
/// covering ~1µs to ~2.3 hours.
const BUCKETS: usize = 43;

/// A log₂ histogram of durations (microsecond resolution).
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let micros = (d.as_micros() as u64).max(1);
        let idx = (micros.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
    }

    /// The `q`-quantile (0.0–1.0) in milliseconds: the upper bound of the
    /// bucket containing the target rank. 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return (1u64 << (i + 1)) as f64 / 1000.0;
            }
        }
        (1u64 << BUCKETS) as f64 / 1000.0
    }
}

/// The server's request-path counters. All monotonic except the
/// `queue_depth` gauge.
#[derive(Default)]
pub struct ServerMetrics {
    /// Requests admitted to the work queue.
    pub accepted: AtomicU64,
    /// Requests rejected by admission control (`E0801`).
    pub rejected: AtomicU64,
    /// Requests answered `ok:true`.
    pub completed: AtomicU64,
    /// Requests answered `ok:false` (compile/run errors — not rejections).
    pub failed: AtomicU64,
    /// Protocol errors answered `E0802`.
    pub protocol_errors: AtomicU64,
    /// Current work-queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Requests answered `E0803` by the watchdog (budget overrun), by a
    /// worker that found the job already expired at pick-up, or by the
    /// session layer for an expired parked follower.
    pub deadline_kills: AtomicU64,
    /// Worker threads that died by panic and were respawned (`E0804` went
    /// to the in-flight client, when there was one).
    pub worker_crashes: AtomicU64,
    /// Jobs whose worker finished after the watchdog or supervisor had
    /// already answered the client (the late response is discarded — the
    /// exactly-once guarantee).
    pub late_completions: AtomicU64,
    /// Request lines rejected for exceeding the frame cap (`E0802`).
    pub oversized_frames: AtomicU64,
    /// Connections closed for holding a partial frame past the idle
    /// deadline (slow-loris containment).
    pub idle_closes: AtomicU64,
    /// Response frames deliberately truncated by the chaos layer.
    pub truncated_writes: AtomicU64,
    /// Requests served under brownout level 1 (autotune shed).
    pub brownout_no_autotune: AtomicU64,
    /// Requests served under brownout level 2 (reduced rung).
    pub brownout_reduced_rung: AtomicU64,
    /// Current brownout level (gauge: 0 = normal, 1 = no-autotune,
    /// 2 = reduced-rung; level 3 — reject — shows up in `rejected`).
    pub brownout_level: AtomicU64,
    /// Worker threads detached (not joined) because `stop()` hit its hard
    /// timeout with a compile still in flight.
    pub detached_workers: AtomicU64,
    /// Queued jobs answered with a coded rejection during shutdown drain
    /// because no worker remained to run them.
    pub drain_flushed: AtomicU64,
    /// Requests rejected `E0806`: their memory estimate could not be
    /// reserved against the server budget even after squeeze + park.
    pub mem_rejected: AtomicU64,
    /// Requests that parked waiting for memory reservations to free up
    /// (whether or not they were eventually admitted).
    pub mem_parked: AtomicU64,
    /// Requests recompiled in their lean form (no autotune, reduced rung)
    /// because their full-service estimate was denied reservation.
    pub mem_squeezes: AtomicU64,
    /// Runs that dispatched rank bodies on a distributed target.
    pub dist_runs: AtomicU64,
    /// Work-stealing events across all distributed runs.
    pub dist_steals: AtomicU64,
    /// Task parks (blocking halo recvs) across all distributed runs.
    pub dist_parks: AtomicU64,
    /// Logical halo messages rank bodies sent across all distributed runs.
    pub dist_logical_messages: AtomicU64,
    /// Wire envelopes those became after node-level aggregation (the
    /// `dist_aggregation_ratio` gauge is logical/physical).
    pub dist_physical_messages: AtomicU64,
    /// Deepest ghost band (`halo_depth`) any distributed run carried.
    pub dist_halo_depth: AtomicU64,
    /// Runs in which at least one nest executed on the native specialized
    /// tier (per-tier execution counts; a run touches every tier its
    /// nests attested).
    pub exec_specialized: AtomicU64,
    /// Runs attesting the stitched jit tier.
    pub exec_jit: AtomicU64,
    /// Runs attesting the superinstruction-fused VM tier.
    pub exec_fused_vm: AtomicU64,
    /// Runs attesting the generic bytecode VM tier.
    pub exec_generic_vm: AtomicU64,
    /// Time from admission to response written.
    pub latency: LatencyHistogram,
    /// Time a request sat queued before a worker picked it up.
    pub queue_wait: LatencyHistogram,
}

impl ServerMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_buckets_conservatively() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        h.record(Duration::from_millis(50)); // bucket [32768, 65536)
        assert_eq!(h.count(), 100);
        // p50 lands in the 100µs bucket: upper bound 128µs = 0.128ms.
        assert_eq!(h.quantile_ms(0.5), 0.128);
        // p99 still in the fast bucket; p100 reaches the slow sample.
        assert_eq!(h.quantile_ms(0.99), 0.128);
        assert_eq!(h.quantile_ms(1.0), 65.536);
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn sub_microsecond_and_huge_samples_clamp() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(1.0) > 0.0);
    }
}
