//! The counting probe: simulated per-layer counts from outside the program,
//! through the public `spiffi_trace::Probe` trait.

use spiffi_core::SystemConfig;
use spiffi_simcore::SimTime;
use spiffi_trace::{CpuJobKind, DiskIoDone, DiskIoStart, NetSend, PoolEvent, Probe};

/// Event kinds counted individually; every other kind lands in `other`.
pub const EVENT_KINDS: [&str; 6] = [
    "Wake",
    "RequestArrive",
    "ReplyArrive",
    "CpuDone",
    "DiskDone",
    "PrefetchRelease",
];

/// Simulated counts summed over every run a workload's traced pass makes.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Dispatched events per [`EVENT_KINDS`] entry, then `other`.
    pub events: [u64; EVENT_KINDS.len() + 1],
    pub disk_ios: u64,
    pub disk_prefetch_ios: u64,
    pub disk_service_ns: u64,
    pub queue_depth_sum: u64,
    pub queue_depth_max: u64,
    /// Issue-to-completion latency of every demand (non-prefetch) I/O, µs.
    pub demand_latency_us: Vec<u64>,
    pub deadline_ios: u64,
    pub deadline_misses: u64,
    pub cpu_jobs: u64,
    pub cpu_busy_ns: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub pool_hits: u64,
    pub pool_shared: u64,
    pub pool_inflight: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_alloc_failures: u64,
    /// Prefetched pages inserted, later referenced, and evicted unused —
    /// from the run reports' pool statistics (measurement window).
    pub prefetch_inserts: u64,
    pub prefetch_used: u64,
    pub prefetch_wasted: u64,
    /// Simulated nanoseconds, summed over runs.
    pub sim_ns: u64,
    /// Disk-nanoseconds available (disks × simulated time), summed.
    pub disk_capacity_ns: u64,
    /// CPU-nanoseconds available (nodes × simulated time), summed.
    pub cpu_capacity_ns: u64,
    /// Terminal-nanoseconds simulated (terminals × simulated time), summed.
    pub terminal_ns: u128,
}

impl Counts {
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    pub fn merge(&mut self, o: Counts) {
        for (a, b) in self.events.iter_mut().zip(o.events) {
            *a += b;
        }
        self.disk_ios += o.disk_ios;
        self.disk_prefetch_ios += o.disk_prefetch_ios;
        self.disk_service_ns += o.disk_service_ns;
        self.queue_depth_sum += o.queue_depth_sum;
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max);
        self.demand_latency_us.extend(o.demand_latency_us);
        self.deadline_ios += o.deadline_ios;
        self.deadline_misses += o.deadline_misses;
        self.cpu_jobs += o.cpu_jobs;
        self.cpu_busy_ns += o.cpu_busy_ns;
        self.net_messages += o.net_messages;
        self.net_bytes += o.net_bytes;
        self.pool_hits += o.pool_hits;
        self.pool_shared += o.pool_shared;
        self.pool_inflight += o.pool_inflight;
        self.pool_misses += o.pool_misses;
        self.pool_evictions += o.pool_evictions;
        self.pool_alloc_failures += o.pool_alloc_failures;
        self.prefetch_inserts += o.prefetch_inserts;
        self.prefetch_used += o.prefetch_used;
        self.prefetch_wasted += o.prefetch_wasted;
        self.sim_ns += o.sim_ns;
        self.disk_capacity_ns += o.disk_capacity_ns;
        self.cpu_capacity_ns += o.cpu_capacity_ns;
        self.terminal_ns += o.terminal_ns;
    }

    /// Add a run report's prefetch statistics.
    pub fn add_report(&mut self, r: &spiffi_core::RunReport) {
        self.prefetch_inserts += r.pool.prefetch_inserts;
        self.prefetch_used += r.pool.prefetch_used;
        self.prefetch_wasted += r.pool.prefetch_wasted;
    }

    /// Resolved page-table lookups: resident hits, in-flight merges and
    /// demand misses that allocated a frame.
    pub fn pool_lookups(&self) -> u64 {
        self.pool_hits + self.pool_inflight + self.pool_misses
    }

    /// The `q`-quantile of demand I/O latency in ms (nearest rank).
    pub fn demand_latency_ms(&mut self, q: f64) -> f64 {
        let v = &mut self.demand_latency_us;
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e3
    }
}

/// A [`Probe`] that tallies what every layer did in one run.
#[derive(Clone, Debug)]
pub struct CountingProbe {
    disks: u64,
    nodes: u64,
    terminals: u64,
    pub counts: Counts,
}

impl CountingProbe {
    pub fn new(cfg: &SystemConfig) -> Self {
        CountingProbe {
            disks: cfg.topology.total_disks() as u64,
            nodes: cfg.topology.nodes as u64,
            terminals: cfg.n_terminals as u64,
            counts: Counts::default(),
        }
    }
}

impl Probe for CountingProbe {
    fn sim_event(&mut self, _now: SimTime, kind: &'static str) {
        let i = EVENT_KINDS
            .iter()
            .position(|k| *k == kind)
            .unwrap_or(EVENT_KINDS.len());
        self.counts.events[i] += 1;
    }

    fn disk_io_start(&mut self, _now: SimTime, ev: DiskIoStart) {
        let c = &mut self.counts;
        c.disk_ios += 1;
        c.disk_prefetch_ios += ev.is_prefetch as u64;
        c.disk_service_ns += ev.service.total().0;
        c.queue_depth_sum += ev.queue_depth as u64;
        c.queue_depth_max = c.queue_depth_max.max(ev.queue_depth as u64);
    }

    fn disk_io_done(&mut self, _now: SimTime, ev: DiskIoDone) {
        let c = &mut self.counts;
        if !ev.is_prefetch {
            c.demand_latency_us.push(ev.latency.0 / 1_000);
        }
        if let Some(slack) = ev.deadline_slack_ns {
            c.deadline_ios += 1;
            c.deadline_misses += (slack < 0) as u64;
        }
    }

    fn cpu_span(&mut self, _node: u32, start: SimTime, end: SimTime, _job: CpuJobKind) {
        self.counts.cpu_jobs += 1;
        self.counts.cpu_busy_ns += end.0.saturating_sub(start.0);
    }

    fn net_send(&mut self, _now: SimTime, ev: NetSend) {
        self.counts.net_messages += 1;
        self.counts.net_bytes += ev.bytes;
    }

    fn pool_event(&mut self, _now: SimTime, _node: u32, ev: PoolEvent) {
        let c = &mut self.counts;
        match ev {
            PoolEvent::Hit { shared } => {
                c.pool_hits += 1;
                c.pool_shared += shared as u64;
            }
            PoolEvent::InFlightHit { shared } => {
                c.pool_inflight += 1;
                c.pool_shared += shared as u64;
            }
            PoolEvent::Miss { evicted } => {
                c.pool_misses += 1;
                c.pool_evictions += evicted as u64;
            }
            PoolEvent::PrefetchAlloc { evicted } => c.pool_evictions += evicted as u64,
            PoolEvent::AllocFailure => c.pool_alloc_failures += 1,
        }
    }

    fn run_end(&mut self, end: SimTime) {
        let c = &mut self.counts;
        c.sim_ns += end.0;
        c.disk_capacity_ns += self.disks * end.0;
        c.cpu_capacity_ns += self.nodes * end.0;
        c.terminal_ns += self.terminals as u128 * end.0 as u128;
    }
}
