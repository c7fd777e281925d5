//! Layer-replay microbenchmarks: each drives one layer's public functions
//! with inputs shaped like a workload's (queue depths, frame counts, hit
//! ratios, pending populations taken from the traced run) and folds every
//! output into a checksum, so the work cannot be elided and a layer change
//! that alters results shows as a checksum change.

use std::time::{Duration, Instant};

use spiffi_bufferpool::{BufferPool, LookupResult, PolicyKind};
use spiffi_core::{SystemConfig, Terminal};
use spiffi_disk::{Disk, DiskParams};
use spiffi_layout::{BlockAddr, Layout};
use spiffi_mpeg::{PlayCursor, Video, VideoId};
use spiffi_sched::{DiskRequest, RequestId, SchedulerKind, StreamId};
use spiffi_simcore::{Calendar, KernelKind, SimDuration, SimRng, SimTime};

use crate::workloads::median;

/// Timed repetitions per microbenchmark; the reported cost is their
/// median and their checksums must agree.
const REPS: usize = 5;

/// One microbenchmark's result.
#[derive(Clone, Copy, Debug)]
pub struct Micro {
    /// Median host nanoseconds per operation.
    pub ns: f64,
    /// Checksum over every output of one repetition.
    pub checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Run `rep` [`REPS`] times; each call builds its own state, times `ops`
/// operations and returns (elapsed, checksum).
fn measure(
    name: &str,
    ops: u64,
    mut rep: impl FnMut() -> (Duration, u64),
) -> Result<Micro, String> {
    let mut secs = Vec::with_capacity(REPS);
    let mut sum = None;
    for _ in 0..REPS {
        let (d, c) = rep();
        if *sum.get_or_insert(c) != c {
            return Err(format!("{name}: checksum differs between repetitions"));
        }
        secs.push(d.as_secs_f64());
    }
    Ok(Micro {
        ns: median(&secs) * 1e9 / ops as f64,
        checksum: sum.unwrap_or(0),
    })
}

fn exp_draw(rng: &mut SimRng, mean: f64) -> u64 {
    (-mean * (1.0 - rng.f64()).ln()) as u64
}

/// One hold-model pass (as in `cal_bench`): `pending` events primed, then
/// `ops` pop+schedule pairs with exponential horizons of `mean_ns`.
fn hold_once(
    kind: KernelKind,
    pending: usize,
    mean_ns: f64,
    ops: u64,
    seed: u64,
) -> (Duration, u64) {
    let mut cal: Calendar<u64> = Calendar::with_capacity_and_kernel(pending, kind);
    let mut rng = SimRng::stream(seed, 0xca1b);
    for i in 0..pending {
        cal.schedule_at(SimTime(exp_draw(&mut rng, mean_ns)), i as u64);
    }
    let mut sum = FNV_OFFSET;
    let t = Instant::now();
    for _ in 0..ops {
        let (at, payload) = cal.pop().expect("hold model never drains");
        sum = fold(fold(sum, at.0), payload);
        cal.schedule_in(SimDuration(exp_draw(&mut rng, mean_ns)), payload);
    }
    (t.elapsed(), sum)
}

/// `calendar.hold_ns`: pop+schedule at the workload's pending population
/// on `kind`, checked against the heap kernel's pop sequence.
pub fn calendar_hold(
    kind: KernelKind,
    pending: usize,
    mean_ns: f64,
    seed: u64,
) -> Result<Micro, String> {
    const OPS: u64 = 300_000;
    let pending = pending.max(1);
    let m = measure("calendar.hold", OPS, || {
        hold_once(kind, pending, mean_ns, OPS, seed)
    })?;
    let (_, reference) = hold_once(KernelKind::Heap, pending, mean_ns, OPS, seed);
    if reference != m.checksum {
        return Err("calendar.hold: pop sequence differs from the heap reference kernel".into());
    }
    Ok(m)
}

/// `disk.read_ns`: `Disk::read` over `streams` interleaved sequential
/// streams on one disk of the workload's layout.
pub fn disk_read(
    cfg: &SystemConfig,
    layout: &Layout,
    streams: usize,
    seed: u64,
) -> Result<Micro, String> {
    const OPS: u64 = 300_000;
    const INPUTS: usize = 4096;
    let params: DiskParams = cfg.disk.with_capacity_for(layout.max_disk_used_bytes());
    let target = layout.topology().disk_ref(0);
    let mut rng = SimRng::stream(seed, 0xd15c);
    let start_stream = |rng: &mut SimRng| loop {
        let video = VideoId(rng.index(cfg.n_videos) as u32);
        let mut index = rng.u64_below(layout.num_blocks(video) as u64) as u32;
        while index < layout.num_blocks(video) {
            let addr = BlockAddr { video, index };
            if layout.locate(addr).disk == target {
                return addr;
            }
            index += 1;
        }
    };
    let mut cursors: Vec<BlockAddr> = (0..streams.max(1))
        .map(|_| start_stream(&mut rng))
        .collect();
    let mut reads = Vec::with_capacity(INPUTS);
    for _ in 0..INPUTS {
        let s = rng.index(cursors.len());
        let loc = layout.locate(cursors[s]);
        reads.push((loc.disk_byte, loc.len));
        cursors[s] = match layout.next_block_same_disk(cursors[s]) {
            Some(next) => next,
            None => start_stream(&mut rng),
        };
    }
    measure("disk.read", OPS, || {
        let mut disk = Disk::new(params);
        let mut rng = SimRng::stream(seed, 0xd15d);
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for i in 0..OPS as usize {
            let (start, len) = reads[i % INPUTS];
            sum = fold(sum, disk.read(start, len, &mut rng).total().0);
        }
        (t.elapsed(), sum)
    })
}

/// `sched.push_pop_ns.*`: one `pop_next` plus one `push` on `kind`, holding
/// the queue at `depth` requests.
pub fn sched_push_pop(
    kind: SchedulerKind,
    depth: usize,
    cylinders: u32,
    prefetch_share: f64,
    seed: u64,
) -> Result<Micro, String> {
    const OPS: u64 = 300_000;
    let label = kind.label();
    measure(&format!("sched.push_pop {label}"), OPS, || {
        let mut s = kind.build();
        let mut rng = SimRng::stream(seed, 0x5ced);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut request = |rng: &mut SimRng, now: SimTime| {
            next_id += 1;
            DiskRequest {
                id: RequestId(next_id),
                cylinder: rng.u64_below(cylinders.max(1) as u64) as u32,
                deadline: Some(now + SimDuration(rng.u64_below(8_000_000_000))),
                stream: Some(StreamId(rng.u64_below(4096) as u32)),
                is_prefetch: rng.chance(prefetch_share),
            }
        };
        for _ in 0..depth.max(1) {
            s.push(request(&mut rng, now));
        }
        let mut head = 0;
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for _ in 0..OPS {
            now += SimDuration(5_000_000);
            let r = s.pop_next(now, head).expect("queue held non-empty");
            head = r.cylinder;
            sum = fold(sum, r.id.0);
            s.push(request(&mut rng, now));
        }
        (t.elapsed(), sum)
    })
}

/// `layout.locate_ns`: `Layout::locate` on random blocks of the library.
pub fn layout_locate(layout: &Layout, n_videos: usize, seed: u64) -> Result<Micro, String> {
    const OPS: u64 = 1_000_000;
    const INPUTS: usize = 4096;
    let mut rng = SimRng::stream(seed, 0x1a70);
    let addrs: Vec<BlockAddr> = (0..INPUTS)
        .map(|_| {
            let video = VideoId(rng.index(n_videos) as u32);
            let index = rng.u64_below(layout.num_blocks(video) as u64) as u32;
            BlockAddr { video, index }
        })
        .collect();
    let topo = layout.topology();
    measure("layout.locate", OPS, || {
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for i in 0..OPS as usize {
            let loc = layout.locate(addrs[i % INPUTS]);
            sum = fold(
                fold(sum, loc.disk_byte ^ loc.len),
                topo.global_index(loc.disk) as u64,
            );
        }
        (t.elapsed(), sum)
    })
}

/// `bufferpool.lookup_ns`: lookup, then allocate/complete_io on a miss or
/// pin/unpin on a hit, over a key universe sized so LRU reaches roughly
/// the workload's hit ratio at its per-node frame count.
pub fn bufferpool_cycle(
    frames: usize,
    policy: PolicyKind,
    hit_ratio: f64,
    seed: u64,
) -> Result<Micro, String> {
    const OPS: u64 = 500_000;
    let frames = frames.max(2);
    let universe = ((frames as f64 / hit_ratio.max(1e-3)).ceil() as u64)
        .clamp(frames as u64 + 1, frames as u64 * 1000);
    measure("bufferpool.lookup", OPS, || {
        let mut pool = BufferPool::new(frames, policy);
        let mut rng = SimRng::stream(seed, 0xb0f);
        let mut waiters = Vec::new();
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for _ in 0..OPS {
            let k = rng.u64_below(universe);
            let key = BlockAddr {
                video: VideoId((k >> 16) as u32),
                index: (k & 0xffff) as u32,
            };
            let term = rng.u64_below(1024) as u32;
            match pool.lookup(key, Some(term)) {
                LookupResult::Resident(f) | LookupResult::InFlight(f) => {
                    pool.pin(f);
                    pool.record_reference(f, term);
                    pool.unpin(f);
                    sum = fold(sum, f.0 as u64);
                }
                LookupResult::Miss => {
                    let f = pool.allocate(key, false).expect("an unpinned frame exists");
                    pool.complete_io_into(f, &mut waiters);
                    pool.record_reference(f, term);
                    sum = fold(sum, (1 << 32) | f.0 as u64);
                }
            }
        }
        (t.elapsed(), sum)
    })
}

/// `terminal.pump_ns`: `Terminal::pump` on one terminal playing `video`,
/// with every requested block delivered at once and the next pump at the
/// terminal's requested wake-up.
pub fn terminal_pump(video: &Video, block_bytes: u64, capacity: u64) -> Result<Micro, String> {
    const OPS: u64 = 200_000;
    measure("terminal.pump", OPS, || {
        let mut term = Terminal::new(0, capacity);
        term.start_video(video, block_bytes, 0, Vec::new());
        let mut now = SimTime::ZERO;
        let mut scratch = Vec::new();
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for _ in 0..OPS {
            let p = term.pump_reusing(video, block_bytes, now, scratch);
            for &b in &p.requests {
                term.on_block_arrival(video, block_bytes, b, term.epoch());
                sum = fold(sum, b as u64);
            }
            if p.finished {
                term.start_video(video, block_bytes, 0, Vec::new());
            }
            now = match p.wake_at {
                Some(w) if w > now => w,
                _ => now + SimDuration(40_000_000),
            };
            sum = fold(sum, now.0);
            scratch = p.requests;
        }
        (t.elapsed(), sum)
    })
}

/// `terminal.seek_ns`: `PlayCursor::seek` forward by the workload's
/// frames-per-wake stride (the bulk frame advance), wrapping at the end.
pub fn terminal_seek(video: &Video, frames_per_wake: u64, seed: u64) -> Result<Micro, String> {
    const OPS: u64 = 1_000_000;
    let n = video.num_frames().max(1);
    let stride = (2 * frames_per_wake).max(1);
    measure("terminal.seek", OPS, || {
        let mut cursor = PlayCursor::new(video, 0);
        let mut rng = SimRng::stream(seed, 0x5eec);
        let mut frame = 0;
        let mut sum = FNV_OFFSET;
        let t = Instant::now();
        for _ in 0..OPS {
            frame = (frame + 1 + rng.u64_below(stride)) % n;
            cursor.seek(video, frame);
            sum = fold(sum, cursor.bytes_before_frame());
        }
        (t.elapsed(), sum)
    })
}
