//! Seeded simulator workloads for the end-to-end benchmark (`run.py`).
//!
//! ```text
//! perfbench <compute_l1|compute_l2|io> --seed N --seconds S
//!           [--trace] [--reference-run] [--epoch-jobs J]
//! ```
//!
//! Repeats set-up + run of one workload, built only from the seed, until
//! `S` host seconds have passed, and prints one JSON object: per
//! repetition the set-up, run and CPU times, the output digests and the
//! simulated counters. `--trace` alternates plain repetitions with
//! traced ones, which record a span around every call made here into a
//! layer's public API, and adds one run on the epoch engine with `J`
//! host workers (compute workloads only). `--reference-run` first runs
//! the workload once, untimed and untraced, on the serial engine; its
//! digests are what the timed repetitions are checked against when no
//! stored reference exists for the seed.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use switchless_core::{Machine, MachineConfig, ShardStats, ThreadId};
use switchless_dev::nic::{Nic, NicConfig};
use switchless_isa::asm::assemble;
use switchless_kern::ioengine::IoEngine;
use switchless_sim::rng::{mix_seed, Rng};
use switchless_sim::time::Cycles;
use switchless_wl::arrivals::{gap_for_utilization, poisson_arrivals};

/// Compute workloads: four cores, one private region each.
const CORES: usize = 4;
/// Simulated cycles every compute repetition runs to.
const COMPUTE_HORIZON: u64 = 4_000_000;
/// Per-core code images, as in F15c.
const CODE_BASE: u64 = 0x40000;
const CODE_STRIDE: u64 = 0x4000;
/// Room for the seeded region offset (63 lines) in each allocation.
const REGION_SLACK: u64 = 4096;

/// I/O workload: F2/F3's hwt design, one core with 128 hardware threads.
const IO_PTIDS: usize = 128;
const IO_WORKERS: usize = 64;
const IO_PACKETS: usize = 100_000;
/// 1 µs of request work at 3 GHz.
const IO_SERVICE: u64 = 3_000;
const IO_SMT_SLOTS: usize = 2;
const IO_RHO: f64 = 0.7;
/// Cycles the engine runs before the first arrival (threads arm their
/// monitors), then the slice each `run_for` call advances.
const IO_WARM: u64 = 30_000;
const IO_SLICE: u64 = 1_000_000;
/// Arrivals are handed to the NIC at most this far ahead of `now`.
const IO_WINDOW: u64 = 2 * IO_SLICE;
const IO_IMAGE_BASE: u64 = 0x40000;

/// Fewest plain repetitions per process, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Clone, Copy)]
enum Workload {
    Compute { l2: bool },
    Io,
}

/// One recorded span: a call into a layer, with its enclosing span.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder; a disabled tracer only runs the closures.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }
}

/// One set-up + run of a workload and what it produced.
struct Rep {
    kind: &'static str,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    /// Outputs checked in this repetition.
    attempted: u64,
    /// Outputs that failed a check made here (the digests are compared
    /// against the reference by `run.py`).
    failed: u64,
    digests: Vec<u64>,
    counts: Vec<(&'static str, f64)>,
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system, all threads) of this process, in seconds.
fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, returning its result with wall and CPU seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64(), cpu_seconds() - c0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated counters shared by every workload.
fn machine_counts(m: &Machine) -> Vec<(&'static str, f64)> {
    let c = m.counters();
    let ((l1h, l1m), (l2h, l2m), (_, l3m)) = m.cache_stats();
    let (w1, w2, w3) = m.cache_writebacks();
    let get = |name: &str| c.get(name) as f64;
    vec![
        ("core.insts", get("inst.executed")),
        ("mem.l1.hit_ratio", ratio(l1h, l1h + l1m)),
        ("mem.l2.hit_ratio", ratio(l2h, l2h + l2m)),
        ("mem.l3.misses", l3m as f64),
        ("mem.writebacks", (w1 + w2 + w3) as f64),
        ("mem.monitor.wakes", get("monitor.wakes")),
        ("mem.monitor.false_wakes", get("monitor.false_wakes")),
        ("mem.monitor.armed", get("monitor.armed")),
        ("core.store.act_rf", get("store.activate.rf")),
        ("core.store.act_l2", get("store.activate.l2")),
        ("core.store.act_l3", get("store.activate.l3")),
        ("core.store.act_dram", get("store.activate.dram")),
        ("core.thread.wakes", get("thread.wakes")),
        ("dev.dma_bytes", get("dma.bytes")),
    ]
}

fn shard_counts(s: ShardStats, insts: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("core.shard.committed", s.committed as f64),
        ("core.shard.bailed", s.bailed as f64),
        ("core.shard.ties", s.ties as f64),
        ("core.shard.serial_events", s.serial_events as f64),
        (
            "core.shard.commit_ratio",
            ratio(s.committed, s.committed + s.bailed + s.ties),
        ),
        ("core.shard.parallel_share", ratio(s.insts_parallel, insts)),
    ]
}

/// Digest of the machine-wide simulated outcome: every counter, the
/// clock and the cache statistics.
fn machine_digest(m: &Machine) -> u64 {
    let mut h = Fnv::new();
    for (name, v) in m.counters().iter() {
        h.bytes(name.as_bytes());
        h.u64(v);
    }
    h.u64(m.now().0);
    let ((a, b), (c, d), (e, f)) = m.cache_stats();
    let (w1, w2, w3) = m.cache_writebacks();
    for v in [a, b, c, d, e, f, w1, w2, w3] {
        h.u64(v);
    }
    h.0
}

/// One compute core's input.
struct CoreInput {
    region: u64,
    stride: u64,
    work: u64,
    inc: u64,
    /// Bytes between the allocation and the region start.
    offset: u64,
}

/// `(region KiB, stride, work)` classes, F15c's stagger. L1 is 32 KiB and
/// L2 512 KiB, both private per core.
const L1_CLASSES: [(u64, u64, u64); CORES] = [(4, 8, 7), (8, 16, 13), (12, 24, 19), (16, 32, 25)];
const L2_CLASSES: [(u64, u64, u64); CORES] =
    [(64, 8, 7), (128, 16, 13), (192, 32, 19), (256, 64, 25)];

/// The seed deals the four classes to the cores, trims up to 15 lines
/// off each region, slides it up to 63 lines into its allocation, and
/// draws its increment. The class multiset is fixed, so every seed
/// costs about the same host time and the spread across seeds stays
/// the host's own.
fn compute_inputs(seed: u64, l2: bool) -> Vec<CoreInput> {
    let mut rng = Rng::seed_from(mix_seed(seed, u64::from(l2)));
    let mut classes = if l2 { L2_CLASSES } else { L1_CLASSES };
    rng.shuffle(&mut classes);
    classes
        .iter()
        .map(|&(kib, stride, work)| CoreInput {
            region: kib * 1024 - 64 * rng.next_range(0, 15),
            stride,
            work,
            inc: rng.next_range(1, 255),
            offset: 64 * rng.next_range(0, 63),
        })
        .collect()
}

/// F15c's loop: `ld/addi/st/work` over the core's region, counting
/// iterations in r6 and whole passes in r7.
fn compute_program(core: usize, buf: u64, inp: &CoreInput) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r3, {buf}
            movi r4, {end}
            movi r6, 0
            movi r7, 0
        loop:
            ld r2, r3, 0
            addi r2, r2, {inc}
            st r2, r3, 0
            work {work}
            addi r3, r3, {stride}
            addi r6, r6, 1
            blt r3, r4, loop
            addi r7, r7, 1
            movi r3, {buf}
            jmp loop
        "#,
        base = CODE_BASE + core as u64 * CODE_STRIDE,
        end = buf + inp.region,
        inc = inp.inc,
        work = inp.work,
        stride = inp.stride,
    )
}

/// Checks a core's registers and region against what its loop must
/// have produced, independently of any engine: after `iters`
/// iterations, the word at stride step `k` holds `inc` times its visit
/// count and every other word is untouched. The horizon may fall just
/// after a store whose iteration is not yet counted, or just before the
/// pass counter is bumped; both are accepted.
fn compute_core_ok(m: &Machine, tid: ThreadId, buf: u64, inp: &CoreInput) -> bool {
    let iters = m.thread_reg(tid, 6);
    let passes = m.thread_reg(tid, 7);
    let steps = inp.region.div_ceil(inp.stride);
    let (full, part) = (iters / steps, iters % steps);
    let passes_ok = passes == full || (part == 0 && full > 0 && passes == full - 1);
    let words_ok = (0..inp.region / 8).all(|w| {
        let got = m.peek_u64(buf + w * 8);
        let off = w * 8;
        if off % inp.stride != 0 {
            return got == 0;
        }
        let k = off / inp.stride;
        let want = inp.inc * (full + u64::from(k < part));
        got == want || (k == part && got == want + inp.inc)
    });
    iters > 0 && passes_ok && words_ok
}

fn compute_rep(seed: u64, l2: bool, jobs: usize, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let inputs = compute_inputs(seed, l2);
    let mut cfg = MachineConfig::small();
    cfg.cores = CORES;
    let mut m = tr.span("core.build", |_| Machine::new(cfg));
    let mut cores = Vec::with_capacity(CORES);
    for (c, inp) in inputs.iter().enumerate() {
        let buf = m.alloc(inp.region + REGION_SLACK) + inp.offset;
        let src = compute_program(c, buf, inp);
        let prog = tr
            .span("isa.assemble", |_| assemble(&src))
            .expect("compute program assembles");
        let tid = tr.span("core.load", |_| {
            let tid = m.load_program(c, &prog).expect("compute program loads");
            m.set_core_domain(c, buf, inp.region);
            m.start_thread(tid);
            tid
        });
        cores.push((tid, buf));
    }
    m.set_machine_jobs(jobs);
    let setup_s = t0.elapsed().as_secs_f64();

    let run_span = if jobs > 1 {
        "core.shard.epoch_run"
    } else {
        "core.run"
    };
    let ((), run_s, cpu_s) = timed(|| tr.span(run_span, |_| m.run_until(Cycles(COMPUTE_HORIZON))));

    let mut digests = Vec::with_capacity(CORES + 1);
    let mut failed = 0;
    for (&(tid, buf), inp) in cores.iter().zip(&inputs) {
        let mut h = Fnv::new();
        h.u64(m.thread_reg(tid, 6));
        h.u64(m.thread_reg(tid, 7));
        h.u64(m.billed_cycles(tid).0);
        for w in 0..inp.region / 8 {
            h.u64(m.peek_u64(buf + w * 8));
        }
        digests.push(h.0);
        failed += u64::from(!compute_core_ok(&m, tid, buf, inp));
    }
    digests.push(machine_digest(&m));
    let mut counts = machine_counts(&m);
    if jobs > 1 {
        counts.extend(shard_counts(
            m.shard_stats(),
            m.counters().get("inst.executed"),
        ));
    }
    Rep {
        kind: "",
        setup_s,
        run_s,
        cpu_s,
        attempted: digests.len() as u64,
        failed,
        digests,
        counts,
    }
}

fn io_rep(seed: u64, tr: &mut Tracer) -> Rep {
    const PAYLOAD: [u8; 64] = [0; 64];
    let t0 = Instant::now();
    let gap = gap_for_utilization(IO_SERVICE as f64, IO_SMT_SLOTS, IO_RHO);
    let arrivals = tr.span("wl.arrivals", |_| {
        let start = Cycles(IO_WARM + 1_000);
        poisson_arrivals(&mut Rng::seed_from(seed), start, gap, IO_PACKETS)
    });
    let mut cfg = MachineConfig::small();
    cfg.ptids_per_core = IO_PTIDS;
    let mut m = tr.span("core.build", |_| Machine::new(cfg));
    let nic_cfg = NicConfig::default();
    let nic = tr.span("dev.attach", |_| Nic::attach(&mut m, nic_cfg));
    let eng = tr
        .span("kern.install", |_| {
            IoEngine::install(&mut m, 0, &nic, IO_WORKERS, IO_IMAGE_BASE)
        })
        .expect("io engine installs");
    let setup_s = t0.elapsed().as_secs_f64();

    let n = IO_PACKETS as u64;
    let last = arrivals.last().map_or(0, |a| a.0);
    let max_slices = last / IO_SLICE + 1_000;
    let ((), run_s, cpu_s) = timed(|| {
        tr.span("core.run", |_| m.run_until(Cycles(IO_WARM)));
        let mut next = 0;
        let mut slices = 0;
        while eng.completed() < n && slices < max_slices {
            let until = m.now() + Cycles(IO_WINDOW);
            let end = next + arrivals[next..].partition_point(|&a| a < until);
            tr.span("kern.ioengine.note_packet", |_| {
                for (seq, &at) in arrivals.iter().enumerate().take(end).skip(next) {
                    eng.note_packet(seq as u64, at + nic_cfg.dma_latency, Cycles(IO_SERVICE));
                }
            });
            tr.span("dev.nic.schedule_rx", |_| {
                for (seq, &at) in arrivals.iter().enumerate().take(end).skip(next) {
                    nic.schedule_rx(&mut m, at, seq as u64, &PAYLOAD);
                }
            });
            next = end;
            tr.span("core.run", |_| m.run_for(Cycles(IO_SLICE)));
            slices += 1;
        }
    });

    let completed = eng.completed();
    let lat = eng.latency();
    let mut h = Fnv::new();
    h.u64(completed);
    for v in [
        lat.count(),
        lat.min(),
        lat.p50(),
        lat.p99(),
        lat.p999(),
        lat.max(),
    ] {
        h.u64(v);
    }
    h.u64(lat.mean().to_bits());
    h.u64(machine_digest(&m));
    // Every packet must complete, and none faster than its service time.
    let failed = n.saturating_sub(completed) + u64::from(lat.min() < IO_SERVICE);
    let mut counts = machine_counts(&m);
    counts.push(("kern.ioengine.completed", completed as f64));
    Rep {
        kind: "",
        setup_s,
        run_s,
        cpu_s,
        attempted: n + 1,
        failed,
        digests: vec![h.0],
        counts,
    }
}

fn run_rep(w: Workload, seed: u64, jobs: usize, kind: &'static str, tr: &mut Tracer) -> Rep {
    let root = match kind {
        "epoch" => "rep.epoch",
        _ => "rep",
    };
    let mut rep = tr.span(root, |tr| match w {
        Workload::Compute { l2 } => compute_rep(seed, l2, jobs, tr),
        Workload::Io => io_rep(seed, tr),
    });
    rep.kind = kind;
    rep
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn to_json(w: &str, seed: u64, reps: &[Rep], spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\":\"{w}\",\"seed\":{seed},\"reps\":[");
    for (i, r) in reps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let digests: Vec<String> = r.digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
        let counts: Vec<String> = r
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_f64(*v)))
            .collect();
        let _ = write!(
            s,
            "{{\"kind\":\"{}\",\"setup_s\":{},\"run_s\":{},\"cpu_s\":{},\"attempted\":{},\
             \"failed\":{},\"digests\":[{}],\"counts\":{{{}}}}}",
            r.kind,
            json_f64(r.setup_s),
            json_f64(r.run_s),
            json_f64(r.cpu_s),
            r.attempted,
            r.failed,
            digests.join(","),
            counts.join(","),
        );
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
            sp.name,
            json_f64(sp.start),
            json_f64(sp.end),
        );
    }
    s.push_str("]}");
    s
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_run: bool,
    epoch_jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it.next().ok_or("missing workload")?;
    let workload = match name.as_str() {
        "compute_l1" => Workload::Compute { l2: false },
        "compute_l2" => Workload::Compute { l2: true },
        "io" => Workload::Io,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut args = Args {
        name,
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        reference_run: false,
        epoch_jobs: 2,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--epoch-jobs" => {
                args.epoch_jobs = value()?.parse().map_err(|e| format!("--epoch-jobs: {e}"))?;
            }
            "--trace" => args.trace = true,
            "--reference-run" => args.reference_run = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut plain = Tracer::new(origin, false);
    let mut traced = Tracer::new(origin, true);
    let (w, seed) = (args.workload, args.seed);

    let mut reps = Vec::new();
    if args.reference_run {
        reps.push(run_rep(w, seed, 1, "reference", &mut plain));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut n_plain = 0;
    while n_plain < MIN_REPS || Instant::now() < deadline {
        reps.push(run_rep(w, seed, 1, "plain", &mut plain));
        n_plain += 1;
        if args.trace {
            reps.push(run_rep(w, seed, 1, "traced", &mut traced));
        }
    }
    if args.trace && matches!(w, Workload::Compute { .. }) {
        reps.push(run_rep(w, seed, args.epoch_jobs, "epoch", &mut traced));
    }
    println!("{}", to_json(&args.name, seed, &reps, &traced.spans));
}
