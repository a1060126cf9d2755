//! Cross-engine equivalence: the core-sharded epoch engine (the default
//! for multi-core machines, any `--machine-jobs N`) must be
//! **bit-identical** to the serial reference engine — same memory, same
//! architectural state, same counters, same cache and wake statistics,
//! same `now` — on workloads that commit epochs, bail out of them, and
//! fall back to serial replay.

use std::fmt::Write as _;

use switchless_core::machine::{Machine, MachineConfig};
use switchless_core::ThreadId;
use switchless_isa::asm::assemble;
use switchless_sim::rng::{mix_seed, Rng};
use switchless_sim::time::Cycles;

/// Picks the engine under test: `None` pins the serial reference engine,
/// `Some(jobs)` the epoch engine on that many host threads. Both are set
/// explicitly so `SWITCHLESS_ENGINE` in the environment changes nothing.
fn set_engine(m: &mut Machine, jobs: Option<usize>) {
    m.set_serial_engine(jobs.is_none());
    m.set_machine_jobs(jobs.unwrap_or(1));
}

/// Folds every observable surface of a machine into one string: thread
/// architectural state, billed cycles, wake statistics, all nonzero
/// counters, cache/TLB-visible statistics, the wake-latency histogram
/// (bucket-exact), and an FNV fold of the memory spans of interest.
/// Two machines with equal fingerprints are observably identical.
fn fingerprint(m: &Machine, tids: &[ThreadId], spans: &[(u64, u64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now={:?} halted={:?}", m.now(), m.halted_reason());
    for (name, v) in m.counters().iter() {
        let _ = writeln!(s, "ctr {name}={v}");
    }
    for (i, &tid) in tids.iter().enumerate() {
        let regs: Vec<u64> = (0..16).map(|r| m.thread_reg(tid, r)).collect();
        let _ = writeln!(
            s,
            "t{i} state={:?} pc={:#x} billed={} wake={:?} regs={regs:?}",
            m.thread_state(tid),
            m.thread_pc(tid),
            m.billed_cycles(tid).0,
            m.thread_wake_stats(tid),
        );
    }
    let cores = m.config().cores;
    for c in 0..cores {
        let _ = writeln!(s, "store{c}={:?}", m.store_stats(c));
    }
    let _ = writeln!(
        s,
        "cache={:?} wb={:?}",
        m.cache_stats(),
        m.cache_writebacks()
    );
    let _ = writeln!(s, "hist={:?}", m.wake_latency());
    let _ = writeln!(s, "last_wake={:?}", m.last_wake_latency());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(base, len) in spans {
        let mut a = base;
        while a + 8 <= base + len {
            h = (h ^ m.peek_u64(a)).wrapping_mul(0x0000_0100_0000_01b3);
            a += 8;
        }
    }
    let _ = writeln!(s, "mem={h:#x}");
    s
}

/// Per-core compute loops over disjoint memory domains, deliberately
/// staggered (different strides, work amounts and loop lengths) so the
/// cores' event streams do not stay phase-locked.
fn build_compute(cores: usize, jobs: Option<usize>) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    let mut m = Machine::new(cfg);
    set_engine(&mut m, jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    for c in 0..cores {
        let buf = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {buf}
                movi r4, {end}
                movi r6, 0
            pass:
                ld r2, r3, 0
                addi r2, r2, {inc}
                st r2, r3, 0
                work {wk}
                addi r3, r3, {stride}
                addi r6, r6, 1
                blt r3, r4, pass
                movi r3, {buf}
                jmp pass
            "#,
            base = 0x10000 + (c as u64) * 0x4000,
            buf = buf,
            end = buf + 4096,
            inc = c + 1,
            wk = 7 + 6 * c,
            stride = 8 * (c as u64 + 1),
        ))
        .expect("compute program");
        let tid = m.load_program(c, &prog).expect("load");
        m.set_core_domain(c, buf, 4096);
        m.start_thread(tid);
        tids.push(tid);
        spans.push((buf, 4096));
    }
    (m, tids, spans)
}

/// Runs a machine to `t` in uneven increments (exercises epoch retries,
/// the serial floor, and the `now = t` tail on every segment boundary).
fn run_chunked(m: &mut Machine, t: u64) {
    let cuts = [t / 3, t / 3 + 1, 2 * t / 3, t];
    for &c in &cuts {
        m.run_until(Cycles(c));
    }
}

#[test]
fn sharded_matches_serial_on_domain_compute() {
    let t = 300_000;
    let (mut serial, tids_s, spans) = build_compute(4, None);
    run_chunked(&mut serial, t);
    let want = fingerprint(&serial, &tids_s, &spans);

    for jobs in [1, 2, 4] {
        let (mut par, tids_p, spans_p) = build_compute(4, Some(jobs));
        run_chunked(&mut par, t);
        let got = fingerprint(&par, &tids_p, &spans_p);
        assert_eq!(want, got, "machine-jobs {jobs} diverged from serial");
        let st = par.shard_stats();
        assert!(
            st.committed > 0 && st.insts_parallel > 1_000,
            "expected real parallel epochs, got {st:?}"
        );
    }
}

#[test]
fn sharded_is_deterministic_across_runs() {
    let t = 150_000;
    let (mut a, tids_a, spans_a) = build_compute(4, Some(4));
    run_chunked(&mut a, t);
    let (mut b, tids_b, spans_b) = build_compute(4, Some(4));
    run_chunked(&mut b, t);
    assert_eq!(
        fingerprint(&a, &tids_a, &spans_a),
        fingerprint(&b, &tids_b, &spans_b),
    );
    assert_eq!(
        a.shard_stats(),
        b.shard_stats(),
        "epoch schedule must be deterministic"
    );
}

/// Monitor/mwait wake traffic driven by host callbacks: callbacks
/// truncate every epoch window, wakes produce cross-record effects
/// (histogram samples, `last_wake`), and threads repeatedly park —
/// the engine must interleave serial replay with epochs and still match.
fn build_wakers(jobs: Option<usize>) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    set_engine(&mut m, jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    for c in 0..2usize {
        let word = m.alloc(64);
        let prog = assemble(&format!(
            r#"
            .base {base:#x}
            entry:
                movi r3, {word}
            loop:
                monitor r3
                mwait
                ld r2, r3, 0
                addi r5, r5, 1
                work {wk}
                jmp loop
            "#,
            base = 0x20000 + (c as u64) * 0x4000,
            word = word,
            wk = 11 + 8 * c,
        ))
        .expect("waker program");
        let tid = m.load_program(c, &prog).expect("load");
        m.start_thread(tid);
        tids.push(tid);
        spans.push((word, 64));
        for i in 0..40u64 {
            let at = Cycles(2_000 + i * 1_700 + (c as u64) * 531);
            let v = i + 1;
            m.at(at, move |mach| {
                mach.poke_u64(word, v);
            });
        }
    }
    (m, tids, spans)
}

#[test]
fn sharded_matches_serial_under_wake_traffic() {
    let t = 120_000;
    let (mut serial, tids_s, spans) = build_wakers(None);
    serial.run_until(Cycles(t));
    let want = fingerprint(&serial, &tids_s, &spans);

    for jobs in [1, 4] {
        let (mut par, tids_p, spans_p) = build_wakers(Some(jobs));
        par.run_until(Cycles(t));
        let got = fingerprint(&par, &tids_p, &spans_p);
        assert_eq!(
            want, got,
            "wake-heavy workload diverged on {jobs} host threads"
        );
    }
}

/// Without registered domains every store leaves the shard, so epochs
/// containing stores bail and replay serially — slower, never wrong.
#[test]
fn sharded_matches_serial_without_domains() {
    let t = 60_000;
    let build = |jobs: Option<usize>| {
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        let mut m = Machine::new(cfg);
        set_engine(&mut m, jobs);
        let mut tids = Vec::new();
        let mut spans = Vec::new();
        for c in 0..2usize {
            let buf = m.alloc(1024);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r3, {buf}
                    movi r2, 0
                loop:
                    addi r2, r2, {inc}
                    st r2, r3, 0
                    work {wk}
                    jmp loop
                "#,
                base = 0x30000 + (c as u64) * 0x4000,
                buf = buf,
                inc = c + 1,
                wk = 9 + 5 * c,
            ))
            .expect("store program");
            let tid = m.load_program(c, &prog).expect("load");
            m.start_thread(tid);
            tids.push(tid);
            spans.push((buf, 1024));
        }
        (m, tids, spans)
    };
    let (mut serial, tids_s, spans) = build(None);
    serial.run_until(Cycles(t));
    let (mut par, tids_p, spans_p) = build(Some(4));
    par.run_until(Cycles(t));
    assert_eq!(
        fingerprint(&serial, &tids_s, &spans),
        fingerprint(&par, &tids_p, &spans_p),
    );
    assert!(
        par.shard_stats().bailed > 0,
        "undomained stores should be bailing epochs: {:?}",
        par.shard_stats()
    );
}

/// Two enrolled threads per core: bursts are ineligible (no sole
/// runnable), so workers replay per-event scheduler rotation.
#[test]
fn sharded_matches_serial_with_scheduler_rotation() {
    let t = 80_000;
    let build = |jobs: Option<usize>| {
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        let mut m = Machine::new(cfg);
        set_engine(&mut m, jobs);
        let mut tids = Vec::new();
        let mut spans = Vec::new();
        for c in 0..2usize {
            let buf = m.alloc(2048);
            m.set_core_domain(c, buf, 2048);
            spans.push((buf, 2048));
            for k in 0..2u64 {
                let prog = assemble(&format!(
                    r#"
                    .base {base:#x}
                    entry:
                        movi r3, {slot}
                        movi r2, 0
                    loop:
                        addi r2, r2, 1
                        st r2, r3, 0
                        work {wk}
                        jmp loop
                    "#,
                    base = 0x40000 + (c as u64) * 0x8000 + k * 0x4000,
                    slot = buf + k * 512,
                    wk = 5 + 3 * (c as u64) + 2 * k,
                ))
                .expect("pair program");
                let tid = m.load_program(c, &prog).expect("load");
                m.start_thread(tid);
                tids.push(tid);
            }
        }
        (m, tids, spans)
    };
    let (mut serial, tids_s, spans) = build(None);
    run_chunked(&mut serial, t);
    let (mut par, tids_p, spans_p) = build(Some(3));
    run_chunked(&mut par, t);
    assert_eq!(
        fingerprint(&serial, &tids_s, &spans),
        fingerprint(&par, &tids_p, &spans_p),
    );
}

#[test]
fn machine_jobs_one_runs_epochs_inline() {
    // The default engine at one host thread runs epochs inline...
    let (mut m, tids, spans) = build_compute(4, Some(1));
    m.run_until(Cycles(50_000));
    let st = m.shard_stats();
    assert!(st.committed > 0, "expected inline epochs, got {st:?}");
    // ...and only the explicit oracle switch selects the serial engine.
    let (mut serial, tids_s, spans_s) = build_compute(4, None);
    serial.run_until(Cycles(50_000));
    assert!(serial.serial_engine());
    assert_eq!(serial.shard_stats(), Default::default());
    assert_eq!(
        fingerprint(&m, &tids, &spans),
        fingerprint(&serial, &tids_s, &spans_s)
    );
    // One core, or the invariant checker on, also runs serially.
    let (mut one, _, _) = build_compute(1, Some(1));
    one.run_until(Cycles(20_000));
    assert_eq!(one.shard_stats(), Default::default());
    let (mut checked, _, _) = build_compute(4, Some(1));
    checked.enable_invariants(true);
    checked.run_until(Cycles(20_000));
    assert_eq!(checked.shard_stats(), Default::default());
}

// ---------------------------------------------------------------------
// Seeded 4-core compute machines: the generator of the `compute_l1` /
// `compute_l2` benchmark workloads, copied here so the tests stand alone.
// ---------------------------------------------------------------------

/// One compute core's input.
struct CoreInput {
    region: u64,
    stride: u64,
    work: u64,
    inc: u64,
    /// Bytes between the allocation and the region start.
    offset: u64,
}

/// `(region KiB, stride, work)` classes: all inside the 32 KiB L1, or
/// past it but inside the 512 KiB L2.
const L1_CLASSES: [(u64, u64, u64); 4] = [(4, 8, 7), (8, 16, 13), (12, 24, 19), (16, 32, 25)];
const L2_CLASSES: [(u64, u64, u64); 4] = [(64, 8, 7), (128, 16, 13), (192, 32, 19), (256, 64, 25)];

/// The seed deals the classes to the cores, trims up to 15 lines off
/// each region, slides it up to 63 lines into its allocation, and draws
/// its increment.
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

/// A seeded compute machine: per core an `ld/addi/st/work` loop over its
/// own domain, counting iterations in r6 and whole passes in r7.
fn build_seeded(
    seed: u64,
    l2: bool,
    jobs: Option<usize>,
) -> (Machine, Vec<ThreadId>, Vec<(u64, u64)>) {
    let inputs = compute_inputs(seed, l2);
    let mut cfg = MachineConfig::small();
    cfg.cores = inputs.len();
    let mut m = Machine::new(cfg);
    set_engine(&mut m, jobs);
    let mut tids = Vec::new();
    let mut spans = Vec::new();
    for (c, inp) in inputs.iter().enumerate() {
        let buf = m.alloc(inp.region + 4096) + inp.offset;
        let prog = assemble(&format!(
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
            base = 0x40000 + c as u64 * 0x4000,
            end = buf + inp.region,
            inc = inp.inc,
            work = inp.work,
            stride = inp.stride,
        ))
        .expect("compute program assembles");
        let tid = m.load_program(c, &prog).expect("compute program loads");
        m.set_core_domain(c, buf, inp.region);
        m.start_thread(tid);
        tids.push(tid);
        spans.push((buf, inp.region));
    }
    (m, tids, spans)
}

/// The `compute_l2` seed-2 machine once diverged on the epoch engine:
/// at horizon 75 688 two same-cycle L3-bound accesses of cores 1 and 2
/// were served in the other order, and one instruction went missing by
/// 4 M cycles. Cause: per-core horizons staggered below the epoch
/// horizon held events back whose continuations were queued after
/// another core's committed survivor due the same cycle, although the
/// serial engine creates them first. The epoch machine advances in short
/// `run_until` steps, which keeps its bail backoff from replaying the
/// whole cold pass serially, so epochs run throughout.
#[test]
fn compute_l2_seed_2_matches_serial() {
    let (mut epoch, tids_e, spans_e) = build_seeded(2, true, Some(1));
    let mut at = 0;
    for t in [75_688, 100_000, 200_000] {
        while at < t {
            at = (at + 997).min(t);
            epoch.run_until(Cycles(at));
        }
        let (mut serial, tids_s, spans) = build_seeded(2, true, None);
        serial.run_until(Cycles(t));
        for (c, (&ts, &te)) in tids_s.iter().zip(&tids_e).enumerate() {
            let core =
                |m: &Machine, tid| (m.thread_reg(tid, 6), m.thread_pc(tid), m.billed_cycles(tid));
            assert_eq!(
                core(&serial, ts),
                core(&epoch, te),
                "core {c} at horizon {t}"
            );
        }
        assert_eq!(
            fingerprint(&serial, &tids_s, &spans),
            fingerprint(&epoch, &tids_e, &spans_e),
            "machine at horizon {t}"
        );
    }
}

/// Serial oracle vs default engine over seeds 1..=16 with both class
/// sets, stopping at horizons that end mid-window.
#[test]
fn seeded_compute_engines_agree() {
    let mut committed = 0;
    for seed in 1..=16 {
        for l2 in [false, true] {
            let (mut serial, tids_s, spans) = build_seeded(seed, l2, None);
            let (mut epoch, tids_e, spans_e) = build_seeded(seed, l2, Some(1));
            for t in [20_011, 47_303, 61_237] {
                serial.run_until(Cycles(t));
                epoch.run_until(Cycles(t));
                assert_eq!(
                    fingerprint(&serial, &tids_s, &spans),
                    fingerprint(&epoch, &tids_e, &spans_e),
                    "seed {seed} l2 {l2} horizon {t}"
                );
            }
            committed += epoch.shard_stats().committed;
        }
    }
    assert!(committed > 0, "the epoch engine never committed");
}
