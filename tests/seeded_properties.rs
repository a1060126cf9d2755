//! Seeded property tests on the core data structures and invariants.
//!
//! Each property draws its inputs from [`Rng`] for `CASES` seeds; a
//! failing case (an assertion or a panic) prints its property number,
//! its seed and its inputs before failing the test, so it replays by
//! seed alone.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use switchless::core::perm::{Perms, TdtEntry};
use switchless::core::store::{StateStore, StoreConfig, Tier};
use switchless::core::tid::Ptid;
use switchless::isa::asm::assemble;
use switchless::isa::disasm::disassemble;
use switchless::isa::inst::Inst;
use switchless::mem::monitor::{CamFilter, HashFilter, MonitorFilter, WatchId};
use switchless::mem::PAddr;
use switchless::sim::event::EventQueue;
use switchless::sim::rng::{mix_seed, Rng};
use switchless::sim::stats::Histogram;
use switchless::sim::time::Cycles;
use switchless::wl::queue::{Discipline, QueueConfig, QueueResult, QueueSim};

const CASES: u64 = 256;

/// Runs `check` on `CASES` inputs drawn by `gen`, one seed each; a
/// failing case prints its seed and input before failing the test.
fn for_each_case<T: Debug>(property: u64, gen: impl Fn(&mut Rng) -> T, check: impl Fn(&T)) {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(mix_seed(seed, property));
        let input = gen(&mut rng);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&input))) {
            eprintln!("property {property}, seed {seed}: failing input {input:?}");
            resume_unwind(panic);
        }
    }
}

/// An instruction word: half arbitrary, half with an opcode byte in the
/// assigned range (so most of those decode) over arbitrary fields.
fn word(rng: &mut Rng) -> u64 {
    if rng.chance(0.5) {
        rng.next_u64()
    } else {
        (rng.next_below(0x50) << 56) | (rng.next_u64() >> 8)
    }
}

/// Between `lo` and `hi` (inclusive) items drawn by `item`.
fn vec_of<T>(rng: &mut Rng, lo: u64, hi: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = rng.next_range(lo, hi);
    (0..n).map(|_| item(rng)).collect()
}

/// Watches `(addr, len)` plus one store `(addr, len)`, as drawn for the
/// monitor filter properties.
type FilterCase = (Vec<(u64, u64)>, u64, u64);

fn filter_case(rng: &mut Rng) -> FilterCase {
    let watches = vec_of(rng, 1, 49, |r| (r.next_below(10_000), r.next_range(1, 63)));
    (watches, rng.next_below(10_064), rng.next_range(1, 63))
}

/// Every decodable instruction word re-encodes to itself.
#[test]
fn inst_decode_encode_roundtrip() {
    for_each_case(1, word, |&w| {
        if let Ok(inst) = Inst::decode(w) {
            let back = Inst::decode(inst.encode()).expect("re-encoded word decodes");
            assert_eq!(inst, back);
        }
    });
}

/// Disassembling any decodable instruction produces text the assembler
/// accepts and that round-trips to the same instruction.
#[test]
fn disasm_reassembles() {
    for_each_case(2, word, |&w| {
        if let Ok(inst) = Inst::decode(w) {
            let text = disassemble(inst);
            let p = assemble(&format!("entry: {text}\n"))
                .unwrap_or_else(|e| panic!("'{text}' failed to assemble: {e}"));
            let back = Inst::decode(p.words[0]).expect("assembled word decodes");
            assert_eq!(inst, back, "via '{text}'");
        }
    });
}

/// TDT entries survive the memory encoding.
#[test]
fn tdt_entry_roundtrip() {
    let gen = |rng: &mut Rng| TdtEntry {
        ptid: Ptid(rng.next_u64() as u32),
        perms: Perms(rng.next_below(16) as u8),
        valid: rng.chance(0.5),
    };
    for_each_case(3, gen, |&e| assert_eq!(TdtEntry::decode(e.encode()), e));
}

/// Histogram quantiles are within 3% of an exact sorted reference.
#[test]
fn histogram_quantiles_match_reference() {
    let gen = |rng: &mut Rng| {
        let values = vec_of(rng, 50, 399, |r| r.next_range(1, 999_999));
        (values, 0.01 + 0.989 * rng.next_f64())
    };
    for_each_case(4, gen, |(values, q)| {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let got = h.quantile(*q);
        let err = (got as f64 - exact as f64).abs() / exact as f64;
        assert!(err < 0.03, "q={q} got={got} exact={exact}");
    });
}

/// The CAM monitor filter never misses an armed write (no lost
/// wakeups), and never wakes a watcher whose range is disjoint.
#[test]
fn cam_filter_exact_semantics() {
    for_each_case(5, filter_case, |(watches, store_addr, store_len)| {
        let mut f = CamFilter::new(256);
        for (i, &(a, l)) in watches.iter().enumerate() {
            f.arm(WatchId(i as u64), PAddr(a), l)
                .expect("capacity is sufficient");
        }
        let mut out = Vec::new();
        f.on_store(PAddr(*store_addr), *store_len, &mut out);
        for (i, &(a, l)) in watches.iter().enumerate() {
            let overlap = *store_addr < a + l && a < store_addr + store_len;
            let woken = out.iter().any(|w| w.watcher == WatchId(i as u64));
            assert_eq!(overlap, woken, "watch {i} at ({a},{l})");
        }
    });
}

/// The hashed filter is *conservative*: it may false-wake, but every
/// genuinely overlapping watch is woken (no lost wakeups).
#[test]
fn hash_filter_never_loses_wakeups() {
    for_each_case(6, filter_case, |(watches, store_addr, store_len)| {
        let mut f = HashFilter::new();
        for (i, &(a, l)) in watches.iter().enumerate() {
            f.arm(WatchId(i as u64), PAddr(a), l).expect("unbounded");
        }
        let mut out = Vec::new();
        f.on_store(PAddr(*store_addr), *store_len, &mut out);
        for (i, &(a, l)) in watches.iter().enumerate() {
            if *store_addr < a + l && a < store_addr + store_len {
                assert!(
                    out.iter().any(|w| w.watcher == WatchId(i as u64)),
                    "lost wakeup for watch {i} at ({a},{l})"
                );
            }
        }
    });
}

/// State-store tier accounting is conserved: every registered thread is
/// in exactly one tier and occupancies sum correctly.
#[test]
fn state_store_conservation() {
    let gen = |rng: &mut Rng| {
        vec_of(rng, 1, 199, |r| {
            (r.next_below(40) as u32, r.next_below(8) as u8)
        })
    };
    for_each_case(7, gen, |ops| {
        let mut s = StateStore::new(StoreConfig {
            rf_threads: 4,
            l2_threads: 8,
            l3_threads: 16,
            ..StoreConfig::default()
        });
        let mut registered = std::collections::HashSet::new();
        for &(t, prio) in ops {
            s.activate(Ptid(t), prio, 160);
            registered.insert(t);
        }
        let total = s.occupancy(Tier::Rf)
            + s.occupancy(Tier::L2)
            + s.occupancy(Tier::L3)
            + s.occupancy(Tier::Dram);
        assert_eq!(total, registered.len());
        assert!(s.occupancy(Tier::Rf) <= 4);
        assert!(s.occupancy(Tier::L2) <= 8);
        assert!(s.occupancy(Tier::L3) <= 16);
    });
}

/// The queueing simulator conserves work: with no overheads, busy
/// cycles equal total service, every job completes, and no job leaves
/// sooner than the shortest service time after it arrived.
#[test]
fn queue_sim_conserves_work() {
    let gen = |rng: &mut Rng| {
        let jobs = vec_of(rng, 1, 199, |r| {
            (
                Cycles(r.next_below(100_000)),
                Cycles(r.next_range(1, 4_999)),
            )
        });
        let servers = rng.next_range(1, 4) as usize;
        let discipline = if rng.chance(0.5) {
            Discipline::Fcfs
        } else {
            Discipline::Rr {
                quantum: Cycles(500),
            }
        };
        (jobs, servers, discipline)
    };
    for_each_case(8, gen, |(jobs, servers, discipline)| {
        let cfg = QueueConfig {
            servers: *servers,
            discipline: *discipline,
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        };
        let r = QueueSim::run(&cfg, jobs, Cycles::ZERO);
        assert_eq!(r.completed, jobs.len() as u64);
        assert_eq!(r.sojourn.count(), jobs.len() as u64);
        let total: u64 = jobs.iter().map(|&(_, s)| s.0).sum();
        assert_eq!(r.busy_cycles, total);
        let min_service = jobs.iter().map(|&(_, s)| s.0).min().unwrap_or(0);
        assert!(r.sojourn.min() >= min_service);
    });
}

/// Reference queueing simulator for [`queue_sim_matches_event_queue_oracle`]:
/// the same model driven through a general [`EventQueue`]. Every arrival
/// is scheduled up front, each dispatch schedules its completion, and
/// events pop in `(time, insertion)` order, one at a time, each followed
/// by as many dispatches as there are free servers and ready jobs.
fn queue_sim_oracle(cfg: &QueueConfig, jobs: &[(Cycles, Cycles)], warmup: Cycles) -> QueueResult {
    enum Ev {
        Arrival(usize),
        Done { server: usize, job: usize },
    }
    // (arrival, remaining, woken)
    let mut state: Vec<(Cycles, Cycles, bool)> = jobs
        .iter()
        .map(|&(arrival, service)| (arrival, service.max(Cycles(1)), false))
        .collect();
    let mut q: EventQueue<Ev> = EventQueue::new();
    for (i, &(arrival, ..)) in state.iter().enumerate() {
        q.schedule(arrival, Ev::Arrival(i));
    }
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut free: Vec<usize> = (0..cfg.servers).rev().collect();
    let mut result = QueueResult {
        sojourn: Histogram::new(),
        completed: 0,
        makespan: Cycles::ZERO,
        busy_cycles: 0,
    };
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Arrival(job) => ready.push_back(job),
            Ev::Done { server, job } => {
                free.push(server);
                let (arrival, remaining, _) = state[job];
                if remaining == Cycles::ZERO {
                    result.completed += 1;
                    result.makespan = result.makespan.max(now);
                    if arrival >= warmup {
                        result.sojourn.record((now - arrival).0);
                    }
                } else {
                    ready.push_back(job);
                }
            }
        }
        while !free.is_empty() {
            let Some(job) = ready.pop_front() else { break };
            let server = free.pop().expect("checked non-empty");
            let (_, remaining, woken) = &mut state[job];
            let mut cost = cfg.dispatch_overhead;
            if !*woken {
                *woken = true;
                cost += cfg.wakeup_overhead;
            }
            let segment = match cfg.discipline {
                Discipline::Fcfs => *remaining,
                Discipline::Rr { quantum } => (*remaining).min(quantum),
            };
            *remaining -= segment;
            let total = cost + segment;
            result.busy_cycles += total.0;
            q.schedule(now + total, Ev::Done { server, job });
        }
    }
    result
}

/// The queueing simulator's event order is exactly an event queue's:
/// [`QueueSim::run`] agrees with [`queue_sim_oracle`] on every reported
/// figure. Times are drawn on a coarse grid half the time, so equal
/// arrival times and arrival/completion ties are common; arrivals come
/// unsorted, service may be zero, and overheads may be nonzero.
#[test]
fn queue_sim_matches_event_queue_oracle() {
    let gen = |rng: &mut Rng| {
        let grid = if rng.chance(0.5) { 10 } else { 1 };
        let jobs = vec_of(rng, 0, 120, |r| {
            (
                Cycles(r.next_below(400) * grid),
                Cycles(r.next_below(60) * grid),
            )
        });
        let servers = rng.next_range(1, 4) as usize;
        let discipline = if rng.chance(0.5) {
            Discipline::Fcfs
        } else {
            Discipline::Rr {
                quantum: Cycles(rng.next_range(1, 40) * grid),
            }
        };
        let cfg = QueueConfig {
            servers,
            discipline,
            wakeup_overhead: Cycles(rng.next_below(4) * grid),
            dispatch_overhead: Cycles(rng.next_below(3) * grid),
        };
        let warmup = Cycles(rng.next_below(200) * grid);
        (cfg, jobs, warmup)
    };
    for_each_case(10, gen, |(cfg, jobs, warmup)| {
        let got = QueueSim::run(cfg, jobs, *warmup);
        let want = queue_sim_oracle(cfg, jobs, *warmup);
        assert_eq!(got.completed, want.completed);
        assert_eq!(got.makespan, want.makespan);
        assert_eq!(got.busy_cycles, want.busy_cycles);
        let (h, o) = (&got.sojourn, &want.sojourn);
        assert_eq!(h.count(), o.count());
        assert_eq!(h.min(), o.min());
        assert_eq!(h.max(), o.max());
        assert_eq!(h.mean().to_bits(), o.mean().to_bits());
        assert_eq!(h.p50(), o.p50());
        assert_eq!(h.p99(), o.p99());
    });
}

/// Assembler: labels always resolve to 8-byte-aligned addresses inside
/// the image, and the entry point is within the image.
#[test]
fn assembler_label_invariants() {
    let gen = |rng: &mut Rng| (rng.next_range(1, 29), rng.next_below(1 << 16));
    for_each_case(9, gen, |&(n_words, pick)| {
        let mut src = String::new();
        for i in 0..n_words {
            src.push_str(&format!("l{i}: .word {i}\n"));
        }
        src.push_str("entry: halt\n");
        let p = assemble(&src).expect("assembles");
        let addr = p
            .symbol(&format!("l{}", pick % n_words))
            .expect("symbol exists");
        assert_eq!(addr % 8, 0);
        assert!(addr >= p.base && addr < p.end());
        assert!(p.entry >= p.base && p.entry < p.end());
    });
}
