//! Seeded executor fuzz: arbitrary instruction streams through both
//! environments of the instruction executor.
//!
//! Feeding the machine *any* sequence of decodable instruction words —
//! privileged ops from user mode, loads and stores at arbitrary
//! addresses, wild jumps and monitors just below 2^64, `start`/`stop`
//! through garbage TDTs, huge `work` bursts and self-jumps — must never
//! panic the simulator, corrupt accounting, or break determinism. Faults
//! must land as descriptors (or deliberate machine halts), exactly like
//! real hardware containing bad software. Every property runs 64 seeded
//! cases; a failing case prints its seed and its instruction words.

use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use switchless_core::machine::{Machine, MachineConfig, ThreadId};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::{assemble, Program};
use switchless_isa::inst::Inst;
use switchless_sim::rng::{mix_seed, Rng};
use switchless_sim::time::Cycles;

const CASES: u64 = 64;

/// Where the garbage image is loaded.
const BASE: u64 = 0x10000;

/// One random instruction word: an opcode byte that usually decodes,
/// three register fields (mostly r0-r3, so values flow between
/// instructions), and an immediate that is arbitrary, just below 2^64, a
/// word slot of the image itself (loops, self-modifying stores), or
/// anywhere in a 1 MiB memory.
fn random_word(rng: &mut Rng) -> u64 {
    let opcode = rng.next_below(0x50);
    let mut regs = 0;
    for _ in 0..3 {
        let n = if rng.chance(0.75) { 4 } else { 16 };
        regs = (regs << 4) | rng.next_below(n);
    }
    let imm = match rng.next_below(8) {
        0 | 1 => rng.next_u64(),
        2 => 0u64.wrapping_sub(1 + rng.next_below(16)),
        3 | 4 => BASE + 8 * rng.next_below(64),
        _ => rng.next_below(1 << 20),
    };
    (opcode << 56) | (regs << 44) | (imm & ((1 << 44) - 1))
}

/// A program image from arbitrary words: keeps the ones that decode,
/// caps `work` bursts so runs stay fast, and ends with `last`.
fn sanitize(words: &[u64], last: Inst) -> Vec<u64> {
    let mut out: Vec<u64> = words
        .iter()
        .filter_map(|&w| {
            Inst::decode(w).ok().map(|i| match i {
                Inst::Work { cycles } => Inst::Work {
                    cycles: cycles % 10_000,
                }
                .encode(),
                _ => w,
            })
        })
        .collect();
    if out.is_empty() {
        out.push(Inst::Nop.encode());
    }
    out.push(last.encode());
    out
}

/// Runs `check(seed, words)` on 64 seeded word streams of up to
/// `max_len` words; a failing case (an assertion or a simulator panic)
/// prints its seed and its words before failing the test.
fn for_each_case(property: u64, max_len: u64, check: impl Fn(u64, &[u64])) {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(mix_seed(seed, property));
        let n = 1 + rng.next_below(max_len);
        let words: Vec<u64> = (0..n).map(|_| random_word(&mut rng)).collect();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(seed, &words))) {
            eprintln!("property {property}, seed {seed}: failing words {words:#018x?}");
            resume_unwind(panic);
        }
    }
}

fn fuzz_machine(cores: usize) -> Machine {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    cfg.mem_bytes = 1 << 20;
    Machine::new(cfg)
}

/// Loads the garbage, ended by `last`, at [`BASE`] on `core` with a
/// descriptor slot and starts it; returns the thread and the slot.
fn load_garbage(
    m: &mut Machine,
    core: usize,
    words: &[u64],
    last: Inst,
    user: bool,
) -> (ThreadId, u64) {
    let prog = Program::from_words(BASE, sanitize(words, last));
    let tid = if user {
        m.load_program_user(core, &prog)
    } else {
        m.load_program(core, &prog)
    }
    .expect("image fits");
    let edp = m.alloc(32);
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    (tid, edp)
}

fn run_alone(words: &[u64], user: bool) -> (u64, u64, Option<String>) {
    let mut m = fuzz_machine(1);
    let (tid, _) = load_garbage(&mut m, 0, words, Inst::Halt, user);
    m.run_for(Cycles(200_000));
    (
        m.counters().get("inst.executed"),
        m.billed_cycles(tid).0,
        m.halted_reason().map(str::to_owned),
    )
}

/// The machine never panics on arbitrary user-mode programs, and two
/// identical runs are identical.
#[test]
fn arbitrary_user_programs_are_contained() {
    for_each_case(1, 60, |_, words| {
        let a = run_alone(words, true);
        let b = run_alone(words, true);
        assert_eq!(a, b, "determinism violated");
        // Accounting sanity: billed cycles only if instructions ran.
        if a.1 > 0 {
            assert!(a.0 > 0, "cycles billed without instructions");
        }
    });
}

/// Supervisor-mode garbage is contained too: it may halt the machine
/// through an unhandled fault (that is deliberate) but never panics the
/// simulator.
#[test]
fn arbitrary_supervisor_programs_are_contained() {
    for_each_case(2, 60, |_, words| {
        let _ = run_alone(words, false);
    });
}

/// Sums 100..1 into r2 and halts.
const HEALTHY: &str = r#"
    .base 0x40000
    entry:
        movi r1, 100
        movi r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    "#;

/// A garbage program can never disturb a healthy sibling thread: the
/// sibling's result is bit-identical with and without the intruder,
/// unless the intruder legitimately halts the machine first.
#[test]
fn garbage_cannot_corrupt_sibling_results() {
    let run = |garbage: Option<&[u64]>| -> (bool, u64, bool) {
        let mut m = fuzz_machine(1);
        let healthy = m.load_program(0, &assemble(HEALTHY).unwrap()).unwrap();
        if let Some(words) = garbage {
            load_garbage(&mut m, 0, words, Inst::Halt, true);
        }
        m.start_thread(healthy);
        m.run_for(Cycles(500_000));
        let done = m.thread_state(healthy) == ThreadState::Halted;
        (done, m.thread_reg(healthy, 2), m.halted_reason().is_some())
    };
    let clean = run(None);
    assert_eq!(clean, (true, 5050, false), "healthy thread finishes alone");
    for_each_case(3, 40, |_, words| {
        let dirty = run(Some(words));
        if !dirty.2 {
            // The garbage is user-mode and cannot write the sibling's
            // registers; it can write shared memory, but the healthy
            // program keeps everything in registers.
            assert!(dirty.0, "sibling starved by garbage thread");
            assert_eq!(dirty.1, 5050, "sibling result corrupted");
        }
    });
}

/// Loops over its 4 KiB domain, incrementing every word.
fn domain_loop(buf: u64) -> Program {
    assemble(&format!(
        r#"
        .base 0x40000
        entry:
            movi r3, {buf}
            movi r4, {end}
        pass:
            ld r2, r3, 0
            addi r2, r2, 1
            st r2, r3, 0
            addi r3, r3, 8
            blt r3, r4, pass
            movi r3, {buf}
            jmp pass
        "#,
        end = buf + 4096,
    ))
    .expect("domain loop")
}

/// Everything observable: time, halt, every counter, both threads'
/// architectural state and billing, cache statistics, wake latency, and
/// all of memory.
fn digest(m: &Machine, tids: &[ThreadId]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now={:?} halted={:?}", m.now(), m.halted_reason());
    for (name, v) in m.counters().iter() {
        let _ = writeln!(s, "{name}={v}");
    }
    for &tid in tids {
        let regs: Vec<u64> = (0..16).map(|r| m.thread_reg(tid, r)).collect();
        let _ = writeln!(
            s,
            "{:?} pc={:#x} billed={} regs={regs:x?}",
            m.thread_state(tid),
            m.thread_pc(tid),
            m.billed_cycles(tid).0,
        );
    }
    let _ = writeln!(
        s,
        "cache={:?} wb={:?}",
        m.cache_stats(),
        m.cache_writebacks()
    );
    let _ = writeln!(
        s,
        "wake={:?} last={:?}",
        m.wake_latency(),
        m.last_wake_latency()
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in (0..m.config().mem_bytes).step_by(8) {
        h = (h ^ m.peek_u64(a)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let _ = writeln!(s, "mem={h:#x}");
    s
}

/// Garbage on core 0 of a 2-core machine, next to a healthy loop on
/// core 1 with a registered domain, digests identically on the serial
/// reference engine and on the default epoch engine. Core 0 gets a
/// domain too, so the garbage's stores and loads reach every path of
/// the worker's environment; odd seeds run it in supervisor mode. The
/// garbage loops, and the host plays supervisor between run slices:
/// it acknowledges each descriptor and restarts the faulted thread, so
/// the garbage keeps executing through both environments.
#[test]
fn garbage_digests_identically_on_both_engines() {
    for_each_case(4, 60, |seed, words| {
        let user = seed % 2 == 0;
        let run = |serial: bool| {
            let mut m = fuzz_machine(2);
            m.set_serial_engine(serial);
            m.set_machine_jobs(1);
            let buf = m.alloc(4096);
            let healthy = m.load_program(1, &domain_loop(buf)).unwrap();
            m.set_core_domain(0, 0x80000, 0x40000);
            m.set_core_domain(1, buf, 4096);
            m.start_thread(healthy);
            let (garbage, edp) = load_garbage(&mut m, 0, words, Inst::Jmp { addr: BASE }, user);
            for k in 1..=40 {
                m.run_until(Cycles(k * 5_001));
                if m.halted_reason().is_some() {
                    break;
                }
                if m.thread_state(garbage) == ThreadState::Disabled {
                    m.poke_u64(edp, 0);
                    m.restart_thread(garbage);
                }
            }
            digest(&m, &[garbage, healthy])
        };
        assert_eq!(run(true), run(false), "epoch engine diverged from serial");
    });
}
