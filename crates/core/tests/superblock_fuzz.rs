//! Differential fuzz for the superblock engine: seeded random guest
//! programs — inert ALU runs, bounded loops (the shape that forms
//! superblocks), data stores, and self-modifying stores that splat
//! random words over the program's own first slots — run on two
//! machines that differ *only* in the engine: the default one, which
//! forms and enters superblocks, and the pinned reference engine
//! (`set_serial_engine(true)`), which single-steps. Final machine
//! digests (every architectural register, pc, thread state, `now`,
//! billed cycles, executed-instruction count, and the full code + data
//! memory) must be bit-identical: superblocks may change wall-clock
//! time, never simulated state.
//!
//! The generator deliberately includes programs that decode garbage
//! (a random word stored over upcoming code can fail to decode, fault
//! the thread, and — with no exception descriptor installed — halt the
//! machine): every such path must still digest identically.

use switchless_core::machine::{Machine, MachineConfig};
use switchless_isa::asm::assemble;
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// Builds a random guest program: a handful of counted loops whose
/// bodies mix inert ALU ops, data stores through `r7`, and occasional
/// random-word stores into the program's own low slots.
fn random_program(rng: &mut Rng) -> String {
    let mut src = String::from(
        ".base 0x10000\n\
         entry: movi r7, 0x20000\n\
         movi r6, ",
    );
    // Loop trip counts comfortably past the heat threshold, so blocks
    // form mid-run and keep executing after they do.
    src.push_str(&format!("{}\n", 24 + rng.next_below(200)));
    let nloops = 2 + rng.next_below(4);
    for l in 0..nloops {
        src.push_str(&format!("movi r5, 0\nl{l}:\n"));
        let body = 2 + rng.next_below(6);
        for _ in 0..body {
            let d = 1 + rng.next_below(4);
            let a = 1 + rng.next_below(4);
            let b = 1 + rng.next_below(4);
            match rng.next_below(12) {
                0..=2 => src.push_str(&format!("addi r{d}, r{a}, {}\n", rng.next_below(64))),
                3 => src.push_str(&format!("add r{d}, r{a}, r{b}\n")),
                4 => src.push_str(&format!("xor r{d}, r{a}, r{b}\n")),
                5 => src.push_str(&format!("mul r{d}, r{a}, r{b}\n")),
                6 => src.push_str(&format!("shl r{d}, r{a}, r{b}\n")),
                7 => src.push_str(&format!("movi r{d}, {}\n", rng.next_below(1024))),
                8 => src.push_str(&format!("mov r{d}, r{a}\n")),
                9 => src.push_str("nop\n"),
                // A data store: a local-effect memory op, so it sits
                // inside memory-inclusive regions.
                10 => src.push_str(&format!("st r{a}, r7, {}\n", 8 * rng.next_below(8))),
                // A self-modifying store: splat a random small word over
                // one of the program's first slots. The overwritten
                // word may decode to anything (or nothing — a fault);
                // both machines must agree exactly.
                _ => {
                    src.push_str(&format!("movi r4, {}\n", rng.next_below(0xffff)));
                    src.push_str(&format!("movi r8, {}\n", 0x10000 + 8 * rng.next_below(16)));
                    src.push_str("st r4, r8, 0\n");
                }
            }
        }
        src.push_str(&format!("addi r5, r5, 1\nblt r5, r6, l{l}\n"));
    }
    src.push_str("halt\n");
    src
}

/// Full observable digest of a machine after a run.
fn digest(m: &Machine, tid: switchless_core::machine::ThreadId, code_end: u64) -> Vec<u64> {
    let mut d = Vec::new();
    for r in 0..16 {
        d.push(m.thread_reg(tid, r));
    }
    d.push(m.thread_pc(tid));
    d.push(m.thread_state(tid) as u64);
    d.push(m.now().0);
    // A program that halts before the horizon leaves `now` at the
    // horizon; its billed cycles still record every instruction's cost.
    d.push(m.billed_cycles(tid).0);
    d.push(m.counters().get("inst.executed"));
    d.push(u64::from(m.halted_reason().is_some()));
    let mut addr = 0x10000;
    while addr < code_end {
        d.push(m.peek_u64(addr));
        addr += 8;
    }
    for i in 0..16 {
        d.push(m.peek_u64(0x20000 + 8 * i));
    }
    d
}

fn fuzz_once(seed: u64, run: Cycles) {
    let mut rng = Rng::seed_from(seed);
    let src = random_program(&mut rng);
    let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: bad program: {e:?}\n{src}"));
    let run_one = |serial: bool| {
        let mut m = Machine::new(MachineConfig::small());
        m.set_serial_engine(serial);
        let tid = m.load_program(0, &prog).expect("load");
        m.start_thread(tid);
        m.run_for(run);
        digest(&m, tid, prog.end())
    };
    let default = run_one(false);
    let reference = run_one(true);
    assert_eq!(
        default, reference,
        "seed {seed}: digests diverged between the default and the reference engine\n{src}"
    );
}

#[test]
fn random_programs_digest_identically_with_and_without_superblocks() {
    for seed in 0..24 {
        fuzz_once(seed, Cycles(100_000));
    }
}

#[test]
fn long_run_digests_identically() {
    fuzz_once(0xb10c, Cycles(2_000_000));
}
