//! Superblock invalidation: every code-mutation route into a loaded
//! image must kill any formed superblock whose footprint it overlaps,
//! so stale pre-costed regions never execute. Routes covered: a thread
//! storing over its *own* hot region, another thread storing over it, a
//! host `poke_u64`, and a `dma_write` — each patching the *middle* of a
//! formed region (the entry slot stays untouched, so only the
//! block-overlap kill can catch it), with execution falling back to
//! single-step over the patched words.
//!
//! Each test first runs a hot inert loop long enough to be formed (well
//! past the heat threshold), then lands the mutation, then requires the
//! patched behavior. With a stale block the loop would keep replaying
//! the old instructions and every assertion below would fail.

use switchless_core::machine::{Machine, MachineConfig};
use switchless_core::tid::ThreadState;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

/// A machine on the default engine, which forms superblocks, whatever
/// `SWITCHLESS_ENGINE` says.
fn small_sb() -> Machine {
    let mut m = Machine::new(MachineConfig::small());
    m.set_serial_engine(false);
    m
}

/// Encoded word for `halt`, produced by the real assembler.
fn halt_word() -> u64 {
    assemble("entry: halt").unwrap().words[0]
}

/// Encoded word for `movi r3, 42`.
fn movi_r3_42() -> u64 {
    assemble("entry: movi r3, 42\nhalt").unwrap().words[0]
}

/// The spin image shared by the externally-patched tests: a pure inert
/// self-loop whose 4-instruction body unrolls into one superblock.
/// `patchme` is the loop's third instruction — mid-region.
const SPIN: &str = r#"
    .base 0x10000
    entry:
        movi r1, 0
    loop:
        addi r1, r1, 1
        addi r2, r1, 3
    patchme:
        xor r3, r2, r1
        jmp loop
"#;

/// A thread stores over the middle of its *own* formed region; the
/// next pass over the loop must execute the patched instruction.
#[test]
fn own_store_kills_formed_block() {
    let mut m = small_sb();
    // Pass 1 runs the hot loop 64 times (forming the block), then the
    // thread patches `patchme` (mid-region) and reruns the loop.
    let p = assemble(
        r#"
        .base 0x10000
        entry:
            movi r5, 0
            movi r6, 64
            movi r7, 0
        hot:
            addi r1, r1, 1
            addi r2, r1, 3
        patchme:
            xor r3, r2, r1
            bne r1, r6, hot
            bne r7, r5, done
            movi r7, 1
            ld r4, newinst
            st r4, patchme
            movi r1, 0
            jmp hot
        done:
            halt
        newinst: .word 0
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.poke_u64(p.symbol("newinst").unwrap(), movi_r3_42());
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(
        m.thread_reg(tid, 3),
        42,
        "pass 2 must execute the patched `movi r3, 42`, not a stale \
         block's `xor`"
    );
}

/// Another thread stores over the middle of a spinning thread's formed
/// region (the mid-superblock self-modifying-store fallback case): the
/// spinner must fall back to single-step and execute the patched
/// `halt`. A stale block would replay the inert body forever.
#[test]
fn cross_thread_store_kills_formed_block() {
    let mut m = small_sb();
    let spinner = assemble(SPIN).unwrap();
    let patcher = assemble(
        r#"
        .base 0x30000
        mailbox: .word 0
        entry:
            monitor mailbox
            mwait
            ld r4, newinst
            st r4, r8, 0
            halt
        newinst: .word 0
        "#,
    )
    .unwrap();
    let patcher_tid = m.load_program(0, &patcher).unwrap();
    m.poke_u64(patcher.symbol("newinst").unwrap(), halt_word());
    m.set_thread_reg(patcher_tid, 8, spinner.symbol("patchme").unwrap());
    m.start_thread(patcher_tid);
    m.run_for(Cycles(5_000));
    assert_eq!(m.thread_state(patcher_tid), ThreadState::Waiting);

    // The spinner has the core to itself (sole-runnable) and forms its
    // block while the patcher is parked in `mwait`.
    let spinner_tid = m.load_program(0, &spinner).unwrap();
    m.start_thread(spinner_tid);
    m.run_for(Cycles(50_000));
    assert_eq!(m.thread_state(spinner_tid), ThreadState::Runnable);
    let spun = m.thread_reg(spinner_tid, 1);
    assert!(spun > 1_000, "spinner should be deep into the hot loop");

    m.poke_u64(patcher.symbol("mailbox").unwrap(), 1); // wake the patcher
    m.run_for(Cycles(50_000));
    assert_eq!(m.thread_state(patcher_tid), ThreadState::Halted);
    assert_eq!(
        m.thread_state(spinner_tid),
        ThreadState::Halted,
        "the spinner must hit the patched `halt` mid-loop"
    );
    assert!(m.thread_reg(spinner_tid, 1) > spun);
}

/// Host `poke_u64` over the middle of a formed region.
#[test]
fn poke_kills_formed_block() {
    let mut m = small_sb();
    let p = assemble(SPIN).unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(50_000));
    assert_eq!(m.thread_state(tid), ThreadState::Runnable);
    assert!(m.thread_reg(tid, 1) > 1_000);

    m.poke_u64(p.symbol("patchme").unwrap(), halt_word());
    m.run_for(Cycles(10_000));
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Halted,
        "a host poke over a formed region must kill the block"
    );
}

/// `dma_write` over the middle of a formed region (two words, so a
/// subsequent word of the burst is covered too).
#[test]
fn dma_write_kills_formed_block() {
    let mut m = small_sb();
    let p = assemble(SPIN).unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(50_000));
    assert_eq!(m.thread_state(tid), ThreadState::Runnable);
    assert!(m.thread_reg(tid, 1) > 1_000);

    // Overwrite `patchme` and the `jmp` after it.
    let word = halt_word();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&word.to_le_bytes());
    bytes.extend_from_slice(&word.to_le_bytes());
    m.dma_write(p.symbol("patchme").unwrap(), &bytes);
    m.run_for(Cycles(10_000));
    assert_eq!(
        m.thread_state(tid),
        ThreadState::Halted,
        "a DMA write over a formed region must kill the block"
    );
}
