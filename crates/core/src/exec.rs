//! The instruction executor: the ISA's semantics, written once
//! (DESIGN.md §8–§10).
//!
//! Both engines run guest code through the functions here, each through
//! its own [`Env`]. The serial engine's environment performs every effect
//! in full — exceptions, monitor wakes, doorbells, thread control — and
//! is the reference. An epoch worker's (`shard`) serves what stays inside
//! its core and bails on everything else. Nothing here asks which engine
//! it serves.

use switchless_isa::arch::Mode;
use switchless_isa::inst::{Inst, Reg};
use switchless_mem::addr::{PAddr, PAGE_BYTES};
use switchless_mem::hierarchy::{AccessKind, AccessResult, HitLevel};
use switchless_mem::monitor::MonitorFilter;
use switchless_sim::time::Cycles;

use crate::exception::ExceptionKind;
use crate::machine::Thread;
use crate::sblock::{Code, Superblock};

/// What an engine lends the executor to run one thread.
pub(crate) trait Env {
    /// Why a step stops short: never for the serial engine, an abandoned
    /// epoch for a worker.
    type Bail;

    /// The executing thread.
    fn thread(&mut self) -> &mut Thread;
    /// Bytes of physical memory.
    fn mem_bytes(&self) -> u64;
    /// Fetches the in-bounds word at `pc` through the caches.
    fn ifetch(&mut self, pc: u64) -> Result<AccessResult, Self::Bail>;
    /// Cached decode of the word at `pc`; `None` means fetch and decode.
    fn decoded(&mut self, pc: u64) -> Option<Inst>;
    /// One in-bounds data access through the TLB and caches, recorded for
    /// the wake prefetcher; returns its latency.
    fn data_access(&mut self, addr: u64, kind: AccessKind) -> Result<Cycles, Self::Bail>;
    /// The `len` in-bounds bytes at `addr`, to read.
    fn bytes(&self, addr: u64, len: u64) -> Result<&[u8], Self::Bail>;
    /// The `len` in-bounds bytes at `addr`, to write with no side effect.
    fn bytes_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], Self::Bail>;
    /// A store instruction's side effects, after its bytes are written.
    fn after_store(&mut self, addr: u64, len: u64) -> Result<(), Self::Bail>;
    /// Raises exception `kind` on the thread.
    fn fault(&mut self, kind: ExceptionKind, info: u64) -> Result<(), Self::Bail>;
    /// Everything that is not a register, control, load or store
    /// instruction (or `div`): traps, hcalls, monitor/mwait, thread
    /// control, CSRs, `halt`. Returns the next pc, or `None` when the
    /// instruction has settled the thread's pc itself (or faulted).
    fn system(&mut self, inst: Inst, pc: u64, cost: &mut Cycles)
        -> Result<Option<u64>, Self::Bail>;

    /// Whether the page and the L1 line of `addr` are both resident, with
    /// no LRU or statistics effect.
    fn resident(&self, addr: u64) -> bool;
    /// Applies a block's L1 access stream as one batch (see
    /// `Cache::access_run_mixed`): `false`, and no mutation, unless every
    /// line is resident.
    fn l1_run(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool;
    /// Commits a memory block's other batched effects: `n` data accesses
    /// over `pages` to the TLB, `plines` to the prefetcher, and `stores`
    /// quiet stores to the monitor filter's statistics. Returns whether
    /// every page was TLB-resident.
    fn commit_block(&mut self, pages: &[(u64, u64)], n: u64, plines: &[PAddr], stores: u64)
        -> bool;
    /// Whether a store of `len` bytes at `addr` is quiet (see
    /// [`is_quiet_store`]).
    fn quiet(&self, code: &Code, addr: u64, len: u64) -> bool;
    /// Scratch for the memory-block walk.
    fn scratch(&mut self) -> &mut BlockScratch;
}

/// Reads `len` (1 or 8) in-bounds bytes at `addr`, little-endian.
fn read<E: Env>(e: &E, addr: u64, len: u64) -> Result<u64, E::Bail> {
    let bytes = e.bytes(addr, len)?;
    Ok(match <[u8; 8]>::try_from(bytes) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => u64::from(bytes[0]),
    })
}

/// Writes the low `len` (1 or 8) bytes of `v` at `addr` with no side
/// effect; returns the value they replace.
fn write<E: Env>(e: &mut E, addr: u64, len: u64, v: u64) -> Result<u64, E::Bail> {
    let bytes = e.bytes_mut(addr, len)?;
    Ok(match <&mut [u8; 8]>::try_from(&mut *bytes) {
        Ok(word) => u64::from_le_bytes(std::mem::replace(word, v.to_le_bytes())),
        Err(_) => u64::from(std::mem::replace(&mut bytes[0], v as u8)),
    })
}

/// Whether `[addr, addr + len)` lies inside physical memory.
fn in_bounds<E: Env>(e: &E, addr: u64, len: u64) -> bool {
    addr.checked_add(len)
        .is_some_and(|end| end <= e.mem_bytes())
}

/// Whether a store of `len` bytes at `addr` has no effect beyond its
/// bytes and the caches: it overlaps no loaded image (which would
/// re-decode code), intersects no armed monitor line (`would_wake` is
/// conservative, so no wakeup is lost or delayed), and lands within no
/// MMIO doorbell's reach. A quiet store's only filter effect is its
/// `on_store` statistics, which can be batched.
pub(crate) fn is_quiet_store(
    code: &Code,
    filter: &dyn MonitorFilter,
    mmio_addrs: &[u64],
    addr: u64,
    len: u64,
) -> bool {
    let i = mmio_addrs.partition_point(|&a| a < addr.saturating_sub(7));
    !code.overlaps(addr, len)
        && !filter.would_wake(PAddr(addr), len)
        && mmio_addrs
            .get(i)
            .is_none_or(|&a| a >= addr.saturating_add(len))
}

/// One register or control-flow instruction over `r`: returns the next
/// pc, or `None` for any other instruction. These are exactly the inert
/// and region-terminal instructions superblocks are made of.
#[inline(always)]
fn regs_step(inst: Inst, pc: u64, r: &mut [u64; 16]) -> Option<u64> {
    use Inst::*;
    macro_rules! gpr {
        ($x:expr) => {
            r[$x.0 as usize & 0xf]
        };
    }
    let branch = |taken: bool, addr: u64| Some(if taken { addr } else { pc + 8 });
    let (d, v) = match inst {
        Add { d, a, b } => (d, gpr!(a).wrapping_add(gpr!(b))),
        Sub { d, a, b } => (d, gpr!(a).wrapping_sub(gpr!(b))),
        And { d, a, b } => (d, gpr!(a) & gpr!(b)),
        Or { d, a, b } => (d, gpr!(a) | gpr!(b)),
        Xor { d, a, b } => (d, gpr!(a) ^ gpr!(b)),
        Shl { d, a, b } => (d, gpr!(a) << (gpr!(b) & 63)),
        Shr { d, a, b } => (d, gpr!(a) >> (gpr!(b) & 63)),
        Mul { d, a, b } => (d, gpr!(a).wrapping_mul(gpr!(b))),
        Addi { d, a, imm } => (d, gpr!(a).wrapping_add(imm as u64)),
        Movi { d, imm } => (d, imm as u64),
        Mov { d, a } => (d, gpr!(a)),
        Jal { d, addr } => {
            gpr!(d) = pc + 8;
            return Some(addr);
        }
        Nop | Work { .. } | Fence => return Some(pc + 8),
        Jmp { addr } => return Some(addr),
        Jr { a } => return Some(gpr!(a)),
        Beq { a, b, addr } => return branch(gpr!(a) == gpr!(b), addr),
        Bne { a, b, addr } => return branch(gpr!(a) != gpr!(b), addr),
        Blt { a, b, addr } => return branch((gpr!(a) as i64) < (gpr!(b) as i64), addr),
        Bge { a, b, addr } => return branch((gpr!(a) as i64) >= (gpr!(b) as i64), addr),
        _ => return None,
    };
    gpr!(d) = v;
    Some(pc + 8)
}

/// The data side of a load or store.
#[derive(Clone, Copy)]
enum Data {
    /// A load into this register.
    Load(Reg),
    /// A store of this value's low bytes.
    Store(u64),
}

/// A load's or store's `(data, effective address, width)`; `None` for
/// any other instruction.
#[inline(always)]
fn mem_access(inst: Inst, r: &[u64; 16]) -> Option<(Data, u64, u64)> {
    use Inst::*;
    let g = |x: Reg| r[x.0 as usize & 0xf];
    Some(match inst {
        Ld { d, a, off } => (Data::Load(d), g(a).wrapping_add(off as u64), 8),
        LdA { d, addr } => (Data::Load(d), addr, 8),
        LdB { d, a, off } => (Data::Load(d), g(a).wrapping_add(off as u64), 1),
        St { s, a, off } => (Data::Store(g(s)), g(a).wrapping_add(off as u64), 8),
        StA { s, addr } => (Data::Store(g(s)), addr, 8),
        StB { s, a, off } => (Data::Store(g(s)), g(a).wrapping_add(off as u64), 1),
        _ => return None,
    })
}

/// Executes one instruction of the environment's thread and returns its
/// cost. Every effect, faults included, happens through `e`.
pub(crate) fn step<E: Env>(e: &mut E) -> Result<Cycles, E::Bail> {
    let pc = e.thread().arch.pc;
    if !in_bounds(e, pc, 8) {
        e.fault(ExceptionKind::BadMemory, pc)?;
        return Ok(Cycles(1));
    }
    // A pipelined frontend hides L1-hit fetch latency entirely.
    let fetch = e.ifetch(pc)?;
    let mut cost = if fetch.level == HitLevel::L1 {
        Cycles::ZERO
    } else {
        fetch.latency
    };
    // Loaded images are pre-decoded, so the steady state skips both the
    // byte fetch and `Inst::decode`. Other pcs fetch and decode,
    // preserving the exception payload.
    let inst = match e.decoded(pc) {
        Some(i) => i,
        None => {
            let word = read(e, pc, 8)?;
            match Inst::decode(word) {
                Ok(i) => i,
                Err(_) => {
                    e.fault(ExceptionKind::BadInstruction, word)?;
                    return Ok(cost + Cycles(1));
                }
            }
        }
    };
    // Privilege check (§3.2: privileged ops from user mode disable the
    // thread and write a descriptor, enabling emulation). The descriptor
    // carries the raw encoding.
    if inst.is_privileged() && e.thread().arch.mode == Mode::User {
        let word = read(e, pc, 8)?;
        e.fault(ExceptionKind::PrivilegedOp, word)?;
        return Ok(cost + Cycles(1));
    }
    cost += Cycles(inst.base_cost());

    let t = e.thread();
    if let Some(next) = regs_step(inst, pc, &mut t.arch.gprs) {
        if let Some(d) = inst.dest_reg() {
            t.touched |= 1 << (d.0 & 0xf);
        }
        t.arch.pc = next;
        return Ok(cost);
    }
    if let Some((data, addr, len)) = mem_access(inst, &t.arch.gprs) {
        if !in_bounds(e, addr, len) {
            e.fault(ExceptionKind::BadMemory, addr)?;
            return Ok(cost);
        }
        match data {
            Data::Load(d) => {
                cost += e.data_access(addr, AccessKind::Read)?;
                let v = read(e, addr, len)?;
                e.thread().set_gpr(d, v);
            }
            Data::Store(v) => {
                cost += e.data_access(addr, AccessKind::Write)?;
                write(e, addr, len, v)?;
                e.after_store(addr, len)?;
            }
        }
        e.thread().arch.pc = pc + 8;
        return Ok(cost);
    }
    if let Inst::Div { d, a, b } = inst {
        match t.gpr(a).checked_div(t.gpr(b)) {
            Some(v) => {
                t.set_gpr(d, v);
                t.arch.pc = pc + 8;
            }
            None => e.fault(ExceptionKind::DivZero, pc)?,
        }
        return Ok(cost);
    }
    if let Some(next) = e.system(inst, pc, &mut cost)? {
        e.thread().arch.pc = next;
    }
    Ok(cost)
}

/// Executes a superblock's instruction sequence over one thread's
/// registers; returns the exit pc. The caller folds the block's
/// pre-computed `touched` mask into the thread.
pub(crate) fn exec_regs(insts: &[Inst], gprs: &mut [u64; 16], entry_pc: u64) -> u64 {
    let mut pc = entry_pc;
    for &i in insts {
        pc = regs_step(i, pc, gprs).expect("a register block holds only inert and terminal ops");
    }
    pc
}

/// Reusable scratch for the memory-block walk: the merged fetch+data
/// line footprint (line, last-access position, written), the data-page
/// footprint (page, last data-access index), the dedup-keep-last data
/// lines for the prefetcher, the store undo log (addr, old value,
/// width), and the distinct store ranges already vetted.
#[derive(Default)]
pub(crate) struct BlockScratch {
    lines: Vec<(PAddr, u64, bool)>,
    pages: Vec<(u64, u64)>,
    plines: Vec<PAddr>,
    undo: Vec<(u64, u64, u64)>,
    stores: Vec<(u64, u64)>,
}

impl BlockScratch {
    fn begin(&mut self, fetch_lines: &[(PAddr, u64, bool)]) {
        self.lines.clear();
        self.lines.extend_from_slice(fetch_lines);
        self.pages.clear();
        self.plines.clear();
        self.undo.clear();
        self.stores.clear();
    }

    /// Stages one data access at merged-stream position `pos` and
    /// data-stream index `idx`. The serial path accesses exactly the line
    /// and page *containing* the address, whatever the width.
    fn note(&mut self, addr: u64, pos: u64, idx: u64, write: bool) {
        let line = PAddr(addr).line();
        match self.lines.iter_mut().find(|e| e.0 == line) {
            Some(e) => {
                // A fetch access of this line may come later in the
                // merged stream than this data access.
                e.1 = e.1.max(pos);
                e.2 |= write;
            }
            None => self.lines.push((line, pos, write)),
        }
        let page = addr / PAGE_BYTES;
        match self.pages.iter_mut().find(|e| e.0 == page) {
            Some(e) => e.1 = idx,
            None => self.pages.push((page, idx)),
        }
        if let Some(p) = self.plines.iter().position(|&l| l == line) {
            self.plines.remove(p);
        }
        self.plines.push(line);
    }
}

/// Executes formed superblock `(ri, bi)` of `code` as one unit. Returns
/// `false`, having mutated nothing, when the batch cannot reproduce
/// single-stepping exactly; the caller then single-steps, which charges,
/// raises, invalidates and wakes as always. On success the L1 metadata
/// (LRU stamps, tick, hit counts), and for memory blocks the TLB,
/// prefetcher, filter statistics and memory, plus the thread's
/// registers, pc and dirty mask, are precisely what single-stepping the
/// block would have produced.
pub(crate) fn run_block<E: Env>(e: &mut E, code: &Code, ri: usize, bi: usize) -> bool {
    let b = code.block(ri, bi);
    if b.mem_ops > 0 {
        let mut s = std::mem::take(e.scratch());
        let ran = run_mem_block(e, code, b, &mut s);
        *e.scratch() = s;
        return ran;
    }
    if !e.l1_run(&b.lines, b.insts.len() as u64) {
        return false;
    }
    let t = e.thread();
    t.arch.pc = exec_regs(&b.insts, &mut t.arch.gprs, t.arch.pc);
    t.touched |= b.touched;
    true
}

/// The memory-inclusive case of [`run_block`] (DESIGN.md §10). The walk
/// runs the block on a scratch register file, applies stores to memory
/// under an undo log (so later loads in the block see them), and stages
/// the block's exact dynamic footprint. It fails on any effect the batch
/// cannot reproduce: an out-of-range address, a non-resident L1 line or
/// TLB page, a store the environment cannot write, or a store that is not
/// quiet ([`is_quiet_store`], which includes stores into the block's own
/// fetch lines). On success the commit applies one batched, provably
/// per-access-equal update per structure.
fn run_mem_block<E: Env>(e: &mut E, code: &Code, b: &Superblock, s: &mut BlockScratch) -> bool {
    s.begin(&b.lines);
    let (mut gprs, mut pc) = {
        let t = e.thread();
        (t.arch.gprs, t.arch.pc)
    };
    let mut pos = 0u64; // position in the merged fetch+data stream
    let mut idx = 0u64; // 1-based index in the data-access stream
    let mut n_stores = 0u64;
    let walked = 'walk: {
        for &i in &b.insts {
            pos += 1; // this instruction's fetch access
            if let Some(next) = regs_step(i, pc, &mut gprs) {
                pc = next;
                continue;
            }
            let (data, addr, len) =
                mem_access(i, &gprs).expect("a memory block holds only local-effect memory ops");
            if !in_bounds(e, addr, len) || !e.resident(addr) {
                break 'walk false;
            }
            pos += 1;
            idx += 1;
            s.note(addr, pos, idx, matches!(data, Data::Store(_)));
            match data {
                Data::Load(d) => match read(e, addr, len) {
                    Ok(v) => gprs[d.0 as usize & 0xf] = v,
                    Err(_) => break 'walk false,
                },
                Data::Store(v) => {
                    // Vetted once per distinct range: a block cannot load
                    // images, arm monitors or register doorbells.
                    if !s.stores.contains(&(addr, len)) {
                        if !e.quiet(code, addr, len) {
                            break 'walk false;
                        }
                        s.stores.push((addr, len));
                    }
                    match write(e, addr, len, v) {
                        Ok(old) => s.undo.push((addr, old, len)),
                        Err(_) => break 'walk false,
                    }
                    n_stores += 1;
                }
            }
            pc += 8;
        }
        true
    };
    // The commit's only fallible step is the L1 batch: the walk checked
    // every data line, and `access_run_mixed` checks the static fetch
    // lines without mutating.
    if !walked || !e.l1_run(&s.lines, b.insts.len() as u64 + b.mem_ops) {
        for &(addr, old, len) in s.undo.iter().rev() {
            let undone = write(e, addr, len, old).is_ok();
            debug_assert!(undone, "an applied store can be undone");
        }
        return false;
    }
    debug_assert!(idx == b.mem_ops, "every instruction executed");
    let tlb_ok = e.commit_block(&s.pages, b.mem_ops, &s.plines, n_stores);
    debug_assert!(tlb_ok, "the walk checked TLB residency for every page");
    let t = e.thread();
    t.arch.gprs = gprs;
    t.arch.pc = pc;
    t.touched |= b.touched;
    true
}
