//! Superblock translation: decode once, execute pre-costed regions
//! (DESIGN.md §10).
//!
//! A *superblock* is a straight-line run of [inert] instructions in a
//! loaded image, optionally closed by one pure-control-flow terminal,
//! pre-decoded once and summarised (total cycle cost, registers
//! written, the exact L1 fetch-stream footprint). The burst loop in
//! `Machine::dispatch` executes a formed superblock as **one unit**
//! whenever its whole span provably fits inside the current burst; the
//! summary makes every entry check O(1) instead of O(instructions).
//!
//! Formation is driven by observed execution heat, not static
//! configuration: an entry pc must be dispatched [`SB_HOT`] times from
//! the burst loop before its region is walked and formed, so cold code
//! pays one table read and nothing else. Regions end at the first
//! instruction that could raise, trap, or otherwise schedule/observe
//! anything ([`Inst::is_inert`] is the whitelist, extended by
//! local-effect loads/stores — [`Inst::is_local_mem`]); an
//! unconditional jump back to the region's own entry — the shape of
//! every spin/compute loop — is unrolled up to [`SB_MAX_LEN`]
//! instructions, since its interior control flow is statically known.
//!
//! [inert]: Inst::is_inert

use switchless_isa::inst::Inst;
use switchless_mem::addr::PAddr;
use switchless_sim::time::Cycles;

/// Hard cap on instructions in one superblock, after unrolling. Kept
/// well under `MAX_BURST` so a block is never the reason a burst ends.
pub(crate) const SB_MAX_LEN: usize = 256;

/// Regions shorter than this (after unrolling) are not worth the entry
/// checks; their entry slot is marked dead instead.
pub(crate) const SB_MIN_LEN: usize = 4;

/// Executions of an entry pc observed by the burst loop before its
/// region is formed — the adaptive, heat-driven knob.
pub(crate) const SB_HOT: u32 = 16;

/// Per-slot state word in `CodeRange::sb`: a formed region was walked
/// and found not worth caching (too short, or opens with a non-inert
/// instruction).
pub(crate) const SB_DEAD: u32 = u32::MAX;

/// Per-slot state word flag: low bits index `CodeRange::blocks`.
/// Values below the flag are heat counts.
pub(crate) const SB_FORMED: u32 = 0x8000_0000;

/// A formed superblock: the pre-decoded execution sequence plus the
/// summary that makes whole-region execution checks O(1).
pub(crate) struct Superblock {
    /// Entry word slot in the owning `CodeRange`.
    pub(crate) start_slot: usize,
    /// Static footprint in word slots (the un-unrolled region): any
    /// code mutation overlapping `[start_slot, start_slot + len_slots)`
    /// kills the block.
    pub(crate) len_slots: usize,
    /// The full (possibly unrolled) instruction sequence; every element
    /// executes unconditionally.
    pub(crate) insts: Vec<Inst>,
    /// Total cycle cost: sum of base costs. The fetch stream must be
    /// fully L1-resident to execute as a block, and L1-hit fetches cost
    /// zero (pipelined frontend), so base costs are the whole story.
    pub(crate) cost: Cycles,
    /// Union of `Thread::touched` bits the sequence writes.
    pub(crate) touched: u32,
    /// Number of local-effect memory instructions in `insts` (each
    /// performs exactly one data access). Zero for pure register blocks,
    /// which execute through `exec_regs`; memory-inclusive blocks go
    /// through the batched memory walk instead.
    pub(crate) mem_ops: u64,
    /// Distinct L1 lines of the fetch stream, each with the 1-based
    /// index of its last access and a clear write bit (see
    /// `Cache::access_run_mixed`). For
    /// memory-inclusive blocks the indices are positions in the *merged*
    /// fetch+data access stream (each instruction fetches, then memory
    /// instructions immediately perform their one data access), so the
    /// executing engine can splice dynamically-resolved data lines into
    /// the same numbering.
    pub(crate) lines: Vec<(PAddr, u64, bool)>,
    /// Cleared when a code mutation kills the block; the `blocks` slot
    /// is recycled through `CodeRange::sb_free`.
    pub(crate) live: bool,
}

/// Walks the decoded image from `slot` and forms a superblock, or
/// returns `None` when the region is not worth caching. `base` is the
/// image base address; `insts` its decoded words.
///
/// Local-effect loads and stores ([`Inst::is_local_mem`]) are admitted
/// alongside inert instructions — the memory-inclusive regions of
/// DESIGN.md §10. Their effective addresses are data-dependent, so the
/// block records only the *count* of data accesses; the executing engine
/// resolves the data footprint at run time and bails to single-step on
/// any non-local effect.
pub(crate) fn form(base: u64, insts: &[Option<Inst>], slot: usize) -> Option<Superblock> {
    let entry_pc = base + 8 * slot as u64;
    let mut seq: Vec<Inst> = Vec::new();
    let mut terminal: Option<Inst> = None;
    for w in &insts[slot..] {
        if seq.len() == SB_MAX_LEN {
            break;
        }
        // A non-decoding word ends the region (the slow path re-raises
        // the precise exception; it can never be inside a block).
        let Some(i) = *w else { break };
        if i.is_inert() || i.is_local_mem() {
            seq.push(i);
        } else if i.is_region_terminal() {
            terminal = Some(i);
            seq.push(i);
            break;
        } else {
            break;
        }
    }
    let len_slots = seq.len();
    if len_slots == 0 {
        return None;
    }
    // Unroll an unconditional self-loop: with the jump target equal to
    // the entry pc, the whole unrolled sequence executes
    // unconditionally, so it is still a single straight-line unit.
    if matches!(terminal, Some(Inst::Jmp { addr }) if addr == entry_pc) {
        let copies = SB_MAX_LEN / len_slots;
        let body = seq.clone();
        for _ in 1..copies {
            seq.extend_from_slice(&body);
        }
    }
    if seq.len() < SB_MIN_LEN {
        return None;
    }

    let mut cost = 0u64;
    let mut touched = 0u32;
    for i in &seq {
        cost += i.base_cost();
        if let Some(d) = i.dest_reg() {
            touched |= 1 << (d.0 & 0xf);
        }
    }
    let mem_ops = seq.iter().filter(|i| i.is_local_mem()).count() as u64;

    // Fetch-stream footprint: walk the pc sequence (interior control
    // flow is only ever the unrolled self-jump, whose target is static)
    // and record each distinct line with its last-access index. Indices
    // are positions in the merged fetch+data stream: each instruction's
    // fetch access is followed immediately by its data access when it
    // has one, so a memory instruction advances the position by two.
    // For pure blocks this reduces to plain instruction numbering.
    let mut lines: Vec<(PAddr, u64, bool)> = Vec::new();
    let mut pc = entry_pc;
    let mut pos = 0u64;
    for i in &seq {
        pos += 1;
        let line = PAddr(pc).line();
        match lines.iter_mut().find(|(l, _, _)| *l == line) {
            Some((_, at, _)) => *at = pos,
            None => lines.push((line, pos, false)),
        }
        if i.is_local_mem() {
            pos += 1;
        }
        pc = match i {
            Inst::Jmp { addr } => *addr,
            _ => pc + 8,
        };
    }

    Some(Superblock {
        start_slot: slot,
        len_slots,
        insts: seq,
        cost: Cycles(cost),
        touched,
        mem_ops,
        lines,
        live: true,
    })
}

/// An instruction's cost inside an executing block: its base cost plus
/// one L1 hit per data access. A block only executes when every fetch
/// and data line is L1-resident and every data page TLB-resident (an L1
/// fetch hit and a TLB hit add zero), so this is known before probing.
pub(crate) fn block_inst_cost(i: &Inst, lat_l1: Cycles) -> Cycles {
    Cycles(i.base_cost())
        + if i.is_local_mem() {
            lat_l1
        } else {
            Cycles::ZERO
        }
}

impl Superblock {
    /// The block's dynamic cost, and that of its last instruction: the
    /// serial engine leaves `now` at the *dispatch* time of the last
    /// executed instruction, i.e. block end minus the latter.
    pub(crate) fn dyn_cost(&self, lat_l1: Cycles) -> (Cycles, Cycles) {
        let last = self.insts.last().expect("blocks are non-empty");
        let cost = self.cost + Cycles(self.mem_ops * lat_l1.0);
        (cost, block_inst_cost(last, lat_l1))
    }
}

/// Pre-decoded instructions for one loaded image.
///
/// `insts[i]` caches `Inst::decode` of the word at `base + 8*i`; `None`
/// marks words that do not decode (the slow path re-raises the precise
/// `BadInstruction` with the actual word). Stores that land inside
/// `[base, end)` re-decode the covered words, so self-modifying code
/// observes its writes exactly as it would with a per-fetch decode.
pub(crate) struct CodeRange {
    pub(crate) base: u64,
    pub(crate) end: u64,
    pub(crate) insts: Vec<Option<Inst>>,
    /// Per-slot superblock state: a heat count below [`SB_HOT`],
    /// [`SB_FORMED`]`| index` for a formed region entered at that slot,
    /// or [`SB_DEAD`].
    pub(crate) sb: Vec<u32>,
    /// Formed superblocks; killed entries are tombstoned in place and
    /// their indices recycled through `sb_free`.
    pub(crate) blocks: Vec<Superblock>,
    pub(crate) sb_free: Vec<u32>,
}

/// The decoded-instruction cache: one [`CodeRange`] per loaded image.
/// Both engines look up instructions and superblock entries here, and
/// test stores against it for code overlap.
#[derive(Default)]
pub(crate) struct Code {
    pub(crate) ranges: Vec<CodeRange>,
    /// Cheap store-time reject bounds: min base / max end over `ranges`.
    lo: u64,
    hi: u64,
}

impl Code {
    /// Adds the image of `words` loaded at `base`.
    pub(crate) fn load(&mut self, base: u64, words: &[u64]) {
        let end = base + 8 * words.len() as u64;
        (self.lo, self.hi) = if self.ranges.is_empty() {
            (base, end)
        } else {
            (self.lo.min(base), self.hi.max(end))
        };
        self.ranges.push(CodeRange {
            base,
            end,
            insts: words.iter().map(|&w| Inst::decode(w).ok()).collect(),
            sb: vec![0; words.len()],
            blocks: Vec::new(),
            sb_free: Vec::new(),
        });
    }

    /// The `(range, slot)` of `pc` when it is an aligned word slot of a
    /// loaded image. `hint` remembers the last range found; ranges never
    /// overlap, so it only short-circuits the search.
    fn slot(&self, hint: &mut usize, pc: u64) -> Option<(usize, usize)> {
        let ri = match self.ranges.get(*hint) {
            Some(r) if r.base <= pc && pc < r.end => *hint,
            _ => {
                let ri = self
                    .ranges
                    .iter()
                    .position(|r| r.base <= pc && pc < r.end)?;
                *hint = ri;
                ri
            }
        };
        let off = pc - self.ranges[ri].base;
        (off & 7 == 0).then_some((ri, (off >> 3) as usize))
    }

    /// Cached decode of the word at `pc`. `None` means "use the slow
    /// fetch-and-decode path" (unaligned pc, pc outside every image, or a
    /// non-decoding word).
    pub(crate) fn inst(&self, hint: &mut usize, pc: u64) -> Option<Inst> {
        let (ri, s) = self.slot(hint, pc)?;
        self.ranges[ri].insts[s]
    }

    /// The `(range, block)` of a formed, live superblock entered at `pc`,
    /// read-only: epoch workers consume blocks but never form them, since
    /// the table is shared across worker threads.
    pub(crate) fn formed(&self, hint: &mut usize, pc: u64) -> Option<(usize, usize)> {
        let (ri, s) = self.slot(hint, pc)?;
        match self.ranges[ri].sb[s] {
            SB_DEAD => None,
            x if x >= SB_FORMED => Some((ri, (x & !SB_FORMED) as usize)),
            _ => None,
        }
    }

    /// Like [`Code::formed`], but a miss bumps the entry slot's heat
    /// counter; crossing [`SB_HOT`] forms the region once (or marks the
    /// slot [`SB_DEAD`] when no worthwhile region starts there).
    /// Formation is driven purely by observed execution heat — no static
    /// configuration (cf. "Switchless Calls Made Configless").
    pub(crate) fn enter(&mut self, hint: &mut usize, pc: u64) -> Option<(usize, usize)> {
        let (ri, slot) = self.slot(hint, pc)?;
        let r = &mut self.ranges[ri];
        match r.sb[slot] {
            SB_DEAD => None,
            x if x >= SB_FORMED => Some((ri, (x & !SB_FORMED) as usize)),
            heat if heat + 1 >= SB_HOT => match form(r.base, &r.insts, slot) {
                Some(b) => {
                    let bi = match r.sb_free.pop() {
                        Some(i) => {
                            r.blocks[i as usize] = b;
                            i
                        }
                        None => {
                            r.blocks.push(b);
                            u32::try_from(r.blocks.len() - 1).expect("block count fits u32")
                        }
                    };
                    r.sb[slot] = SB_FORMED | bi;
                    Some((ri, bi as usize))
                }
                None => {
                    r.sb[slot] = SB_DEAD;
                    None
                }
            },
            heat => {
                r.sb[slot] = heat + 1;
                None
            }
        }
    }

    pub(crate) fn block(&self, ri: usize, bi: usize) -> &Superblock {
        &self.ranges[ri].blocks[bi]
    }

    /// Whether a store of `len` bytes at `addr` overlaps a loaded image.
    /// The hull compare rejects every store outside it, so data stores
    /// never scan the ranges; a hull hit *between* images is no overlap.
    pub(crate) fn overlaps(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len.max(1));
        addr < self.hi && end > self.lo && self.ranges.iter().any(|r| addr < r.end && end > r.base)
    }

    /// Re-decodes the cached slots covered by a store of `len` bytes at
    /// `addr`, reading the new words from `mem`.
    pub(crate) fn invalidate(&mut self, mem: &[u8], addr: u64, len: u64) {
        let end = addr.saturating_add(len.max(1));
        if addr >= self.hi || end <= self.lo {
            return;
        }
        for r in &mut self.ranges {
            if addr >= r.end || end <= r.base {
                continue;
            }
            // Word slots live at base + 8*i; work in offsets from base.
            let lo = (addr.max(r.base) - r.base) & !7;
            let hi = end.min(r.end) - r.base;
            let mut off = lo;
            while off < hi {
                let a = (r.base + off) as usize;
                let word = u64::from_le_bytes(mem[a..a + 8].try_into().expect("8 bytes"));
                r.insts[(off >> 3) as usize] = Inst::decode(word).ok();
                off += 8;
            }
            // Superblock coherence: re-decoded slots lose any heat or
            // dead-mark they accumulated, and every formed block whose
            // static footprint overlaps the modified slots is killed
            // (tombstoned; its index is recycled). A block formed later
            // re-reads the fresh decode, so stale bodies cannot run.
            let lo_slot = (lo >> 3) as usize;
            let hi_slot = ((hi + 7) >> 3) as usize;
            for s in &mut r.sb[lo_slot..hi_slot] {
                if *s < SB_FORMED || *s == SB_DEAD {
                    *s = 0;
                }
            }
            for (bi, b) in r.blocks.iter_mut().enumerate() {
                if b.live && b.start_slot < hi_slot && b.start_slot + b.len_slots > lo_slot {
                    b.live = false;
                    r.sb[b.start_slot] = 0;
                    r.sb_free
                        .push(u32::try_from(bi).expect("block count fits u32"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exec_regs;
    use switchless_isa::asm::assemble;

    fn decoded(src: &str) -> (u64, Vec<Option<Inst>>) {
        let p = assemble(src).expect("test program");
        (
            p.base,
            p.words.iter().map(|&w| Inst::decode(w).ok()).collect(),
        )
    }

    #[test]
    fn region_admits_stores_and_stops_before_trap_ops() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 2\n\
             xor r3, r1, r2\n\
             mul r4, r3, r3\n\
             st r1, r5, 0\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("four inert insts and a store form");
        assert_eq!(
            b.len_slots, 5,
            "the store is admitted; halt ends the region"
        );
        assert_eq!(b.insts.len(), 5);
        assert_eq!(b.mem_ops, 1);
        // 1 + 1 + 1 + 3 (mul) + 1 (st).
        assert_eq!(b.cost, Cycles(7));
        // One L1 hit on top, paid by the final store.
        assert_eq!(b.dyn_cost(Cycles(4)), (Cycles(11), Cycles(5)));
        assert_eq!(b.touched, 0b11110);
        // Fetches at 1-5, the store's data access at 6.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 5, false)]);
        // Starting *at* the store: halt ends it at length 1 < MIN.
        assert!(form(base, &insts, 4).is_none());
        // Starting at halt: not a region.
        assert!(form(base, &insts, 5).is_none());
    }

    #[test]
    fn too_short_regions_are_rejected() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 2\n\
             halt\n",
        );
        assert!(form(base, &insts, 0).is_none(), "2 < SB_MIN_LEN");
    }

    #[test]
    fn self_loop_unrolls_to_the_cap() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             loop: addi r1, r1, 1\n\
             addi r2, r1, 3\n\
             xor r3, r2, r1\n\
             jmp loop\n",
        );
        let b = form(base, &insts, 0).expect("self-loop forms");
        assert_eq!(b.len_slots, 4);
        assert_eq!(b.insts.len(), 256, "unrolled to SB_MAX_LEN / 4 copies");
        assert_eq!(b.cost, Cycles(256));
        // All four instructions live on one 64-byte line; its last
        // access is the final unrolled instruction.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 256, false)]);
        // Executing the block loops back to the entry.
        let mut gprs = [0u64; 16];
        let exit = exec_regs(&b.insts, &mut gprs, base);
        assert_eq!(exit, base);
        assert_eq!(gprs[1], 64, "64 unrolled iterations of addi r1");
    }

    #[test]
    fn non_self_jump_is_terminal_not_unrolled() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 1\n\
             addi r3, r3, 1\n\
             jmp entry2\n\
             entry2: halt\n",
        );
        let b = form(base, &insts, 0).expect("jmp-closed region forms");
        assert_eq!(b.insts.len(), 4);
        let mut gprs = [0u64; 16];
        let exit = exec_regs(&b.insts, &mut gprs, base);
        assert_eq!(exit, base + 32);
    }

    #[test]
    fn branch_terminal_follows_register_state() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 0\n\
             nop\n\
             bne r1, r4, entry\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("branch-closed region forms");
        assert_eq!(b.insts.len(), 4);
        let mut gprs = [0u64; 16];
        // r1 becomes 1 != r4 (0): branch taken, back to entry.
        assert_eq!(exec_regs(&b.insts, &mut gprs, base), base);
        gprs[4] = 2;
        // r1 becomes 2 == r4: fall through.
        assert_eq!(exec_regs(&b.insts, &mut gprs, base), base + 32);
    }

    #[test]
    fn fetch_lines_track_multi_line_regions() {
        // 9 inert instructions starting at a line boundary span two
        // 64-byte lines (8 insts per line).
        let mut src = String::from(".base 0x1000\nentry: ");
        for _ in 0..9 {
            src.push_str("addi r1, r1, 1\n");
        }
        src.push_str("halt\n");
        let (base, insts) = decoded(&src);
        let b = form(base, &insts, 0).expect("9 inert insts form");
        assert_eq!(
            b.lines.as_slice(),
            &[(PAddr(0x1000), 8, false), (PAddr(0x1040), 9, false)]
        );
    }

    #[test]
    fn loads_and_stores_are_admitted() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             ld r2, r5, 0\n\
             add r2, r2, r1\n\
             st r2, r5, 0\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("mem region forms");
        assert_eq!(b.len_slots, 4);
        assert_eq!(b.mem_ops, 2);
        assert_eq!(b.cost, Cycles(4), "base costs only; latency is dynamic");
        // Two L1 hits on top; the final store pays one of them.
        assert_eq!(b.dyn_cost(Cycles(4)), (Cycles(12), Cycles(5)));
        // touched: r1 (addi), r2 (ld, add). Stores touch nothing.
        assert_eq!(b.touched, 0b110);
        // Merged-stream numbering: fetches at 1, 2, 4, 5 (the load's
        // data access occupies 3, the store's 6); one fetch line.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 5, false)]);
    }

    #[test]
    fn mem_self_loop_unrolls_with_merged_positions() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             loop: st r1, r5, 0\n\
             st r1, r5, 8\n\
             jmp loop\n",
        );
        let b = form(base, &insts, 0).expect("store loop forms");
        assert_eq!(b.len_slots, 3);
        assert_eq!(b.insts.len(), 255, "85 copies of 3");
        assert_eq!(b.mem_ops, 170);
        assert_eq!(
            b.dyn_cost(Cycles(4)).1,
            Cycles(1),
            "final jump, no data access"
        );
        // Merged stream: 255 fetches + 170 data accesses = 425
        // positions; the last access of the single fetch line is the
        // final jump's fetch at position 425.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 425, false)]);
    }
}
