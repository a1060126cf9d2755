//! Conservative core-sharded parallel engine (see DESIGN.md §9).
//!
//! [`Machine::run_until`] on a multi-core machine executes *epochs*: the
//! host stages every event strictly below a cross-core event horizon `B`
//! and hands each core's staged events to a worker. The worker runs
//! against clones of that core's small private state (scheduler, state
//! store, TLB, prefetch capture, threads enrolled there) and against
//! in-place borrows of its L1/L2 and its registered memory domain, whose
//! changes it journals on first touch. At the epoch barrier the clones
//! are spliced back, or, if the epoch is discarded, the journals are
//! replayed, so a discarded epoch costs what it touched.
//!
//! The engine is speculative in implementation but conservative in
//! effect: a worker that would touch anything outside its shard — another
//! core's memory domain, the monitor filter, an hcall, an exception, the
//! shared L3, an MMIO doorbell — abandons the epoch (`Bail`), the clones
//! are dropped, the journals undone, the staged events are restored under
//! their original `(time, seq)` keys, and the window replays on the
//! serial engine. A committed epoch is **bit-identical** to the serial
//! engine by construction:
//!
//! * Workers replay the serial order *restricted to their core*: staged
//!   events in staging order (= relative seq order) and worker-created
//!   events in creation order, merged locally by `(time, key)` exactly as
//!   the global queue would order them (staged keys precede fresh keys,
//!   matching queue seq assignment).
//! * Cross-core effects are order-free or ordered by time: the committed
//!   `now` is the latest worker cursor, wake-latency samples land in an
//!   order-independent histogram, and `last_wake` is the latest sample
//!   in `(pop time, per-core order)`, which is serial pop order.
//! * Every core runs to the same horizon `B`, so each event still pending
//!   after a commit was created by a pop below `B`, and every later event
//!   by a pop at or above it: their relative queue seqs are the serial
//!   ones. Survivors of different cores due the same cycle are queued in
//!   the order the serial engine creates them, read off each core's
//!   recent action history ([`Origin`]). A tie that history cannot break
//!   (or equal-time wake records from different cores) is detected at
//!   commit and the epoch is retried or replayed.
//! * The serial engine's burst splits (foreign-event horizon checks,
//!   `MAX_BURST`, stale deadline hints) are observably invisible — same
//!   instructions at the same start cycles, identical cost accounting,
//!   identical store-tier stamps up to relative order — so workers may
//!   place splits differently (at `B`) without divergence.
//!
//! Without [`Machine::set_core_domain`] every store bails, so the engine
//! degrades to serial replay with bounded retry cost. The serial engine
//! remains the reference oracle ([`Machine::set_serial_engine`],
//! `SWITCHLESS_ENGINE=serial`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use switchless_isa::inst::Inst;
use switchless_mem::addr::{PAddr, PAGE_BYTES};
use switchless_mem::cache::PartitionId;
use switchless_mem::hierarchy::{AccessKind, AccessResult, CoreCaches};
use switchless_mem::monitor::{MonitorFilter, WatchId};
use switchless_mem::prefetch::PrefetchView;
use switchless_mem::tlb::Tlb;
use switchless_sim::par::par_map_owned;
use switchless_sim::time::Cycles;

use crate::exception::ExceptionKind;
use crate::exec::{self, BlockScratch, Env};
use crate::machine::{CoreState, Ev, Machine, MachineConfig, Thread, MAX_BURST};
use crate::sblock::{block_inst_cost, Code};
use crate::tid::Ptid;

/// Epochs double up to this length while committing cleanly.
const MAX_EPOCH: u64 = 1 << 20;
/// Epochs halve down to this length while bailing; also the first
/// serial-replay span after a bail, which doubles (up to `MAX_EPOCH`) on
/// every consecutive bail and resets on a commit.
const MIN_EPOCH: u64 = 64;

/// What became of one attempted epoch.
pub(crate) enum EpochOutcome {
    /// The whole window `[head, B)` ran in parallel and was committed.
    Committed,
    /// A worker left its shard mid-window; the staged events were
    /// restored and the driver replays a span from `head` serially to
    /// make progress.
    Bailed,
    /// The window itself ran clean but a commit-time cross-core time tie
    /// (equal-time survivors with equal start cycles, or equal-time wake
    /// samples) made the merge unsound. Carries the earliest tied cycle:
    /// the window's *interior* was conflict-free, so the driver retries
    /// with the horizon pulled back to that cycle — the tied instructions
    /// then no longer start inside the window — and treats a tie streak
    /// like a bail.
    Tie(Cycles),
    /// Fewer than two cores had events below `B`; nothing ran.
    TooFew(Cycles),
}

/// A worker abandoning the epoch. Carries nothing: the clones are
/// dropped wholesale and the journals undo the in-place changes.
struct Bail;

/// First-touch undo journal for one core's memory domain: the
/// epoch-start bytes of every 64-byte chunk a worker writes, so a
/// discarded epoch restores only what it touched.
#[derive(Clone, Debug, Default)]
pub(crate) struct DomainJournal {
    /// Per-chunk generation: a chunk is saved when its entry differs
    /// from `gen` (bumped by every `begin`, so nothing needs clearing).
    chunk_gen: Vec<u32>,
    gen: u32,
    saved: Vec<(u32, [u8; 64])>,
}

impl DomainJournal {
    fn begin(&mut self, len: usize) {
        let chunks = len.div_ceil(64);
        if self.chunk_gen.len() != chunks {
            self.chunk_gen = vec![0; chunks];
            self.gen = 0;
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.chunk_gen.fill(0);
            self.gen = 1;
        }
        self.saved.clear();
    }

    /// Saves the chunks covering `bytes[off..off + len]` not yet saved.
    fn save(&mut self, bytes: &[u8], off: usize, len: usize) {
        for k in off / 64..=(off + len - 1) / 64 {
            if self.chunk_gen[k] != self.gen {
                self.chunk_gen[k] = self.gen;
                let (lo, hi) = (k * 64, (k * 64 + 64).min(bytes.len()));
                let mut img = [0u8; 64];
                img[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                self.saved.push((k as u32, img));
            }
        }
    }

    /// Puts `bytes` back as they were at `begin`.
    fn rollback(&mut self, bytes: &mut [u8]) {
        for &(k, img) in &self.saved {
            let (lo, hi) = (k as usize * 64, (k as usize * 64 + 64).min(bytes.len()));
            bytes[lo..hi].copy_from_slice(&img[..hi - lo]);
        }
        self.saved.clear();
    }
}

/// A worker's in-place borrow of its core's memory domain.
struct Domain<'a> {
    base: u64,
    bytes: &'a mut [u8],
    journal: &'a mut DomainJournal,
}

impl Domain<'_> {
    /// Offset of `[addr, addr + len)` when it lies fully inside.
    fn offset(&self, addr: u64, len: u64) -> Option<usize> {
        (addr >= self.base && addr + len <= self.base + self.bytes.len() as u64)
            .then(|| (addr - self.base) as usize)
    }

    /// The `len` bytes at a domain offset, journaled for writing.
    fn bytes_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        self.journal.save(self.bytes, off, len);
        &mut self.bytes[off..off + len]
    }
}

/// Epoch-constant state shared read-only by every worker.
struct Shared<'a> {
    cfg: MachineConfig,
    /// Machine `now` at epoch start (workers evolve a local copy).
    now0: Cycles,
    /// Event horizon: workers handle events strictly below this.
    b: Cycles,
    /// Run deadline (`run_until`'s `t`): burst dispatch bound.
    t: Cycles,
    /// Number of events staged out of the real queue (key namespace
    /// split: local keys below this are staged, at/above are fresh).
    staged_total: u64,
    /// Machine memory outside every registered domain, frozen for the
    /// epoch, as `(base, bytes)` runs in address order. Reads that land
    /// fully outside every domain are served from here; writes outside
    /// the worker's own domain bail.
    gaps: Vec<(u64, &'a [u8])>,
    filter: &'a dyn MonitorFilter,
    code: &'a Code,
    /// Registered MMIO hook addresses, sorted (hit check bails).
    mmio_addrs: &'a [u64],
    /// Every core's registered domain, for the overlap check.
    domains: &'a [Option<(u64, u64)>],
    /// Whether workers may consume formed superblocks (read-only: heat
    /// bumping and formation stay in the serial engine, since `code` is
    /// shared across worker threads). Which engine happens to use a
    /// block is invisible — block execution is effect-identical to
    /// single-stepping — so serial/sharded stay bit-identical even when
    /// their block usage differs.
    sb_on: bool,
}

/// A successful worker's output, spliced back verbatim at commit.
struct WorkerOk {
    core: usize,
    /// `(pop time, ptid, sample)` per dispatch that consumed a wake
    /// stamp, in local order.
    wakes: Vec<(Cycles, u32, u64)>,
    /// The worker's final cursor (it only moves forward).
    now: Cycles,
    /// Fresh events still pending at epoch end, in creation order:
    /// `(due, origin, slot)`.
    survivors: Vec<(Cycles, Origin, u32)>,
    cs: CoreState,
    threads: Vec<(u32, Thread)>,
    /// Private-cache write-backs `(l1, l2)` to fold in at commit.
    writebacks: (u64, u64),
    tlb: Tlb,
    prefetch: PrefetchView,
    d_dispatches: u64,
    d_insts: u64,
    d_activate: [u64; 4],
    /// Store instructions that consulted the monitor filter (all were
    /// quiet — a waking store bails), folded into the filter at commit.
    quiet_stores: u64,
}

/// Where in the serial engine's pop order an event is created: the cycle
/// of the action that scheduled it — the instruction (or the pop) it
/// follows — then the cycles of the actions before that on the same
/// core, newest first; [`UNKNOWN`] past what the worker saw. The serial
/// engine creates equal-time events of different cores in the
/// lexicographic order of these histories, which is how equal-time
/// survivors of different cores are queued at commit.
type Origin = [Cycles; ORIGIN_DEPTH];

/// Actions an [`Origin`] looks back over.
const ORIGIN_DEPTH: usize = 8;

/// An [`Origin`] entry before the worker's first action.
const UNKNOWN: Cycles = Cycles(u64::MAX);

/// One action in a worker's recent history (see [`Origin`]).
#[derive(Clone, Copy)]
enum Act {
    /// An instruction started (or a pop dispatched) at this cycle.
    At(Cycles),
    /// Superblock `(range, block)` ran, its last instruction starting at
    /// this cycle.
    Block(usize, usize, Cycles),
    /// The pop of fresh event `k`: its own origin continues the history.
    Event(usize),
    /// Nothing known further back.
    Unknown,
}

/// A worker's private event queue: `(due, key, slot)` min-heap. Keys
/// order exactly like the global queue's seqs restricted to this core —
/// staging indices first (staged events predate the epoch), then
/// `staged_total + creation index` for fresh events.
#[derive(Default)]
struct LocalQueue {
    heap: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
}

impl LocalQueue {
    fn push(&mut self, at: Cycles, key: u64, slot: u32) {
        self.heap.push(Reverse((at, key, slot)));
    }

    /// Pops the earliest event strictly below `b`.
    fn pop_below(&mut self, b: Cycles) -> Option<(Cycles, u64, u32)> {
        let &Reverse((at, _, _)) = self.heap.peek()?;
        if at >= b {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn next_deadline(&self) -> Option<Cycles> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn peek_slot(&self) -> Option<u32> {
        self.heap.peek().map(|&Reverse((_, _, slot))| slot)
    }

    fn pop_head(&mut self) -> Option<(Cycles, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn drain_all(self) -> Vec<(Cycles, u64, u32)> {
        self.heap.into_iter().map(|Reverse(e)| e).collect()
    }
}

/// The index of `p` in a sorted enrolled-thread table.
fn th_idx(threads: &[(u32, Thread)], p: Ptid) -> usize {
    threads
        .binary_search_by_key(&p.0, |e| e.0)
        .expect("scheduler picked a thread enrolled on this core")
}

/// One epoch worker: a serial machine restricted to a single core.
struct Worker<'a> {
    sh: &'a Shared<'a>,
    core: usize,
    cs: CoreState,
    threads: Vec<(u32, Thread)>,
    caches: CoreCaches<'a>,
    tlb: Tlb,
    prefetch: PrefetchView,
    domain: Option<Domain<'a>>,
    q: LocalQueue,
    /// Sibling-slot events lifted mid-burst (restored at burst exit).
    stash: Vec<(Cycles, u64, u32)>,
    local_now: Cycles,
    /// Per fresh event created so far, its [`Origin`] (the length is
    /// the next fresh key suffix).
    created_at: Vec<Origin>,
    /// This core's latest actions, a ring (newest at `hist_head`), and
    /// whether an instruction ran since the latest pop. A pop that is not
    /// the latest action in time (a lifted sibling popped after the burst
    /// that lifted it) runs right after that action in the serial engine
    /// too, so it leaves the history alone.
    hist: [Act; ORIGIN_DEPTH],
    hist_head: usize,
    ran: bool,
    /// Decoded-code range hint (mirrors `Machine::last_code`; the hint
    /// only short-circuits the range search, never changes its result).
    last_code: usize,
    wakes: Vec<(Cycles, u32, u64)>,
    d_dispatches: u64,
    d_insts: u64,
    d_activate: [u64; 4],
    quiet_stores: u64,
    scratch: BlockScratch,
}

fn run_worker(mut w: Worker<'_>) -> Result<WorkerOk, Bail> {
    let sh = w.sh;
    while let Some((ts, key, slot)) = w.q.pop_below(sh.b) {
        if ts > w.local_now || (ts == w.local_now && !w.ran) {
            // A pop on time follows the action that created the event;
            // that is only known for an event created in this epoch.
            w.hist = [Act::Unknown; ORIGIN_DEPTH];
            if key >= sh.staged_total {
                w.act(Act::Event((key - sh.staged_total) as usize));
            }
            w.act(Act::At(ts));
            w.ran = false;
            w.local_now = ts;
        }
        if let Some((p, sample)) = w.dispatch(slot)? {
            w.wakes.push((ts, p, sample));
        }
    }
    // Everything below `B` ran, so only fresh events remain.
    let mut survivors: Vec<(Cycles, u64, u32)> = w.q.drain_all();
    survivors.sort_unstable_by_key(|&(_, key, _)| key);
    let survivors = survivors
        .into_iter()
        .map(|(at, key, slot)| {
            debug_assert!(key >= sh.staged_total, "staged events are all below B");
            (at, w.created_at[(key - sh.staged_total) as usize], slot)
        })
        .collect();
    Ok(WorkerOk {
        core: w.core,
        wakes: w.wakes,
        now: w.local_now,
        survivors,
        cs: w.cs,
        threads: w.threads,
        writebacks: w.caches.writebacks(),
        tlb: w.tlb,
        prefetch: w.prefetch,
        d_dispatches: w.d_dispatches,
        d_insts: w.d_insts,
        d_activate: w.d_activate,
        quiet_stores: w.quiet_stores,
    })
}

impl Worker<'_> {
    /// Schedules a fresh own-core `SlotFree`; keys continue after the
    /// staged namespace in creation order.
    fn schedule_local(&mut self, at: Cycles, slot: u32) {
        let key = self.sh.staged_total + self.created_at.len() as u64;
        let origin = self.origin();
        self.created_at.push(origin);
        self.q.push(at, key, slot);
    }

    fn act(&mut self, a: Act) {
        self.hist_head = (self.hist_head + 1) % ORIGIN_DEPTH;
        self.hist[self.hist_head] = a;
    }

    /// The [`Origin`] of an event created now.
    fn origin(&self) -> Origin {
        let mut o = [UNKNOWN; ORIGIN_DEPTH];
        let mut n = 0;
        for j in 0..ORIGIN_DEPTH {
            if n == ORIGIN_DEPTH {
                break;
            }
            match self.hist[(self.hist_head + ORIGIN_DEPTH - j) % ORIGIN_DEPTH] {
                Act::At(c) => {
                    o[n] = c;
                    n += 1;
                }
                Act::Block(ri, bi, d_last) => {
                    // Instruction starts, last to first: L1-hit costs.
                    let insts = &self.sh.code.block(ri, bi).insts;
                    let l1 = self.sh.cfg.hierarchy.lat_l1;
                    let mut at = d_last;
                    for k in (0..insts.len()).rev() {
                        if n == ORIGIN_DEPTH {
                            break;
                        }
                        o[n] = at;
                        n += 1;
                        if k > 0 {
                            at -= block_inst_cost(&insts[k - 1], l1);
                        }
                    }
                }
                Act::Event(k) => {
                    let rest = &self.created_at[k];
                    let take = ORIGIN_DEPTH - n;
                    o[n..].copy_from_slice(&rest[..take]);
                    break;
                }
                Act::Unknown => break,
            }
        }
        o
    }

    /// Mirrors `Machine::dispatch` with `watch = None`, restricted to
    /// this core; returns the wake sample consumed, if any.
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, slot: u32) -> Result<Option<(u32, u64)>, Bail> {
        let now = self.local_now;
        let threads = &self.threads;
        let busy = |p| Some(threads[th_idx(threads, p)].1.busy_until).filter(|&b| b > now);
        let Some(ptid) = self.cs.sched.pick(|p| busy(p).is_some()) else {
            let next = self.cs.sched.min_over_enrolled(busy);
            match next {
                Some(at) => self.schedule_local(at, slot),
                None => self.cs.idle_slot[slot as usize] = true,
            }
            return Ok(None);
        };
        self.d_dispatches += 1;
        let ti = th_idx(&self.threads, ptid);

        let mut cost = Cycles::ZERO;
        let t = &mut self.threads[ti].1;
        if let Some((act, from)) = self.cs.activate(ptid, t, self.sh.cfg.store.dirty_tracking) {
            self.d_activate[from as usize] += 1;
            cost += act;
        }
        let wake = self.threads[ti]
            .1
            .take_wake_sample(now, cost)
            .map(|s| (ptid.0, s));

        // First instruction. `pending_charge` stays zero on every path a
        // worker is allowed to take (hcalls bail), so it is not modelled.
        cost += exec::step(&mut Cpu { w: self, ti })?;
        self.ran = true;
        cost = cost.max(Cycles(1));
        let mut done = now + cost;

        // Burst engine, with the epoch horizon as an extra bound: no
        // instruction may *start* at or after `B` (its pop would belong
        // to the next window). The serial engine may split bursts at
        // other points (foreign events, stale deadline hints); splits
        // are observably invisible, so the placement may differ.
        let mut burst_cost = Cycles::ZERO;
        let mut extra: u64 = 0;
        let mut qmin = self.q.next_deadline();
        // Superblock entry gate (the heat hoist, as in the serial
        // engine): entries are only reached by jumps, so the lookup is
        // skipped while the burst walks sequential code.
        let mut seq_pc = u64::MAX;
        'burst: while extra < MAX_BURST
            && done <= self.sh.t
            && done < self.sh.b
            // The machine cannot halt inside a worker: `halt` bails.
            && self.cs.burst_eligible(self.core, ptid, &self.threads[ti].1, done)
        {
            if !self.lift_siblings(slot, &mut qmin, done) {
                break 'burst;
            }
            // Superblock fast path, as in the serial engine (DESIGN.md
            // §10), with the epoch horizon as the extra bound on the final
            // dispatch cursor. Workers only consume blocks the serial
            // engine has already formed. Any failed precondition
            // single-steps — never a burst exit.
            if self.sh.sb_on {
                let pc = self.threads[ti].1.arch.pc;
                let via_jump = pc != seq_pc;
                seq_pc = pc.saturating_add(8);
                let code = self.sh.code;
                let formed = via_jump.then(|| code.formed(&mut self.last_code, pc));
                if let Some((ri, bi)) = formed.flatten() {
                    let b = code.block(ri, bi);
                    let (bcost, last_cost) = b.dyn_cost(self.sh.cfg.hierarchy.lat_l1);
                    // As in the serial engine, `extra` may overshoot
                    // `MAX_BURST` by at most one block.
                    let d_last = done + bcost - last_cost;
                    if d_last <= self.sh.t
                        && d_last < self.sh.b
                        && self.lift_siblings(slot, &mut qmin, d_last)
                        && exec::run_block(&mut Cpu { w: self, ti }, code, ri, bi)
                    {
                        self.act(Act::Block(ri, bi, d_last));
                        self.ran = true;
                        self.local_now = d_last;
                        done += bcost;
                        burst_cost += bcost;
                        extra += b.insts.len() as u64;
                        seq_pc = u64::MAX;
                        continue 'burst;
                    }
                }
            }
            self.act(Act::At(done));
            self.ran = true;
            self.local_now = done;
            let c = exec::step(&mut Cpu { w: self, ti })?.max(Cycles(1));
            done += c;
            burst_cost += c;
            extra += 1;
            qmin = self.q.next_deadline();
        }
        while let Some((at, key, s)) = self.stash.pop() {
            self.q.push(at, key, s);
        }

        self.cs.sched.account(ptid, cost);
        if extra > 0 {
            self.cs.sched.account_burst(ptid, burst_cost, extra);
            self.d_dispatches += extra;
        }
        {
            let t = &mut self.threads[ti].1;
            t.busy_until = t.busy_until.max(done);
        }
        self.d_insts += 1 + extra;
        self.schedule_local(done, slot);
        Ok(wake)
    }

    /// Lifts own-queue events due at or before `until` into the burst
    /// stash, as the serial engine lifts sibling-slot events (the local
    /// queue holds only own-core `SlotFree`s); `false` when this slot's
    /// own event is due first.
    fn lift_siblings(&mut self, slot: u32, qmin: &mut Option<Cycles>, until: Cycles) -> bool {
        while let Some(tq) = *qmin {
            if tq > until {
                break;
            }
            if self.q.peek_slot() == Some(slot) {
                return false;
            }
            let lifted = self.q.pop_head().expect("peek/pop agree");
            self.stash.push(lifted);
            *qmin = self.q.next_deadline();
        }
        true
    }
}

/// An epoch worker's [`Env`] for thread `ti`: the serial semantics
/// restricted to the core's shard. Exceptions, privilege traps, syscalls,
/// hcalls, monitor/mwait, thread control, CSRs, `halt`, L3-bound
/// accesses and non-local or non-quiet stores bail the epoch. Bailing
/// before any shard-visible effect is not required (clones are discarded
/// wholesale and the journals undone); bailing before any *shared* effect
/// is, and every shared touchpoint is read-only.
struct Cpu<'w, 'a> {
    w: &'w mut Worker<'a>,
    ti: usize,
}

impl Env for Cpu<'_, '_> {
    type Bail = Bail;

    fn thread(&mut self) -> &mut Thread {
        &mut self.w.threads[self.ti].1
    }

    fn mem_bytes(&self) -> u64 {
        self.w.sh.cfg.mem_bytes
    }

    fn ifetch(&mut self, pc: u64) -> Result<AccessResult, Bail> {
        self.w
            .caches
            .try_access(PAddr(pc), AccessKind::Read, PartitionId::DEFAULT)
            .ok_or(Bail)
    }

    fn decoded(&mut self, pc: u64) -> Option<Inst> {
        self.w.sh.code.inst(&mut self.w.last_code, pc)
    }

    /// The L1/L2-only cache view makes any access that needs the shared
    /// L3 a bail.
    fn data_access(&mut self, addr: u64, kind: AccessKind) -> Result<Cycles, Bail> {
        let w = &mut *self.w;
        let tlb_cost = w.tlb.access(0, addr / PAGE_BYTES);
        let (ptid, t) = &w.threads[self.ti];
        let res = w
            .caches
            .try_access(PAddr(addr), kind, t.partition)
            .ok_or(Bail)?;
        w.prefetch
            .record_access(WatchId(u64::from(*ptid)), PAddr(addr));
        Ok(tlb_cost + res.latency)
    }

    /// Reads land inside the worker's own domain or fully outside every
    /// registered domain, in the frozen shared image; any other overlap
    /// with a domain bails.
    fn bytes(&self, addr: u64, len: u64) -> Result<&[u8], Bail> {
        let (w, n) = (&*self.w, len as usize);
        if let Some(d) = &w.domain {
            if let Some(off) = d.offset(addr, len) {
                return Ok(&d.bytes[off..off + n]);
            }
        }
        let overlaps = |&(b, l): &(u64, u64)| addr < b + l && b < addr + len;
        if w.sh.domains.iter().flatten().any(overlaps) {
            return Err(Bail);
        }
        // Outside every domain, so inside exactly one gap.
        let gaps = &w.sh.gaps;
        let (base, bytes) = gaps[gaps.partition_point(|g| g.0 <= addr) - 1];
        let off = (addr - base) as usize;
        Ok(&bytes[off..off + n])
    }

    /// Writes must land fully inside the worker's own domain.
    fn bytes_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], Bail> {
        let d = self.w.domain.as_mut().ok_or(Bail)?;
        let off = d.offset(addr, len).ok_or(Bail)?;
        Ok(d.bytes_mut(off, len as usize))
    }

    /// A quiet store's only filter effect (`stores_checked`) is batched
    /// to commit.
    fn after_store(&mut self, addr: u64, len: u64) -> Result<(), Bail> {
        if !self.quiet(self.w.sh.code, addr, len) {
            return Err(Bail);
        }
        self.w.quiet_stores += 1;
        Ok(())
    }

    fn fault(&mut self, _: ExceptionKind, _: u64) -> Result<(), Bail> {
        Err(Bail)
    }

    fn system(&mut self, _: Inst, _: u64, _: &mut Cycles) -> Result<Option<u64>, Bail> {
        Err(Bail)
    }

    fn resident(&self, addr: u64) -> bool {
        self.w.tlb.contains(0, addr / PAGE_BYTES) && self.w.caches.l1_contains(PAddr(addr).line())
    }

    fn l1_run(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
        self.w.caches.l1_access_run_mixed(lines, n)
    }

    fn commit_block(
        &mut self,
        pages: &[(u64, u64)],
        n: u64,
        plines: &[PAddr],
        stores: u64,
    ) -> bool {
        let ptid = self.w.threads[self.ti].0;
        self.w.prefetch.record_run(WatchId(u64::from(ptid)), plines);
        self.w.quiet_stores += stores;
        self.w.tlb.access_run(0, pages, n)
    }

    fn quiet(&self, code: &Code, addr: u64, len: u64) -> bool {
        let sh = self.w.sh;
        exec::is_quiet_store(code, sh.filter, sh.mmio_addrs, addr, len)
    }

    fn scratch(&mut self) -> &mut BlockScratch {
        &mut self.w.scratch
    }
}

impl Machine {
    /// The sharded run loop: epochs where the event stream allows them,
    /// serial replay (via [`Machine::step_one`]) where it does not.
    pub(crate) fn run_until_sharded(&mut self, t: Cycles) {
        // Events strictly below the floor replay serially (a bailed or
        // too-thin window is settled the reference way before retrying).
        let mut serial_floor = Cycles::ZERO;
        // Consecutive commit-time tie retries from the same head.
        let mut tie_streak = 0u32;
        // Serial span replayed after a bail: doubles while epochs keep
        // bailing (a cold pass over an L2-sized region bails on every
        // L3-bound access), so a bail-bound stretch costs a bounded
        // share of wasted epochs; the first commit resets it.
        let mut replay = MIN_EPOCH;
        // Horizon override for a tie retry.
        let mut limit: Option<Cycles> = None;
        while self.halted.is_none() {
            let Some(head) = self.events.peek_time() else {
                break;
            };
            if head > t {
                break;
            }
            if head >= serial_floor {
                match self.try_epoch(t, limit.take()) {
                    EpochOutcome::Committed => {
                        self.epoch_len = Cycles((self.epoch_len.0 * 2).min(MAX_EPOCH));
                        tie_streak = 0;
                        replay = MIN_EPOCH;
                        continue;
                    }
                    EpochOutcome::Tie(at) if tie_streak < 2 && at > head => {
                        // The interior was clean; a window ending before
                        // the tied instructions start moves the survivor
                        // times — retry in place.
                        tie_streak += 1;
                        limit = Some(at);
                        continue;
                    }
                    // A bail, or a tie streak (phase-locked cores tie at
                    // every horizon): make progress the reference way.
                    EpochOutcome::Bailed | EpochOutcome::Tie(_) => {
                        self.epoch_len = Cycles((self.epoch_len.0 / 2).max(MIN_EPOCH));
                        tie_streak = 0;
                        serial_floor = head + Cycles(replay);
                        replay = (replay * 2).min(MAX_EPOCH);
                    }
                    EpochOutcome::TooFew(b) => {
                        tie_streak = 0;
                        serial_floor = b.max(Cycles(head.0 + 1));
                    }
                }
            }
            let bound = t.min(Cycles(serial_floor.0 - 1));
            while self.halted.is_none()
                && self
                    .events
                    .peek_time()
                    .is_some_and(|h| h < serial_floor && h <= t)
            {
                self.step_one(bound, t, None);
                self.shard_stats.serial_events += 1;
            }
        }
        if self.halted.is_none() && self.now < t {
            self.now = t;
        }
    }

    /// Attempts one epoch over the window `[head, B)`.
    #[allow(clippy::too_many_lines)]
    fn try_epoch(&mut self, t: Cycles, limit: Option<Cycles>) -> EpochOutcome {
        let head = self.events.peek_time().expect("caller checked the head");
        // The dispatch horizon is `t`, so events can exist at `t + 1`
        // (burst-end SlotFrees); the window never reaches past them.
        let cap = if t.0 == u64::MAX { t } else { Cycles(t.0 + 1) };
        let mut b = (head + self.epoch_len).min(cap).min(limit.unwrap_or(cap));

        // Stage every SlotFree strictly below B. A callback event
        // truncates the window to its due time: callbacks run arbitrary
        // host code and must execute on the real machine, and same-time
        // staged events are pushed back (a callback may interleave with
        // them in seq order).
        let mut staged: Vec<(Cycles, switchless_sim::event::EventToken, Ev)> = Vec::new();
        while let Some(ht) = self.events.peek_time() {
            if ht >= b {
                break;
            }
            let Some((at, tok, ev)) = self.events.pop_keyed() else {
                break;
            };
            if matches!(ev, Ev::Call(_)) {
                self.events.restore(at, tok, ev);
                while staged.last().is_some_and(|&(t2, _, _)| t2 == at) {
                    let (t2, tok2, ev2) = staged.pop().expect("non-empty");
                    self.events.restore(t2, tok2, ev2);
                }
                b = at;
                break;
            }
            staged.push((at, tok, ev));
        }

        // Group by core; staging index is the event's virtual seq.
        let mut per_core: BTreeMap<u32, Vec<(Cycles, u64, u32)>> = BTreeMap::new();
        for (i, &(at, _, ev)) in staged.iter().enumerate() {
            let Ev::SlotFree { core, slot } = ev else {
                unreachable!("calls truncate the window");
            };
            per_core.entry(core).or_default().push((at, i as u64, slot));
        }
        if per_core.len() < 2 {
            self.restore_staged(staged);
            self.shard_stats.too_few += 1;
            return EpochOutcome::TooFew(b);
        }
        let cores: Vec<usize> = per_core.keys().map(|&c| c as usize).collect();

        let staged_total = staged.len() as u64;
        let jobs = self.machine_jobs.min(cores.len());
        let results = {
            // Split memory into the registered domains (each lent to its
            // core's worker, if it has one) and the frozen gaps between
            // them (shared read-only by every worker).
            let mut doms: Vec<(u64, u64, usize)> = self
                .core_domains
                .iter()
                .enumerate()
                .filter_map(|(c, d)| d.map(|(base, len)| (base, len, c)))
                .collect();
            doms.sort_unstable();
            let mut gaps: Vec<(u64, &[u8])> = Vec::with_capacity(doms.len() + 1);
            let mut lent: Vec<Option<Domain<'_>>> = (0..self.cfg.cores).map(|_| None).collect();
            let mut journals: Vec<Option<&mut DomainJournal>> =
                self.domain_journals.iter_mut().map(Some).collect();
            let mut rest: &mut [u8] = &mut self.mem;
            let mut at = 0u64;
            for (base, len, c) in doms {
                let (gap, tail) = rest.split_at_mut((base - at) as usize);
                gaps.push((at, gap));
                let (bytes, tail) = tail.split_at_mut(len as usize);
                if cores.binary_search(&c).is_ok() {
                    let journal = journals[c].take().expect("one domain per core");
                    journal.begin(bytes.len());
                    lent[c] = Some(Domain {
                        base,
                        bytes,
                        journal,
                    });
                }
                rest = tail;
                at = base + len;
            }
            gaps.push((at, rest));

            let sh = Shared {
                cfg: self.cfg,
                now0: self.now,
                b,
                t,
                staged_total,
                gaps,
                filter: self.filter.as_ref(),
                code: &self.code,
                // Maintained sorted by `register_mmio`; no per-epoch
                // rebuild.
                mmio_addrs: &self.mmio_addrs,
                domains: &self.core_domains,
                sb_on: self.sb_on,
            };
            // Each worker holds its core's small state cloned, its caches
            // and memory domain borrowed in place under undo journals, and
            // its staged `(due, staging index, slot)` events.
            let workers: Vec<Worker<'_>> = per_core
                .into_iter()
                .zip(self.hier.core_views(&cores))
                .map(|((core, staged), caches)| {
                    let core = core as usize;
                    let mut tids: Vec<u32> = self.cores[core]
                        .sched
                        .iter_enrolled()
                        .map(|p| p.0)
                        .collect();
                    tids.sort_unstable();
                    let watches = tids.iter().map(|&i| WatchId(u64::from(i)));
                    let mut q = LocalQueue::default();
                    for (at, idx, slot) in staged {
                        q.push(at, idx, slot);
                    }
                    Worker {
                        sh: &sh,
                        core,
                        cs: self.cores[core].clone(),
                        threads: tids
                            .iter()
                            .map(|&i| (i, self.threads[i as usize].clone()))
                            .collect(),
                        caches,
                        tlb: self.tlbs[core].clone(),
                        prefetch: self.prefetcher.core_view(watches),
                        domain: lent[core].take(),
                        q,
                        stash: Vec::new(),
                        local_now: sh.now0,
                        created_at: Vec::new(),
                        hist: [Act::Unknown; ORIGIN_DEPTH],
                        hist_head: 0,
                        ran: false,
                        last_code: 0,
                        wakes: Vec::new(),
                        d_dispatches: 0,
                        d_insts: 0,
                        d_activate: [0; 4],
                        quiet_stores: 0,
                        scratch: BlockScratch::default(),
                    }
                })
                .collect();
            par_map_owned(jobs, workers, |_, w| run_worker(w))
        };

        let mut oks: Vec<WorkerOk> = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(ok) => oks.push(ok),
                Err(Bail) => {
                    self.rollback_epoch(&cores, staged);
                    self.shard_stats.bailed += 1;
                    return EpochOutcome::Bailed;
                }
            }
        }

        // Equal-time survivors of different cores queue in the order the
        // serial engine creates them (see `Origin`); within a core that
        // order is creation order. Two survivors of different cores that
        // order cannot separate, and two wake samples of different cores
        // in the same cycle (their order decides `last_wake`), are ties.
        let mut surv: Vec<(Cycles, Origin, usize, u32)> = oks
            .iter()
            .enumerate()
            .flat_map(|(pos, ok)| {
                ok.survivors
                    .iter()
                    .map(move |&(at, o, slot)| (at, o, pos, slot))
            })
            .collect();
        // Stable: same-core entries keep creation order.
        surv.sort_by_key(|&(at, o, _, _)| (at, o));
        let surv_tie = surv
            .windows(2)
            .filter(|w| {
                let (x, y) = (&w[0], &w[1]);
                // Equal up to the first difference, which must be known.
                let split = x.1.iter().zip(&y.1).find(|(a, b)| a != b);
                x.2 != y.2
                    && x.0 == y.0
                    && split.is_none_or(|(&a, &b)| a == UNKNOWN || b == UNKNOWN)
            })
            .map(|w| w[0].1[0])
            .min();
        let mut wakes: Vec<(Cycles, usize, u32, u64)> = oks
            .iter()
            .enumerate()
            .flat_map(|(pos, ok)| ok.wakes.iter().map(move |&(at, p, s)| (at, pos, p, s)))
            .collect();
        // Stable: a core's pops are already in time order.
        wakes.sort_by_key(|w| w.0);
        let wake_tie = wakes
            .windows(2)
            .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
            .map(|w| w[0].0)
            .min();
        if let Some(at) = surv_tie.into_iter().chain(wake_tie).min() {
            self.rollback_epoch(&cores, staged);
            self.shard_stats.ties += 1;
            return EpochOutcome::Tie(at);
        }

        // ---- Commit (all-or-nothing; no bail past this point) ----
        self.shard_stats.committed += 1;

        for &(_, _, p, sample) in &wakes {
            self.wake_latency.record(sample);
            self.last_wake = Some((Ptid(p), sample));
        }

        // Every core ran to `B`, so every survivor is due at or after it
        // and was created below it; none can be passed by `now`.
        for (at, _, pos, slot) in surv {
            let core = oks[pos].core as u32;
            self.events.schedule(at, Ev::SlotFree { core, slot });
        }
        self.now = oks.iter().map(|o| o.now).fold(self.now, Cycles::max);

        // Splice each core's state back and batch the counter deltas.
        let mut quiet = 0u64;
        for ok in oks {
            let WorkerOk {
                core,
                threads,
                cs,
                writebacks,
                tlb,
                prefetch,
                d_dispatches,
                d_insts,
                d_activate,
                quiet_stores,
                ..
            } = ok;
            for (p, th) in threads {
                self.threads[p as usize] = th;
            }
            self.cores[core] = cs;
            self.hier.note_private_writebacks(writebacks);
            self.tlbs[core] = tlb;
            self.prefetcher.absorb(prefetch);
            self.counters.bump(self.hot.sched_dispatches, d_dispatches);
            self.counters.bump(self.hot.inst_executed, d_insts);
            for (i, &n) in d_activate.iter().enumerate() {
                self.counters.bump(self.hot.activate[i], n);
            }
            quiet += quiet_stores;
            self.shard_stats.insts_parallel += d_insts;
        }
        if quiet > 0 {
            self.filter.note_quiet_stores(quiet);
        }
        EpochOutcome::Committed
    }

    /// Puts staged events back under their original keys.
    fn restore_staged(&mut self, staged: Vec<(Cycles, switchless_sim::event::EventToken, Ev)>) {
        for (at, tok, ev) in staged.into_iter().rev() {
            self.events.restore(at, tok, ev);
        }
    }

    /// Discards an epoch: replays the undo journals of every core that
    /// ran and restores the staged events.
    fn rollback_epoch(
        &mut self,
        cores: &[usize],
        staged: Vec<(Cycles, switchless_sim::event::EventToken, Ev)>,
    ) {
        for &c in cores {
            self.hier.rollback_core_view(c);
            if let Some((base, len)) = self.core_domains[c] {
                let lo = base as usize;
                self.domain_journals[c].rollback(&mut self.mem[lo..lo + len as usize]);
            }
        }
        self.restore_staged(staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_queue_orders_by_time_then_key() {
        let mut q = LocalQueue::default();
        q.push(Cycles(10), 2, 0);
        q.push(Cycles(10), 1, 1);
        q.push(Cycles(5), 7, 0);
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(5), 7, 0)));
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(10), 1, 1)));
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(10), 2, 0)));
        assert_eq!(q.pop_below(Cycles(100)), None);
    }

    #[test]
    fn local_queue_pop_below_is_strict() {
        let mut q = LocalQueue::default();
        q.push(Cycles(8), 0, 0);
        assert_eq!(q.next_deadline(), Some(Cycles(8)));
        assert_eq!(q.pop_below(Cycles(8)), None);
        assert_eq!(q.pop_below(Cycles(9)), Some((Cycles(8), 0, 0)));
    }

    #[test]
    fn local_queue_drain_returns_everything() {
        let mut q = LocalQueue::default();
        q.push(Cycles(3), 0, 0);
        q.push(Cycles(1), 1, 1);
        let mut all = q.drain_all();
        all.sort_unstable();
        assert_eq!(all, vec![(Cycles(1), 1, 1), (Cycles(3), 0, 0)]);
    }
}
