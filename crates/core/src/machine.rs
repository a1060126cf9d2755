//! The machine: cores × SMT slots × many hardware threads, executing ISA
//! programs event-driven.
//!
//! # Execution model
//!
//! Each core has a small number of pipeline (SMT) **slots**. When a slot
//! is free, the core's hardware scheduler picks the next eligible runnable
//! ptid and the machine executes **one instruction** for it; the slot is
//! then busy for that instruction's cost (base cost + memory latency +
//! any thread-activation cost). This per-instruction interleaving is the
//! paper's fine-grain round-robin / processor-sharing model. When no
//! thread is runnable the slot idles and is re-kicked by the next wakeup
//! — there is no polling anywhere in the machine.
//!
//! As a host-side fast path, a dispatch may execute a **burst** of
//! instructions inline when the picked thread is provably the only
//! possible pick and no pending event could observe state in between
//! (DESIGN.md §8). Bursts never change the simulated timeline — they
//! elide event-queue round-trips whose outcome is forced.
//!
//! # The only hardware state changes
//!
//! Exactly as §3 prescribes, system calls, exceptions and external events
//! cause precisely one kind of hardware action: **blocking and unblocking
//! hardware threads** (plus a descriptor store). Stores — from CPU threads
//! and from DMA — pass through the generalized monitor filter; matching
//! waiters wake. Faults write a 32-byte descriptor through the same store
//! path (so handlers wake the same way) and disable the faulting thread.
//!
//! # Timing shortcuts (documented, deliberate)
//!
//! * Instruction semantics take effect at dispatch; the slot is then busy
//!   for the instruction's cost. ("execute-at-issue")
//! * Demotion write-backs of thread state are off the critical path and
//!   free; re-activation pays the tier cost.
//! * `hcall` invokes a registered host service — the simulation shortcut
//!   for bulk kernel logic (see DESIGN.md); handlers charge explicit
//!   cycle costs via [`Machine::charge`].

use switchless_isa::arch::{ArchState, Mode, RegSel};
use switchless_isa::asm::Program;
use switchless_isa::inst::{Inst, Reg};
use switchless_mem::addr::{PAddr, PAGE_BYTES};
use switchless_mem::hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig};
use switchless_mem::monitor::{CamFilter, HashFilter, MonitorFilter, WakeEvent, WatchId};
use switchless_mem::prefetch::WakePrefetcher;
use switchless_mem::tlb::{Tlb, TlbConfig};
use switchless_sim::error::SimError;
use switchless_sim::event::{EventQueue, EventToken};
use switchless_sim::fault::{FaultKind, FaultPlan};
use switchless_sim::hash::FxHashMap;
use switchless_sim::invariant::{InvariantReport, Ledger};
use switchless_sim::stats::{CounterId, Counters, Histogram};
use switchless_sim::time::{Cycles, Freq};
use switchless_sim::trace::TraceRing;

use crate::exception::{Descriptor, ExceptionKind};
use crate::exec::{self, BlockScratch, Env};
use crate::perm::{Perms, TdtEntry};
use crate::sblock::Code;
use crate::sched::{HwScheduler, SchedPolicy};
use crate::store::{StateStore, StoreConfig, Tier};
use crate::tdt::TdtCache;
use crate::tid::{Ptid, ThreadState, Vtid};

/// Handle to one hardware thread: its home core and global ptid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadId {
    /// Home core index.
    pub core: usize,
    /// Global physical thread id.
    pub ptid: Ptid,
}

/// How `syscall`/`vmcall` behave — the knob experiments F4/F5 sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapMode {
    /// Today's world: the trap vectors into the *same* hardware thread
    /// after a mode-switch penalty (hundreds of cycles, `[46, 69]`).
    SameThread {
        /// Penalty charged on `syscall` entry (the handler returns with
        /// an ordinary `jr`, so the exit penalty should be folded in).
        syscall_cost: Cycles,
        /// Penalty charged on `vmcall` (VM-exit + VM-entry, `[20]`).
        vmexit_cost: Cycles,
    },
    /// The paper's world: the trap writes a descriptor at the calling
    /// thread's EDP and disables it; a service thread monitoring that
    /// address wakes and handles it.
    Descriptor,
}

/// Which monitor-filter hardware design to instantiate (experiment F12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorKind {
    /// Fully-associative exact filter with bounded capacity.
    Cam {
        /// Maximum armed ranges.
        capacity: usize,
    },
    /// Line-granular hashed filter (unbounded, false wakeups possible).
    Hash,
}

/// Full machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// SMT pipeline slots per core (the small number of hyperthreads that
    /// the many hardware threads multiplex onto, §4).
    pub smt_slots: usize,
    /// Hardware threads per core (the paper: 10s to 1000s).
    pub ptids_per_core: usize,
    /// Bytes of flat physical memory.
    pub mem_bytes: u64,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// TLB parameters.
    pub tlb: TlbConfig,
    /// Thread-state storage hierarchy parameters.
    pub store: StoreConfig,
    /// Hardware scheduling policy.
    pub sched: SchedPolicy,
    /// Monitor-filter implementation.
    pub monitor: MonitorKind,
    /// System-call / VM-exit delivery mode.
    pub trap: TrapMode,
    /// Clock frequency (for ns conversion in reports).
    pub freq: Freq,
    /// DMA writes install lines in L3 (DDIO-style) rather than
    /// invalidating them.
    pub dma_warms_l3: bool,
}

impl MachineConfig {
    /// One core, 64 hardware threads: fast unit-test machine.
    #[must_use]
    pub fn small() -> MachineConfig {
        MachineConfig {
            cores: 1,
            smt_slots: 2,
            ptids_per_core: 64,
            mem_bytes: 4 << 20,
            hierarchy: HierarchyConfig::server(),
            tlb: TlbConfig::default(),
            store: StoreConfig::default(),
            sched: SchedPolicy::RoundRobin,
            monitor: MonitorKind::Cam { capacity: 1024 },
            trap: TrapMode::Descriptor,
            freq: Freq::GHZ3,
            dma_warms_l3: true,
        }
    }

    /// Multi-core server-style machine (4 cores × 256 threads).
    #[must_use]
    pub fn server() -> MachineConfig {
        MachineConfig {
            cores: 4,
            smt_slots: 2,
            ptids_per_core: 256,
            mem_bytes: 64 << 20,
            ..MachineConfig::small()
        }
    }
}

/// Errors from host-level machine operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// No unused ptid left on the requested core.
    OutOfThreads,
    /// Program image overlaps previously loaded memory.
    ImageOverlap,
    /// Address outside physical memory.
    BadAddress(u64),
    /// Core index out of range.
    BadCore(usize),
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::OutOfThreads => write!(f, "no free hardware thread on core"),
            MachineError::ImageOverlap => write!(f, "program image overlaps loaded memory"),
            MachineError::BadAddress(a) => write!(f, "address {a:#x} outside memory"),
            MachineError::BadCore(c) => write!(f, "core {c} out of range"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> SimError {
        SimError::Machine {
            context: "machine",
            detail: e.to_string(),
        }
    }
}

/// One hardware thread's simulator-side context.
///
/// `Clone` + `pub(crate)` fields: the epoch engine (`shard`) snapshots
/// per-core thread state, runs workers on the clones, and commits them
/// back wholesale on success.
#[derive(Clone)]
pub(crate) struct Thread {
    pub(crate) arch: ArchState,
    pub(crate) state: ThreadState,
    /// Core this thread currently belongs to (changes on migration).
    pub(crate) home: usize,
    /// Busy executing an in-flight instruction (or a state transfer)
    /// until this time; the scheduler skips it.
    pub(crate) busy_until: Cycles,
    /// Set when a monitored write arrives between `monitor` and `mwait`
    /// (or while running), so the next `mwait` falls through.
    pub(crate) monitor_triggered: bool,
    /// Whether any watch is armed in the filter for this thread.
    pub(crate) monitor_armed: bool,
    /// Pipeline-refill (and state-transfer) cost already paid since the
    /// thread last became runnable.
    pub(crate) activated: bool,
    /// Dirty-register mask (bit i = GPR i; bit 16 = pc/control).
    pub(crate) touched: u32,
    /// Time of the last wake/start, for wake-to-dispatch latency.
    pub(crate) wake_at: Option<Cycles>,
    /// Uses the vector extension (larger state to move, §2 FP/vector).
    pub(crate) vector_state: bool,
    /// Per-thread wake-latency accounting: (samples, total, max).
    pub(crate) wake_stats: (u64, u64, u64),
    /// Cache partition this thread's data traffic is tagged with (§4
    /// fine-grain partitioning; default = unmanaged pool).
    pub(crate) partition: switchless_mem::cache::PartitionId,
    /// Per-thread watchdog: max cycles the thread may stay parked in one
    /// `mwait` before the hardware disables it with `WatchdogExpired`.
    pub(crate) watchdog: Option<Cycles>,
    /// Bumped on every `mwait` park so a stale watchdog callback from an
    /// earlier park never fires on a later one.
    pub(crate) park_epoch: u64,
    /// Quarantined threads refuse every wake until restarted.
    pub(crate) quarantined: bool,
    /// First `start` pc; `restart_thread` resets the thread here.
    pub(crate) restart_pc: Option<u64>,
    /// When the thread was last disabled by an exception (recovery-latency
    /// measurement); cleared on wake.
    pub(crate) disabled_at: Option<Cycles>,
}

impl Thread {
    fn new(home: usize) -> Thread {
        Thread {
            arch: ArchState::default(),
            state: ThreadState::Disabled,
            home,
            busy_until: Cycles::ZERO,
            monitor_triggered: false,
            monitor_armed: false,
            activated: false,
            touched: 0,
            wake_at: None,
            vector_state: false,
            wake_stats: (0, 0, 0),
            partition: switchless_mem::cache::PartitionId::DEFAULT,
            watchdog: None,
            park_epoch: 0,
            quarantined: false,
            restart_pc: None,
            disabled_at: None,
        }
    }

    pub(crate) fn state_bytes(&self) -> u64 {
        if self.vector_state {
            ArchState::vector_state_bytes()
        } else {
            ArchState::base_state_bytes()
        }
    }

    pub(crate) fn dirty_bytes(&self) -> u64 {
        // pc + mode word always move; plus 8 bytes per touched GPR.
        let gprs = u64::from((self.touched & 0xffff).count_ones());
        (16 + gprs * 8).min(self.state_bytes())
    }

    /// Bytes a state transfer moves: the dirty subset under dirty
    /// tracking, else the whole state.
    pub(crate) fn transfer_bytes(&self, dirty_tracking: bool) -> u64 {
        if dirty_tracking {
            self.dirty_bytes()
        } else {
            self.state_bytes()
        }
    }

    /// Consumes the wake stamp at the first dispatch after a wake and
    /// returns the wake-to-execution latency: scheduler queueing
    /// (`now - wake`) plus the `activation` cost just charged. The sample
    /// is also added to the per-thread stats.
    pub(crate) fn take_wake_sample(&mut self, now: Cycles, activation: Cycles) -> Option<u64> {
        let sample = (now - self.wake_at.take()? + activation).0;
        let ws = &mut self.wake_stats;
        ws.0 += 1;
        ws.1 += sample;
        ws.2 = ws.2.max(sample);
        Some(sample)
    }

    pub(crate) fn gpr(&self, r: Reg) -> u64 {
        self.arch.gprs[r.0 as usize & 0xf]
    }

    /// Writes a GPR and marks it dirty.
    pub(crate) fn set_gpr(&mut self, r: Reg, v: u64) {
        self.arch.gprs[r.0 as usize & 0xf] = v;
        self.touched |= 1 << (r.0 & 0xf);
    }
}

#[derive(Clone)]
pub(crate) struct CoreState {
    pub(crate) sched: HwScheduler,
    pub(crate) store: StateStore,
    pub(crate) tdt: TdtCache,
    pub(crate) idle_slot: Vec<bool>,
    pub(crate) next_unused: usize,
}

impl CoreState {
    /// Dispatch-time activation of thread `t` (`ptid`): pipeline refill,
    /// plus a state transfer when its state is not RF-resident and was
    /// not prefetched. Returns the cost and the tier the state came from,
    /// or `None` when `t` is already active in the register file.
    pub(crate) fn activate(
        &mut self,
        ptid: Ptid,
        t: &mut Thread,
        dirty_tracking: bool,
    ) -> Option<(Cycles, Tier)> {
        if t.activated && self.store.tier_of(ptid) == Tier::Rf {
            self.store.touch(ptid);
            return None;
        }
        let (cost, from) = self
            .store
            .activate(ptid, t.arch.prio, t.transfer_bytes(dirty_tracking));
        t.activated = true;
        t.touched = 0;
        Some((cost, from))
    }

    /// Whether a burst may execute one more instruction for thread `t`
    /// (`ptid`) dispatching at time `done` on this core. True only when
    /// the single-step machine would provably arrive at the identical
    /// pick with identical charges: the thread is still runnable here
    /// with RF-resident, already-activated state (no activation cost to
    /// charge), not made busy by anything, and it is the **sole**
    /// enrolled thread (so round-robin rotation is the identity and no
    /// fairness quantum can be violated). Everything an instruction's side
    /// effects can touch is re-read here, which makes the bailout
    /// effect-based — strictly stronger than a syntactic instruction
    /// blacklist.
    pub(crate) fn burst_eligible(&self, core: usize, ptid: Ptid, t: &Thread, done: Cycles) -> bool {
        t.state == ThreadState::Runnable
            && t.activated
            && t.home == core
            && t.busy_until <= done
            && self.sched.sole_runnable() == Some(ptid)
            && self.store.tier_of(ptid) == Tier::Rf
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ev {
    // u32 fields keep the event (and thus every queue entry) small:
    // events are copied through the scheduler's wheel on every simulated
    // instruction.
    SlotFree { core: u32, slot: u32 },
    Call(u64),
}

impl Ev {
    fn slot_free(core: usize, slot: usize) -> Ev {
        Ev::SlotFree {
            core: core as u32,
            slot: slot as u32,
        }
    }
}

/// Upper bound on instructions executed inline per dispatch (the burst
/// engine, DESIGN.md §8). Purely a host-side amortisation knob: every
/// continuation is already gated on the event-queue deadline and the
/// scheduler, so the cap never changes simulated behavior — it only
/// bounds how much work one `SlotFree` event can do before re-entering
/// the queue.
pub(crate) const MAX_BURST: u64 = 1024;

/// Process-wide defaults of the host-side engine knobs, read once from
/// the environment, as `(superblocks, mem_superblocks, serial_engine)`:
/// `SWITCHLESS_SUPERBLOCKS` and `SWITCHLESS_MEM_SUPERBLOCKS` disable on
/// `0`/`off`/`false` and enable on anything else or when unset
/// (DESIGN.md §10); `SWITCHLESS_ENGINE=serial` pins every machine to the
/// serial reference loop (DESIGN.md §9). Like `MAX_BURST` these are
/// wall-clock knobs only: simulated state is bit-identical either way.
fn env_knobs() -> (bool, bool, bool) {
    static KNOBS: std::sync::OnceLock<(bool, bool, bool)> = std::sync::OnceLock::new();
    *KNOBS.get_or_init(|| {
        let var = |name| std::env::var(name).unwrap_or_default();
        let on = |name| !matches!(var(name).as_str(), "0" | "off" | "false");
        let serial = var("SWITCHLESS_ENGINE") == "serial";
        (
            on("SWITCHLESS_SUPERBLOCKS"),
            on("SWITCHLESS_MEM_SUPERBLOCKS"),
            serial,
        )
    })
}

type HostCall = Box<dyn FnMut(&mut Machine, ThreadId)>;
type MmioHook = Box<dyn FnMut(&mut Machine, u64)>;
type HostEvent = Box<dyn FnOnce(&mut Machine)>;
/// A registered machine-wide invariant: returns `Some(detail)` when the
/// invariant is violated. Runs at event-queue boundaries when checking is
/// enabled; must not mutate anything (it sees `&Machine`).
type InvariantFn = Box<dyn Fn(&Machine) -> Option<String>>;

/// Pre-resolved [`CounterId`]s for counters bumped on (nearly) every
/// dispatched instruction or store — skips the per-call string hash.
pub(crate) struct HotCounters {
    pub(crate) inst_executed: CounterId,
    pub(crate) sched_dispatches: CounterId,
    pub(crate) store_external: CounterId,
    pub(crate) monitor_wakes: CounterId,
    pub(crate) monitor_false_wakes: CounterId,
    pub(crate) thread_wakes: CounterId,
    pub(crate) activate: [CounterId; 4],
}

impl HotCounters {
    fn new(counters: &mut Counters) -> HotCounters {
        HotCounters {
            inst_executed: counters.id("inst.executed"),
            sched_dispatches: counters.id("sched.dispatches"),
            store_external: counters.id("store.external"),
            monitor_wakes: counters.id("monitor.wakes"),
            monitor_false_wakes: counters.id("monitor.false_wakes"),
            thread_wakes: counters.id("thread.wakes"),
            activate: [
                counters.id("store.activate.rf"),
                counters.id("store.activate.l2"),
                counters.id("store.activate.l3"),
                counters.id("store.activate.dram"),
            ],
        }
    }
}

/// The simulated machine.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) now: Cycles,
    pub(crate) mem: Vec<u8>,
    pub(crate) threads: Vec<Thread>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) hier: Hierarchy,
    pub(crate) tlbs: Vec<Tlb>,
    pub(crate) filter: Box<dyn MonitorFilter>,
    pub(crate) prefetcher: WakePrefetcher,
    pub(crate) events: EventQueue<Ev>,
    callbacks: FxHashMap<u64, HostEvent>,
    next_cb: u64,
    hcalls: FxHashMap<u16, HostCall>,
    /// Device doorbells: store hooks keyed by exact 8-byte-aligned
    /// address; fired after the monitor filter on any covering store.
    pub(crate) mmio_hooks: FxHashMap<u64, MmioHook>,
    pub(crate) counters: Counters,
    pub(crate) hot: HotCounters,
    trace: TraceRing,
    pub(crate) halted: Option<String>,
    /// Host allocator: grows down from the top of memory.
    alloc_top: u64,
    loaded: Vec<(u64, u64)>,
    /// Decoded-instruction cache, one entry per loaded image.
    pub(crate) code: Code,
    /// Index into `code` of the range that served the last fetch.
    last_code: usize,
    /// Reusable buffers for `after_store` (taken/restored around the
    /// loop bodies so reentrant stores fall back to a fresh `Vec`).
    scratch_wakes: Vec<WakeEvent>,
    scratch_mmio: Vec<u64>,
    syscall_vector: u64,
    vm_vector: u64,
    /// Extra cost injected by hcall handlers for the current instruction.
    pending_charge: Cycles,
    /// Sibling-slot events lifted out of the queue by an in-progress
    /// burst (see `dispatch`); always drained back before it returns.
    burst_stash: Vec<(Cycles, EventToken, Ev)>,
    /// Wake-to-first-dispatch latency histogram (cycles).
    pub(crate) wake_latency: Histogram,
    /// Most recent wake-latency sample, with the woken thread.
    pub(crate) last_wake: Option<(Ptid, u64)>,
    /// Installed fault-injection plan; `None` costs one branch per query.
    fault_plan: Option<FaultPlan>,
    /// Whether the invariant checker runs at event-queue boundaries.
    /// Off by default: measured runs pay exactly one branch per event.
    pub(crate) invariants_on: bool,
    /// Registered machine-wide invariants (device ring conservation, …).
    invariant_checks: Vec<(&'static str, InvariantFn)>,
    /// Violations observed since checking was enabled (bounded).
    invariant_report: InvariantReport,
    /// Exception-descriptor conservation: every raise must end up
    /// delivered or deliberately dropped (overflow / no-EDP halt).
    exc_ledger: Ledger,
    /// Named per-device conservation ledgers ([`Machine::ledger`]).
    /// A `Vec` keeps iteration in attach order (determinism).
    device_ledgers: Vec<(&'static str, Ledger)>,
    /// Host threads for the core-sharded epoch engine; 1 = inline.
    pub(crate) machine_jobs: usize,
    /// Pins the serial reference loop even on multi-core machines.
    pub(crate) serial_engine: bool,
    /// Host-declared per-core private data windows `(base, len)` for the
    /// epoch engine ([`Machine::set_core_domain`]). A worker may execute
    /// loads/stores that land fully inside its own core's window; loads
    /// fully outside *every* window read the frozen epoch-start image.
    pub(crate) core_domains: Vec<Option<(u64, u64)>>,
    /// Per-core undo journals for the epoch engine's in-place domain
    /// writes.
    pub(crate) domain_journals: Vec<crate::shard::DomainJournal>,
    /// Adaptive epoch length for the sharded engine (host-side knob;
    /// never observable in simulated state).
    pub(crate) epoch_len: Cycles,
    /// Host-side statistics for the sharded engine.
    pub(crate) shard_stats: ShardStats,
    /// Whether the superblock engine may form and execute pre-costed
    /// regions (DESIGN.md §10). Host-side only: simulated state is
    /// bit-identical either way.
    pub(crate) sb_on: bool,
    /// Whether region formation may admit local-effect loads/stores
    /// (memory-inclusive superblocks, DESIGN.md §10). Host-side only:
    /// simulated state is bit-identical either way.
    pub(crate) sb_mem_on: bool,
    /// Sorted MMIO hook addresses, maintained by [`Machine::register_mmio`].
    /// The quiet-store test binary-searches this instead of scanning the
    /// hook map, and the shard engine borrows it per epoch.
    pub(crate) mmio_addrs: Vec<u64>,
    block_scratch: BlockScratch,
}

/// Host-side statistics for the core-sharded epoch engine. These live
/// outside [`Counters`] deliberately: they describe how the simulation
/// was *executed* (epochs attempted, bailed, committed), not what the
/// simulated machine did, so they must not leak into results files or
/// chaos digests that are compared across engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Epochs whose speculative execution was committed.
    pub committed: u64,
    /// Epochs discarded because a worker hit a non-core-local effect.
    pub bailed: u64,
    /// Epochs discarded at commit time over a cross-core time tie
    /// (equal-time survivors or wake samples); retried, not replayed.
    pub ties: u64,
    /// Epochs skipped because fewer than two cores had work staged.
    pub too_few: u64,
    /// Instructions executed inside committed epochs (parallel work).
    pub insts_parallel: u64,
    /// Events replayed serially (outside committed epochs).
    pub serial_events: u64,
}

impl Machine {
    /// Builds a machine; all hardware threads start `Disabled`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (zero cores/slots/threads/memory).
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Machine {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(cfg.smt_slots > 0, "need at least one SMT slot");
        assert!(cfg.ptids_per_core > 0, "need at least one hardware thread");
        assert!(cfg.mem_bytes >= 4096, "need some memory");
        let nthreads = cfg.cores * cfg.ptids_per_core;
        let filter: Box<dyn MonitorFilter> = match cfg.monitor {
            MonitorKind::Cam { capacity } => Box::new(CamFilter::new(capacity)),
            MonitorKind::Hash => Box::new(HashFilter::new()),
        };
        let mut counters = Counters::new();
        let hot = HotCounters::new(&mut counters);
        let (sb_on, sb_mem_on, serial_engine) = env_knobs();
        Machine {
            cfg,
            now: Cycles::ZERO,
            mem: vec![0; cfg.mem_bytes as usize],
            threads: (0..nthreads)
                .map(|i| Thread::new(i / cfg.ptids_per_core))
                .collect(),
            cores: (0..cfg.cores)
                .map(|_| CoreState {
                    sched: HwScheduler::new(cfg.sched),
                    store: StateStore::new(cfg.store),
                    tdt: TdtCache::new(64),
                    idle_slot: vec![true; cfg.smt_slots],
                    next_unused: 0,
                })
                .collect(),
            hier: Hierarchy::new(cfg.cores, cfg.hierarchy),
            tlbs: (0..cfg.cores).map(|_| Tlb::new(cfg.tlb)).collect(),
            filter,
            prefetcher: WakePrefetcher::new(64),
            events: EventQueue::new(),
            callbacks: FxHashMap::default(),
            next_cb: 0,
            hcalls: FxHashMap::default(),
            mmio_hooks: FxHashMap::default(),
            counters,
            hot,
            trace: TraceRing::new(4096),
            halted: None,
            alloc_top: cfg.mem_bytes,
            loaded: Vec::new(),
            code: Code::default(),
            last_code: 0,
            scratch_wakes: Vec::new(),
            scratch_mmio: Vec::new(),
            syscall_vector: 0,
            vm_vector: 0,
            pending_charge: Cycles::ZERO,
            burst_stash: Vec::new(),
            wake_latency: Histogram::new(),
            last_wake: None,
            fault_plan: None,
            invariants_on: false,
            invariant_checks: Vec::new(),
            invariant_report: InvariantReport::new(),
            exc_ledger: Ledger::default(),
            device_ledgers: Vec::new(),
            machine_jobs: 1,
            serial_engine,
            core_domains: vec![None; cfg.cores],
            domain_journals: vec![Default::default(); cfg.cores],
            epoch_len: Cycles(64),
            shard_stats: ShardStats::default(),
            sb_on,
            sb_mem_on,
            mmio_addrs: Vec::new(),
            block_scratch: BlockScratch::default(),
        }
    }

    // -----------------------------------------------------------------
    // Host-level API
    // -----------------------------------------------------------------

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Configuration this machine was built with.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Why the machine halted, if it did (triple-fault analog).
    #[must_use]
    pub fn halted_reason(&self) -> Option<&str> {
        self.halted.as_deref()
    }

    /// Statistics counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counter access — device models and kernels add their own
    /// statistics alongside the machine's.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Sets the number of host threads the core-sharded epoch engine
    /// (see `shard.rs`) may use. `0` or `1` runs every epoch inline on
    /// the calling thread, with no thread spawns; the engine itself is
    /// chosen by [`Machine::set_serial_engine`]. The simulated outcome
    /// is bit-identical for every value — the epoch engine only commits
    /// speculation it can prove the serial engine would reproduce — so
    /// this is purely a wall-clock knob.
    pub fn set_machine_jobs(&mut self, jobs: usize) {
        self.machine_jobs = jobs.max(1);
    }

    /// Host threads the epoch engine may use (1 = inline).
    #[must_use]
    pub fn machine_jobs(&self) -> usize {
        self.machine_jobs
    }

    /// Pins the serial reference loop (`true`) or lets multi-core
    /// machines run on the epoch engine (`false`, the default unless
    /// `SWITCHLESS_ENGINE=serial`). Single-core machines and machines
    /// with the invariant checker on always run serially. Purely a
    /// wall-clock knob: both engines produce bit-identical state.
    pub fn set_serial_engine(&mut self, on: bool) {
        self.serial_engine = on;
    }

    /// Whether the serial reference loop is pinned.
    #[must_use]
    pub fn serial_engine(&self) -> bool {
        self.serial_engine
    }

    /// Enables or disables the superblock engine (DESIGN.md §10).
    /// Defaults to the `SWITCHLESS_SUPERBLOCKS` environment variable
    /// (`0`/`off`/`false` disable; anything else, or unset, enables).
    /// The simulated outcome is bit-identical either way — superblocks
    /// only batch work the single-step path would perform anyway — so
    /// this is purely a wall-clock knob.
    pub fn set_superblocks(&mut self, on: bool) {
        self.sb_on = on;
    }

    /// Whether the superblock engine is enabled.
    #[must_use]
    pub fn superblocks(&self) -> bool {
        self.sb_on
    }

    /// Enables or disables memory-inclusive superblock formation
    /// (DESIGN.md §10, "memory-inclusive regions"). Defaults to the
    /// `SWITCHLESS_MEM_SUPERBLOCKS` environment variable (`0`/`off`/
    /// `false` restrict regions to pure register code; anything else, or
    /// unset, admits local-effect loads/stores). Purely a wall-clock
    /// knob: a memory block executes only when its whole batched effect
    /// is provably what single-stepping would produce, and bails to the
    /// single-step path otherwise, so the simulated outcome is
    /// bit-identical either way.
    pub fn set_mem_superblocks(&mut self, on: bool) {
        self.sb_mem_on = on;
    }

    /// Whether memory-inclusive superblock formation is enabled.
    #[must_use]
    pub fn mem_superblocks(&self) -> bool {
        self.sb_mem_on
    }

    /// Declares `[base, base + len)` as `core`'s private data window for
    /// the epoch engine. Epoch workers may retire stores that land fully
    /// inside their own core's window; anything else bails the epoch and
    /// is replayed serially. Windows must be pairwise disjoint and inside
    /// physical memory.
    ///
    /// # Panics
    ///
    /// Panics on a bad core, an out-of-range window, or overlap with
    /// another core's window.
    pub fn set_core_domain(&mut self, core: usize, base: u64, len: u64) {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let end = base.checked_add(len).expect("domain wraps");
        assert!(end <= self.cfg.mem_bytes, "domain outside memory");
        for (c, d) in self.core_domains.iter().enumerate() {
            if let Some((b, l)) = *d {
                if c != core {
                    assert!(base >= b + l || b >= end, "domain overlaps core {c}");
                }
            }
        }
        self.core_domains[core] = Some((base, len));
    }

    /// Host-side statistics for the core-sharded epoch engine.
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        self.shard_stats
    }

    /// Wake-to-first-dispatch latency histogram (cycles).
    #[must_use]
    pub fn wake_latency(&self) -> &Histogram {
        &self.wake_latency
    }

    /// Clears the wake-latency histogram (end of warmup).
    pub fn reset_wake_latency(&mut self) {
        self.wake_latency.reset();
        self.last_wake = None;
    }

    /// Per-thread wake-latency accounting: `(samples, total cycles, max)`.
    #[must_use]
    pub fn thread_wake_stats(&self, tid: ThreadId) -> (u64, u64, u64) {
        self.threads[tid.ptid.0 as usize].wake_stats
    }

    /// Clears one thread's wake-latency accounting.
    pub fn reset_thread_wake_stats(&mut self, tid: ThreadId) {
        self.thread_mut(tid.ptid).wake_stats = (0, 0, 0);
    }

    /// The most recent wake-latency sample: `(thread, cycles)`.
    #[must_use]
    pub fn last_wake_latency(&self) -> Option<(ThreadId, u64)> {
        self.last_wake.map(|(p, c)| {
            (
                ThreadId {
                    core: self.core_of(p),
                    ptid: p,
                },
                c,
            )
        })
    }

    /// The trace ring (enable for debugging/determinism tests).
    pub fn trace_mut(&mut self) -> &mut TraceRing {
        &mut self.trace
    }

    /// Read-only trace access.
    #[must_use]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Per-core activation statistics `(rf, l2, l3, dram)`.
    #[must_use]
    pub fn store_stats(&self, core: usize) -> (u64, u64, u64, u64) {
        self.cores[core].store.activation_stats()
    }

    /// Cycles billed to a thread by the hardware accounting (§4).
    #[must_use]
    pub fn billed_cycles(&self, tid: ThreadId) -> Cycles {
        self.cores[tid.core].sched.usage_of(tid.ptid)
    }

    /// Allocates `len` bytes of free simulated memory (host convenience
    /// for mailboxes, rings, descriptor areas). 64-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if memory is exhausted.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let top = self
            .alloc_top
            .checked_sub(len)
            .expect("simulated memory exhausted");
        self.alloc_top = top & !63;
        assert!(
            self.loaded
                .iter()
                .all(|&(b, e)| self.alloc_top >= e || b >= self.alloc_top),
            "allocator collided with a loaded image"
        );
        self.alloc_top
    }

    /// Creates (reserves) a fresh disabled hardware thread on `core`.
    pub fn create_thread(&mut self, core: usize) -> Result<ThreadId, MachineError> {
        if core >= self.cfg.cores {
            return Err(MachineError::BadCore(core));
        }
        let slot = self.cores[core].next_unused;
        if slot >= self.cfg.ptids_per_core {
            return Err(MachineError::OutOfThreads);
        }
        self.cores[core].next_unused += 1;
        let ptid = Ptid((core * self.cfg.ptids_per_core + slot) as u32);
        Ok(ThreadId { core, ptid })
    }

    /// Loads a program image and creates a supervisor thread entering it.
    pub fn load_program(&mut self, core: usize, prog: &Program) -> Result<ThreadId, MachineError> {
        self.load_image(prog)?;
        let tid = self.create_thread(core)?;
        {
            let t = self.thread_mut(tid.ptid);
            t.arch.pc = prog.entry;
            t.arch.mode = Mode::Supervisor;
        }
        Ok(tid)
    }

    /// Loads a program image and creates a **user-mode** thread.
    pub fn load_program_user(
        &mut self,
        core: usize,
        prog: &Program,
    ) -> Result<ThreadId, MachineError> {
        let tid = self.load_program(core, prog)?;
        self.thread_mut(tid.ptid).arch.mode = Mode::User;
        Ok(tid)
    }

    /// Creates a thread entering an already-loaded image at `pc`.
    pub fn spawn_at(
        &mut self,
        core: usize,
        pc: u64,
        supervisor: bool,
    ) -> Result<ThreadId, MachineError> {
        let tid = self.create_thread(core)?;
        let t = self.thread_mut(tid.ptid);
        t.arch.pc = pc;
        t.arch.mode = if supervisor {
            Mode::Supervisor
        } else {
            Mode::User
        };
        Ok(tid)
    }

    /// Writes a program image into memory without creating a thread.
    pub fn load_image(&mut self, prog: &Program) -> Result<(), MachineError> {
        let (base, end) = (prog.base, prog.end());
        if end > self.cfg.mem_bytes || end > self.alloc_top {
            return Err(MachineError::BadAddress(end));
        }
        if self.loaded.iter().any(|&(b, e)| base < e && b < end) {
            return Err(MachineError::ImageOverlap);
        }
        for (i, &w) in prog.words.iter().enumerate() {
            let at = (base + (i as u64) * 8) as usize;
            self.mem[at..at + 8].copy_from_slice(&w.to_le_bytes());
        }
        self.loaded.push((base, end));
        self.code.load(base, &prog.words);
        Ok(())
    }

    /// Host store of a u64 — passes through the monitor filter, so it can
    /// wake waiting threads (models an external agent writing memory).
    pub fn poke_u64(&mut self, addr: u64, value: u64) {
        self.raw_write_u64(addr, value);
        self.after_store(addr, 8, true);
    }

    /// Host read of a u64.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside memory.
    #[must_use]
    pub fn peek_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("8 bytes"))
    }

    /// DMA write from a device: copies bytes, triggers the monitor
    /// filter, and (per config) warms or invalidates the cached lines.
    pub fn dma_write(&mut self, addr: u64, bytes: &[u8]) {
        let a = addr as usize;
        assert!(a + bytes.len() <= self.mem.len(), "DMA outside memory");
        self.mem[a..a + bytes.len()].copy_from_slice(bytes);
        for line in switchless_mem::addr::lines_covering(PAddr(addr), bytes.len() as u64) {
            if self.cfg.dma_warms_l3 {
                // DDIO-style: the device deposits lines in L3; private
                // caches lose stale copies.
                self.hier.invalidate_line(line);
                self.hier.warm_l3_only(line);
            } else {
                self.hier.invalidate_line(line);
            }
        }
        self.counters.add("dma.bytes", bytes.len() as u64);
        self.after_store(addr, bytes.len() as u64, true);
    }

    /// Schedules a host callback at absolute time `at` (device models).
    pub fn at(&mut self, at: Cycles, f: impl FnOnce(&mut Machine) + 'static) {
        let key = self.next_cb;
        self.next_cb += 1;
        self.callbacks.insert(key, Box::new(f));
        self.events.schedule(at, Ev::Call(key));
    }

    /// Registers a device doorbell: `hook` runs after any store that
    /// covers `addr` (CPU, host, or DMA), receiving the stored word.
    /// This is how MMIO-triggered devices (NIC TX doorbells, SSD
    /// submission doorbells) react immediately to driver writes.
    pub fn register_mmio(&mut self, addr: u64, hook: impl FnMut(&mut Machine, u64) + 'static) {
        if self.mmio_hooks.insert(addr, Box::new(hook)).is_none() {
            let i = self.mmio_addrs.partition_point(|&a| a < addr);
            self.mmio_addrs.insert(i, addr);
        }
    }

    /// Registers a host-service handler for `hcall num`.
    pub fn register_hcall(&mut self, num: u16, f: impl FnMut(&mut Machine, ThreadId) + 'static) {
        self.hcalls.insert(num, Box::new(f));
    }

    /// Adds cycles to the cost of the instruction currently executing
    /// (for hcall handlers to model their work).
    pub fn charge(&mut self, cycles: Cycles) {
        self.pending_charge += cycles;
    }

    /// Sets the legacy same-thread syscall vector.
    pub fn set_syscall_vector(&mut self, addr: u64) {
        self.syscall_vector = addr;
    }

    /// Sets the legacy same-thread VM-exit vector.
    pub fn set_vm_vector(&mut self, addr: u64) {
        self.vm_vector = addr;
    }

    // ---- thread inspection / manipulation ----

    /// A thread's GPR value.
    #[must_use]
    pub fn thread_reg(&self, tid: ThreadId, reg: usize) -> u64 {
        self.threads[tid.ptid.0 as usize].arch.gprs[reg & 0xf]
    }

    /// Sets a thread's GPR (host-level `rpush` without permission check).
    pub fn set_thread_reg(&mut self, tid: ThreadId, reg: usize, value: u64) {
        self.thread_mut(tid.ptid).arch.gprs[reg & 0xf] = value;
    }

    /// A thread's current state.
    #[must_use]
    pub fn thread_state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.ptid.0 as usize].state
    }

    /// A thread's program counter.
    #[must_use]
    pub fn thread_pc(&self, tid: ThreadId) -> u64 {
        self.threads[tid.ptid.0 as usize].arch.pc
    }

    /// A thread's privilege mode.
    #[must_use]
    pub fn thread_mode(&self, tid: ThreadId) -> Mode {
        self.threads[tid.ptid.0 as usize].arch.mode
    }

    /// Sets a thread's priority class.
    pub fn set_thread_prio(&mut self, tid: ThreadId, prio: u8) {
        self.thread_mut(tid.ptid).arch.prio = prio;
    }

    /// Sets a thread's exception-descriptor pointer.
    pub fn set_thread_edp(&mut self, tid: ThreadId, edp: u64) {
        self.thread_mut(tid.ptid).arch.edp = edp;
    }

    /// Sets a thread's TDT base register.
    pub fn set_thread_tdtr(&mut self, tid: ThreadId, tdtr: u64) {
        self.thread_mut(tid.ptid).arch.tdtr = tdtr;
    }

    /// Marks the thread as using the vector extension (784-byte-class
    /// state instead of base state).
    pub fn set_thread_vector_state(&mut self, tid: ThreadId, on: bool) {
        self.thread_mut(tid.ptid).vector_state = on;
    }

    /// Tags a thread's data traffic with a cache partition (§4
    /// fine-grain cache partitioning; see
    /// [`Machine::set_l3_partition`]).
    pub fn set_thread_partition(
        &mut self,
        tid: ThreadId,
        part: switchless_mem::cache::PartitionId,
    ) {
        self.thread_mut(tid.ptid).partition = part;
    }

    /// Declares an L3 partition quota (fraction of the cache pinned for
    /// traffic tagged with `part`).
    pub fn set_l3_partition(&mut self, part: switchless_mem::cache::PartitionId, fraction: f64) {
        self.hier.set_l3_partition(part, fraction);
    }

    /// Per-level `(hits, misses)` of the cache hierarchy: `(l1, l2, l3)`.
    #[must_use]
    pub fn cache_stats(&self) -> ((u64, u64), (u64, u64), (u64, u64)) {
        self.hier.level_stats()
    }

    /// Dirty write-backs per cache level `(l1, l2, l3)`.
    #[must_use]
    pub fn cache_writebacks(&self) -> (u64, u64, u64) {
        self.hier.writebacks()
    }

    /// L3 lines currently owned by a partition.
    #[must_use]
    pub fn l3_occupancy(&self, part: switchless_mem::cache::PartitionId) -> u64 {
        self.hier.l3_occupancy(part)
    }

    /// Host-level `start`: makes the thread runnable.
    ///
    /// The first start records the thread's entry pc as its restart point
    /// for [`Machine::restart_thread`].
    pub fn start_thread(&mut self, tid: ThreadId) {
        let t = self.thread_mut(tid.ptid);
        if t.restart_pc.is_none() {
            t.restart_pc = Some(t.arch.pc);
        }
        self.enable_thread(tid.ptid);
    }

    /// Host-level `stop`: disables the thread.
    pub fn stop_thread(&mut self, tid: ThreadId) {
        self.disable_thread(tid.ptid, ThreadState::Disabled);
    }

    // ---- fault injection & recovery ----

    /// Installs a fault-injection plan. Devices query it through
    /// [`Machine::fault_draw`]; with no plan installed every query is a
    /// single branch, so the injection layer is free when unused.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Asks whether fault `kind` fires for one device operation *now*.
    ///
    /// A firing bumps the kind's `fault.*` counter and leaves a trace
    /// record; the device expresses the failure through its normal
    /// completion protocol.
    pub fn fault_draw(&mut self, kind: FaultKind) -> bool {
        let now = self.now;
        let Some(plan) = self.fault_plan.as_mut() else {
            return false;
        };
        if !plan.draw(now, kind) {
            return false;
        }
        self.counters.inc(kind.counter_name());
        self.trace.record_with(now, "inject", || format!("{kind}"));
        true
    }

    /// Draws the extra delay for a delay-shaped fault that just fired.
    pub fn fault_delay(&mut self, kind: FaultKind) -> Cycles {
        match self.fault_plan.as_mut() {
            Some(plan) => plan.draw_delay(kind),
            None => Cycles::ZERO,
        }
    }

    // ---- machine-wide invariant checking ----

    /// Turns the invariant checker on or off (off by default).
    ///
    /// When on, every event-queue boundary in the run loops — i.e. every
    /// time the clock is about to advance, plus once when a run loop
    /// drains — re-verifies the machine-wide invariants: event-queue time
    /// monotonicity, thread-state-machine legality (enrolment matches
    /// `Runnable` exactly, no armed monitors on disabled threads),
    /// no-lost-wakeup (a parked thread always holds a live filter watch),
    /// quarantine/restart liveness, exception-descriptor conservation,
    /// and every check registered via [`Machine::register_invariant`].
    /// Violations accumulate in [`Machine::invariant_report`]; they never
    /// alter simulated behavior.
    pub fn enable_invariants(&mut self, on: bool) {
        self.invariants_on = on;
    }

    /// Registers an additional machine-wide invariant (e.g. a device's
    /// descriptor-ring conservation ledger). `check` returns a diagnostic
    /// string when the invariant is violated. Devices register their
    /// ledgers at attach time; registration costs nothing until checking
    /// is enabled.
    pub fn register_invariant(
        &mut self,
        name: &'static str,
        check: impl Fn(&Machine) -> Option<String> + 'static,
    ) {
        self.invariant_checks.push((name, Box::new(check)));
    }

    /// Violations (and check counts) accumulated since checking began.
    #[must_use]
    pub fn invariant_report(&self) -> &InvariantReport {
        &self.invariant_report
    }

    /// The named conservation [`Ledger`] for a device descriptor ring,
    /// created empty on first use. Devices account posted / in-flight /
    /// completed / dropped work into it from their separate code paths;
    /// [`Machine::check_invariants`] verifies every ledger stays
    /// balanced. Ledgers live outside [`Machine::counters`] so they can
    /// never leak into experiment reports.
    pub fn ledger(&mut self, name: &'static str) -> &mut Ledger {
        let i = match self.device_ledgers.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.device_ledgers.push((name, Ledger::default()));
                self.device_ledgers.len() - 1
            }
        };
        &mut self.device_ledgers[i].1
    }

    /// Runs every machine-wide invariant once, recording violations.
    ///
    /// Called automatically from the run loops when enabled; public so
    /// harnesses can force a final check after a run completes.
    pub fn check_invariants(&mut self) {
        self.invariant_report.note_check();
        let now = self.now;
        // Event-queue time monotonicity: nothing pending may be behind
        // the clock — a past-due event still in the queue would execute
        // at the wrong simulated time (or never).
        if let Some(t) = self.events.peek_time() {
            if t < now {
                self.invariant_report.record(
                    "queue.monotone",
                    now,
                    format!("pending event at {} behind now {}", t.0, now.0),
                );
            }
        }
        // Exception-descriptor conservation: raised = delivered + dropped.
        if !self.exc_ledger.balanced() {
            self.invariant_report
                .record("exception.ring", now, self.exc_ledger.describe());
        }
        // Device descriptor-ring conservation: every posted unit of work
        // must be completed, still in flight, or deliberately dropped.
        for (name, l) in &self.device_ledgers {
            if !l.balanced() {
                self.invariant_report.record(
                    "device.ring",
                    now,
                    format!("{name}: {}", l.describe()),
                );
            }
        }
        for (i, t) in self.threads.iter().enumerate() {
            let ptid = Ptid(i as u32);
            let enrolled = self.cores[t.home].sched.is_enrolled(ptid);
            // Thread-state-machine legality: scheduler enrolment must
            // mirror `Runnable` exactly, in both directions.
            if (t.state == ThreadState::Runnable) != enrolled {
                self.invariant_report.record(
                    "thread.state",
                    now,
                    format!("{ptid} {:?} but enrolled={enrolled}", t.state),
                );
            }
            // A monitor armed on a disabled/halted thread is a watch that
            // can fire on a thread that must not wake.
            if t.monitor_armed && !matches!(t.state, ThreadState::Runnable | ThreadState::Waiting) {
                self.invariant_report.record(
                    "thread.state",
                    now,
                    format!("{ptid} {:?} with armed monitor", t.state),
                );
            }
            // No-lost-wakeup: a parked, non-quarantined thread must hold a
            // live watch in the filter, or no store can ever wake it.
            if t.state == ThreadState::Waiting && !t.quarantined {
                if !t.monitor_armed {
                    self.invariant_report.record(
                        "thread.lost_wakeup",
                        now,
                        format!("{ptid} parked without an armed monitor"),
                    );
                } else if !self.filter.is_armed(WatchId(u64::from(ptid.0))) {
                    self.invariant_report.record(
                        "thread.lost_wakeup",
                        now,
                        format!("{ptid} armed flag set but filter holds no watch"),
                    );
                }
            }
            // Quarantine/restart liveness: quarantine implies Disabled
            // (only restart_thread may lift it), and a casualty timestamp
            // must be cleared the moment the thread runs again.
            if t.quarantined && t.state != ThreadState::Disabled {
                self.invariant_report.record(
                    "thread.quarantine",
                    now,
                    format!("{ptid} quarantined but {:?}", t.state),
                );
            }
            if t.disabled_at.is_some() && t.state != ThreadState::Disabled {
                self.invariant_report.record(
                    "thread.quarantine",
                    now,
                    format!("{ptid} {:?} with stale disabled_at", t.state),
                );
            }
        }
        // Registered checks (device descriptor-ring conservation, …).
        let checks = core::mem::take(&mut self.invariant_checks);
        for (name, check) in &checks {
            if let Some(detail) = check(self) {
                self.invariant_report.record(name, now, detail);
            }
        }
        self.invariant_checks = checks;
    }

    /// Arms (or disarms, with `None`) a per-thread watchdog deadline: if
    /// the thread stays parked in a single `mwait` longer than `timeout`,
    /// the hardware raises [`ExceptionKind::WatchdogExpired`] on it —
    /// turning a silently wedged thread into an ordinary descriptor a
    /// supervisor can act on.
    pub fn set_thread_watchdog(&mut self, tid: ThreadId, timeout: Option<Cycles>) {
        self.thread_mut(tid.ptid).watchdog = timeout;
    }

    /// Quarantines a thread: disables it immediately and refuses every
    /// wake until [`Machine::restart_thread`] lifts the quarantine. Used
    /// by supervisors for threads that fault repeatedly.
    pub fn quarantine_thread(&mut self, tid: ThreadId) {
        if self.threads[tid.ptid.0 as usize].state != ThreadState::Disabled {
            self.disable_thread(tid.ptid, ThreadState::Disabled);
        }
        self.thread_mut(tid.ptid).quarantined = true;
        self.counters.inc("thread.quarantines");
        self.trace
            .record_with(self.now, "quarantine", || format!("{}", tid.ptid));
    }

    /// Whether a thread is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, tid: ThreadId) -> bool {
        self.threads[tid.ptid.0 as usize].quarantined
    }

    /// Restarts a disabled (possibly quarantined) thread from its first
    /// `start` pc, clearing stale monitor state. Returns `false` if the
    /// thread is not currently `Disabled` (running, waiting or halted
    /// threads cannot be restarted).
    pub fn restart_thread(&mut self, tid: ThreadId) -> bool {
        let t = self.thread_mut(tid.ptid);
        if t.state != ThreadState::Disabled {
            return false;
        }
        t.quarantined = false;
        t.monitor_triggered = false;
        if let Some(pc) = t.restart_pc {
            t.arch.pc = pc;
        }
        self.counters.inc("thread.restarts");
        self.trace
            .record_with(self.now, "restart", || format!("{}", tid.ptid));
        self.enable_thread(tid.ptid);
        true
    }

    /// When `tid` was last disabled by an exception, if it still is.
    /// Supervisors subtract this from "now" for recovery latency.
    #[must_use]
    pub fn thread_fault_time(&self, tid: ThreadId) -> Option<Cycles> {
        self.threads[tid.ptid.0 as usize].disabled_at
    }

    /// Migrates a thread to another core (§4: the OS scheduler "will
    /// also manage the mapping of threads to cores in order to improve
    /// locality").
    ///
    /// The thread's architectural state moves through the shared L3
    /// (charged as a cross-core bulk transfer); the thread cannot be
    /// dispatched until the transfer completes. Its cached working set
    /// is *not* moved — the first accesses on the new core re-warm
    /// through the hierarchy, which is the real cost of careless
    /// migration. Returns the updated handle.
    pub fn migrate_thread(
        &mut self,
        tid: ThreadId,
        new_core: usize,
    ) -> Result<ThreadId, MachineError> {
        if new_core >= self.cfg.cores {
            return Err(MachineError::BadCore(new_core));
        }
        let ptid = tid.ptid;
        let old = self.core_of(ptid);
        if old == new_core {
            return Ok(ThreadId { core: old, ptid });
        }
        self.cores[old].sched.dequeue(ptid);
        self.cores[old].store.remove(ptid);
        let now = self.now;
        let link = self.cfg.store.link_bytes_per_cycle.max(1);
        let l3_base = self.cfg.store.l3_base.0;
        let (runnable, prio, cost) = {
            let t = self.thread_mut(ptid);
            t.home = new_core;
            t.activated = false;
            // Cross-core path: write back to L3 on the old side, read on
            // the new side — two L3-class bulk transfers.
            let bytes = t.state_bytes();
            let xfer = Cycles(2 * (l3_base + bytes.div_ceil(link)));
            t.busy_until = t.busy_until.max(now + xfer);
            (t.state == ThreadState::Runnable, t.arch.prio, xfer)
        };
        self.counters.inc("thread.migrations");
        self.trace.record_with(self.now, "migrate", || {
            format!("{ptid} core{old} -> core{new_core} ({cost})")
        });
        if runnable {
            self.cores[new_core].sched.enqueue(ptid, prio);
            self.kick_core(new_core);
        }
        Ok(ThreadId {
            core: new_core,
            ptid,
        })
    }

    /// Writes a TDT entry into simulated memory (host convenience; the
    /// hardware TDT cache is *not* invalidated — run `invtid` or use
    /// [`Machine::invalidate_tdt`]).
    pub fn write_tdt_entry(&mut self, tdt_base: u64, vtid: Vtid, entry: TdtEntry) {
        self.poke_u64(tdt_base + u64::from(vtid.0) * 8, entry.encode());
    }

    /// Host-level `invtid` for a core's TDT cache.
    pub fn invalidate_tdt(&mut self, core: usize, tdt_base: u64, vtid: Vtid) {
        self.cores[core].tdt.invalidate(tdt_base, vtid);
    }

    // -----------------------------------------------------------------
    // Run loop
    // -----------------------------------------------------------------

    /// Runs until simulated time `t` (or the machine halts).
    ///
    /// Machines with two or more cores run on the core-sharded epoch
    /// engine in `shard.rs`, which is bit-identical to the serial loop by
    /// construction. The serial loop runs instead on one core, with the
    /// invariant checker on (it wants to observe every event boundary),
    /// or when pinned by [`Machine::set_serial_engine`].
    pub fn run_until(&mut self, t: Cycles) {
        if self.cfg.cores >= 2 && !self.serial_engine && !self.invariants_on {
            self.run_until_sharded(t);
        } else {
            self.run_until_serial(t);
        }
    }

    /// The serial event loop (the reference engine).
    pub(crate) fn run_until_serial(&mut self, t: Cycles) {
        while self.step_one(t, t, None) {}
        if self.invariants_on {
            self.check_invariants();
        }
        if self.halted.is_none() && self.now < t {
            self.now = t;
        }
    }

    /// Pops and handles one event due at or before `pop_bound`, with
    /// dispatch horizon `horizon` (the run deadline) and burst watch
    /// `watch` (see `dispatch`). Returns whether an event was processed.
    /// One iteration of every serial run loop; the epoch engine's serial
    /// replay steps through it too.
    pub(crate) fn step_one(
        &mut self,
        pop_bound: Cycles,
        horizon: Cycles,
        watch: Option<(Ptid, ThreadState)>,
    ) -> bool {
        if self.halted.is_some() {
            return false;
        }
        // pop_due folds peek+pop into one heap traversal (hot loop).
        let Some((ts, ev)) = self.events.pop_due(pop_bound) else {
            return false;
        };
        if ts > self.now {
            // Event-queue boundary: all work at `now` has settled.
            if self.invariants_on {
                self.check_invariants();
            }
            self.now = ts;
        }
        match ev {
            Ev::SlotFree { core, slot } => {
                self.dispatch(core as usize, slot as usize, horizon, watch)
            }
            Ev::Call(key) => {
                if let Some(cb) = self.callbacks.remove(&key) {
                    cb(self);
                }
            }
        }
        true
    }

    /// Runs for `d` more cycles.
    pub fn run_for(&mut self, d: Cycles) {
        self.run_until(self.now + d);
    }

    /// Runs until `tid` reaches `state` or `limit` elapses; returns
    /// whether the state was reached.
    pub fn run_until_state(&mut self, tid: ThreadId, state: ThreadState, limit: Cycles) -> bool {
        let deadline = self.now + limit;
        // Event-driven stepping: process one event at a time and check.
        // The watch makes bursts bail the moment `tid` reaches `state`,
        // so `now` on return is exactly the single-step value.
        let watch = Some((tid.ptid, state));
        while self.now <= deadline
            && self.thread_state(tid) != state
            && self.step_one(deadline, deadline, watch)
        {}
        self.thread_state(tid) == state
    }

    // -----------------------------------------------------------------
    // Internal: threads, wakeups, exceptions
    // -----------------------------------------------------------------

    fn thread_mut(&mut self, ptid: Ptid) -> &mut Thread {
        &mut self.threads[ptid.0 as usize]
    }

    fn core_of(&self, ptid: Ptid) -> usize {
        self.threads[ptid.0 as usize].home
    }

    /// Makes a thread runnable (start or monitor wake).
    fn enable_thread(&mut self, ptid: Ptid) {
        let core = self.core_of(ptid);
        let t = &mut self.threads[ptid.0 as usize];
        match t.state {
            ThreadState::Runnable | ThreadState::Halted => return,
            ThreadState::Waiting | ThreadState::Disabled => {}
        }
        if t.quarantined {
            // Only restart_thread (which clears the flag first) may wake
            // a quarantined thread; stray monitor hits are swallowed.
            self.counters.inc("thread.quarantine_wake_refused");
            return;
        }
        t.state = ThreadState::Runnable;
        t.activated = false;
        t.wake_at = Some(self.now);
        t.disabled_at = None;
        let prio = t.arch.prio;
        if t.monitor_armed {
            t.monitor_armed = false;
            self.filter.disarm_all(WatchId(u64::from(ptid.0)));
        }
        self.counters.bump(self.hot.thread_wakes, 1);
        // Wake-prefetch (§4): begin the state transfer and cache warming
        // now, so the first dispatch pays only the pipeline refill.
        if self.cfg.store.prefetch_on_wake {
            let t = &self.threads[ptid.0 as usize];
            let (bytes, prio2) = (t.transfer_bytes(self.cfg.store.dirty_tracking), t.arch.prio);
            let tier = self.cores[core].store.tier_of(ptid);
            if tier != Tier::Rf {
                let (cost, from) = self.cores[core].store.activate(ptid, prio2, bytes);
                self.counters.inc(match from {
                    Tier::Rf => "store.activate.rf",
                    Tier::L2 => "store.activate.l2",
                    Tier::L3 => "store.activate.l3",
                    Tier::Dram => "store.activate.dram",
                });
                // Transfer overlaps with queueing: the thread cannot be
                // dispatched before the transfer completes, but other
                // threads keep the pipeline busy meanwhile.
                let done = self.now + cost - self.cfg.store.rf_start.min(cost);
                let t = self.thread_mut(ptid);
                t.busy_until = t.busy_until.max(done);
                let part = self.threads[ptid.0 as usize].partition;
                for &line in self.prefetcher.wake_set(WatchId(u64::from(ptid.0))) {
                    self.hier.warm(core, line, part);
                }
            }
        }
        self.trace
            .record_with(self.now, "wake", || format!("{ptid} runnable"));
        self.cores[core].sched.enqueue(ptid, prio);
        self.kick_core(core);
    }

    /// Disables a thread (stop, mwait uses `Waiting`, halt uses `Halted`).
    fn disable_thread(&mut self, ptid: Ptid, into: ThreadState) {
        debug_assert!(into != ThreadState::Runnable);
        let core = self.core_of(ptid);
        let t = &mut self.threads[ptid.0 as usize];
        if t.state == ThreadState::Halted {
            return;
        }
        t.state = into;
        if into != ThreadState::Waiting && t.monitor_armed {
            t.monitor_armed = false;
            self.filter.disarm_all(WatchId(u64::from(ptid.0)));
        }
        self.cores[core].sched.dequeue(ptid);
        self.trace
            .record_with(self.now, "block", || format!("{ptid} -> {into}"));
    }

    /// Re-kicks idle slots on a core after a wakeup.
    fn kick_core(&mut self, core: usize) {
        for slot in 0..self.cfg.smt_slots {
            if self.cores[core].idle_slot[slot] {
                self.cores[core].idle_slot[slot] = false;
                self.events.schedule(self.now, Ev::slot_free(core, slot));
            }
        }
    }

    /// Raises an exception: writes the descriptor (waking monitors) and
    /// disables the thread. EDP == 0 halts the machine (§3.2).
    ///
    /// Descriptor slots carry **backpressure**: a handler acknowledges a
    /// descriptor by zeroing its kind word (the hypervisor already does).
    /// If a second fault arrives while the kind word is still nonzero,
    /// the new descriptor is *dropped* — never silently overwritten — and
    /// `exception.descriptor_overflow` counts the loss. The faulting
    /// thread is disabled either way, so supervisors sweep for disabled
    /// threads whose descriptor was lost.
    fn raise_exception(&mut self, ptid: Ptid, kind: ExceptionKind, info: u64) {
        self.counters.inc(kind.counter_name());
        self.exc_ledger.posted += 1;
        let (edp, pc) = {
            let t = &self.threads[ptid.0 as usize];
            (t.arch.edp, t.arch.pc)
        };
        self.disable_thread(ptid, ThreadState::Disabled);
        self.thread_mut(ptid).disabled_at = Some(self.now);
        self.trace.record_with(self.now, "fault", || {
            format!("{ptid} {kind} info={info:#x}")
        });
        let desc_end = edp.saturating_add(crate::exception::DESCRIPTOR_BYTES);
        if edp == 0 || desc_end > self.cfg.mem_bytes {
            self.exc_ledger.dropped += 1;
            self.halted = Some(format!(
                "unhandled {kind} in {ptid} at pc={pc:#x} (no exception descriptor \
                 pointer installed — triple-fault analog, §3.2)"
            ));
            self.counters.inc("machine.halt");
            return;
        }
        if self.peek_u64(edp) != 0 {
            // Previous descriptor not yet acknowledged: drop, count, and
            // leave the slot intact for its handler.
            self.exc_ledger.dropped += 1;
            self.counters.inc("exception.descriptor_overflow");
            self.trace.record_with(self.now, "fault", || {
                format!("{ptid} {kind} descriptor dropped (slot busy)")
            });
            return;
        }
        self.exc_ledger.completed += 1;
        let desc = Descriptor {
            kind,
            ptid: u64::from(ptid.0),
            pc,
            info,
        };
        for (i, w) in desc.encode().into_iter().enumerate() {
            self.raw_write_u64(edp + (i as u64) * 8, w);
        }
        // One filter notification for the whole descriptor.
        self.after_store(edp, crate::exception::DESCRIPTOR_BYTES, false);
    }

    // -----------------------------------------------------------------
    // Internal: memory
    // -----------------------------------------------------------------

    fn raw_write_u64(&mut self, addr: u64, value: u64) {
        let a = addr as usize;
        assert!(a + 8 <= self.mem.len(), "write outside memory {addr:#x}");
        self.mem[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Post-store hook: consult the monitor filter and wake waiters.
    fn after_store(&mut self, addr: u64, len: u64, external: bool) {
        // Keep the decoded-instruction cache coherent.
        self.code.invalidate(&self.mem, addr, len);
        // Reuse the wake buffer across stores; `take` leaves an empty
        // `Vec` behind so a reentrant store (from `enable_thread`-driven
        // host logic or an mmio hook) just allocates its own.
        let mut wakes = core::mem::take(&mut self.scratch_wakes);
        wakes.clear();
        let _cost = self.filter.on_store(PAddr(addr), len, &mut wakes);
        for w in &wakes {
            let ptid = Ptid(w.watcher.0 as u32);
            if !w.exact {
                self.counters.bump(self.hot.monitor_false_wakes, 1);
            }
            self.counters.bump(self.hot.monitor_wakes, 1);
            let t = &mut self.threads[ptid.0 as usize];
            match t.state {
                ThreadState::Waiting => self.enable_thread(ptid),
                // Write raced ahead of mwait: remember it.
                _ => t.monitor_triggered = true,
            }
        }
        self.scratch_wakes = wakes;
        if external {
            self.counters.bump(self.hot.store_external, 1);
        }
        // Device doorbells: fire hooks whose address the store covered.
        if !self.mmio_hooks.is_empty() {
            let end = addr.saturating_add(len.max(1));
            let mut hit = core::mem::take(&mut self.scratch_mmio);
            hit.clear();
            hit.extend(
                self.mmio_hooks
                    .keys()
                    .copied()
                    .filter(|&a| a >= addr.saturating_sub(7) && a < end),
            );
            // Map iteration order is arbitrary; fire in address order so
            // multi-hook stores behave identically run to run.
            hit.sort_unstable();
            let mut i = 0;
            while i < hit.len() {
                let a = hit[i];
                i += 1;
                if let Some(mut h) = self.mmio_hooks.remove(&a) {
                    let value = self.peek_u64(a);
                    h(self, value);
                    self.mmio_hooks.entry(a).or_insert(h);
                }
            }
            self.scratch_mmio = hit;
        }
    }

    /// In-bounds data access from a thread on `core`; returns latency.
    fn data_access(&mut self, core: usize, ptid: Ptid, addr: u64, kind: AccessKind) -> Cycles {
        let tlb_cost = self.tlbs[core].access(0, addr / PAGE_BYTES);
        let part = self.threads[ptid.0 as usize].partition;
        let res = self.hier.access(self.now, core, PAddr(addr), kind, part);
        self.prefetcher
            .record_access(WatchId(u64::from(ptid.0)), PAddr(addr));
        tlb_cost + res.latency
    }

    // -----------------------------------------------------------------
    // Internal: TDT lookups and permission checks
    // -----------------------------------------------------------------

    /// Resolves a vtid through the calling thread's TDT; returns the
    /// entry and lookup cost, or the exception to raise.
    fn tdt_lookup(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
    ) -> Result<(TdtEntry, Cycles), ExceptionKind> {
        let tdtr = self.threads[caller.0 as usize].arch.tdtr;
        if tdtr == 0 {
            return Err(ExceptionKind::PermissionDenied);
        }
        if let Some((e, cost)) = self.cores[core].tdt.lookup(tdtr, vtid) {
            if !e.valid {
                return Err(ExceptionKind::PermissionDenied);
            }
            return Ok((e, cost));
        }
        // Miss: fetch the entry from memory through the hierarchy.
        let addr = tdtr
            .checked_add(u64::from(vtid.0) * 8)
            .filter(|&a| a.saturating_add(8) <= self.cfg.mem_bytes)
            .ok_or(ExceptionKind::BadMemory)?;
        let lat = self.data_access(core, caller, addr, AccessKind::Read);
        let entry = TdtEntry::decode(self.peek_u64(addr));
        self.cores[core].tdt.install(tdtr, vtid, entry);
        if !entry.valid {
            return Err(ExceptionKind::PermissionDenied);
        }
        Ok((entry, lat + Cycles(1)))
    }

    /// Resolves `vtid` to a thread `caller` may perform `need` on
    /// (supervisor-mode threads bypass the TDT permission bits); returns
    /// it with the lookup cost.
    fn tdt_target(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
        need: Perms,
    ) -> Result<(Ptid, Cycles), ExceptionKind> {
        let (entry, cost) = self.tdt_lookup(core, caller, vtid)?;
        let supervisor = self.threads[caller.0 as usize].arch.mode == Mode::Supervisor;
        if !(supervisor || entry.perms.allows(need)) || entry.ptid.0 as usize >= self.threads.len()
        {
            return Err(ExceptionKind::PermissionDenied);
        }
        Ok((entry.ptid, cost))
    }

    // -----------------------------------------------------------------
    // Internal: dispatch & instruction execution
    // -----------------------------------------------------------------

    /// Dispatches one pipeline slot: picks a thread, charges activation,
    /// and executes an instruction **burst** — up to [`MAX_BURST`]
    /// instructions inline, advancing a local cycle cursor, instead of
    /// one event-queue round-trip per instruction (see DESIGN.md §8).
    ///
    /// `horizon` is the run deadline: no instruction may dispatch after
    /// it (mirrors `pop_due`). `watch` is `run_until_state`'s target; a
    /// burst bails the moment it is reached so the caller observes the
    /// same `now` a single-step run would.
    fn dispatch(
        &mut self,
        core: usize,
        slot: usize,
        horizon: Cycles,
        watch: Option<(Ptid, ThreadState)>,
    ) {
        if self.halted.is_some() {
            return;
        }
        let now = self.now;
        // Split borrows: scheduler vs thread table.
        let threads = &self.threads;
        let busy = |p: Ptid| Some(threads[p.0 as usize].busy_until).filter(|&b| b > now);
        let Some(ptid) = self.cores[core].sched.pick(|p| busy(p).is_some()) else {
            // Runnable threads may exist but be busy (state transfer or an
            // in-flight instruction on the other slot): retry when the
            // earliest becomes free. Otherwise idle until a wake re-kicks.
            let next = self.cores[core].sched.min_over_enrolled(busy);
            match next {
                Some(at) => {
                    self.events.schedule(at, Ev::slot_free(core, slot));
                }
                None => self.cores[core].idle_slot[slot] = true,
            }
            return;
        };
        self.counters.bump(self.hot.sched_dispatches, 1);

        let mut cost = Cycles::ZERO;
        let t = &mut self.threads[ptid.0 as usize];
        if let Some((act, from)) = self.cores[core].activate(ptid, t, self.cfg.store.dirty_tracking)
        {
            self.counters.bump(self.hot.activate[from as usize], 1);
            cost += act;
        }
        if let Some(sample) = self.threads[ptid.0 as usize].take_wake_sample(now, cost) {
            self.wake_latency.record(sample);
            self.last_wake = Some((ptid, sample));
        }

        // Execute the first instruction (the one this SlotFree paid for).
        let tid = ThreadId { core, ptid };
        cost += self.exec_inst(tid);
        cost = cost.max(Cycles(1));
        let mut done = now + cost;

        // Burst engine: while this thread is provably the next pick and
        // nothing else can observe machine state first, keep executing its
        // instructions inline. Continuation is decided *after* each
        // instruction's effects, so any cross-thread side effect (a wake
        // that enrols a second thread, a scheduled callback, an exception,
        // a halt) ends the burst exactly where single-stepping would have
        // re-arbitrated differently. `next_deadline` is cached and only
        // recomputed when something scheduled (schedules are the only way
        // the deadline can move earlier).
        let mut burst_cost = Cycles::ZERO;
        let mut extra: u64 = 0; // instructions beyond the first

        // Superblock entry gate (the heat hoist): a region entry is only
        // ever *reached* by a jump — straight-line continuation lands on
        // pc + 8. `seq_pc` tracks that fall-through continuation; while
        // the burst walks sequential code, the table lookup (and its
        // heat/formed bookkeeping) is skipped entirely, so single-step
        // dispatch of non-candidate code pays nothing per instruction.
        // `u64::MAX` means "provenance unknown — check": the first burst
        // iteration and every block exit.
        let mut seq_pc = u64::MAX;
        if watch.is_none_or(|(p, s)| self.threads[p.0 as usize].state != s) {
            let mut mark = self.events.schedule_mark();
            let mut qmin = self.events.next_deadline();
            'burst: while extra < MAX_BURST
                && done <= horizon
                && self.halted.is_none()
                && self.cores[core].burst_eligible(core, ptid, &self.threads[ptid.0 as usize], done)
            {
                // Event-horizon gate: nothing due at or before `done` may
                // be skipped, except sibling-slot events (see
                // `lift_siblings`).
                if !self.lift_siblings(core, slot, &mut qmin, done) {
                    break 'burst;
                }
                // Superblock fast path (DESIGN.md §10): a formed region
                // executes as one unit when its whole span provably stays
                // inside this burst's window. Block instructions cannot
                // schedule events, change any thread state, or incur a
                // pending charge, so the per-instruction mark/watch/
                // eligibility re-checks are all constant across the
                // block: the one check already done at the loop head
                // covers every interior cursor (`busy_until <= done`
                // stays true as `done` only grows). Any failed
                // precondition falls back to the single-step path below —
                // never a burst exit.
                if self.sb_on {
                    let pc = self.threads[ptid.0 as usize].arch.pc;
                    let via_jump = pc != seq_pc;
                    seq_pc = pc.saturating_add(8);
                    let (code, hint) = (&mut self.code, &mut self.last_code);
                    let entered = via_jump.then(|| code.enter(hint, pc, self.sb_mem_on));
                    if let Some((ri, bi)) = entered.flatten() {
                        let b = self.code.block(ri, bi);
                        let (bcost, last_cost) = b.dyn_cost(self.cfg.hierarchy.lat_l1);
                        let len = b.insts.len() as u64;
                        // Dispatch time of the block's final instruction:
                        // the burst window must reach it, exactly as the
                        // loop head would have required step by step.
                        // `extra` may overshoot `MAX_BURST` by at most one
                        // block — the cap is a host-side amortisation knob
                        // and burst length is observably invisible, so a
                        // looser bound only moves where bursts split.
                        let d_last = done + bcost - last_cost;
                        // Single-stepping the block would run the lift
                        // gate at every interior cursor; if it would stop
                        // partway into the region, single-step instead.
                        // Over-lifting on a failed attempt is harmless —
                        // lifted events are restored under their original
                        // keys either way.
                        if d_last <= horizon
                            && self.lift_siblings(core, slot, &mut qmin, d_last)
                            && self.exec_superblock(tid, ri, bi)
                        {
                            // Serial single-stepping leaves `now` at the
                            // last dispatch cursor, not at the completion
                            // time.
                            self.now = d_last;
                            done += bcost;
                            burst_cost += bcost;
                            extra += len;
                            // A block exit is a fresh control transfer:
                            // re-check at the next pc.
                            seq_pc = u64::MAX;
                            continue 'burst;
                        }
                    }
                }
                self.now = done;
                let c = self.exec_inst(tid).max(Cycles(1));
                done += c;
                burst_cost += c;
                extra += 1;
                if self.events.schedule_mark() != mark {
                    mark = self.events.schedule_mark();
                    qmin = self.events.next_deadline();
                }
                if let Some((p, s)) = watch {
                    if self.threads[p.0 as usize].state == s {
                        break;
                    }
                }
            }
        }
        // Put lifted sibling events back under their original keys: the
        // queue is now exactly what single-stepping would have pending,
        // and the run loop re-arbitrates those slots for real.
        while let Some((at, tok, ev)) = self.burst_stash.pop() {
            self.events.restore(at, tok, ev);
        }

        // Batched bookkeeping: one account/bump per burst, totals exactly
        // equal to per-instruction accounting.
        self.cores[core].sched.account(ptid, cost);
        if extra > 0 {
            self.cores[core]
                .sched
                .account_burst(ptid, burst_cost, extra);
            self.counters.bump(self.hot.sched_dispatches, extra);
        }
        {
            let t = self.thread_mut(ptid);
            t.busy_until = t.busy_until.max(done);
        }
        self.counters.bump(self.hot.inst_executed, 1 + extra);
        self.events.schedule(done, Ev::slot_free(core, slot));
    }

    /// Lifts pending `SlotFree`s of sibling slots of `core` due at or
    /// before `until` out of the queue into the burst stash; `false` when
    /// anything else is due first. With the bursting thread sole-runnable
    /// and busy through every burst cursor, single-stepping such an event
    /// is provably inert — its pick always loses to this slot (our
    /// pending `SlotFree` at any shared timestamp carries the earlier
    /// seq) and it merely reschedules itself. It is restored verbatim at
    /// burst exit; because the restore preserves the original
    /// `(time, seq)` key, the run loop afterwards pops it exactly where
    /// single-stepping would have, and it re-enters real arbitration
    /// there.
    fn lift_siblings(
        &mut self,
        core: usize,
        slot: usize,
        qmin: &mut Option<Cycles>,
        until: Cycles,
    ) -> bool {
        while let Some(t) = *qmin {
            if t > until {
                break;
            }
            let sibling = matches!(
                self.events.peek(),
                Some((_, &Ev::SlotFree { core: c, slot: s }))
                    if c as usize == core && s as usize != slot
            );
            if !sibling {
                return false;
            }
            let lifted = self
                .events
                .pop_keyed()
                .expect("peek/pop agree on the head event");
            self.burst_stash.push(lifted);
            *qmin = self.events.next_deadline();
        }
        true
    }

    /// Executes formed superblock `(ri, bi)` for `tid` as one unit (see
    /// [`exec::run_block`]); `false` means single-step instead.
    fn exec_superblock(&mut self, tid: ThreadId, ri: usize, bi: usize) -> bool {
        // The code table is lent to the executor for the block's
        // duration; no environment call reads `self.code`.
        let code = std::mem::take(&mut self.code);
        let ran = exec::run_block(&mut Cpu { m: self, tid }, &code, ri, bi);
        self.code = code;
        ran
    }

    /// Executes one instruction for `tid`; returns its cost, including
    /// any cycles an hcall handler charged. All state effects (including
    /// faults) happen here.
    fn exec_inst(&mut self, tid: ThreadId) -> Cycles {
        self.pending_charge = Cycles::ZERO;
        let Ok(cost) = exec::step(&mut Cpu { m: self, tid });
        cost + std::mem::replace(&mut self.pending_charge, Cycles::ZERO)
    }

    /// The serial semantics of [`Env::system`]: traps, hcalls,
    /// monitor/mwait, thread control, CSRs and `halt`.
    #[allow(clippy::too_many_lines)]
    fn exec_system(
        &mut self,
        tid: ThreadId,
        inst: Inst,
        pc: u64,
        cost: &mut Cycles,
    ) -> Option<u64> {
        let ThreadId { core, ptid } = tid;
        let mut next_pc = pc + 8;
        macro_rules! gpr {
            ($r:expr) => {
                self.threads[ptid.0 as usize].gpr($r)
            };
        }
        use Inst::*;
        match inst {
            Halt => {
                self.thread_mut(ptid).arch.pc = next_pc;
                self.disable_thread(ptid, ThreadState::Halted);
                return None;
            }
            Syscall { num } | VmCall { num } => {
                let (kind, counters) = match inst {
                    Syscall { .. } => (
                        ExceptionKind::SyscallTrap,
                        ["syscall.same_thread", "syscall.descriptor"],
                    ),
                    _ => (
                        ExceptionKind::VmExit,
                        ["vmexit.same_thread", "vmexit.descriptor"],
                    ),
                };
                match self.cfg.trap {
                    TrapMode::SameThread {
                        syscall_cost,
                        vmexit_cost,
                    } => {
                        let (penalty, vector) = match kind {
                            ExceptionKind::SyscallTrap => (syscall_cost, self.syscall_vector),
                            _ => (vmexit_cost, self.vm_vector),
                        };
                        *cost += penalty;
                        if vector == 0 {
                            self.raise_exception(ptid, kind, u64::from(num));
                            return None;
                        }
                        let t = self.thread_mut(ptid);
                        t.arch.gprs[14] = pc + 8; // link
                        t.arch.gprs[11] = u64::from(num);
                        t.arch.mode = Mode::Supervisor;
                        next_pc = vector;
                        self.counters.inc(counters[0]);
                    }
                    TrapMode::Descriptor => {
                        self.thread_mut(ptid).arch.pc = pc + 8;
                        self.raise_exception(ptid, kind, u64::from(num));
                        self.counters.inc(counters[1]);
                        return None;
                    }
                }
            }
            HCall { num } => {
                self.thread_mut(ptid).arch.pc = next_pc;
                if let Some(mut h) = self.hcalls.remove(&num) {
                    h(self, tid);
                    self.hcalls.entry(num).or_insert(h);
                } else {
                    self.raise_exception(ptid, ExceptionKind::BadInstruction, u64::from(num));
                }
                // The handler may have blocked/redirected the thread; do
                // not overwrite pc below.
                return None;
            }
            Monitor { a } => self.arm_monitor(ptid, gpr!(a), cost),
            MonitorA { addr } => self.arm_monitor(ptid, addr, cost),
            MWait => {
                let t = self.thread_mut(ptid);
                if t.monitor_triggered {
                    // A write raced in between monitor and mwait: fall
                    // through without blocking (x86 semantics).
                    t.monitor_triggered = false;
                    t.arch.pc = next_pc;
                    let armed = t.monitor_armed;
                    t.monitor_armed = false;
                    if armed {
                        self.filter.disarm_all(WatchId(u64::from(ptid.0)));
                    }
                    self.counters.inc("mwait.fallthrough");
                    return None;
                }
                if !t.monitor_armed {
                    // mwait with nothing armed would sleep forever; treat
                    // as nop (x86 behaves as such with invalid monitor).
                    self.counters.inc("mwait.unarmed");
                } else {
                    t.arch.pc = next_pc;
                    t.park_epoch = t.park_epoch.wrapping_add(1);
                    let epoch = t.park_epoch;
                    let watchdog = t.watchdog;
                    self.disable_thread(ptid, ThreadState::Waiting);
                    self.counters.inc("mwait.blocked");
                    if let Some(w) = watchdog {
                        let at = self.now + w;
                        // Watchdog: if this exact park outlives its
                        // deadline, the thread is wedged — disable it
                        // with a descriptor instead of letting it sleep
                        // forever. The epoch guard makes a timer from an
                        // earlier park harmless after a wake/re-park.
                        self.at(at, move |mach| {
                            let t = &mach.threads[ptid.0 as usize];
                            if t.state == ThreadState::Waiting && t.park_epoch == epoch {
                                mach.counters.inc("watchdog.fired");
                                mach.raise_exception(ptid, ExceptionKind::WatchdogExpired, at.0);
                            }
                        });
                    }
                    return None;
                }
            }
            Start { .. }
            | StartI { .. }
            | Stop { .. }
            | StopI { .. }
            | RPull { .. }
            | RPush { .. } => {
                let vtid = Vtid(match inst {
                    StartI { vtid } | StopI { vtid } => vtid,
                    Start { vt } | Stop { vt } | RPull { vt, .. } | RPush { vt, .. } => {
                        gpr!(vt) as u16
                    }
                    _ => unreachable!(),
                });
                let done = match inst {
                    Start { .. } | StartI { .. } => self.start_stop(core, ptid, vtid, true),
                    Stop { .. } | StopI { .. } => self.start_stop(core, ptid, vtid, false),
                    RPull { local, remote, .. } => {
                        let pulled = self.remote_reg(core, ptid, vtid, remote, None);
                        pulled.map(|(value, c)| {
                            self.thread_mut(ptid).set_gpr(local, value);
                            c
                        })
                    }
                    RPush { remote, local, .. } => {
                        let value = gpr!(local);
                        let pushed = self.remote_reg(core, ptid, vtid, remote, Some(value));
                        pushed.map(|(_, c)| c)
                    }
                    _ => unreachable!(),
                };
                match done {
                    Ok(extra) => *cost += extra,
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        return None;
                    }
                }
            }
            InvTid { vt } => {
                let vtid = Vtid(gpr!(vt) as u16);
                let tdtr = self.threads[ptid.0 as usize].arch.tdtr;
                self.cores[core].tdt.invalidate(tdtr, vtid);
            }
            CsrR { d, csr } => {
                let t = self.thread_mut(ptid);
                let v = t.arch.read(RegSel::Ctrl(csr));
                t.set_gpr(d, v);
            }
            CsrW { csr, a } => {
                let v = gpr!(a);
                let t = self.thread_mut(ptid);
                t.arch.write(RegSel::Ctrl(csr), v);
                t.touched |= 1 << 16;
            }
            _ => unreachable!("the executor runs register, control and memory ops"),
        }
        Some(next_pc)
    }

    fn arm_monitor(&mut self, ptid: Ptid, addr: u64, cost: &mut Cycles) {
        if addr.saturating_add(8) > self.cfg.mem_bytes {
            self.raise_exception(ptid, ExceptionKind::BadMemory, addr);
            return;
        }
        match self.filter.arm(WatchId(u64::from(ptid.0)), PAddr(addr), 8) {
            Ok(()) => {
                let t = self.thread_mut(ptid);
                t.monitor_armed = true;
                self.counters.inc("monitor.armed");
            }
            Err(_) => {
                // Filter exhausted (CAM design): deliver as a permission
                // fault so software can fall back.
                self.counters.inc("monitor.exhausted");
                self.raise_exception(ptid, ExceptionKind::PermissionDenied, addr);
                return;
            }
        }
        *cost += Cycles(1);
    }

    /// `start`/`stop` semantics with TDT translation and permissions.
    fn start_stop(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
        enable: bool,
    ) -> Result<Cycles, ExceptionKind> {
        let need = if enable { Perms::START } else { Perms::STOP };
        let (target, lookup_cost) = self.tdt_target(core, caller, vtid, need)?;
        if enable {
            self.counters.inc("thread.starts");
            self.enable_thread(target);
        } else {
            self.counters.inc("thread.stops");
            self.disable_thread(target, ThreadState::Disabled);
        }
        Ok(lookup_cost + Cycles(1))
    }

    /// Shared `rpull`/`rpush` path. `write` = `Some(value)` for rpush.
    fn remote_reg(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
        remote: RegSel,
        write: Option<u64>,
    ) -> Result<(u64, Cycles), ExceptionKind> {
        let need = if remote.is_sensitive() {
            Perms::MOD_MOST
        } else {
            Perms::MOD_SOME
        };
        let (target, lookup_cost) = self.tdt_target(core, caller, vtid, need)?;
        if !self.threads[target.0 as usize]
            .state
            .is_register_accessible()
        {
            return Err(ExceptionKind::ThreadNotStopped);
        }
        // Remote state may be parked in a lower tier: accessing it costs
        // a (partial) transfer, modeled as the tier base cost.
        let tcore = self.core_of(target);
        let tier = self.cores[tcore].store.tier_of(target);
        let tier_cost = match tier {
            Tier::Rf => Cycles::ZERO,
            Tier::L2 => self.cfg.store.l2_base,
            Tier::L3 => self.cfg.store.l3_base,
            Tier::Dram => self.cfg.store.dram_base,
        };
        let t = &mut self.threads[target.0 as usize];
        let value = match write {
            Some(v) => {
                t.arch.write(remote, v);
                v
            }
            None => t.arch.read(remote),
        };
        Ok((value, lookup_cost + tier_cost))
    }
}

/// The serial engine's [`Env`]: one thread of a [`Machine`], with every
/// effect performed in full.
struct Cpu<'a> {
    m: &'a mut Machine,
    tid: ThreadId,
}

impl Env for Cpu<'_> {
    type Bail = core::convert::Infallible;

    fn thread(&mut self) -> &mut Thread {
        &mut self.m.threads[self.tid.ptid.0 as usize]
    }

    fn mem_bytes(&self) -> u64 {
        self.m.cfg.mem_bytes
    }

    fn ifetch(&mut self, pc: u64) -> Result<AccessResult, Self::Bail> {
        let part = switchless_mem::cache::PartitionId::DEFAULT;
        Ok(self
            .m
            .hier
            .access(self.m.now, self.tid.core, PAddr(pc), AccessKind::Read, part))
    }

    fn decoded(&mut self, pc: u64) -> Option<Inst> {
        self.m.code.inst(&mut self.m.last_code, pc)
    }

    fn data_access(&mut self, addr: u64, kind: AccessKind) -> Result<Cycles, Self::Bail> {
        Ok(self.m.data_access(self.tid.core, self.tid.ptid, addr, kind))
    }

    fn bytes(&self, addr: u64, len: u64) -> Result<&[u8], Self::Bail> {
        Ok(&self.m.mem[addr as usize..(addr + len) as usize])
    }

    fn bytes_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], Self::Bail> {
        Ok(&mut self.m.mem[addr as usize..(addr + len) as usize])
    }

    fn after_store(&mut self, addr: u64, len: u64) -> Result<(), Self::Bail> {
        self.m.after_store(addr, len, false);
        Ok(())
    }

    fn fault(&mut self, kind: ExceptionKind, info: u64) -> Result<(), Self::Bail> {
        self.m.raise_exception(self.tid.ptid, kind, info);
        Ok(())
    }

    fn system(
        &mut self,
        inst: Inst,
        pc: u64,
        cost: &mut Cycles,
    ) -> Result<Option<u64>, Self::Bail> {
        Ok(self.m.exec_system(self.tid, inst, pc, cost))
    }

    fn resident(&self, addr: u64) -> bool {
        self.m.tlbs[self.tid.core].contains(0, addr / PAGE_BYTES)
            && self.m.hier.l1_contains(self.tid.core, PAddr(addr).line())
    }

    fn l1_run(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
        self.m.hier.l1_access_run_mixed(self.tid.core, lines, n)
    }

    fn commit_block(
        &mut self,
        pages: &[(u64, u64)],
        n: u64,
        plines: &[PAddr],
        stores: u64,
    ) -> bool {
        self.m
            .prefetcher
            .record_run(WatchId(u64::from(self.tid.ptid.0)), plines);
        if stores > 0 {
            self.m.filter.note_quiet_stores(stores);
        }
        self.m.tlbs[self.tid.core].access_run(0, pages, n)
    }

    fn quiet(&self, code: &Code, addr: u64, len: u64) -> bool {
        exec::is_quiet_store(code, self.m.filter.as_ref(), &self.m.mmio_addrs, addr, len)
    }

    fn scratch(&mut self) -> &mut BlockScratch {
        &mut self.m.block_scratch
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("cores", &self.cfg.cores)
            .field("threads", &self.threads.len())
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}
