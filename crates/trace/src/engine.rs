//! The SIMT functional execution engine.
//!
//! Executes each warp of a kernel with a classic post-dominator
//! reconvergence stack: on a divergent branch the current frame is re-aimed
//! at the reconvergence PC and one frame per outcome is pushed; a frame
//! whose PC reaches its reconvergence point is popped, merging its lanes
//! back. Because the [`gpumech_isa::KernelBuilder`] only emits structured
//! control flow, every potentially-divergent branch carries its
//! reconvergence PC statically.
//!
//! The engine tracks a *warp-level* register scoreboard (last writer per
//! register), exactly like real hardware: a register write by any lane makes
//! the whole warp's later readers depend on that instruction.
//!
//! Before tracing, every kernel passes through the `gpumech-analyze`
//! pre-trace hook: kernels with Error-severity findings (mis-placed
//! reconvergence points, reads of never-written registers, irreducible
//! control flow) are rejected with [`TraceError::RejectedByAnalysis`], and
//! branches the analyzer proves warp-uniform take a fast path that
//! evaluates the condition once per warp instead of once per lane and never
//! touches the reconvergence stack. Debug builds cross-check every static
//! fact against observed execution (`debug_assert!`), so the fast path is
//! byte-identical to the per-lane path — see `tests/golden_workloads.rs`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gpumech_analyze::{KernelAnalysis, RejectReason};
use gpumech_isa::{
    kernel::{BranchCond, KernelError, NUM_REGS},
    BlockId, InstKind, Kernel, Operand, Reg, ValueOp, WarpId, WARP_SIZE,
};
use gpumech_obs::{CancelToken, Interrupt};

use crate::launch::LaunchConfig;
use crate::record::{KernelTrace, WarpTrace};
use crate::splitmix64;

/// Upper bound on dynamic instructions per warp; exceeded only by a
/// non-terminating workload definition (reported as an error, not a hang).
pub const MAX_DYN_INSTS_PER_WARP: usize = 1_000_000;

/// Seed mixed into synthetic memory contents so loaded values are
/// deterministic functions of their address.
const MEMORY_SEED: u64 = 0x5_EED0_F6DE_C0DE;

/// Error produced while tracing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The kernel failed structural validation.
    InvalidKernel(KernelError),
    /// The static analyzer found Error-severity defects (pre-trace hook).
    RejectedByAnalysis {
        /// Name of the rejected kernel.
        kernel: String,
        /// Defect class that triggered the rejection.
        reason: RejectReason,
        /// Rendered Error-severity diagnostics, in severity order.
        findings: Vec<String>,
    },
    /// A warp exceeded [`MAX_DYN_INSTS_PER_WARP`] — the kernel does not
    /// terminate for this input.
    InstLimit {
        /// The warp that overran the limit.
        warp: WarpId,
    },
    /// A trace violates a structural invariant (checked on load and before
    /// simulation — see [`crate::KernelTrace::validate`]).
    CorruptTrace {
        /// Kernel name from the trace header.
        kernel: String,
        /// Grid-global index of the offending warp, when attributable.
        warp: Option<usize>,
        /// The violated invariant.
        detail: String,
    },
    /// An internal tracer invariant failed — a malformed kernel slipped
    /// past the pre-trace checks; reported instead of panicking.
    BrokenInvariant {
        /// Kernel being traced.
        kernel: String,
        /// Warp being traced.
        warp: WarpId,
        /// Static PC at which the invariant failed.
        pc: u32,
        /// The violated invariant.
        detail: &'static str,
    },
    /// Tracing was interrupted by a [`CancelToken`] (explicit cancellation
    /// or an expired deadline) before the kernel finished.
    Interrupted(Interrupt),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            TraceError::RejectedByAnalysis { kernel, reason, findings } => {
                write!(
                    f,
                    "kernel '{kernel}' rejected by static analysis ({reason}, {} finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.first().map_or("", String::as_str)
                )
            }
            TraceError::InstLimit { warp } => {
                write!(f, "warp {warp} exceeded {MAX_DYN_INSTS_PER_WARP} dynamic instructions")
            }
            TraceError::CorruptTrace { kernel, warp, detail } => match warp {
                Some(w) => write!(f, "corrupt trace for kernel '{kernel}', warp {w}: {detail}"),
                None => write!(f, "corrupt trace for kernel '{kernel}': {detail}"),
            },
            TraceError::BrokenInvariant { kernel, warp, pc, detail } => {
                write!(f, "tracer invariant broken in kernel '{kernel}', warp {warp}, pc {pc}: {detail}")
            }
            TraceError::Interrupted(why) => write!(f, "tracing interrupted: {why}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::InvalidKernel(e) => Some(e),
            TraceError::RejectedByAnalysis { .. }
            | TraceError::InstLimit { .. }
            | TraceError::CorruptTrace { .. }
            | TraceError::BrokenInvariant { .. }
            | TraceError::Interrupted(_) => None,
        }
    }
}

impl From<KernelError> for TraceError {
    fn from(e: KernelError) -> Self {
        TraceError::InvalidKernel(e)
    }
}

const FULL_MASK: u32 = u32::MAX;
const NO_RECONV: u32 = u32::MAX;

/// Cache-line granularity the coalescing cross-checks assume; must match
/// the 128-byte line the analyzer's `max_requests` bound is stated over.
const LINE_SHIFT: u32 = 7;

/// Options controlling trace generation. The default enables every
/// analysis-guided optimization; disabling them forces the conservative
/// per-lane path (useful for A/B-testing that both produce identical
/// traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Evaluate statically warp-uniform branch conditions once per warp
    /// (first active lane) instead of once per lane, skipping the
    /// reconvergence-stack bookkeeping such branches can never need.
    pub uniform_branch_fast_path: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { uniform_branch_fast_path: true }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    pc: u32,
    mask: u32,
    reconv: u32,
}

/// How many dynamic instructions a warp machine retires between
/// [`CancelToken`] checks — frequent enough that a deadline lands within
/// microseconds, rare enough that the clock read is amortized away.
const CANCEL_CHECK_MASK: usize = 0x3FF;

/// One warp's functional state. A machine is reused warp after warp: its
/// register file, reconvergence stack and scoreboard are reset, not
/// reallocated, at the start of every [`WarpMachine::run`].
struct WarpMachine<'k> {
    kernel: &'k Kernel,
    analysis: &'k KernelAnalysis,
    opts: TraceOptions,
    cancel: &'k CancelToken,
    launch: LaunchConfig,
    warp: WarpId,
    /// `regs[reg][lane]`.
    regs: Vec<[u64; WARP_SIZE]>,
    stack: Vec<Frame>,
    last_writer: [Option<u32>; NUM_REGS],
}

impl<'k> WarpMachine<'k> {
    fn new(
        kernel: &'k Kernel,
        analysis: &'k KernelAnalysis,
        opts: TraceOptions,
        cancel: &'k CancelToken,
        launch: LaunchConfig,
    ) -> Self {
        Self {
            kernel,
            analysis,
            opts,
            cancel,
            launch,
            warp: WarpId::new(0),
            regs: vec![[0u64; WARP_SIZE]; NUM_REGS],
            stack: Vec::new(),
            last_writer: [None; NUM_REGS],
        }
    }

    fn operand(&self, op: Operand, lane: usize) -> u64 {
        match op {
            Operand::Reg(Reg(r)) => self.regs[r as usize][lane],
            Operand::Imm(v) => v,
            Operand::Tid => self.launch.global_tid(self.warp, lane),
            Operand::Lane => lane as u64,
            Operand::WarpInBlock => self.launch.warp_in_block(self.warp) as u64,
            Operand::Block => self.launch.block_of_warp(self.warp).index() as u64,
            Operand::TidInBlock => {
                (self.launch.warp_in_block(self.warp) * WARP_SIZE + lane) as u64
            }
            Operand::Param(i) => self.kernel.params[i as usize],
        }
    }

    /// `op`'s value in every lane. Inactive lanes are computed too and
    /// discarded by the caller: every value op is total, so evaluating a
    /// whole warp at once is safe and lets the per-lane loops vectorize.
    fn operand_lanes(&self, op: Operand) -> [u64; WARP_SIZE] {
        match op {
            Operand::Reg(Reg(r)) => self.regs[r as usize],
            Operand::Imm(v) => [v; WARP_SIZE],
            Operand::Tid | Operand::Lane | Operand::TidInBlock => {
                std::array::from_fn(|lane| self.operand(op, lane))
            }
            Operand::WarpInBlock | Operand::Block | Operand::Param(_) => {
                [self.operand(op, 0); WARP_SIZE]
            }
        }
    }

    /// Folds every source into an accumulator starting at `init`.
    fn fold_lanes(
        &self,
        srcs: &[Operand],
        init: u64,
        f: impl Fn(u64, u64) -> u64,
    ) -> [u64; WARP_SIZE] {
        let mut acc = [init; WARP_SIZE];
        for &s in srcs {
            for (a, x) in acc.iter_mut().zip(self.operand_lanes(s)) {
                *a = f(*a, x);
            }
        }
        acc
    }

    /// The value `op` computes from `srcs`, in every lane.
    fn eval_lanes(&self, op: ValueOp, srcs: &[Operand]) -> [u64; WARP_SIZE] {
        let v = |i: usize| self.operand_lanes(srcs[i]);
        let zip = |f: fn(u64, u64) -> u64| {
            let (a, b) = (v(0), v(1));
            std::array::from_fn(|lane| f(a[lane], b[lane]))
        };
        match op {
            ValueOp::Mov => if srcs.is_empty() { [0; WARP_SIZE] } else { v(0) },
            ValueOp::Add => self.fold_lanes(srcs, 0, u64::wrapping_add),
            ValueOp::Sub => zip(u64::wrapping_sub),
            ValueOp::Mul => self.fold_lanes(srcs, 1, u64::wrapping_mul),
            ValueOp::Div => zip(|a, b| a / b.max(1)),
            ValueOp::Rem => zip(|a, b| a % b.max(1)),
            ValueOp::And => self.fold_lanes(srcs, u64::MAX, |a, b| a & b),
            ValueOp::Xor => self.fold_lanes(srcs, 0, |a, b| a ^ b),
            ValueOp::Shl => zip(|a, b| a << (b & 63)),
            ValueOp::Shr => zip(|a, b| a >> (b & 63)),
            ValueOp::Min => self.fold_lanes(srcs, u64::MAX, u64::min),
            ValueOp::Max => self.fold_lanes(srcs, 0, u64::max),
            ValueOp::CmpLt => zip(|a, b| u64::from(a < b)),
            ValueOp::CmpEq => zip(|a, b| u64::from(a == b)),
            ValueOp::CmpNe => zip(|a, b| u64::from(a != b)),
            ValueOp::Select => {
                let (c, a, b) = (v(0), v(1), v(2));
                std::array::from_fn(|lane| if c[lane] != 0 { a[lane] } else { b[lane] })
            }
            ValueOp::Hash => self.fold_lanes(srcs, 0, |a, b| a ^ b).map(splitmix64),
        }
    }

    /// Appends the producers of `srcs`' registers to the dependency arena
    /// and sorts and deduplicates what this instruction added.
    fn push_deps(&self, srcs: &[Operand], deps: &mut Vec<u32>) {
        let start = deps.len();
        deps.extend(srcs.iter().filter_map(|s| match s {
            Operand::Reg(Reg(r)) => self.last_writer[*r as usize],
            _ => None,
        }));
        let added = &mut deps[start..];
        added.sort_unstable();
        let mut kept = 0;
        for i in 0..added.len() {
            if kept == 0 || added[i] != added[kept - 1] {
                added[kept] = added[i];
                kept += 1;
            }
        }
        deps.truncate(start + kept);
    }

    /// Checks one warp access against the analyzer: the observed line count
    /// must respect its per-warp coalescing bound, and the observed
    /// shared-memory bank-conflict degree its full-mask bound.
    fn cross_check_access(&self, pc: u32, addrs: &[u64]) {
        if let Some(Some(access)) = self.analysis.coalescing.get(pc as usize) {
            let lines = distinct_lines(addrs);
            debug_assert!(
                lines <= access.max_requests,
                "pc {pc}: warp touched {lines} lines, static bound is {} ({:?})",
                access.max_requests,
                access.class,
            );
        }
        if let Some(fact) = self.analysis.shared_fact(pc) {
            let observed = observed_bank_degree(addrs);
            debug_assert!(
                observed <= fact.bank_degree,
                "pc {pc}: warp hit {observed}-way bank conflict, static bound is {}-way",
                fact.bank_degree,
            );
        }
    }

    /// Per-lane evaluation of a conditional branch: the mask of active
    /// lanes that jump to the target.
    fn taken_mask(&self, inst: &gpumech_isa::StaticInst, mask: u32) -> u32 {
        let mut t = 0u32;
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) != 0 {
                let c = self.operand(inst.srcs[0], lane);
                let jumps = match inst.cond {
                    BranchCond::IfZero => c == 0,
                    BranchCond::IfNonZero => c != 0,
                    BranchCond::Always => unreachable!("taken_mask is for conditional branches"),
                };
                if jumps {
                    t |= 1 << lane;
                }
            }
        }
        t
    }

    /// Executes `warp` from its first instruction to its exit, writing
    /// its trace into `out` (emptied first).
    fn run(&mut self, warp: WarpId, out: &mut WarpTrace) -> Result<RunStats, TraceError> {
        self.warp = warp;
        self.regs.fill([0u64; WARP_SIZE]);
        self.stack.clear();
        self.stack.push(Frame { pc: 0, mask: FULL_MASK, reconv: NO_RECONV });
        self.last_writer = [None; NUM_REGS];
        out.reset(warp, self.launch.block_of_warp(warp));
        let mut stats = RunStats::default();

        while let Some(&top) = self.stack.last() {
            if top.pc == top.reconv {
                self.stack.pop();
                continue;
            }
            if out.len() >= MAX_DYN_INSTS_PER_WARP {
                return Err(TraceError::InstLimit { warp: self.warp });
            }
            if out.len() & CANCEL_CHECK_MASK == 0 {
                self.cancel.check().map_err(TraceError::Interrupted)?;
            }

            let inst = &self.kernel.insts[top.pc as usize];
            let mask = top.mask;
            let idx = out.len() as u32;

            // Record the dynamic instruction straight into the columns.
            out.pcs.push(top.pc);
            out.kinds.push(inst.kind);
            out.masks.push(mask);
            self.push_deps(&inst.srcs, &mut out.deps);
            // A memory instruction's per-lane addresses (a load's value is
            // a function of its address).
            let addrs = inst.kind.is_mem().then(|| self.operand_lanes(inst.srcs[0]));
            if let Some(lanes) = addrs {
                let start = out.addrs.len();
                out.addrs.extend(active(mask).map(|lane| lanes[lane]));
                // Debug builds check every observed access against the
                // analyzer's static verdicts.
                if cfg!(debug_assertions) {
                    self.cross_check_access(top.pc, &out.addrs[start..]);
                }
            }
            out.seal()?;

            match inst.kind {
                InstKind::Branch => {
                    let taken = match inst.cond {
                        BranchCond::Always => mask,
                        BranchCond::IfZero | BranchCond::IfNonZero
                            if self.opts.uniform_branch_fast_path
                                && self.analysis.is_branch_uniform(top.pc) =>
                        {
                            // Statically warp-uniform condition: every
                            // active lane agrees, so evaluate it once on the
                            // first active lane. Either all active lanes
                            // jump or none do — the reconvergence stack is
                            // never touched.
                            let lane = mask.trailing_zeros() as usize;
                            let c = self.operand(inst.srcs[0], lane);
                            let jumps = match inst.cond {
                                BranchCond::IfZero => c == 0,
                                BranchCond::IfNonZero => c != 0,
                                BranchCond::Always => unreachable!(),
                            };
                            let t = if jumps { mask } else { 0 };
                            debug_assert_eq!(
                                t,
                                self.taken_mask(inst, mask),
                                "pc {}: statically uniform branch observed divergent",
                                top.pc,
                            );
                            t
                        }
                        BranchCond::IfZero | BranchCond::IfNonZero => {
                            self.taken_mask(inst, mask)
                        }
                    };
                    let fall = mask & !taken;
                    // Targets/reconvergence PCs are guaranteed by kernel
                    // validation and the stack top by the loop condition;
                    // report (never panic) if an invariant is broken.
                    let Some(target) = inst.target else {
                        return Err(TraceError::BrokenInvariant {
                            kernel: self.kernel.name.clone(),
                            warp: self.warp,
                            pc: top.pc,
                            detail: "branch without a target survived validation",
                        });
                    };
                    let reconv = inst.reconv;
                    let Some(frame) = self.stack.last_mut() else { break };
                    if taken != 0 && fall != 0 {
                        stats.divergent_branches += 1;
                    } else {
                        stats.uniform_branches += 1;
                    }
                    match (taken != 0, fall != 0) {
                        (true, false) => frame.pc = target,
                        (false, true) => frame.pc += 1,
                        (true, true) => {
                            let Some(reconv) = reconv else {
                                return Err(TraceError::BrokenInvariant {
                                    kernel: self.kernel.name.clone(),
                                    warp: self.warp,
                                    pc: top.pc,
                                    detail: "divergent branch without a reconvergence pc",
                                });
                            };
                            frame.pc = reconv;
                            let fall_pc = top.pc + 1;
                            self.stack.push(Frame { pc: fall_pc, mask: fall, reconv });
                            self.stack.push(Frame { pc: target, mask: taken, reconv });
                        }
                        (false, false) => unreachable!("branch under empty mask"),
                    }
                }
                InstKind::Exit => {
                    // Retire these lanes from every frame; drop emptied frames.
                    for f in &mut self.stack {
                        f.mask &= !mask;
                    }
                    self.stack.retain(|f| f.mask != 0);
                }
                _ => {
                    if let Some(Reg(dst)) = inst.dst {
                        let values = match addrs {
                            Some(lanes) if matches!(inst.kind, InstKind::Load(_)) => {
                                lanes.map(|addr| splitmix64(addr ^ MEMORY_SEED))
                            }
                            _ => self.eval_lanes(inst.op, &inst.srcs),
                        };
                        let reg = &mut self.regs[dst as usize];
                        for lane in active(mask) {
                            reg[lane] = values[lane];
                        }
                        self.last_writer[dst as usize] = Some(idx);
                    }
                    let Some(frame) = self.stack.last_mut() else { break };
                    frame.pc += 1;
                }
            }
        }

        Ok(stats)
    }
}

/// The active lanes of `mask`, in ascending order.
fn active(mask: u32) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |&lane| mask & (1 << lane) != 0)
}

/// Branch-behaviour tallies from one warp's functional execution,
/// aggregated per kernel before being emitted as `trace.engine.*`
/// counters (so the hot loop only bumps plain integers).
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    /// Conditional branches where active lanes split both ways.
    divergent_branches: u64,
    /// Branch executions where every active lane agreed.
    uniform_branches: u64,
}

impl RunStats {
    fn absorb(&mut self, other: RunStats) {
        self.divergent_branches += other.divergent_branches;
        self.uniform_branches += other.uniform_branches;
    }
}

fn distinct_lines(addrs: &[u64]) -> u32 {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a >> LINE_SHIFT).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u32
}

/// Bank-conflict degree of one warp access under the default 32-bank × 4 B
/// geometry (the model the pre-trace analysis uses): max distinct words in
/// any one bank, lanes sharing a word broadcasting in one cycle.
fn observed_bank_degree(addrs: &[u64]) -> u32 {
    let mut words: Vec<(u64, u64)> = addrs.iter().map(|a| ((a / 4) % 32, a / 4)).collect();
    words.sort_unstable();
    words.dedup();
    let mut best = 0u32;
    let mut i = 0;
    while i < words.len() {
        let bank = words[i].0;
        let mut n = 0u32;
        while i < words.len() && words[i].0 == bank {
            n += 1;
            i += 1;
        }
        best = best.max(n);
    }
    best.max(1)
}

/// Runs the pre-trace static analysis hook, rejecting kernels with
/// Error-severity findings.
fn pre_trace_analysis(kernel: &Kernel) -> Result<KernelAnalysis, TraceError> {
    // validate() first so callers keep getting the precise
    // `TraceError::InvalidKernel(KernelError)` they always got for basic
    // structural breakage; the analyzer then catches the deeper defects.
    kernel.validate()?;
    let analysis = gpumech_analyze::analyze(kernel);
    if let Some(reason) = analysis.reject_reason() {
        return Err(TraceError::RejectedByAnalysis {
            kernel: kernel.name.clone(),
            reason,
            findings: analysis
                .diagnostics_at_least(gpumech_analyze::Severity::Error)
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
        });
    }
    Ok(analysis)
}

/// Functionally executes one warp and returns its dynamic trace.
///
/// # Errors
///
/// Returns [`TraceError::InvalidKernel`] if the kernel fails validation,
/// [`TraceError::RejectedByAnalysis`] if the static analyzer finds
/// Error-severity defects, and [`TraceError::InstLimit`] if the warp does
/// not terminate within [`MAX_DYN_INSTS_PER_WARP`] instructions.
pub fn trace_warp(
    kernel: &Kernel,
    launch: LaunchConfig,
    warp: WarpId,
) -> Result<WarpTrace, TraceError> {
    let analysis = pre_trace_analysis(kernel)?;
    let cancel = CancelToken::never();
    let mut trace = WarpTrace::new(warp, launch.block_of_warp(warp));
    let stats = WarpMachine::new(kernel, &analysis, TraceOptions::default(), &cancel, launch)
        .run(warp, &mut trace)?;
    gpumech_obs::counter!("trace.engine.insts", trace.len() as u64);
    gpumech_obs::counter!("trace.engine.divergent_branches", stats.divergent_branches);
    gpumech_obs::counter!("trace.engine.uniform_branches", stats.uniform_branches);
    Ok(trace)
}

/// Functionally executes every warp of a launch and returns the full kernel
/// trace, warps in grid order. Warps are independent (no inter-thread
/// communication in the IR), so they are traced in parallel, sharing one
/// static analysis.
///
/// # Errors
///
/// When several warps fail, the error of the lowest-numbered one.
pub fn trace_kernel(kernel: &Kernel, launch: LaunchConfig) -> Result<KernelTrace, TraceError> {
    trace_kernel_cancellable(kernel, launch, TraceOptions::default(), &CancelToken::never())
}

/// What one tracing worker produced: its finished warps (by grid index),
/// its branch tallies, and the error that stopped it, if any.
struct WorkerOutput {
    warps: Vec<(usize, WarpTrace)>,
    stats: RunStats,
    error: Option<(usize, TraceError)>,
}

/// [`trace_kernel`] with explicit [`TraceOptions`] under a
/// [`CancelToken`]: the warp machines poll the token at a fixed
/// dynamic-instruction stride and between warps, so an expired deadline
/// or explicit cancellation aborts tracing within a bounded amount of
/// work. The options A/B the analysis-guided fast paths against the
/// conservative per-lane execution.
///
/// Warps go to `min(available_parallelism, warps)` scoped workers (the
/// calling thread is one of them) through one atomic index. Each worker
/// reuses one warp machine and one set of column buffers, copies every
/// finished warp out into exact-size columns, and stops claiming warps
/// once any warp has failed. Indices are claimed in increasing order, so
/// every warp below a failed one was claimed before it and still runs to
/// its end: the error returned is always the lowest-numbered warp's, as a
/// one-warp-at-a-time trace would report.
///
/// # Errors
///
/// When several warps fail, the error of the lowest-numbered one;
/// [`TraceError::Interrupted`] once `cancel` fires.
pub fn trace_kernel_cancellable(
    kernel: &Kernel,
    launch: LaunchConfig,
    opts: TraceOptions,
    cancel: &CancelToken,
) -> Result<KernelTrace, TraceError> {
    let _span = gpumech_obs::span!("trace.engine.kernel", name = kernel.name.as_str());
    let analysis = pre_trace_analysis(kernel)?;
    let n = launch.total_warps();
    // Relaxed: the index and the flag publish no data of their own; the
    // traces travel back through the joins.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut machine = WarpMachine::new(kernel, &analysis, opts, cancel, launch);
        let mut scratch = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        let mut out = WorkerOutput { warps: Vec::new(), stats: RunStats::default(), error: None };
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let run = cancel
                .check()
                .map_err(TraceError::Interrupted)
                .and_then(|()| machine.run(WarpId::new(i as u32), &mut scratch));
            match run {
                Ok(stats) => {
                    out.stats.absorb(stats);
                    out.warps.push((i, scratch.clone()));
                }
                Err(e) => {
                    failed.store(true, Ordering::Relaxed);
                    out.error = Some((i, e));
                    break;
                }
            }
        }
        out
    };
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(n);
    let outputs: Vec<WorkerOutput> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut outputs = vec![work()];
        for h in helpers {
            outputs.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        outputs
    });

    let mut stats = RunStats::default();
    let mut warps = Vec::with_capacity(n);
    let mut errors = Vec::new();
    for out in outputs {
        stats.absorb(out.stats);
        warps.extend(out.warps);
        errors.extend(out.error);
    }
    if let Some((_, e)) = errors.into_iter().min_by_key(|&(i, _)| i) {
        return Err(e);
    }
    warps.sort_unstable_by_key(|&(i, _)| i);
    let warps: Vec<WarpTrace> = warps.into_iter().map(|(_, w)| w).collect();
    gpumech_obs::counter!("trace.engine.warps", warps.len() as u64);
    gpumech_obs::counter!(
        "trace.engine.insts",
        warps.iter().map(|w| w.len() as u64).sum::<u64>()
    );
    gpumech_obs::counter!("trace.engine.divergent_branches", stats.divergent_branches);
    gpumech_obs::counter!("trace.engine.uniform_branches", stats.uniform_branches);
    Ok(KernelTrace { name: kernel.name.clone(), launch, warps })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::{AddrPattern, KernelBuilder, MemSpace};

    fn launch1() -> LaunchConfig {
        LaunchConfig::new(32, 1)
    }

    #[test]
    fn straight_line_trace_has_program_order_and_deps() {
        let mut b = KernelBuilder::new("k");
        let a = b.alu(ValueOp::Add, &[Operand::Tid, Operand::Imm(1)]);
        let c = b.alu(ValueOp::Mul, &[Operand::Reg(a), Operand::Imm(2)]);
        let _ = b.fp_add(&[Operand::Reg(c), Operand::Reg(a)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        assert_eq!(t.len(), 4); // 3 + exit
        assert_eq!(t.inst(0).deps, &[] as &[u32]);
        assert_eq!(t.inst(1).deps, &[0]);
        assert_eq!(t.inst(2).deps, &[0, 1]);
        assert_eq!(t.inst(0).active_mask, u32::MAX);
    }

    #[test]
    fn if_else_divergence_executes_both_paths_with_split_masks() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(10)]); // then: lanes 0..8
        b.if_else();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(20)]); // else: lanes 8..32
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(30)]); // reconverged
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();

        let then_mask = 0x0000_00FFu32;
        // Instruction stream: cmp, branch, (then add OR else path first
        // depending on taken order) ... we take the branch-taken path first,
        // which for IfZero is the *else* arm (lanes >= 8).
        let masks: Vec<(u32, u32)> = t.insts().map(|i| (i.pc, i.active_mask)).collect();
        // cmp and branch run under the full mask.
        assert_eq!(masks[0], (0, u32::MAX));
        assert_eq!(masks[1], (1, u32::MAX));
        // Both arms appear, with complementary masks.
        let then_inst = t.insts().find(|i| i.pc == 2).expect("then arm executed");
        let else_inst = t.insts().find(|i| i.pc == 4).expect("else arm executed");
        assert_eq!(then_inst.active_mask, then_mask);
        assert_eq!(else_inst.active_mask, !then_mask);
        // The reconverged instruction runs under the full mask again.
        let merged = t.insts().find(|i| i.pc == 5).expect("reconverged inst");
        assert_eq!(merged.active_mask, u32::MAX);
    }

    #[test]
    fn uniform_branch_does_not_split() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(64)]); // always true
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_else();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(2)]);
        b.if_end();
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        // Else arm (pc 4) never executes.
        assert!(t.insts().all(|i| i.pc != 4));
        assert!(t.insts().any(|i| i.pc == 2 && i.active_mask == u32::MAX));
    }

    #[test]
    fn lane_dependent_loop_trip_counts_reconverge() {
        // Do-while loop: lane iterates max(lane % 4, 1) times.
        let mut b = KernelBuilder::new("k");
        let trip = b.alu(ValueOp::Rem, &[Operand::Lane, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Reg(trip)]);
        b.loop_end_while(Operand::Reg(c));
        let _after = b.alu(ValueOp::Add, &[Operand::Imm(99)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();

        // The loop body add (pc 2) executes 3 times: masks shrink as lanes
        // retire (trip counts 0/1 retire after iteration 1, trip 2 after
        // iteration 2, trip 3 after iteration 3).
        let body_masks: Vec<u32> =
            t.insts().filter(|i| i.pc == 2).map(|i| i.active_mask).collect();
        assert_eq!(body_masks.len(), 3);
        assert_eq!(body_masks[0], u32::MAX);
        assert!(body_masks.windows(2).all(|w| (w[1] & !w[0]) == 0), "masks only shrink");
        assert_eq!(body_masks[1].count_ones(), 16, "half the lanes reach trip 2");
        assert_eq!(body_masks[2].count_ones(), 8, "one lane in four reaches trip 3");
        // After the loop, everyone reconverges.
        let merged = t.insts().rev().find(|i| i.kind == InstKind::IntAlu).unwrap();
        assert_eq!(merged.active_mask, u32::MAX);
    }

    #[test]
    fn memory_instructions_record_per_lane_addresses() {
        let mut b = KernelBuilder::new("k");
        let _ = b.load_pattern(AddrPattern::Coalesced { base: 0x1000, elem_bytes: 4 });
        b.store_pattern(AddrPattern::Strided { base: 0x10_0000, stride_bytes: 128 }, Operand::Imm(7));
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(64, 2), WarpId::new(3)).unwrap();

        let load = t.insts().find(|i| i.kind == InstKind::Load(MemSpace::Global)).unwrap();
        assert_eq!(load.addrs.len(), 32);
        // Warp 3 covers tids 96..128 → addresses 0x1000 + 4*tid.
        assert_eq!(load.addrs[0], 0x1000 + 4 * 96);
        assert_eq!(load.addrs[31], 0x1000 + 4 * 127);

        let store = t.insts().find(|i| i.kind == InstKind::Store(MemSpace::Global)).unwrap();
        assert_eq!(store.addrs.len(), 32);
        assert_eq!(store.addrs[1] - store.addrs[0], 128, "one line per lane");
    }

    #[test]
    fn load_feeds_dependency_into_consumer() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Coalesced { base: 0, elem_bytes: 4 });
        let _ = b.fp_add(&[Operand::Reg(x), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let load_idx = t.insts().position(|i| i.kind.is_global_load()).unwrap() as u32;
        let consumer = t.insts().find(|i| i.kind == InstKind::FpAdd).unwrap();
        assert!(consumer.deps.contains(&load_idx));
    }

    #[test]
    fn loaded_values_are_deterministic_functions_of_address() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Broadcast { addr: 0x42 });
        let c = b.alu(ValueOp::Rem, &[Operand::Reg(x), Operand::Imm(2)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_end();
        let k = b.finish(vec![]);
        let t1 = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let t2 = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        assert_eq!(t1, t2, "tracing is deterministic");
    }

    #[test]
    fn infinite_loop_reports_inst_limit() {
        let mut b = KernelBuilder::new("k");
        b.loop_begin();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.loop_end_while(Operand::Imm(1)); // always true
        let k = b.finish(vec![]);
        let err = trace_warp(&k, launch1(), WarpId::new(0)).unwrap_err();
        assert!(matches!(err, TraceError::InstLimit { .. }));
    }

    #[test]
    fn cancelled_token_aborts_tracing_before_any_warp() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![]);
        let cancel = CancelToken::never();
        cancel.cancel();
        let err =
            trace_kernel_cancellable(&k, launch1(), TraceOptions::default(), &cancel).unwrap_err();
        assert_eq!(err, TraceError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_interrupts_a_long_running_warp_mid_trace() {
        // An (effectively) non-terminating loop; the fake-clock deadline
        // must fire via the in-loop poll long before the InstLimit.
        let mut b = KernelBuilder::new("k");
        b.loop_begin();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.loop_end_while(Operand::Imm(1));
        let k = b.finish(vec![]);
        let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
        let cancel = CancelToken::with_clock(clock, 10_000);
        let err =
            trace_kernel_cancellable(&k, launch1(), TraceOptions::default(), &cancel).unwrap_err();
        assert_eq!(err, TraceError::Interrupted(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn kernel_trace_covers_every_warp() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![]);
        let launch = LaunchConfig::new(64, 3);
        let t = trace_kernel(&k, launch).unwrap();
        assert_eq!(t.warps.len(), 6);
        for (i, w) in t.warps.iter().enumerate() {
            assert_eq!(w.warp.index(), i);
            assert_eq!(w.len(), 2);
        }
        assert_eq!(t.total_insts(), 12);
    }

    #[test]
    fn every_kernel_warp_equals_its_single_warp_trace() {
        // One control-divergent and one memory-divergent workload: the
        // parallel tracer must store each warp exactly as tracing that
        // warp alone produces it, in grid order.
        for name in ["bfs_kernel1", "kmeans_invert_mapping"] {
            let w = crate::workloads::by_name(name).unwrap().with_blocks(4);
            let t = trace_kernel(&w.kernel, w.launch).unwrap();
            assert_eq!(t.warps.len(), w.launch.total_warps());
            for (i, warp) in t.warps.iter().enumerate() {
                let alone = trace_warp(&w.kernel, w.launch, WarpId::new(i as u32)).unwrap();
                assert_eq!(*warp, alone, "{name}: warp {i}");
            }
        }
    }

    /// A kernel whose warps `first_stuck..` loop forever and whose earlier
    /// warps run the loop body once. Warp `first_stuck` also loads inside
    /// the loop, so it is the slowest to reach the instruction limit: a
    /// tracer that reported whichever failure came first would name a
    /// later warp.
    fn stuck_from(first_stuck: u64) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let stuck = b.alu(ValueOp::CmpLt, &[Operand::Imm(first_stuck * 32 - 1), Operand::Tid]);
        let warp = b.alu(ValueOp::Div, &[Operand::Tid, Operand::Imm(32)]);
        let slow = b.alu(ValueOp::CmpEq, &[Operand::Reg(warp), Operand::Imm(first_stuck)]);
        b.loop_begin();
        b.if_begin(Operand::Reg(slow));
        let _ = b.load_pattern(AddrPattern::Coalesced { base: 0x1000, elem_bytes: 4 });
        b.if_end();
        b.loop_end_while(Operand::Reg(stuck));
        b.finish(vec![])
    }

    #[test]
    fn several_failing_warps_report_the_lowest_numbered_one() {
        let k = stuck_from(2);
        let launch = LaunchConfig::new(32, 4);
        for w in 0..2 {
            assert!(trace_warp(&k, launch, WarpId::new(w)).is_ok(), "warp {w} terminates");
        }
        for w in 2..4 {
            let err = trace_warp(&k, launch, WarpId::new(w)).unwrap_err();
            assert_eq!(err, TraceError::InstLimit { warp: WarpId::new(w) });
        }
        let err = trace_kernel(&k, launch).unwrap_err();
        assert_eq!(err, TraceError::InstLimit { warp: WarpId::new(2) });
    }

    /// A clock that never reaches a deadline and, on its `at`-th read,
    /// signals `reached` and blocks until `resume`: the reading worker is
    /// held mid-trace while the test cancels the token.
    struct PauseAt {
        reads: std::sync::atomic::AtomicU64,
        at: u64,
        reached: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
        resume: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl gpumech_obs::Clock for PauseAt {
        fn now_ns(&self) -> u64 {
            if self.reads.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
                self.reached.lock().unwrap().send(()).unwrap();
                self.resume.lock().unwrap().recv().unwrap();
            }
            0
        }
    }

    #[test]
    fn cancelling_mid_trace_interrupts_and_joins_every_worker() {
        // 16 warps of ~600k instructions each, polled every 1024: the
        // 100th poll comes early in the trace, and no warp hits the limit.
        let mut b = KernelBuilder::new("k");
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(200_000)]);
        b.loop_end_while(Operand::Reg(c));
        let k = b.finish(vec![]);
        let (reached_tx, reached) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        let clock = PauseAt {
            reads: std::sync::atomic::AtomicU64::new(0),
            at: 100,
            reached: std::sync::Mutex::new(reached_tx),
            resume: std::sync::Mutex::new(resume_rx),
        };
        let cancel = CancelToken::with_clock(std::sync::Arc::new(clock), u64::MAX - 1);
        let cancel = &cancel;
        let err = std::thread::scope(|s| {
            s.spawn(move || {
                reached.recv().unwrap();
                cancel.cancel();
                resume.send(()).unwrap();
            });
            trace_kernel_cancellable(&k, LaunchConfig::new(128, 4), TraceOptions::default(), cancel)
                .unwrap_err()
        });
        assert_eq!(err, TraceError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn nested_divergence_restores_masks() {
        let mut b = KernelBuilder::new("k");
        let c1 = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(16)]);
        b.if_begin(Operand::Reg(c1));
        let c2 = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c2));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]); // lanes 0..8
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(2)]); // lanes 0..16
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(3)]); // all lanes
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let by_pc = |pc: u32| t.insts().find(|i| i.pc == pc).map(|i| i.active_mask);
        assert_eq!(by_pc(4), Some(0xFF), "inner body: lanes 0..8");
        assert_eq!(by_pc(5), Some(0xFFFF), "outer body after inner merge: lanes 0..16");
        assert_eq!(by_pc(6), Some(u32::MAX), "full reconvergence");
    }

    #[test]
    fn corrupted_reconvergence_pc_is_rejected_before_tracing() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_end();
        let mut k = b.finish(vec![]);
        let branch_pc =
            k.insts.iter().position(|i| i.kind == InstKind::Branch).expect("has a branch");
        // In range (passes validate) but not the true post-dominator.
        k.insts[branch_pc].reconv = Some(branch_pc as u32 + 1);
        assert!(k.validate().is_ok());
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        match err {
            TraceError::RejectedByAnalysis { kernel, reason, findings } => {
                assert_eq!(kernel, "k");
                assert_eq!(reason, RejectReason::Structural);
                assert!(
                    findings.iter().any(|f| f.contains("reconv-mismatch")),
                    "findings: {findings:?}"
                );
            }
            other => panic!("expected RejectedByAnalysis, got {other}"),
        }
    }

    #[test]
    fn divergent_barrier_is_rejected_with_a_typed_reason() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        b.sync();
        b.if_end();
        let k = b.finish(vec![]);
        assert!(k.validate().is_ok(), "divergence is beyond basic validation");
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        match err {
            TraceError::RejectedByAnalysis { reason, findings, .. } => {
                assert_eq!(reason, RejectReason::BarrierDivergence);
                assert!(
                    findings.iter().any(|f| f.contains("barrier-divergence")),
                    "findings: {findings:?}"
                );
            }
            other => panic!("expected RejectedByAnalysis, got {other}"),
        }
    }

    #[test]
    fn read_before_write_is_rejected_before_tracing() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(gpumech_isa::Reg(9)), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        assert!(
            err.to_string().contains("read-before-write"),
            "expected a read-before-write diagnostic, got: {err}"
        );
    }
}
