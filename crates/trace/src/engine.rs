//! The SIMT functional execution engine.
//!
//! Executes a kernel one warp at a time with a classic post-dominator
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

use gpumech_analyze::{KernelAnalysis, RejectReason};
use gpumech_isa::{
    kernel::{BranchCond, KernelError, NUM_REGS},
    InstKind, Kernel, Operand, Reg, ValueOp, WarpId, WARP_SIZE,
};
use gpumech_obs::{CancelToken, Interrupt};

use crate::launch::LaunchConfig;
use crate::record::{KernelTrace, TraceInst, WarpTrace};
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
#[cfg(debug_assertions)]
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
        warp: WarpId,
    ) -> Self {
        Self {
            kernel,
            analysis,
            opts,
            cancel,
            launch,
            warp,
            regs: vec![[0u64; WARP_SIZE]; NUM_REGS],
            stack: vec![Frame { pc: 0, mask: FULL_MASK, reconv: NO_RECONV }],
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

    fn eval(&self, op: ValueOp, srcs: &[Operand], lane: usize) -> u64 {
        let v = |i: usize| self.operand(srcs[i], lane);
        let fold = |f: fn(u64, u64) -> u64, init: u64| {
            srcs.iter().map(|&s| self.operand(s, lane)).fold(init, f)
        };
        match op {
            ValueOp::Mov => if srcs.is_empty() { 0 } else { v(0) },
            ValueOp::Add => fold(u64::wrapping_add, 0),
            ValueOp::Sub => v(0).wrapping_sub(v(1)),
            ValueOp::Mul => fold(u64::wrapping_mul, 1),
            ValueOp::Div => v(0) / v(1).max(1),
            ValueOp::Rem => v(0) % v(1).max(1),
            ValueOp::And => fold(|a, b| a & b, u64::MAX),
            ValueOp::Xor => fold(|a, b| a ^ b, 0),
            ValueOp::Shl => v(0) << (v(1) & 63),
            ValueOp::Shr => v(0) >> (v(1) & 63),
            ValueOp::Min => fold(u64::min, u64::MAX),
            ValueOp::Max => fold(u64::max, 0),
            ValueOp::CmpLt => u64::from(v(0) < v(1)),
            ValueOp::CmpEq => u64::from(v(0) == v(1)),
            ValueOp::CmpNe => u64::from(v(0) != v(1)),
            ValueOp::Select => if v(0) != 0 { v(1) } else { v(2) },
            ValueOp::Hash => splitmix64(fold(|a, b| a ^ b, 0)),
        }
    }

    fn collect_deps(&self, srcs: &[Operand]) -> Vec<u32> {
        let mut deps: Vec<u32> = srcs
            .iter()
            .filter_map(|s| match s {
                Operand::Reg(Reg(r)) => self.last_writer[*r as usize],
                _ => None,
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
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

    fn run(mut self) -> Result<(WarpTrace, RunStats), TraceError> {
        let mut insts: Vec<TraceInst> = Vec::new();
        let mut stats = RunStats::default();

        while let Some(&top) = self.stack.last() {
            if top.pc == top.reconv {
                self.stack.pop();
                continue;
            }
            if insts.len() >= MAX_DYN_INSTS_PER_WARP {
                return Err(TraceError::InstLimit { warp: self.warp });
            }
            if insts.len() & CANCEL_CHECK_MASK == 0 {
                self.cancel.check().map_err(TraceError::Interrupted)?;
            }

            let inst = &self.kernel.insts[top.pc as usize];
            let mask = top.mask;
            let idx = insts.len() as u32;

            // Record the dynamic instruction (addresses filled below).
            let mut addrs = Vec::new();
            if inst.kind.is_mem() {
                addrs.reserve(mask.count_ones() as usize);
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 {
                        addrs.push(self.operand(inst.srcs[0], lane));
                    }
                }
                // Cross-check: the observed line count must respect the
                // analyzer's per-warp coalescing bound.
                #[cfg(debug_assertions)]
                if let Some(Some(access)) = self.analysis.coalescing.get(top.pc as usize) {
                    let lines = distinct_lines(&addrs);
                    debug_assert!(
                        lines <= access.max_requests,
                        "pc {}: warp touched {lines} lines, static bound is {} ({:?})",
                        top.pc,
                        access.max_requests,
                        access.class,
                    );
                }
                // Cross-check: the observed shared-memory bank-conflict
                // degree must respect the analyzer's full-mask bound.
                #[cfg(debug_assertions)]
                if let Some(fact) = self.analysis.shared_fact(top.pc) {
                    let observed = observed_bank_degree(&addrs);
                    debug_assert!(
                        observed <= fact.bank_degree,
                        "pc {}: warp hit {observed}-way bank conflict, static bound is {}-way",
                        top.pc,
                        fact.bank_degree,
                    );
                }
            }
            insts.push(TraceInst {
                pc: top.pc,
                kind: inst.kind,
                deps: self.collect_deps(&inst.srcs),
                active_mask: mask,
                addrs,
            });

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
                            let fall_pc = insts[idx as usize].pc + 1;
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
                        if inst.kind == InstKind::Load(gpumech_isa::MemSpace::Global)
                            || inst.kind == InstKind::Load(gpumech_isa::MemSpace::Shared)
                        {
                            for lane in 0..WARP_SIZE {
                                if mask & (1 << lane) != 0 {
                                    let addr = self.operand(inst.srcs[0], lane);
                                    self.regs[dst as usize][lane] =
                                        splitmix64(addr ^ MEMORY_SEED);
                                }
                            }
                        } else {
                            for lane in 0..WARP_SIZE {
                                if mask & (1 << lane) != 0 {
                                    self.regs[dst as usize][lane] =
                                        self.eval(inst.op, &inst.srcs, lane);
                                }
                            }
                        }
                        self.last_writer[dst as usize] = Some(idx);
                    }
                    let Some(frame) = self.stack.last_mut() else { break };
                    frame.pc += 1;
                }
            }
        }

        Ok((
            WarpTrace {
                warp: self.warp,
                block: self.launch.block_of_warp(self.warp),
                insts,
            },
            stats,
        ))
    }
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

#[cfg(debug_assertions)]
fn distinct_lines(addrs: &[u64]) -> u32 {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a >> LINE_SHIFT).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u32
}

/// Bank-conflict degree of one warp access under the default 32-bank × 4 B
/// geometry (the model the pre-trace analysis uses): max distinct words in
/// any one bank, lanes sharing a word broadcasting in one cycle.
#[cfg(debug_assertions)]
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
    let (trace, stats) =
        WarpMachine::new(kernel, &analysis, TraceOptions::default(), &cancel, launch, warp).run()?;
    gpumech_obs::counter!("trace.engine.insts", trace.insts.len() as u64);
    gpumech_obs::counter!("trace.engine.divergent_branches", stats.divergent_branches);
    gpumech_obs::counter!("trace.engine.uniform_branches", stats.uniform_branches);
    Ok(trace)
}

/// Functionally executes every warp of a launch and returns the full kernel
/// trace. Warps are independent (no inter-thread communication in the IR),
/// so this is simply one warp machine per warp over the grid, sharing one
/// static analysis.
///
/// # Errors
///
/// Propagates the first [`TraceError`] encountered.
pub fn trace_kernel(kernel: &Kernel, launch: LaunchConfig) -> Result<KernelTrace, TraceError> {
    trace_kernel_cancellable(kernel, launch, TraceOptions::default(), &CancelToken::never())
}

/// [`trace_kernel`] with explicit [`TraceOptions`] under a
/// [`CancelToken`]: the warp machines poll the token at a fixed
/// dynamic-instruction stride and between warps, so an expired deadline
/// or explicit cancellation aborts tracing within a bounded amount of
/// work. The options A/B the analysis-guided fast paths against the
/// conservative per-lane execution.
///
/// # Errors
///
/// Propagates the first [`TraceError`] encountered;
/// [`TraceError::Interrupted`] once `cancel` fires.
pub fn trace_kernel_cancellable(
    kernel: &Kernel,
    launch: LaunchConfig,
    opts: TraceOptions,
    cancel: &CancelToken,
) -> Result<KernelTrace, TraceError> {
    let _span = gpumech_obs::span!("trace.engine.kernel", name = kernel.name.as_str());
    let analysis = pre_trace_analysis(kernel)?;
    let mut stats = RunStats::default();
    let warps = launch
        .warps()
        .map(|w| {
            cancel.check().map_err(TraceError::Interrupted)?;
            WarpMachine::new(kernel, &analysis, opts, cancel, launch, w).run().map(|(t, s)| {
                stats.absorb(s);
                t
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    gpumech_obs::counter!("trace.engine.warps", warps.len() as u64);
    gpumech_obs::counter!(
        "trace.engine.insts",
        warps.iter().map(|w| w.insts.len() as u64).sum::<u64>()
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
        assert_eq!(t.insts[0].deps, Vec::<u32>::new());
        assert_eq!(t.insts[1].deps, vec![0]);
        assert_eq!(t.insts[2].deps, vec![0, 1]);
        assert_eq!(t.insts[0].active_mask, u32::MAX);
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
        let masks: Vec<(u32, u32)> = t.insts.iter().map(|i| (i.pc, i.active_mask)).collect();
        // cmp and branch run under the full mask.
        assert_eq!(masks[0], (0, u32::MAX));
        assert_eq!(masks[1], (1, u32::MAX));
        // Both arms appear, with complementary masks.
        let then_inst = t.insts.iter().find(|i| i.pc == 2).expect("then arm executed");
        let else_inst = t.insts.iter().find(|i| i.pc == 4).expect("else arm executed");
        assert_eq!(then_inst.active_mask, then_mask);
        assert_eq!(else_inst.active_mask, !then_mask);
        // The reconverged instruction runs under the full mask again.
        let merged = t.insts.iter().find(|i| i.pc == 5).expect("reconverged inst");
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
        assert!(t.insts.iter().all(|i| i.pc != 4));
        assert!(t.insts.iter().any(|i| i.pc == 2 && i.active_mask == u32::MAX));
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
            t.insts.iter().filter(|i| i.pc == 2).map(|i| i.active_mask).collect();
        assert_eq!(body_masks.len(), 3);
        assert_eq!(body_masks[0], u32::MAX);
        assert!(body_masks.windows(2).all(|w| (w[1] & !w[0]) == 0), "masks only shrink");
        assert_eq!(body_masks[1].count_ones(), 16, "half the lanes reach trip 2");
        assert_eq!(body_masks[2].count_ones(), 8, "one lane in four reaches trip 3");
        // After the loop, everyone reconverges.
        let merged = t.insts.iter().rev().find(|i| i.kind == InstKind::IntAlu).unwrap();
        assert_eq!(merged.active_mask, u32::MAX);
    }

    #[test]
    fn memory_instructions_record_per_lane_addresses() {
        let mut b = KernelBuilder::new("k");
        let _ = b.load_pattern(AddrPattern::Coalesced { base: 0x1000, elem_bytes: 4 });
        b.store_pattern(AddrPattern::Strided { base: 0x10_0000, stride_bytes: 128 }, Operand::Imm(7));
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(64, 2), WarpId::new(3)).unwrap();

        let load = t.insts.iter().find(|i| i.kind == InstKind::Load(MemSpace::Global)).unwrap();
        assert_eq!(load.addrs.len(), 32);
        // Warp 3 covers tids 96..128 → addresses 0x1000 + 4*tid.
        assert_eq!(load.addrs[0], 0x1000 + 4 * 96);
        assert_eq!(load.addrs[31], 0x1000 + 4 * 127);

        let store = t.insts.iter().find(|i| i.kind == InstKind::Store(MemSpace::Global)).unwrap();
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
        let load_idx = t.insts.iter().position(|i| i.kind.is_global_load()).unwrap() as u32;
        let consumer = t.insts.iter().find(|i| i.kind == InstKind::FpAdd).unwrap();
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
        let by_pc = |pc: u32| t.insts.iter().find(|i| i.pc == pc).map(|i| i.active_mask);
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
