//! Dynamic trace records: the interface between the functional simulator
//! and every downstream consumer (cache model, interval model, oracle).

use std::hash::{Hash, Hasher};

use gpumech_isa::{BlockId, InstKind, WarpId, WARP_SIZE};
use serde::{Deserialize, Serialize, Value};

use crate::engine::TraceError;
use crate::launch::LaunchConfig;

/// One dynamically executed warp-instruction: a `Copy` view into the
/// columns of the [`WarpTrace`] that owns it.
///
/// The field order is the order of an instruction's JSON object and of its
/// bytes in [`WarpTrace`]'s `Hash`, which the derived `Hash` here feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynInst<'t> {
    /// Static PC (index into the kernel's instruction array).
    pub pc: u32,
    /// Latency class.
    pub kind: InstKind,
    /// Indices (into the owning [`WarpTrace`]) of the instructions that
    /// produced this instruction's register sources. Sorted and
    /// deduplicated; empty for instructions with no register inputs.
    pub deps: &'t [u32],
    /// Bitmask of active lanes.
    pub active_mask: u32,
    /// Per-active-lane byte addresses for memory instructions, in ascending
    /// lane order. Empty for non-memory instructions.
    pub addrs: &'t [u64],
}

impl DynInst<'_> {
    /// Number of active lanes.
    #[must_use]
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }
}

/// The full dynamic trace of one warp, stored column-wise: one flat
/// column each for PCs, kinds and active masks, plus two arenas holding
/// every instruction's dependencies and addresses back to back, indexed by
/// per-instruction offsets. Read an instruction with [`WarpTrace::inst`]
/// or [`WarpTrace::insts`]; append one with [`WarpTrace::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpTrace {
    /// Grid-global warp id.
    pub warp: WarpId,
    /// Owning thread block.
    pub block: BlockId,
    pub(crate) pcs: Vec<u32>,
    pub(crate) kinds: Vec<InstKind>,
    pub(crate) masks: Vec<u32>,
    /// `deps[dep_offsets[k]..dep_offsets[k + 1]]` are instruction `k`'s
    /// dependencies; one more entry than there are instructions.
    pub(crate) dep_offsets: Vec<u32>,
    pub(crate) deps: Vec<u32>,
    /// `addrs[addr_offsets[k]..addr_offsets[k + 1]]` are instruction `k`'s
    /// addresses; one more entry than there are instructions.
    pub(crate) addr_offsets: Vec<u32>,
    pub(crate) addrs: Vec<u64>,
}

impl WarpTrace {
    /// An empty trace for `warp` of `block`.
    #[must_use]
    pub fn new(warp: WarpId, block: BlockId) -> Self {
        WarpTrace {
            warp,
            block,
            pcs: Vec::new(),
            kinds: Vec::new(),
            masks: Vec::new(),
            dep_offsets: vec![0],
            deps: Vec::new(),
            addr_offsets: vec![0],
            addrs: Vec::new(),
        }
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// `true` if the warp executed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The `k`-th executed instruction.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`, like slice indexing.
    #[inline]
    #[must_use]
    pub fn inst(&self, k: usize) -> DynInst<'_> {
        DynInst {
            pc: self.pcs[k],
            kind: self.kinds[k],
            deps: self.deps(k),
            active_mask: self.masks[k],
            addrs: &self.addrs[self.addr_offsets[k] as usize..self.addr_offsets[k + 1] as usize],
        }
    }

    /// Instruction `k`'s dependencies alone, for loops that read nothing
    /// else of most instructions they visit (the oracle's readiness scan).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`, like slice indexing.
    #[inline]
    #[must_use]
    pub fn deps(&self, k: usize) -> &[u32] {
        &self.deps[self.dep_offsets[k] as usize..self.dep_offsets[k + 1] as usize]
    }

    /// Executed instructions in program order.
    pub fn insts(
        &self,
    ) -> impl DoubleEndedIterator<Item = DynInst<'_>> + ExactSizeIterator + Clone + '_ {
        (0..self.len()).map(move |k| self.inst(k))
    }

    /// The kind column: instruction `k`'s latency class is `kinds()[k]`.
    #[must_use]
    pub fn kinds(&self) -> &[InstKind] {
        &self.kinds
    }

    /// Appends one instruction, copying its dependencies and addresses
    /// into the arenas.
    ///
    /// # Errors
    ///
    /// [`TraceError::CorruptTrace`] if an arena would outgrow its 32-bit
    /// offsets; the trace is left unchanged.
    pub fn push(&mut self, inst: DynInst<'_>) -> Result<(), TraceError> {
        if offset(self.deps.len() + inst.deps.len()).is_none()
            || offset(self.addrs.len() + inst.addrs.len()).is_none()
        {
            return Err(self.arena_overflow());
        }
        self.pcs.push(inst.pc);
        self.kinds.push(inst.kind);
        self.masks.push(inst.active_mask);
        self.deps.extend_from_slice(inst.deps);
        self.addrs.extend_from_slice(inst.addrs);
        self.seal()
    }

    /// Closes the instruction whose `pc`, `kind` and mask were pushed last:
    /// the arena entries appended since the previous seal become its
    /// dependencies and addresses. The tracer writes the columns directly
    /// and seals each instruction, so it needs no per-instruction buffers.
    pub(crate) fn seal(&mut self) -> Result<(), TraceError> {
        match (offset(self.deps.len()), offset(self.addrs.len())) {
            (Some(dep_end), Some(addr_end)) => {
                self.dep_offsets.push(dep_end);
                self.addr_offsets.push(addr_end);
                Ok(())
            }
            _ => Err(self.arena_overflow()),
        }
    }

    fn arena_overflow(&self) -> TraceError {
        TraceError::CorruptTrace {
            kernel: String::new(),
            warp: Some(self.warp.index()),
            detail: "a warp's dependency or address arena exceeds u32::MAX entries".to_string(),
        }
    }

    /// Empties the trace and re-labels it, keeping the column buffers'
    /// capacity for the next warp.
    pub(crate) fn reset(&mut self, warp: WarpId, block: BlockId) {
        self.warp = warp;
        self.block = block;
        self.pcs.clear();
        self.kinds.clear();
        self.masks.clear();
        self.deps.clear();
        self.addrs.clear();
        self.dep_offsets.clear();
        self.dep_offsets.push(0);
        self.addr_offsets.clear();
        self.addr_offsets.push(0);
    }

    /// Keeps the first `len` instructions and drops the rest (no effect if
    /// the trace is not longer than `len`).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.pcs.truncate(len);
        self.kinds.truncate(len);
        self.masks.truncate(len);
        self.dep_offsets.truncate(len + 1);
        self.deps.truncate(self.dep_offsets[len] as usize);
        self.addr_offsets.truncate(len + 1);
        self.addrs.truncate(self.addr_offsets[len] as usize);
    }

    /// Count of dynamic global-memory instructions.
    #[must_use]
    pub fn global_mem_insts(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_global_mem()).count()
    }
}

/// An arena length as a column offset, if it fits.
fn offset(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

/// Feeds warp, block, the instruction count as a length prefix, then every
/// instruction: the stream a derived `Hash` over a `Vec` of per-instruction
/// structs feeds. Cache keys, journal resume and shard ownership hash
/// traces, so this stream must not change
/// (`crates/exec/tests/trace_identity.rs` pins it).
impl Hash for WarpTrace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.warp.hash(state);
        self.block.hash(state);
        state.write_usize(self.len());
        for inst in self.insts() {
            inst.hash(state);
        }
    }
}

impl Serialize for DynInst<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("pc".to_string(), self.pc.to_value()),
            ("kind".to_string(), self.kind.to_value()),
            ("deps".to_string(), self.deps.to_value()),
            ("active_mask".to_string(), self.active_mask.to_value()),
            ("addrs".to_string(), self.addrs.to_value()),
        ])
    }
}

impl Serialize for WarpTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("warp".to_string(), self.warp.to_value()),
            ("block".to_string(), self.block.to_value()),
            ("insts".to_string(), Value::Array(self.insts().map(|i| i.to_value()).collect())),
        ])
    }
}

/// Reads `name` from a JSON object the way a derived `Deserialize` does.
fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, serde::Error> {
    match value.get_field(name) {
        Some(v) => T::from_value(v).map_err(|e| e.in_field(name)),
        None => Err(serde::Error::missing_field(name)),
    }
}

/// Appends one JSON instruction object, reading its fields in declaration
/// order so the first error named is the one a derived reader would name.
fn push_json_inst(trace: &mut WarpTrace, item: &Value) -> Result<(), serde::Error> {
    if !matches!(item, Value::Object(_)) {
        return Err(serde::Error::invalid_type("struct DynInst", item));
    }
    let pc = field(item, "pc")?;
    let kind = field(item, "kind")?;
    let deps: Vec<u32> = field(item, "deps")?;
    let active_mask = field(item, "active_mask")?;
    let addrs: Vec<u64> = field(item, "addrs")?;
    trace
        .push(DynInst { pc, kind, deps: &deps, active_mask, addrs: &addrs })
        .map_err(|e| serde::Error::custom(e.to_string()))
}

impl Deserialize for WarpTrace {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        if !matches!(value, Value::Object(_)) {
            return Err(serde::Error::invalid_type("struct WarpTrace", value));
        }
        let mut trace = WarpTrace::new(field(value, "warp")?, field(value, "block")?);
        let items = match value.get_field("insts") {
            Some(Value::Array(items)) => items,
            Some(other) => {
                return Err(serde::Error::invalid_type("array", other).in_field("insts"))
            }
            None => return Err(serde::Error::missing_field("insts")),
        };
        for item in items {
            push_json_inst(&mut trace, item).map_err(|e| e.in_field("insts"))?;
        }
        Ok(trace)
    }
}

/// The traces of every warp of a kernel launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelTrace {
    /// Kernel name (copied from the kernel definition).
    pub name: String,
    /// Launch geometry that produced the trace.
    pub launch: LaunchConfig,
    /// Per-warp traces, indexed by grid-global warp id.
    pub warps: Vec<WarpTrace>,
}

impl KernelTrace {
    /// Total dynamic warp-instructions across all warps.
    #[must_use]
    pub fn total_insts(&self) -> usize {
        self.warps.iter().map(WarpTrace::len).sum()
    }

    /// Total dynamic global-memory instructions across all warps.
    #[must_use]
    pub fn total_global_mem_insts(&self) -> usize {
        self.warps.iter().map(WarpTrace::global_mem_insts).sum()
    }

    /// Checks the structural invariants every downstream consumer (cache
    /// model, interval algorithm, timing oracle) relies on. Traces produced
    /// by the tracer satisfy them by construction; deserialized or mutated
    /// traces must pass here before being simulated, or indexing panics
    /// would be reachable from untrusted input.
    ///
    /// Invariants: the launch geometry is well-formed, the warp count
    /// matches the grid, every warp is non-empty with consistent warp/block
    /// ids, dependency indices are strictly ascending and refer only to
    /// earlier instructions, active masks are non-zero, and address lists
    /// are consistent with the instruction kind and active-lane count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptTrace`] naming the offending warp and
    /// the violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        let corrupt = |warp: Option<usize>, detail: String| TraceError::CorruptTrace {
            kernel: self.name.clone(),
            warp,
            detail,
        };
        let launch =
            LaunchConfig::try_new(self.launch.threads_per_block, self.launch.num_blocks)
                .map_err(|e| corrupt(None, format!("invalid launch geometry: {e}")))?;
        if self.warps.len() != launch.total_warps() {
            return Err(corrupt(
                None,
                format!(
                    "trace has {} warps but the launch geometry implies {}",
                    self.warps.len(),
                    launch.total_warps()
                ),
            ));
        }
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_empty() {
                return Err(corrupt(Some(i), "warp executed no instructions".to_string()));
            }
            if w.warp.index() != i {
                return Err(corrupt(
                    Some(i),
                    format!("warp id {} stored at grid index {i}", w.warp.index()),
                ));
            }
            if w.block != launch.block_of_warp(w.warp) {
                return Err(corrupt(
                    Some(i),
                    format!(
                        "block id {} inconsistent with launch geometry (expected {})",
                        w.block.index(),
                        launch.block_of_warp(w.warp).index()
                    ),
                ));
            }
            for (k, inst) in w.insts().enumerate() {
                let mut prev: Option<u32> = None;
                for &d in inst.deps {
                    if d as usize >= k {
                        return Err(corrupt(
                            Some(i),
                            format!(
                                "instruction {k} (pc {}) depends on instruction {d}, which is \
                                 not earlier in the warp",
                                inst.pc
                            ),
                        ));
                    }
                    if prev.is_some_and(|p| p >= d) {
                        return Err(corrupt(
                            Some(i),
                            format!(
                                "instruction {k} (pc {}) has unsorted or duplicate \
                                 dependencies",
                                inst.pc
                            ),
                        ));
                    }
                    prev = Some(d);
                }
                if inst.active_mask == 0 {
                    return Err(corrupt(
                        Some(i),
                        format!("instruction {k} (pc {}) has an empty active mask", inst.pc),
                    ));
                }
                let expected_addrs =
                    if inst.kind.is_mem() { inst.active_lanes() as usize } else { 0 };
                if inst.addrs.len() != expected_addrs || inst.addrs.len() > WARP_SIZE {
                    return Err(corrupt(
                        Some(i),
                        format!(
                            "instruction {k} (pc {}) records {} addresses but its kind and \
                             active mask imply {expected_addrs}",
                            inst.pc,
                            inst.addrs.len()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::MemSpace;

    fn warp(kinds: &[InstKind]) -> WarpTrace {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        for &kind in kinds {
            let addrs = if kind.is_mem() { vec![0x40] } else { vec![] };
            wt.push(DynInst { pc: 0, kind, deps: &[], active_mask: 1, addrs: &addrs }).unwrap();
        }
        wt
    }

    #[test]
    fn active_lane_count() {
        let inst = |mask| DynInst { pc: 0, kind: InstKind::IntAlu, deps: &[], active_mask: mask, addrs: &[] };
        assert_eq!(inst(0xFFFF_FFFF).active_lanes(), 32);
        assert_eq!(inst(0b1011).active_lanes(), 3);
    }

    #[test]
    fn trace_counters() {
        let wt = warp(&[
            InstKind::IntAlu,
            InstKind::Load(MemSpace::Global),
            InstKind::Load(MemSpace::Shared),
            InstKind::Store(MemSpace::Global),
        ]);
        assert_eq!(wt.len(), 4);
        assert!(!wt.is_empty());
        assert_eq!(wt.global_mem_insts(), 2);
        let kt = KernelTrace {
            name: "k".into(),
            launch: LaunchConfig::new(32, 1),
            warps: vec![wt.clone(), wt],
        };
        assert_eq!(kt.total_insts(), 8);
        assert_eq!(kt.total_global_mem_insts(), 4);
    }

    #[test]
    fn columns_index_each_instructions_arena_slices() {
        let mut wt = WarpTrace::new(WarpId::new(3), BlockId::new(1));
        wt.push(DynInst { pc: 7, kind: InstKind::IntAlu, deps: &[], active_mask: 3, addrs: &[] })
            .unwrap();
        let kind = InstKind::Load(MemSpace::Global);
        wt.push(DynInst { pc: 8, kind, deps: &[0], active_mask: 3, addrs: &[16, 24] }).unwrap();
        wt.push(DynInst { pc: 9, kind: InstKind::FpAdd, deps: &[0, 1], active_mask: 1, addrs: &[] })
            .unwrap();
        assert_eq!(wt.inst(1), DynInst { pc: 8, kind, deps: &[0], active_mask: 3, addrs: &[16, 24] });
        assert_eq!(wt.inst(2).deps, &[0, 1]);
        assert_eq!(wt.insts().rev().map(|i| i.pc).collect::<Vec<_>>(), [9, 8, 7]);
        assert_eq!(wt.kinds()[1], kind);

        let mut cut = wt.clone();
        cut.truncate(2);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut.inst(1), wt.inst(1));
        let mut rebuilt = WarpTrace::new(wt.warp, wt.block);
        for inst in wt.insts().take(2) {
            rebuilt.push(inst).unwrap();
        }
        assert_eq!(cut, rebuilt, "truncating leaves the same columns as pushing fewer");
    }
}
