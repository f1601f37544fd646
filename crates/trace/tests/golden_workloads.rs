//! Golden tests over the 40-workload library.
//!
//! Two kinds of pinning:
//!
//! * **Static facts** — for every workload, the analyzer's branch-divergence
//!   and memory-coalescing verdicts are pinned to the values current at the
//!   time the analyzer was introduced. A change here means the analyzer (or
//!   a kernel) changed behaviour and the diff should be reviewed, not that
//!   the new values are necessarily wrong.
//! * **Trace equivalence** — the analysis-guided uniform-branch fast path
//!   in the tracer must be a pure optimization: with it on or off, every
//!   workload's trace must serialize to byte-identical form.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_analyze::{analyze, CoalesceClass, Severity};
use gpumech_obs::CancelToken;
use gpumech_trace::{io, trace_kernel_cancellable, workloads, TraceOptions};

/// `(name, branches, divergent_branches, [broadcast, coalesced, strided,
/// scattered])` for every bundled workload.
const GOLDEN: [(&str, u32, u32, [u32; 4]); 40] = [
    ("srad_kernel1", 1, 0, [0, 0, 0, 2]),
    ("srad_kernel2", 1, 0, [0, 5, 0, 0]),
    ("kmeans_invert_mapping", 3, 1, [0, 0, 0, 3]),
    ("kmeans_kmeans_point", 1, 0, [0, 0, 0, 1]),
    ("cfd_step_factor", 1, 0, [0, 3, 0, 0]),
    ("cfd_compute_flux", 1, 0, [0, 0, 0, 1]),
    ("bfs_kernel1", 1, 0, [0, 0, 0, 1]),
    ("bfs_kernel2", 1, 0, [0, 0, 0, 1]),
    ("hotspot_calculate_temp", 1, 0, [0, 6, 0, 0]),
    ("pathfinder_dynproc", 1, 0, [0, 1, 0, 0]),
    ("lud_diagonal", 4, 0, [0, 2, 0, 0]),
    ("lud_perimeter", 4, 0, [0, 2, 0, 0]),
    ("nw_needle1", 1, 0, [0, 0, 0, 1]),
    ("backprop_layerforward", 2, 1, [0, 2, 0, 0]),
    ("backprop_adjust_weights", 1, 0, [0, 4, 0, 0]),
    ("streamcluster_pgain", 1, 0, [0, 0, 0, 1]),
    ("heartwall_kernel", 4, 0, [0, 2, 0, 0]),
    ("gaussian_fan1", 4, 0, [0, 2, 0, 0]),
    ("gaussian_fan2", 1, 0, [0, 0, 0, 1]),
    ("leukocyte_dilate", 1, 0, [0, 8, 0, 0]),
    ("parboil_sgemm", 1, 0, [0, 1, 0, 0]),
    ("parboil_spmv", 1, 0, [0, 1, 0, 1]),
    ("parboil_stencil", 1, 0, [0, 7, 0, 0]),
    ("parboil_sad_calc8", 1, 0, [0, 1, 0, 2]),
    ("parboil_sad_calc16", 1, 0, [0, 1, 0, 3]),
    ("parboil_histo_main", 1, 0, [0, 1, 0, 1]),
    ("parboil_lbm", 1, 0, [0, 10, 0, 0]),
    ("parboil_mriq_computeQ", 1, 0, [0, 2, 0, 0]),
    ("parboil_mri_gridding", 1, 0, [0, 0, 0, 1]),
    ("parboil_tpacf", 4, 0, [0, 2, 0, 0]),
    ("parboil_cutcp", 1, 0, [0, 0, 0, 1]),
    ("parboil_bfs", 1, 0, [0, 0, 0, 1]),
    ("sdk_vectoradd", 1, 0, [0, 3, 0, 0]),
    ("sdk_matrixmul", 1, 0, [0, 1, 0, 0]),
    ("sdk_transpose", 1, 0, [0, 1, 0, 1]),
    ("sdk_reduction", 2, 1, [0, 2, 0, 0]),
    ("sdk_blackscholes", 1, 0, [0, 2, 0, 0]),
    ("sdk_montecarlo", 1, 0, [0, 0, 0, 1]),
    ("sdk_convsep", 1, 0, [0, 9, 0, 0]),
    ("sdk_sortingnetworks", 1, 0, [0, 0, 0, 1]),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn golden_table_covers_the_whole_library() {
    let names: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    let lib: Vec<String> = workloads::all().into_iter().map(|w| w.name).collect();
    assert_eq!(lib.len(), 40);
    assert_eq!(names, lib.iter().map(String::as_str).collect::<Vec<_>>());
}

#[test]
fn every_workload_is_lint_clean() {
    for w in workloads::all() {
        let a = analyze(&w.kernel);
        assert!(
            !a.has_errors(),
            "{}: {:?}",
            w.name,
            a.diagnostics_at_least(Severity::Error)
        );
    }
}

#[test]
fn divergence_and_coalescing_verdicts_match_golden() {
    for (name, branches, divergent, [b, c, s, x]) in GOLDEN {
        let w = workloads::by_name(name).expect("golden name exists");
        let m = analyze(&w.kernel).metrics;
        assert_eq!(m.branches, branches, "{name}: branch count");
        assert_eq!(m.divergent_branches, divergent, "{name}: divergent branches");
        assert_eq!(
            [m.broadcast_accesses, m.coalesced_accesses, m.strided_accesses, m.scattered_accesses],
            [b, c, s, x],
            "{name}: coalescing classes"
        );
    }
}

#[test]
fn coalescing_classes_agree_with_the_divergence_tags() {
    // The per-pc classes must be consistent with the metrics rollup, and a
    // statically `Scattered` access must carry the conservative 32-request
    // bound the tracer cross-checks against.
    for w in workloads::all() {
        let a = analyze(&w.kernel);
        for access in a.coalescing.iter().flatten() {
            match access.class {
                CoalesceClass::Broadcast => assert_eq!(access.max_requests, 1, "{}", w.name),
                CoalesceClass::Coalesced => assert!(access.max_requests <= 4, "{}", w.name),
                CoalesceClass::Strided(k) => {
                    assert!(k > 8, "{}: small strides are Coalesced", w.name);
                }
                CoalesceClass::Scattered => assert_eq!(access.max_requests, 32, "{}", w.name),
            }
        }
    }
}

#[test]
fn uniform_branch_fast_path_traces_are_byte_identical() {
    for w in workloads::all() {
        let w = w.with_blocks(2);
        let fast = w.trace().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let slow = trace_kernel_cancellable(
            &w.kernel,
            w.launch,
            TraceOptions { uniform_branch_fast_path: false },
            &CancelToken::never(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (hf, hs) = (fnv1a(&io::encode(&fast)), fnv1a(&io::encode(&slow)));
        assert_eq!(hf, hs, "{}: fast-path trace diverged from reference", w.name);
    }
}
