//! Pins the trace record's outward identity across layout changes: for
//! every bundled workload at 2 blocks, the content fingerprint (cache keys,
//! journal resume and shard ownership hash it), the binary encoding and the
//! JSON interchange form must hash to the values recorded when each warp
//! stored one heap record per instruction. A JSON trace written by that
//! layout must also still load, and equal a fresh trace of its kernel.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_exec::trace_fingerprint;
use gpumech_isa::{AddrPattern, Kernel, KernelBuilder, Operand, ValueOp};
use gpumech_trace::{io, trace_kernel, workloads, LaunchConfig};

/// `(workload, trace_fingerprint, FNV-1a of io::encode, FNV-1a of
/// io::to_json)`, in catalogue order, at 2 blocks.
const PINS: &[(&str, u64, u64, u64)] = &[
    ("srad_kernel1", 0x1e7ca39f6d81ca78, 0x674e8cae65d030be, 0xe68bc9a82f85a666),
    ("srad_kernel2", 0xed456cf98175f6c0, 0x94b409143c419f67, 0x0fc05484ad352c84),
    ("kmeans_invert_mapping", 0x856d7effca61d137, 0xb77dc71a8cd7bd56, 0x3b199e3140c80e3b),
    ("kmeans_kmeans_point", 0x3c728e9d7f64146e, 0xeaa4e5e0409d2113, 0x4f63c4daacc09094),
    ("cfd_step_factor", 0x18c468ed8837ccae, 0x33c70039b58bc5dc, 0xca7d2350baf24d75),
    ("cfd_compute_flux", 0xe60a1b9b03a8edb8, 0xc103b3f9822ddb18, 0x61a3184d736ea145),
    ("bfs_kernel1", 0x8b9e03bfa012ecf9, 0x345beb90cadca345, 0xe20b785e26324e57),
    ("bfs_kernel2", 0x89f0ea09a49af4f4, 0xf80bef4863ee594c, 0x3e49181d7f17121d),
    ("hotspot_calculate_temp", 0x9c9afece9858059d, 0xf786ae118b9de9d4, 0xa2c87a3ba0cffdb1),
    ("pathfinder_dynproc", 0x4ff05278a0e7a52a, 0x7c3fa00306d20c38, 0x9d1cb77be3f84b10),
    ("lud_diagonal", 0x10ee65b21c2d08e8, 0xd028c270baf7c10c, 0x62f06cb9b5ccc768),
    ("lud_perimeter", 0x7c23ebf5b576023d, 0xa8a8fd4199ec3a0f, 0xb4b972f5aa17b0a1),
    ("nw_needle1", 0x356bc4d09a9f949b, 0xb8b1c70ab3703ece, 0x81da1c3367c59208),
    ("backprop_layerforward", 0x991908d55c183b03, 0x5e37a9e4daf15b5f, 0x3c2c0d62604a166e),
    ("backprop_adjust_weights", 0x9ea47edc00bfb202, 0x9e2b5534d34f04da, 0xdf24f3e09128a58a),
    ("streamcluster_pgain", 0x82d0e0aa453d2cc0, 0x165e77f3e5cf2ae1, 0xda2b86d9a8140ba3),
    ("heartwall_kernel", 0x1f4e324ebfb08186, 0x9a8d0159ceed7511, 0x8d6e0abff62bfe85),
    ("gaussian_fan1", 0x79d84c40d12e6d61, 0x4bc07e044c6866c2, 0xf2c29a18cced85dc),
    ("gaussian_fan2", 0x1b52a418c9b33b66, 0xc9be032c21564127, 0x39ae00ce22546e4a),
    ("leukocyte_dilate", 0x3ea583db37d4d208, 0x8cc63bae8d7abb06, 0xa62c306ba7259dad),
    ("parboil_sgemm", 0x357048d046690d12, 0x0b98af2a044c342f, 0x2ee5345b53bb3975),
    ("parboil_spmv", 0x52640d6d3dac1fa0, 0x942be5e866df52b1, 0x3344e22ab8ac7b27),
    ("parboil_stencil", 0x4831e3f8ad868c09, 0xfceff97ea739566e, 0x26121f820d412e72),
    ("parboil_sad_calc8", 0x9f1cd9079179d359, 0x2b198ec73708fd30, 0x77c60c0a6687988f),
    ("parboil_sad_calc16", 0x582a4275627602eb, 0x9294dd0e70ff4f3e, 0xa27b3ca6695d5a5c),
    ("parboil_histo_main", 0x9f5d011980a0d0b3, 0xd2ceab93020eb105, 0xb954215e0201a9ae),
    ("parboil_lbm", 0x0166c9a21b1cefd4, 0x606858d67bbbeb7f, 0x9259805f742125ac),
    ("parboil_mriq_computeQ", 0x7794db293f96bcc5, 0x05edf4153b7d85a2, 0x6ef910fb17f7b7e3),
    ("parboil_mri_gridding", 0xc41ce37924a66e41, 0x8c0a2be97ee641df, 0xd401f38910d81c05),
    ("parboil_tpacf", 0xebe18bbfde35bdd3, 0x96eadf4c7ad55ac6, 0x53860d6c96ca8714),
    ("parboil_cutcp", 0x3fd84f309173ccc4, 0x04192da618859f04, 0xd8b32721bed91edb),
    ("parboil_bfs", 0x74e4909b3673e78f, 0x55cc7d03a6b22747, 0x21d961111c68ffd6),
    ("sdk_vectoradd", 0xbdd8b2d6c311492d, 0x46c9043ecc42fc5f, 0x68dad52c33f8b9ac),
    ("sdk_matrixmul", 0xbdb0fe05b29dac33, 0xd02af7955f4bc068, 0xfc395da4376b6609),
    ("sdk_transpose", 0xe970730ad5025d49, 0x1df1d4ea1957931e, 0x459446e5a9b863c6),
    ("sdk_reduction", 0x9407a98721db97cb, 0x3781171002307734, 0xe582593533117179),
    ("sdk_blackscholes", 0xac22aa8bce9b4473, 0x146a47342f05d798, 0xe135b60a09b14ede),
    ("sdk_montecarlo", 0x0d53de7d9634d57d, 0xd3996ea15340a5c6, 0x83cb4a5154cc29f2),
    ("sdk_convsep", 0xd4c4b8c93bf02828, 0xbbce59869b7c887d, 0x0cc72fff008d7b73),
    ("sdk_sortingnetworks", 0x44f7421b8c00a583, 0xec7db5bbd8de2606, 0x723b64444664384a),
];

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fingerprints_and_both_encodings_are_pinned_for_every_workload() {
    let all = workloads::all();
    assert_eq!(all.len(), PINS.len(), "catalogue size changed");
    let mut moved = Vec::new();
    for (w, &(name, fp, bin, json)) in all.into_iter().zip(PINS) {
        assert_eq!(w.name, name, "catalogue order changed");
        let t = w.with_blocks(2).trace().unwrap();
        let got = (
            trace_fingerprint(&t),
            fnv1a(&io::encode(&t)),
            fnv1a(io::to_json(&t).unwrap().as_bytes()),
        );
        if got != (fp, bin, json) {
            moved.push(format!("{name}: got {got:016x?}, pinned {:016x?}", (fp, bin, json)));
        }
    }
    assert!(moved.is_empty(), "trace identity moved:\n{}", moved.join("\n"));
}

/// The kernel `data/identity_fixture.json` was traced from (64 threads,
/// 1 block): a load, a lane-divergent branch guarding a dependent add and
/// a strided store, and a reconverged add.
fn fixture_kernel() -> Kernel {
    let mut b = KernelBuilder::new("identity_fixture");
    let x = b.load_pattern(AddrPattern::Coalesced { base: 0x1000_0000, elem_bytes: 4 });
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
    b.if_begin(Operand::Reg(c));
    let y = b.fp_add(&[Operand::Reg(x), Operand::Reg(c)]);
    b.store_pattern(AddrPattern::Strided { base: 0x2000_0000, stride_bytes: 128 }, Operand::Reg(y));
    b.if_end();
    let _ = b.fp_add(&[Operand::Reg(x), Operand::Imm(1)]);
    b.finish(vec![])
}

#[test]
fn a_json_trace_written_by_the_row_layout_still_loads_equal() {
    let json = include_str!("data/identity_fixture.json");
    let loaded = io::from_json(json).unwrap();
    let fresh = trace_kernel(&fixture_kernel(), LaunchConfig::new(64, 1)).unwrap();
    assert_eq!(loaded, fresh);
    assert_eq!(io::to_json(&loaded).unwrap(), json, "re-serializing changed the bytes");
    assert_eq!(io::decode(&io::encode(&loaded)).unwrap(), loaded);
}
