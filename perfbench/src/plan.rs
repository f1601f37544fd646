//! The seeded input generator: every workload's kernels, grids, design
//! points and requests come from here and from nothing else.
//!
//! The seed varies the job order, the design points, the request mix and
//! the kernel samples. A sample takes one kernel from each group of
//! kernels that share a divergence class and a generator with similar
//! parameters, so their trace, analysis and oracle costs are close. Two
//! seeds then exercise different kernels but the same kind and amount of
//! work, and their figures stay comparable (a plain per-class sample
//! moved throughput by ±35% from seed to seed).

use gpumech_isa::SimConfig;
use gpumech_trace::{splitmix64, workloads};

/// The seed when none is given (digests.txt covers seeds 1-10).
pub const DEFAULT_SEED: u64 = 1;

/// Default grid of the library (3x the Table I occupancy).
pub const FULL_BLOCKS: usize = 192;

/// Reduced grid of the oracle and service workloads: 2 resident blocks
/// per core on the 16-core Table I machine.
pub const REDUCED_BLOCKS: usize = 32;

/// Figure 16's kernels; `validate` always includes them.
pub const FIG16: [&str; 3] = ["cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping"];

/// DRAM- and divergence-bound kernels (the oracle's slow class at the
/// reduced grid); `validate` always includes them.
pub const DRAM_BOUND: [&str; 2] = ["streamcluster_pgain", "parboil_mri_gridding"];

/// Compute-bound or L1-hot kernels (the oracle's fast class); `validate`
/// always includes them.
pub const COMPUTE_BOUND: [&str; 2] = ["sdk_reduction", "parboil_mriq_computeQ"];

/// `design-sweep` samples one kernel per group: three groups per
/// divergence class.
pub const SWEEP_GROUPS: [&[&str]; 9] = [
    &["cfd_step_factor", "backprop_adjust_weights"],
    &["hotspot_calculate_temp", "parboil_stencil"],
    &["backprop_layerforward", "sdk_reduction"],
    &["srad_kernel1", "cfd_compute_flux", "parboil_cutcp"],
    &["lud_diagonal", "lud_perimeter", "heartwall_kernel"],
    &["nw_needle1", "gaussian_fan2", "sdk_sortingnetworks"],
    &["bfs_kernel1", "parboil_bfs"],
    &["parboil_sad_calc8", "parboil_sad_calc16"],
    &["streamcluster_pgain", "parboil_mri_gridding"],
];

/// Design points per kernel in `design-sweep` (each under both policies).
pub const SWEEP_POINTS: usize = 24;

/// Figure 13's resident-warps axis; every value is a distinct analysis key.
pub const SWEEP_WARPS: [usize; 4] = [8, 16, 32, 48];

/// `validate` adds one kernel per group to the always-included ones.
pub const VALIDATE_GROUPS: [&[&str]; 9] = [
    &["backprop_adjust_weights", "sdk_vectoradd"],
    &["hotspot_calculate_temp", "parboil_stencil"],
    &["parboil_sgemm", "sdk_matrixmul"],
    &["gaussian_fan1", "parboil_tpacf"],
    &["srad_kernel1", "parboil_cutcp"],
    &["lud_diagonal", "lud_perimeter", "heartwall_kernel"],
    &["nw_needle1", "gaussian_fan2", "sdk_sortingnetworks"],
    &["bfs_kernel1", "parboil_bfs"],
    &["parboil_sad_calc8", "parboil_sad_calc16"],
];

/// The kernels the service warms and serves, one or more per class.
pub const SERVE_KERNELS: [&str; 4] =
    ["cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping", "bfs_kernel1"];

/// Offered load of the service workload, requests per second: an eighth
/// to a fifth of one worker's capacity at the seed commit, depending on
/// how busy the shared host is (see README.md).
pub const SERVE_RATE_PER_S: f64 = 100.0;

/// One request in this many is an analysis-key miss, and one a bad
/// request (2% each); the rest are cache-hit predictions.
pub const SERVE_EVERY: usize = 50;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole library traced, analysed and predicted in one batch.
    ColdLibrary,
    /// A kernel sample crossed with Figure 13-15 design points.
    DesignSweep,
    /// Model against timing oracle on a kernel sample.
    Validate,
    /// Open-loop HTTP load on an in-process server.
    Serve,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [Kind::ColdLibrary, Kind::DesignSweep, Kind::Validate, Kind::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdLibrary => "cold-library",
            Kind::DesignSweep => "design-sweep",
            Kind::Validate => "validate",
            Kind::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Everything that defines the workload apart from the seed. Its hash
    /// stamps result files, so two results compare only when it matches.
    pub fn definition(self) -> String {
        let common = format!("v1 full={FULL_BLOCKS} reduced={REDUCED_BLOCKS}");
        match self {
            Kind::ColdLibrary => format!("{common} cold: all kernels, rr+gto, table1 neighbourhood"),
            Kind::DesignSweep => format!(
                "{common} sweep: {SWEEP_GROUPS:?} x {SWEEP_POINTS} points, warps={SWEEP_WARPS:?}"
            ),
            Kind::Validate => format!(
                "{common} validate: {FIG16:?} {DRAM_BOUND:?} {COMPUTE_BOUND:?} + {VALIDATE_GROUPS:?}"
            ),
            Kind::Serve => format!(
                "{common} serve: {SERVE_KERNELS:?} rate={SERVE_RATE_PER_S} every={SERVE_EVERY} \
                 workers=1"
            ),
        }
    }
}

/// Counter-based SplitMix64 stream; one per workload and purpose.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One kernel at one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Catalogue name.
    pub kernel: String,
    /// Grid size.
    pub blocks: usize,
    /// Machine configuration.
    pub cfg: SimConfig,
}

/// A Table I configuration moved within a small neighbourhood: DRAM
/// bandwidth within +-25%, MSHRs and resident warps one step either way.
fn table1_neighbour(rng: &mut Rng) -> SimConfig {
    SimConfig::table1()
        .with_dram_bandwidth(rng.pick(&[144.0, 168.0, 192.0, 216.0, 240.0]))
        .with_mshrs(rng.pick(&[24, 32, 48]))
        .with_warps_per_core(rng.pick(&[24, 32, 40]))
}

/// One seeded kernel from each group.
fn one_per_group(rng: &mut Rng, groups: &[&[&str]]) -> Vec<String> {
    groups.iter().map(|g| rng.pick(g).to_string()).collect()
}

/// `cold-library`: every kernel at the default grid, in seeded order, each
/// at its own Table I-neighbourhood configuration.
pub fn cold_library(seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 1);
    let mut kernels = workloads::all();
    rng.shuffle(&mut kernels);
    kernels
        .into_iter()
        .map(|w| Point { kernel: w.name, blocks: FULL_BLOCKS, cfg: table1_neighbour(&mut rng) })
        .collect()
}

/// One kernel of the design sweep and its points (in submission order).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepKernel {
    /// Catalogue name (traced at [`FULL_BLOCKS`]).
    pub kernel: String,
    /// Design points; each runs under both policies.
    pub points: Vec<SimConfig>,
}

/// `design-sweep`: one kernel from each of [`SWEEP_GROUPS`], each crossed
/// with [`SWEEP_POINTS`] points on the Figure 13-15 axes. Every
/// [`SWEEP_WARPS`] value appears once per kernel (a fresh analysis key,
/// so a cache miss); the other points keep Table I's warps and move only
/// prediction-stage fields (DRAM bandwidth, MSHRs), so they hit.
pub fn design_sweep(seed: u64) -> Vec<SweepKernel> {
    let mut rng = Rng::new(seed, 2);
    let mut kernels = one_per_group(&mut rng, &SWEEP_GROUPS);
    rng.shuffle(&mut kernels);
    let table1_warps = SimConfig::table1().max_warps_per_core;
    kernels
        .into_iter()
        .map(|kernel| {
            let mut points: Vec<SimConfig> = (0..SWEEP_POINTS)
                .map(|i| {
                    let warps = SWEEP_WARPS.get(i).copied().unwrap_or(table1_warps);
                    SimConfig::table1()
                        .with_warps_per_core(warps)
                        .with_dram_bandwidth(64.0 + 8.0 * rng.below(25) as f64)
                        .with_mshrs(rng.pick(&[32, 64, 96, 128, 192, 256]))
                })
                .collect();
            rng.shuffle(&mut points);
            SweepKernel { kernel, points }
        })
        .collect()
}

/// `validate`: Figure 16's trio, the DRAM-bound and compute-bound
/// representatives, and one kernel from each of [`VALIDATE_GROUPS`], at
/// the reduced grid with one seeded design point each.
pub fn validate(seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 3);
    let mut names: Vec<String> =
        FIG16.iter().chain(&DRAM_BOUND).chain(&COMPUTE_BOUND).map(|s| (*s).to_string()).collect();
    names.extend(one_per_group(&mut rng, &VALIDATE_GROUPS));
    rng.shuffle(&mut names);
    names
        .into_iter()
        .map(|kernel| {
            let cfg = SimConfig::table1()
                .with_dram_bandwidth(rng.pick(&[176.0, 192.0, 208.0]))
                .with_mshrs(rng.pick(&[32, 48]));
            Point { kernel, blocks: REDUCED_BLOCKS, cfg }
        })
        .collect()
}

/// What a service request should get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A prediction whose body equals the in-process rendering.
    Prediction,
    /// An error with this status.
    Status(u16),
}

/// The class of a service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Varies only prediction-stage fields of a warmed kernel.
    Hit,
    /// Changes `warps` to a value not yet seen for the kernel.
    Miss,
    /// Unknown kernel (404) or invalid configuration (422).
    Bad,
}

/// One service request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Due time, seconds after the load starts.
    pub due_s: f64,
    /// `POST /predict` JSON body.
    pub body: String,
    /// Request class.
    pub class: Class,
    /// Expected outcome.
    pub expect: Expect,
}

impl Request {
    /// The exact bytes sent on the wire.
    pub fn wire_bytes(&self) -> Vec<u8> {
        format!(
            "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// The body of a default prediction for `kernel` at the reduced grid.
pub fn warm_body(kernel: &str) -> String {
    format!("{{\"kernel\":\"{kernel}\",\"blocks\":{REDUCED_BLOCKS}}}")
}

/// `serve`: the warm-up bodies and an open-loop schedule of `count`
/// requests sent at the fixed rate [`SERVE_RATE_PER_S`].
///
/// Every [`SERVE_EVERY`]-th request is a miss and, half a period later,
/// one is bad; both rotate over the served kernels. So every seed has the
/// same miss and error load; the seed picks the hit requests' kernels and
/// fields, and the phase of the pattern.
///
/// A kernel's n-th miss asks for `warps` = Table I's + 1 + n: never seen
/// before, so it really misses, and the same sequence for every seed. (A
/// seeded draw from 1-128 made the analysis cost of the misses, which set
/// p99, differ from seed to seed.)
pub fn serve(seed: u64, count: usize) -> (Vec<String>, Vec<Request>) {
    let mut rng = Rng::new(seed, 4);
    let warm: Vec<String> = SERVE_KERNELS.iter().map(|k| warm_body(k)).collect();
    let mut next_warps = [SimConfig::table1().max_warps_per_core + 1; SERVE_KERNELS.len()];
    let phase = rng.below(SERVE_EVERY);
    let out = (0..count)
        .map(|i| {
            let due_s = (i + 1) as f64 / SERVE_RATE_PER_S;
            let slot = (i + phase) % SERVE_EVERY;
            let turn = (i + phase) / SERVE_EVERY;
            let k = turn % SERVE_KERNELS.len();
            let kernel = SERVE_KERNELS[k];
            let (class, body, expect) = if slot == 0 {
                let warps = next_warps[k];
                next_warps[k] += 1;
                let body = format!("{{\"kernel\":\"{kernel}\",\"blocks\":{REDUCED_BLOCKS},\"warps\":{warps}}}");
                (Class::Miss, body, Expect::Prediction)
            } else if slot == SERVE_EVERY / 2 && turn.is_multiple_of(2) {
                let body = format!("{{\"kernel\":\"no_such_{kernel}\",\"blocks\":{REDUCED_BLOCKS}}}");
                (Class::Bad, body, Expect::Status(404))
            } else if slot == SERVE_EVERY / 2 {
                let body = format!("{{\"kernel\":\"{kernel}\",\"blocks\":{REDUCED_BLOCKS},\"mshrs\":0}}");
                (Class::Bad, body, Expect::Status(422))
            } else {
                let body = format!(
                    "{{\"kernel\":\"{}\",\"blocks\":{REDUCED_BLOCKS},\"bw\":{:.1},\"mshrs\":{},\"sfu\":{},\"policy\":\"{}\"}}",
                    rng.pick(&SERVE_KERNELS),
                    rng.pick(&[128.0, 160.0, 192.0, 224.0, 256.0]),
                    rng.pick(&[16, 24, 32, 48, 64]),
                    rng.pick(&[8, 16, 32]),
                    rng.pick(&["rr", "gto"]),
                );
                (Class::Hit, body, Expect::Prediction)
            };
            Request { due_s, body, class, expect }
        })
        .collect();
    (warm, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumech_serve::parse_predict_body;
    use gpumech_trace::DivergenceClass;

    const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

    fn render(seed: u64) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            cold_library(seed),
            design_sweep(seed),
            validate(seed),
            serve(seed, 2000)
        )
    }

    fn class_of(name: &str) -> DivergenceClass {
        workloads::by_name(name).map(|w| w.divergence).expect("catalogue kernel")
    }

    #[test]
    fn groups_are_catalogue_kernels_of_one_class() {
        for group in SWEEP_GROUPS.iter().chain(&VALIDATE_GROUPS) {
            let class = class_of(group[0]);
            assert!(group.iter().all(|k| class_of(k) == class), "{group:?}");
        }
        for k in FIG16.iter().chain(&DRAM_BOUND).chain(&COMPUTE_BOUND) {
            assert!(!VALIDATE_GROUPS.iter().any(|g| g.contains(k)), "{k} is always in validate");
        }
        for k in SERVE_KERNELS {
            class_of(k);
        }
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        assert_eq!(render(DEFAULT_SEED), render(DEFAULT_SEED));
        assert_ne!(render(DEFAULT_SEED), render(DEFAULT_SEED + 1));
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }

    fn all_configs(seed: u64) -> Vec<SimConfig> {
        let mut cfgs: Vec<SimConfig> = cold_library(seed).into_iter().map(|p| p.cfg).collect();
        cfgs.extend(design_sweep(seed).into_iter().flat_map(|k| k.points));
        cfgs.extend(validate(seed).into_iter().map(|p| p.cfg));
        cfgs
    }

    fn check_coverage(seed: u64) {
        // Every generated configuration is valid.
        for cfg in all_configs(seed) {
            assert!(cfg.validate().is_ok(), "seed {seed}: {cfg:?}");
        }

        // cold-library: the whole catalogue, once each.
        let cold = cold_library(seed);
        let mut names: Vec<String> = cold.iter().map(|p| p.kernel.clone()).collect();
        names.sort();
        let mut all: Vec<String> = workloads::all().into_iter().map(|w| w.name).collect();
        all.sort();
        assert_eq!(names, all, "seed {seed}");

        // design-sweep: every divergence class, and a miss share.
        let sweep = design_sweep(seed);
        for class in [DivergenceClass::Coalesced, DivergenceClass::Medium, DivergenceClass::High] {
            assert!(sweep.iter().any(|k| class_of(&k.kernel) == class), "seed {seed}: {class:?}");
        }
        for k in &sweep {
            let mut warps: Vec<usize> = k.points.iter().map(|c| c.max_warps_per_core).collect();
            warps.sort_unstable();
            warps.dedup();
            assert_eq!(warps, SWEEP_WARPS.to_vec(), "seed {seed}: {}", k.kernel);
            assert!(k.points.len() > warps.len(), "seed {seed}: hits as well as misses");
        }

        // validate: the fixed kernels and every class, no duplicates.
        let val = validate(seed);
        let names: Vec<&str> = val.iter().map(|p| p.kernel.as_str()).collect();
        for must in FIG16.iter().chain(&DRAM_BOUND).chain(&COMPUTE_BOUND) {
            assert!(names.contains(must), "seed {seed}: {must}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "seed {seed}");
        assert!(val.iter().all(|p| p.blocks == REDUCED_BLOCKS));

        // serve: hits dominate, misses and bad requests both present,
        // every body parses, and misses never repeat a warps value.
        let (warm, reqs) = serve(seed, 4000);
        assert_eq!(warm.len(), SERVE_KERNELS.len());
        let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
        assert!(count(Class::Hit) > 9 * reqs.len() / 10, "seed {seed}");
        assert!(count(Class::Miss) > 0 && count(Class::Bad) > 0, "seed {seed}");
        let mut misses: Vec<&str> =
            reqs.iter().filter(|r| r.class == Class::Miss).map(|r| r.body.as_str()).collect();
        misses.sort_unstable();
        let n = misses.len();
        misses.dedup();
        assert_eq!(misses.len(), n, "seed {seed}: a repeated miss would hit");
        for r in warm.iter().chain(reqs.iter().map(|r| &r.body)) {
            assert!(parse_predict_body(r.as_bytes()).is_ok(), "{r}");
        }
        assert!(reqs.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn samples_keep_their_coverage_rules() {
        for seed in 0..8 {
            check_coverage(seed);
        }
    }

    #[test]
    fn claims_hold_on_a_held_out_seed() {
        check_coverage(HELD_OUT_SEED);
        assert_ne!(render(HELD_OUT_SEED), render(DEFAULT_SEED));
    }
}
