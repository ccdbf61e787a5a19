//! Golden digests of the DSE output. Each digest is the FNV-1a hash of a
//! flow's full `DseResult` Debug string (configuration, report, fitness
//! history and convergence iteration), so any change to the search that
//! moves one output bit fails here. `Parallelism::for_target`, the GetPF
//! step every in-branch search call runs, is pinned on its own over a grid
//! of targets on every stage of the shipped networks.
//!
//! Every digest was recorded on the in-branch search as it was before it
//! became incremental (per-stage lane tables, cached unit costs), so they
//! pin that rewrite to byte-identical output. The paper-scale flows
//! (P=200, N=20) and the full `for_target` grid are `#[ignore]`d, with a
//! sampled grid in their place in the default run; CI runs them in
//! release mode with `--include-ignored`.

use fcad::{Customization, DseParams, Fcad};
use fcad_accel::{ConvStage, Parallelism, Platform};
use fcad_nnir::models::{alexnet, targeted_decoder, tiny_yolo, vgg16, zfnet};
use fcad_nnir::{models, Network, Precision};
use fcad_profiler::NetworkProfile;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn dse_digest(
    network: Network,
    platform: Platform,
    customization: Customization,
    params: DseParams,
) -> u64 {
    let result = Fcad::new(network, platform)
        .with_customization(customization)
        .with_dse_params(params)
        .run()
        .expect("flow succeeds");
    fnv1a(format!("{:?}", result.dse).as_bytes())
}

/// Compares every `(label, digest)` against its golden value and reports
/// all mismatches at once.
fn assert_digests(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    assert_eq!(actual.len(), golden.len(), "case count");
    let mismatches: Vec<String> = actual
        .iter()
        .zip(golden)
        .filter(|((label, digest), (name, want))| label != name || digest != want)
        .map(|((label, digest), (name, want))| {
            format!("{label}: {digest:#018x} (golden {name}: {want:#018x})")
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The Fig. 6/7 study: eight single-branch flows on KU115 at the harness
/// setting (P=48, N=12).
#[test]
fn classic_flows_match_their_golden_digests() {
    const GOLDEN: [(&str, u64); 8] = [
        ("alexnet_16-bit", 0x61c0_1d28_c23a_ee30),
        ("zfnet_16-bit", 0xefa6_9810_cea2_9519),
        ("vgg16_16-bit", 0x81e8_e809_202b_ff59),
        ("tiny-yolo_16-bit", 0xdba4_78a3_f986_518e),
        ("alexnet_8-bit", 0xb010_b48f_ab6b_e443),
        ("zfnet_8-bit", 0x6ef7_8f70_cda9_000f),
        ("vgg16_8-bit", 0x4666_82fb_fa2e_4414),
        ("tiny-yolo_8-bit", 0xf98c_175c_801f_ac2e),
    ];
    let params = DseParams {
        population: 48,
        iterations: 12,
        ..DseParams::paper()
    };
    let mut actual = Vec::new();
    for precision in [Precision::Int16, Precision::Int8] {
        for network in models::classic_benchmarks() {
            let label = format!("{}_{precision}", network.name());
            let digest = dse_digest(
                network,
                Platform::ku115(),
                Customization::uniform(1, precision),
                params,
            );
            actual.push((label, digest));
        }
    }
    assert_digests(&actual, &GOLDEN);
}

/// Table IV Cases 2 (ZU17EG, 8-bit) and 5 (ZU9CG, 16-bit) on the decoder
/// with the codec-avatar customization.
fn decoder_digests(params: DseParams) -> Vec<(String, u64)> {
    [
        ("case2", Platform::zu17eg(), Precision::Int8, 2),
        ("case5", Platform::zu9cg(), Precision::Int16, 5),
    ]
    .into_iter()
    .map(|(label, platform, precision, seed)| {
        let digest = dse_digest(
            targeted_decoder(),
            platform,
            Customization::codec_avatar(precision),
            params.with_seed(seed),
        );
        (label.to_owned(), digest)
    })
    .collect()
}

#[test]
fn table4_cases_match_their_golden_digests() {
    let params = DseParams {
        population: 24,
        iterations: 10,
        ..DseParams::paper()
    };
    assert_digests(
        &decoder_digests(params),
        &[
            ("case2", 0x95d1_f856_64f6_fb7c),
            ("case5", 0xdb61_9c54_0971_a39e),
        ],
    );
}

#[test]
#[ignore = "paper scale (P=200, N=20); run in release with --include-ignored"]
fn table4_cases_at_paper_scale_match_their_golden_digests() {
    assert_digests(
        &decoder_digests(DseParams::paper()),
        &[
            ("case2", 0x563e_267f_a190_0571),
            ("case5", 0xb528_4950_5d54_0b00),
        ],
    );
}

/// Every fused stage of every branch of the shipped networks (the mimic
/// decoder has the targeted decoder's geometry).
fn shipped_stages() -> Vec<ConvStage> {
    [targeted_decoder(), alexnet(), zfnet(), vgg16(), tiny_yolo()]
        .iter()
        .flat_map(|network| {
            NetworkProfile::of(network)
                .branches()
                .iter()
                .flat_map(ConvStage::stages_of_branch)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Digest of `for_target` on every shipped stage for each of `targets`.
fn for_target_digest(targets: impl Fn(&ConvStage) -> Vec<usize>) -> u64 {
    let mut bytes = Vec::new();
    for stage in shipped_stages() {
        for target in targets(&stage) {
            let p = Parallelism::for_target(&stage, target);
            for factor in [p.cpf, p.kpf, p.h] {
                bytes.extend_from_slice(&(factor as u64).to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// `targets`, then every power of two up to the stage's maximum lanes.
fn grid_digest(targets: impl Iterator<Item = usize> + Clone) -> u64 {
    for_target_digest(|stage| {
        let max = Parallelism::max_for(stage).total();
        targets
            .clone()
            .chain(
                (0..usize::BITS)
                    .map(|k| 1usize << k)
                    .take_while(|&t| t <= max),
            )
            .collect()
    })
}

/// A sample of the full grid below: every 17th target of 1..=4096 (a
/// stride that visits every residue modulo 16, so odd, even and
/// multiple-of-16 targets all appear) plus the powers of two. Its digest
/// was recorded on code that passes the full grid's digest.
#[test]
fn for_target_matches_its_golden_digest_over_a_target_grid() {
    let digest = grid_digest((1..=4096).step_by(17));
    assert_eq!(
        digest, 0xe55b_3c94_0f66_009e,
        "sampled grid digest {digest:#018x}"
    );
}

#[test]
#[ignore = "~250k one-shot calls, slow in debug; run in release with --include-ignored"]
fn for_target_matches_its_golden_digest_over_the_full_target_grid() {
    let digest = grid_digest(1..=4096);
    assert_eq!(digest, 0xb940_e550_a2a0_cabd, "grid digest {digest:#018x}");
}

/// The old scan overflowed at `h_ideal + 1` on this target in debug
/// builds; this digest was recorded in a release build, where it wrapped.
#[test]
fn for_target_matches_its_golden_digest_at_usize_max() {
    let digest = for_target_digest(|_| vec![usize::MAX]);
    assert_eq!(
        digest, 0x7e1b_9654_47da_223f,
        "usize::MAX digest {digest:#018x}"
    );
}
