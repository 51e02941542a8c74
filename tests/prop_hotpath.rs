//! Hot-path differential property tests: the optimized detector paths
//! (batched STINT flush and page-batched shadow replay, strand-local
//! reachability memoization) must report exactly the racy words the legacy
//! paths report, for every variant, on proptest-generated fork-join programs
//! (with shrinking to a small witness on failure).

use proptest::prelude::*;
use stint_repro::{detect_with, Config, HotPath, Variant};
use stint_spdag::simulate;

mod common;
use common::{func_strategy, AstProgram};

const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

/// Every knob combination that changes behavior. `gated_timing` only moves
/// clock reads, so it rides along at its default.
const HOT_CONFIGS: [HotPath; 3] = [
    HotPath {
        batched: true,
        reach_cache: false,
        gated_timing: true,
    },
    HotPath {
        batched: false,
        reach_cache: true,
        gated_timing: true,
    },
    HotPath {
        batched: true,
        reach_cache: true,
        gated_timing: true,
    },
];

fn racy_words(f: &stint_spdag::Func, v: Variant, hot: HotPath) -> Vec<u64> {
    let mut cfg = Config::new(v);
    cfg.hot = hot;
    detect_with(&mut AstProgram(f), cfg).report.racy_words()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Legacy and optimized paths agree (and match the oracle) for every
    /// variant and every hot-path knob combination.
    #[test]
    fn hot_paths_match_legacy(f in func_strategy(3)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        let expected = sim.racy_words();
        for v in VARIANTS {
            let legacy = racy_words(&f, v, HotPath::LEGACY);
            prop_assert_eq!(&legacy, &expected, "legacy {} diverged from oracle", v);
            for hot in HOT_CONFIGS {
                let got = racy_words(&f, v, hot);
                prop_assert_eq!(
                    &got, &legacy,
                    "variant {} with {:?} diverged from legacy", v, hot
                );
            }
        }
    }
}
