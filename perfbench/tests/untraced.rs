//! End-to-end runs of every workload at tiny size. One process: access-
//! history timing latches to the untraced run's mode.

mod common;

use common::{assert_emits, tiny};
use perfbench::{run_untraced, workload, Answer, Kernel, Size, Slot, WORKLOADS};

#[test]
fn every_workload_emits_the_end_to_end_metrics_and_fails_nothing() {
    for seed in [1, 2] {
        for name in WORKLOADS {
            let bench = workload(name, Size::Tiny).expect("named workload");
            let rep = run_untraced(&bench, &tiny(seed));
            assert!(rep.correct(), "{name} seed {seed}: {:?}", rep.errors);
            assert!(rep.attempted >= 2 * bench.slots.len() as u64);
            assert_eq!(rep.fail_frac(), 0.0);
            assert_eq!(rep.get("ok_frac"), Some(1.0));
            assert!(rep.detect_s() > 0.0);
            assert_emits(&rep, "end_to_end");
        }
    }
}

#[test]
fn a_planted_wrong_answer_raises_fail_frac() {
    let racy_in_race_free_slot = Slot {
        kernel: Kernel::BuggyMmul { n: 16, b: 4 },
        answer: Answer::RaceFree,
    };
    let race_free_in_racy_slot = Slot {
        kernel: Kernel::Mmul { n: 16, b: 4 },
        answer: Answer::Racy,
    };
    for (name, plant) in [
        ("word-hooks", racy_in_race_free_slot),
        ("replay", racy_in_race_free_slot),
        ("racy", race_free_in_racy_slot),
    ] {
        let mut bench = workload(name, Size::Tiny).expect("named workload");
        bench.slots[0] = plant;
        let rep = run_untraced(&bench, &tiny(3));
        assert!(!rep.correct(), "{name}: planted answer went unnoticed");
        assert!(rep.fail_frac() > 0.0 && rep.get("ok_frac").unwrap() < 1.0);
        assert!(rep.to_json().contains("\"correct\": false"));
    }
}

#[test]
fn closed_form_racy_words_match_the_seeded_bugs() {
    assert_eq!(
        Kernel::BuggyMmul { n: 256, b: 8 }.racy_word_count(),
        Some(131_072)
    );
    assert_eq!(
        Kernel::BuggyHeat {
            n: 1024,
            steps: 20,
            b: 16
        }
        .racy_word_count(),
        Some(4_177_936)
    );
    assert_eq!(
        Kernel::BuggyMerge {
            n: 1 << 20,
            overlap: 4096
        }
        .racy_word_count(),
        Some(8_192)
    );
    assert_eq!(Kernel::Mmul { n: 256, b: 8 }.racy_word_count(), None);
}
