//! Traced runs of every workload at tiny size, in their own process:
//! access-history timing must latch to `Full`.

mod common;

use common::{assert_emits, tiny};
use perfbench::{run_traced, workload, Answer, Kernel, Size, Slot, WORKLOADS};

#[test]
fn every_workload_emits_the_per_layer_metrics() {
    for seed in [1, 2] {
        for name in WORKLOADS {
            let bench = workload(name, Size::Tiny).expect("named workload");
            let rep = run_traced(&bench, &tiny(seed));
            assert_eq!(rep.fail_frac(), 0.0, "{name} seed {seed}: {:?}", rep.errors);
            assert_emits(&rep, "per_layer");
            let layer = |m: &str| rep.get(m).unwrap();
            assert!(layer("cilk.hooks") > 0.0 && layer("cilk.strands") > 0.0);
            assert!(layer("ivtree.ah_s") <= layer("core.flush_s"));
            let replayed = layer("batchdet.events_routed") > 0.0;
            assert_eq!(replayed, name == "replay", "{name}: offline tiers");
            assert_eq!(layer("core.witnesses") > 0.0, name == "racy");
        }
    }
}

#[test]
fn the_traced_run_checks_verdicts_too() {
    let mut bench = workload("fine-strands", Size::Tiny).expect("named workload");
    bench.slots[1] = Slot {
        kernel: Kernel::BuggyMerge { n: 256, overlap: 8 },
        answer: Answer::RaceFree,
    };
    let rep = run_traced(&bench, &tiny(1));
    assert!(rep.fail_frac() > 0.0 && !rep.correct());
}
