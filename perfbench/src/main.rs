//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`). A human-readable summary goes to standard error.

use perfbench::{run_traced, run_untraced, workload, Settings, Size, WORKLOADS};

/// Independent set-ups per untraced run; their median is `setup_s`.
const SETUPS: usize = 5;
/// Timed passes per run, at least.
const MIN_PASSES: usize = 3;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad(flag: &str, val: &str) -> ! {
    usage(&format!("bad value {val:?} for {flag}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => name = Some(val.clone()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| bad(flag, val)),
            "--seconds" => seconds = val.parse::<f64>().unwrap_or_else(|_| bad(flag, val)),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, val),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    let bench =
        workload(&name, Size::Full).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let settings = Settings {
        seed,
        seconds,
        min_passes: MIN_PASSES,
        setups: SETUPS,
    };
    let report = if trace {
        run_traced(&bench, &settings)
    } else {
        run_untraced(&bench, &settings)
    };
    let mut pass_s = report.pass_s.clone();
    pass_s.sort_by(f64::total_cmp);
    eprintln!(
        "{} seed {seed} trace {}: {} passes (min {:.4} s, max {:.4} s), {} ops",
        bench.name,
        u8::from(trace),
        pass_s.len(),
        pass_s.first().copied().unwrap_or(0.0),
        pass_s.last().copied().unwrap_or(0.0),
        report.attempted,
    );
    if !trace {
        eprintln!("  {:<28} {:>16.6} s", "detect_s", report.detect_s());
    }
    eprintln!("  {:<28} {:>16.6} frac", "fail_frac", report.fail_frac());
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("  FAILED {e}");
    }
    println!("{}", report.to_json());
}
