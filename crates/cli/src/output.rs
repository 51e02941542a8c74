//! Human-readable rendering of outcomes and reports, plus the `--stats-json`
//! machine-readable dump.

use stint::obs::json_escape;
use stint::{Outcome, RaceReport};

pub fn print_outcome(bench: &str, o: &Outcome) {
    println!("{bench} under {}:", o.variant);
    println!("  wall time:        {:?}", o.wall);
    println!(
        "  strands:          {} ({} spawns, {} syncs)",
        o.strands, o.counters.spawns, o.counters.effective_syncs
    );
    println!(
        "  word accesses:    {} reads, {} writes",
        o.stats.read.words, o.stats.write.words
    );
    println!(
        "  intervals:        {} reads, {} writes",
        o.stats.read.intervals, o.stats.write.intervals
    );
    if o.stats.treap.ops > 0 {
        println!(
            "  treap:            {} ops, {:.1} nodes/op, {:.2} overlaps/op, {:.0}% exact hits",
            o.stats.treap.ops,
            o.stats.treap.avg_visited(),
            o.stats.treap.avg_overlaps(),
            100.0 * o.stats.treap.exact_hit_rate()
        );
    }
    if o.stats.hash_ops > 0 {
        println!("  hashmap ops:      {}", o.stats.hash_ops);
    }
    if o.stats.ah_time.as_nanos() > 0 {
        println!("  access-hist time: {:?}", o.stats.ah_time);
    }
    print_report(&o.report, 10);
}

/// Render a batch run: the sharded-phase timing, routing summary, and the
/// merged (per-word-normalized) report.
pub fn print_batch_outcome(bench: &str, out: &stint_batchdet::BatchOutcome) {
    println!("{bench} under batch ({} shard(s)):", out.shards.len());
    println!("  sharded phase:    {:?}", out.wall);
    println!(
        "  trace:            {} events over {} strands",
        out.events, out.strands
    );
    let routed: u64 = out.shards.iter().map(|s| s.events).sum();
    println!("  routed:           {routed} shard-events");
    if let Some(ing) = &out.ingest {
        let secs = out.wall.as_secs_f64();
        let mibps = if secs > 0.0 {
            ing.bytes as f64 / (1024.0 * 1024.0) / secs
        } else {
            0.0
        };
        println!(
            "  ingest:           {} bytes, {} chunk(s), {} run(s) \
             ({} wholesale), {mibps:.1} MiB/s",
            ing.bytes, ing.chunks, ing.runs, ing.wholesale_runs
        );
    }
    println!(
        "  intervals:        {} reads, {} writes (summed over shards)",
        out.stats.read.intervals, out.stats.write.intervals
    );
    let report = out.merged.to_report();
    print_report(&report, 10);
}

pub fn print_report(report: &RaceReport, max: usize) {
    if report.is_race_free() {
        println!("  races:            none — race free \u{2713}");
        return;
    }
    println!(
        "  races:            {} report(s), {} distinct racy word(s)",
        report.total,
        report.racy_words().len()
    );
    // Detail records dropped at the report cap are surfaced explicitly —
    // a capped report must never read as a complete one.
    if report.truncated() {
        println!(
            "  truncated:        detail capped at {} of {} report(s)",
            report.races().len(),
            report.total
        );
    }
    for race in report.races().iter().take(max) {
        println!("    {race}");
        if let Some(w) = &race.witness {
            println!("      witness: {w}");
        }
    }
    let shown = report.races().len().min(max);
    if (report.total as usize) > shown {
        println!("    ... and {} more", report.total as usize - shown);
    }
}

/// Write the run(s) of one `detect` invocation as JSON. The per-run `stats`
/// object is generated from [`stint::DetectorStats::fields`] — the same
/// source the observability registry is fed from — so this dump, the figure
/// tables and `--metrics-out` can never disagree. `gauges` is the
/// process-wide space-gauge snapshot (current value and high watermark) at
/// dump time; it is empty when observability is off.
///
/// ```json
/// {
///   "schema": "stint-stats-v1",
///   "bench": "fft",
///   "gauges": { "ivtree.bytes": { "current": 0, "hw": 4096 } },
///   "runs": [ { "variant": "STINT", "wall_ns": 1, "ah_time_ns": 0,
///               "strands": 3, "spawns": 1, "syncs": 1, "races": 0,
///               "racy_words": 0, "degraded": null,
///               "stats": { "detector.read_hooks": 2, ... } } ]
/// }
/// ```
pub fn write_stats_json(path: &str, bench: &str, outcomes: &[Outcome]) -> Result<(), String> {
    use std::io::Write;
    let f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(f);
    let mut emit = || -> std::io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"stint-stats-v1\",")?;
        writeln!(w, "  \"bench\": \"{}\",", json_escape(bench))?;
        let gauges = stint::obs::gauges_snapshot();
        writeln!(w, "  \"gauges\": {{")?;
        for (i, (name, current, hw)) in gauges.iter().enumerate() {
            let comma = if i + 1 < gauges.len() { "," } else { "" };
            writeln!(
                w,
                "    \"{}\": {{ \"current\": {current}, \"hw\": {hw} }}{comma}",
                json_escape(name)
            )?;
        }
        writeln!(w, "  }},")?;
        writeln!(w, "  \"runs\": [")?;
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(w, "    {{")?;
            writeln!(
                w,
                "      \"variant\": \"{}\",",
                json_escape(o.variant.name())
            )?;
            writeln!(w, "      \"wall_ns\": {},", o.wall.as_nanos())?;
            writeln!(w, "      \"ah_time_ns\": {},", o.stats.ah_time.as_nanos())?;
            writeln!(w, "      \"strands\": {},", o.strands)?;
            writeln!(w, "      \"spawns\": {},", o.counters.spawns)?;
            writeln!(w, "      \"syncs\": {},", o.counters.effective_syncs)?;
            writeln!(w, "      \"races\": {},", o.report.total)?;
            writeln!(w, "      \"truncated\": {},", o.report.truncated())?;
            writeln!(w, "      \"racy_words\": {},", o.report.racy_words().len())?;
            match &o.degraded {
                Some(e) => writeln!(
                    w,
                    "      \"degraded\": \"{}\",",
                    json_escape(&e.to_string())
                )?,
                None => writeln!(w, "      \"degraded\": null,")?,
            }
            writeln!(w, "      \"stats\": {{")?;
            let fields = o.stats.fields();
            for (j, (name, v)) in fields.iter().enumerate() {
                let comma = if j + 1 < fields.len() { "," } else { "" };
                writeln!(w, "        \"{}\": {v}{comma}", json_escape(name))?;
            }
            writeln!(w, "      }}")?;
            let comma = if i + 1 < outcomes.len() { "," } else { "" };
            writeln!(w, "    }}{comma}")?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")
    };
    emit().map_err(|e| format!("write {path}: {e}"))
}

/// Write the race-report-card (`--report-json`, schema `stint-report-v1`):
/// per run the totals, an **explicit `truncated` marker** (detail records
/// dropped at the report cap are never silent), the coalesced racy word
/// intervals, and every kept race — with its structured witness when
/// capture was on. `witness verify` re-validates this file against the
/// trace it came from.
///
/// ```json
/// {
///   "schema": "stint-report-v1",
///   "source": "buggy-mmul",
///   "command": "detect",
///   "runs": [ { "variant": "STINT", "total": 3, "kept": 3,
///               "truncated": false, "racy_words": 4,
///               "racy_intervals": [[16, 20]],
///               "races": [ { "kind": "write-read", "word_lo": 16,
///                            "word_hi": 20, "prev": 2, "cur": 5,
///                            "witness": { "prev": { ... }, ... } } ] } ]
/// }
/// ```
pub fn write_report_json(
    path: &str,
    source: &str,
    command: &str,
    runs: &[(String, &RaceReport)],
) -> Result<(), String> {
    use std::io::Write;
    let mut w: Box<dyn std::io::Write> = if path == "-" {
        Box::new(std::io::BufWriter::new(std::io::stdout()))
    } else {
        let f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Box::new(std::io::BufWriter::new(f))
    };
    let mut emit = || -> std::io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"stint-report-v1\",")?;
        writeln!(w, "  \"source\": \"{}\",", json_escape(source))?;
        writeln!(w, "  \"command\": \"{}\",", json_escape(command))?;
        writeln!(w, "  \"runs\": [")?;
        for (i, (variant, report)) in runs.iter().enumerate() {
            writeln!(w, "    {{")?;
            writeln!(w, "      \"variant\": \"{}\",", json_escape(variant))?;
            writeln!(w, "      \"total\": {},", report.total)?;
            writeln!(w, "      \"kept\": {},", report.races().len())?;
            writeln!(w, "      \"truncated\": {},", report.truncated())?;
            writeln!(w, "      \"racy_words\": {},", report.racy_words().len())?;
            let ivs: Vec<String> = report
                .racy_intervals()
                .iter()
                .map(|(lo, hi)| format!("[{lo}, {hi}]"))
                .collect();
            writeln!(w, "      \"racy_intervals\": [{}],", ivs.join(", "))?;
            writeln!(w, "      \"races\": [")?;
            let races = report.races();
            for (j, r) in races.iter().enumerate() {
                let witness = match &r.witness {
                    Some(wit) => wit.to_json(),
                    None => "null".into(),
                };
                let comma = if j + 1 < races.len() { "," } else { "" };
                writeln!(
                    w,
                    "        {{ \"kind\": \"{}\", \"word_lo\": {}, \"word_hi\": {}, \
                     \"prev\": {}, \"cur\": {}, \"witness\": {witness} }}{comma}",
                    r.kind, r.word_lo, r.word_hi, r.prev.0, r.cur.0
                )?;
            }
            writeln!(w, "      ]")?;
            let comma = if i + 1 < runs.len() { "," } else { "" };
            writeln!(w, "    }}{comma}")?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")
    };
    emit().map_err(|e| format!("write {path}: {e}"))
}
