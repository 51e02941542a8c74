//! Shared by the test binaries: the metric contract read from
//! `BENCHMARK.json`, and tiny-size settings.

use perfbench::{Report, Settings};

/// `(name, unit)` of every metric listed under `section` in BENCHMARK.json.
pub fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a JSON list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

pub fn tiny(seed: u64) -> Settings {
    Settings {
        seed,
        seconds: 0.0,
        min_passes: 1,
        setups: 1,
    }
}

/// The report carries exactly the contract's metrics, each with its unit
/// and a finite value.
pub fn assert_emits(rep: &Report, section: &str) {
    let got: Vec<(String, String)> = rep
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got,
        contract(section),
        "{section} metrics differ from BENCHMARK.json"
    );
    assert!(rep.metrics.iter().all(|m| m.value.is_finite()));
    let json = rep.to_json();
    for (name, unit) in contract(section) {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
}
