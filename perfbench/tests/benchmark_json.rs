//! `BENCHMARK.json` at the repository root and the benchmark's catalog
//! must name the same workloads and metrics, with the same units,
//! directions and bounds.

use perfbench::catalog::{valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use tdmatch_serve::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

#[test]
fn workloads_match_the_catalog() {
    let doc = benchmark_json();
    let listed = list(&doc, "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(WORKLOADS) {
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn end_to_end_metrics_match_the_catalog() {
    let doc = benchmark_json();
    let listed = list(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Json::as_num),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(valid_name(m.name) && valid_unit(m.unit));
    }
}

#[test]
fn per_layer_metrics_match_the_catalog() {
    let doc = benchmark_json();
    let listed = list(&doc, "per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert!(
            entry.get("bound").is_none(),
            "per-layer metrics carry no bound"
        );
    }
}

#[test]
fn command_stays_inside_the_benchmark() {
    let doc = benchmark_json();
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("path"))
        .collect();
    assert_eq!(paths, ["perfbench"]);
    for arg in list(&doc, "command") {
        let arg = arg.as_str().expect("command entries are strings");
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }
}
