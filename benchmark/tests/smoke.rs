//! Every workload at toy size, untraced and traced: the run reports
//! exactly the metrics `BENCHMARK.json` declares, in its units, and
//! every output check passes.

use lkmm_benchmark::{run, Metric, RunSpec, Scale, Workload};
use lkmm_service::json::Json;
use std::path::PathBuf;

fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Vec<Metric> {
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!(
            "smoke-{}-{trace}-{}",
            workload.name(),
            std::process::id()
        ));
    let spec = RunSpec {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        work_dir,
    };
    let out = run(&spec).expect("the workload runs");
    assert!(
        out.correct(),
        "{}: {:?}",
        workload.name(),
        out.check_failures
    );
    assert!(
        out.attempted > 0 && out.failed == 0,
        "{}: {out:?}",
        workload.name()
    );
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got,
        declared(if trace { "per_layer" } else { "end_to_end" }),
        "{}",
        workload.name()
    );
    let line = Json::parse(&out.result_line()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    out.metrics
}

fn both(workload: Workload) {
    for m in smoke(workload, false) {
        assert!(
            m.value > 0.0,
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    smoke(workload, true);
}

#[test]
fn campaign_l6() {
    both(Workload::CampaignL6);
}

#[test]
fn campaign_contended() {
    both(Workload::CampaignContended);
}

#[test]
fn campaign_sim() {
    both(Workload::CampaignSim);
}

#[test]
fn serve_mixed() {
    both(Workload::ServeMixed);
}
