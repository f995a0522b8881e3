//! Smallest-size run of every workload: each metric `BENCHMARK.json`
//! names is printed with its unit, and no answer is wrong.

use std::path::Path;
use std::process::Command;

use simgen_obs::Json;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    match spec.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json lacks `{key}`"),
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}`"))
}

/// Runs one smallest-size pass and returns the parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--scale",
            "smallest",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("result line is JSON")
}

fn check(workload: &str) {
    let spec = spec();
    assert!(entries(&spec, "workloads")
        .iter()
        .any(|w| field(w, "name") == workload));
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let wanted = entries(&spec, list);
        assert_eq!(metrics.len(), wanted.len(), "{workload}: {list} count");
        for want in wanted {
            let name = field(want, "name");
            let got = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                field(got, "unit"),
                field(want, "unit"),
                "{workload}: {name}"
            );
            let value = got.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
        }
        if trace {
            let failed_frac = result
                .get("metrics")
                .and_then(|m| m.get("check.failed_frac"));
            assert_eq!(
                failed_frac
                    .and_then(|f| f.get("value"))
                    .and_then(Json::as_f64),
                Some(0.0)
            );
        }
    }
}

#[test]
fn cec_k4k6_smallest() {
    check("cec-k4k6");
}

#[test]
fn sweep_sim_smallest() {
    check("sweep-sim");
}

#[test]
fn serve_replay_smallest() {
    check("serve-replay");
}
