//! The benchmark's own tests. Each workload runs on a small world with
//! every check it runs at full scale, and every check rejects a
//! deliberately corrupted answer.

use std::collections::BTreeSet;
use std::process::Command;

use medkb_core::{ingest, outputs_identical, IngestOutput, MappingIndex, QueryRelaxer};
use medkb_corpus::MentionCounts;
use medkb_embed::EmbeddingIndex;
use medkb_perf::answer::{
    check_against_oracle, check_properties, oracle, parse_served, Answer, Served,
};
use medkb_perf::ingest_embed::{
    brute_force_best, check_flagged, check_ic, check_inverse, check_search,
};
use medkb_perf::inputs::{flagged_findings, serve_config, world_and_corpus, Scale, K};
use medkb_perf::pipeline::{check_epochs, updates, Workload};
use medkb_serve::http::router::render_relaxation;
use medkb_serve::http::Json;
use medkb_snomed::MedWorld;
use medkb_types::{ExtConceptId, InstanceId};

fn metric_names(list: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the benchmark binary on the small world, with `extra` flags, and
/// return whether it succeeded, its result line and its standard error.
fn run_small_with(workload: &str, trace: u8, extra: &[&str]) -> (bool, Json, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("test dir");
    let out = Command::new(env!("CARGO_BIN_EXE_medkb-perf"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--small"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let line = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no result line\n{stderr}"));
    let result = Json::parse(line).expect("result line is JSON");
    (out.status.success(), result, stderr)
}

/// Run the benchmark binary on the small world and return its result line.
fn run_small(workload: &str, trace: u8) -> Json {
    let (ok, result, stderr) = run_small_with(workload, trace, &[]);
    assert!(ok, "{workload}: failed\n{stderr}");
    result
}

/// Both result lines of `workload` on the small world: correct, nothing
/// failed, and exactly the metrics `BENCHMARK.json` lists.
fn check_small_run(workload: &str) {
    let names = |doc: &Json| -> BTreeSet<String> {
        match doc.get("metrics") {
            Some(Json::Obj(fields)) => fields.iter().map(|(n, _)| n.clone()).collect(),
            _ => panic!("no metrics"),
        }
    };
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run_small(workload, trace);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
        assert_eq!(names(&result), metric_names(list), "{workload}, {list}");
    }
}

#[test]
fn wire_miss_small_world_passes_every_check() {
    check_small_run("wire-miss");
}

#[test]
fn ingest_embed_small_world_passes_every_check() {
    check_small_run("ingest-embed");
}

#[test]
fn the_workloads_are_those_of_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(listed, Workload::ALL.map(Workload::name));
}

fn small_ingest() -> (MedWorld, IngestOutput) {
    let (world, corpus) = world_and_corpus(2_000);
    let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
    let out = ingest(
        &world.kb,
        world.terminology.ekg.clone(),
        &counts,
        None,
        &serve_config(),
    )
    .expect("ingest");
    (world, out)
}

/// A served answer for `concept`, rendered and parsed as the wire does.
fn served(relaxer: &QueryRelaxer, concept: ExtConceptId, world: &MedWorld) -> Served {
    let r = relaxer
        .relax_concept(concept, Some(world.treatment_context()), K)
        .expect("relax");
    let body = format!(
        "{{\"epoch\":0,\"served_from\":\"computed\",\"result\":{}}}",
        render_relaxation(&r)
    );
    parse_served(&body).expect("parse")
}

#[test]
fn corrupted_answers_fail_the_property_and_oracle_checks() {
    let (world, out) = small_ingest();
    let config = serve_config();
    let pool = flagged_findings(&world, &out);
    let relaxer = QueryRelaxer::new(out, config.clone());
    let out = relaxer.ingested();
    let context = Some(world.treatment_context());
    let mut checked = 0;
    for &concept in pool.iter().take(20) {
        let good = served(&relaxer, concept, &world);
        let expected = oracle(out, &config, concept, context, K);
        assert_eq!(check_properties(&good, K, config.max_radius), Ok(()));
        assert_eq!(check_against_oracle(&good, &expected), Ok(()));
        if good.answers.len() < 2 {
            continue;
        }
        checked += 1;

        let corrupt = |f: &dyn Fn(&mut Served)| -> Served {
            let mut s = good.clone();
            f(&mut s);
            s
        };
        let property_breakers: Vec<Served> = vec![
            corrupt(&|s| s.answers[0].hops = s.radius_used + 1),
            corrupt(&|s| s.answers[0].hops = 0),
            corrupt(&|s| s.answers[0].score = 1.5),
            corrupt(&|s| s.answers[1].score = -0.25),
            corrupt(&|s| s.answers.swap(0, 1)),
            corrupt(&|s| s.answers[1].instances.clear()),
            corrupt(&|s| {
                let extra = Answer {
                    concept: u32::MAX,
                    score: 0.0,
                    hops: 1,
                    instances: vec![0],
                };
                s.answers.push(extra);
                s.answers.push(Answer {
                    concept: u32::MAX,
                    score: 0.0,
                    hops: 1,
                    instances: vec![0; K],
                });
            }),
            corrupt(&|s| {
                s.answers.truncate(1);
                s.answers[0].instances.truncate(1);
                s.radius_used = 1;
                s.answers[0].hops = 1;
            }),
        ];
        for (i, bad) in property_breakers.iter().enumerate() {
            assert!(
                check_properties(bad, K, config.max_radius).is_err(),
                "property corruption {i} passed"
            );
        }
        let oracle_breakers: Vec<Served> = vec![
            corrupt(&|s| s.answers[0].concept ^= 1),
            corrupt(&|s| s.answers[0].hops += 1),
            corrupt(&|s| s.answers[0].instances.push(u32::MAX)),
            corrupt(&|s| s.answers[0].score += 1e-6),
            corrupt(&|s| s.radius_used += 1),
            corrupt(&|s| {
                s.answers.pop();
            }),
        ];
        for (i, bad) in oracle_breakers.iter().enumerate() {
            assert!(
                check_against_oracle(bad, &expected).is_err(),
                "oracle corruption {i} passed"
            );
        }
    }
    assert!(checked > 0, "no query had two answers to corrupt");
}

#[test]
fn corrupted_epochs_fail_the_epoch_check() {
    assert_eq!(
        check_epochs(&[(0, 0), (0, 0), (1, 1), (2, 1), (3, 3)], 3),
        Ok(())
    );
    assert!(
        check_epochs(&[(0, 0), (1, 0), (0, 0)], 3).is_err(),
        "epoch went backwards"
    );
    assert!(
        check_epochs(&[(0, 0), (0, 1)], 3).is_err(),
        "read older than an acknowledged reload"
    );
    assert!(
        check_epochs(&[(0, 0), (4, 0)], 3).is_err(),
        "epoch beyond the last update"
    );
}

#[test]
fn a_reload_acknowledged_but_not_published_fails_the_run() {
    let (ok, result, stderr) = run_small_with("wire-miss", 0, &["--fault-unpublished-reload"]);
    assert!(!ok, "the run passed:\n{stderr}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{stderr}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(updates(Workload::WireMiss, Scale::Small) as u64),
        "every unseen epoch is a failed update"
    );
    assert!(
        stderr.contains("acknowledged but not seen"),
        "the reader did not report the stall:\n{stderr}"
    );
}

#[test]
fn corrupted_ingest_outputs_fail_the_ingest_checks() {
    let (_, out) = small_ingest();
    assert_eq!(check_flagged(&out), Ok(()));
    assert_eq!(check_inverse(&out), Ok(()));
    assert_eq!(check_ic(&out), Ok(()));
    assert!(outputs_identical(&out, &out.clone()));

    let unflagged = {
        let mut o = out.clone();
        let c = *o.flagged.iter().next().expect("a flagged concept");
        o.flagged.remove(&c);
        o
    };
    assert!(check_flagged(&unflagged).is_err());
    assert!(!outputs_identical(&out, &unflagged));

    let remapped = {
        let mut o = out.clone();
        let mut pairs: Vec<(InstanceId, ExtConceptId)> = o.mappings.iter().collect();
        let (inst, c) = pairs[0];
        pairs[0] = (inst, ExtConceptId::new(c.raw() ^ 1));
        o.mappings = MappingIndex::from_pairs(pairs);
        o
    };
    assert!(check_inverse(&remapped).is_err());

    let bad_ic = {
        let mut o = out.clone();
        let mut parts = o.freqs.to_parts();
        parts.ic_aggregate[0] = f64::NAN;
        o.freqs = medkb_core::Frequencies::from_parts(parts);
        o
    };
    assert!(check_ic(&bad_ic).is_err());
    let negative_ic = {
        let mut o = out.clone();
        let mut parts = o.freqs.to_parts();
        parts.ic_per_tag[0][1] = -0.5;
        o.freqs = medkb_core::Frequencies::from_parts(parts);
        o
    };
    assert!(check_ic(&negative_ic).is_err());
}

#[test]
fn corrupted_search_hits_fail_the_search_check() {
    let mut index = EmbeddingIndex::new(3);
    for (p, v) in [
        (10, [1.0, 0.0, 0.0]),
        (11, [0.6, 0.8, 0.0]),
        (12, [0.0, 0.0, 1.0]),
    ] {
        index.insert(p, &v);
    }
    let (dim, payloads, rows) = index.to_raw();
    let query = [0.9f32, 0.3, 0.1];
    let (best, near) = brute_force_best(dim, payloads, rows, &query);
    let hit = index.search(&query, 1)[0];
    assert_eq!(
        check_search(Some((hit.payload, hit.score)), best, &near),
        Ok(())
    );
    assert!(
        check_search(Some((12, hit.score)), best, &near).is_err(),
        "wrong payload"
    );
    assert!(
        check_search(Some((hit.payload, hit.score - 0.01)), best, &near).is_err(),
        "wrong score"
    );
    assert!(check_search(None, best, &near).is_err(), "no hit");
}

#[test]
fn steadiness_command_reports_each_metric_against_its_bound() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("steady");
    std::fs::create_dir_all(&dir).expect("test dir");
    let out = Command::new(env!("CARGO_BIN_EXE_medkb-perf"))
        .current_dir(&dir)
        .args([
            "steady",
            "--workload",
            "ingest-embed",
            "--runs",
            "2",
            "--seconds",
            "0.5",
            "--small",
        ])
        .output()
        .expect("steady runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for metric in metric_names("end_to_end") {
        assert!(
            stdout.lines().any(|l| l.starts_with(metric.as_str())),
            "{metric} missing:\n{stdout}"
        );
    }
    assert!(stdout.contains("correct in 2/2 runs"), "{stdout}");
}
