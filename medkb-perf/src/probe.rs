//! Per-layer timings for the traced runs of the workloads.
//!
//! After the load phase, a sample of the requests the client sent is
//! replayed in process through each layer's public functions, each call
//! inside a span that carries the wire request's id. Nothing inside the
//! program is instrumented: every number here is a call the benchmark
//! makes and times itself.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use medkb_core::QrScorer;
use medkb_ekg::NeighborhoodScan;
use medkb_serve::http::{render_serve_result, ParseLimits, RateLimiter, RequestParser, Router};
use medkb_serve::{RelaxServer, ServeConfig};
use medkb_store::WorldStore;
use medkb_types::{ContextId, ExtConceptId};

use crate::client::Client;
use crate::inputs::{serve_config, K};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;

/// One request of the load phase, picked for the replay.
#[derive(Debug, Clone, Copy)]
pub struct WireSample {
    /// Request id (its position in the load phase).
    pub request: u64,
    /// Query concept.
    pub concept: ExtConceptId,
    /// Client-observed latency, seconds.
    pub latency_s: f64,
    /// Whether the server answered it from its cache.
    pub hit: bool,
}

/// The `/relax` body the load generator sends.
pub fn relax_body(concept: ExtConceptId, context: ContextId) -> String {
    format!(
        "{{\"concept\":{},\"context\":{},\"k\":{K}}}",
        concept.raw(),
        context.raw()
    )
}

fn median_of(map: &BTreeMap<u64, f64>) -> f64 {
    median(&map.values().copied().collect::<Vec<_>>())
}

/// Replay up to `limit` of `samples` (distinct concepts only, first
/// occurrence wins) against the store image at `image` and return the
/// per-layer metrics. Fails when an in-process answer disagrees with the
/// wire.
pub fn probe_layers(
    tracer: &mut Tracer,
    image: &Path,
    context: ContextId,
    samples: &[WireSample],
    limit: usize,
) -> Result<Vec<Metric>, String> {
    let mut seen = HashSet::new();
    let samples: Vec<WireSample> = samples
        .iter()
        .copied()
        .filter(|s| seen.insert(s.concept))
        .take(limit)
        .collect();
    if samples.is_empty() {
        return Err("no requests to replay".into());
    }

    let open_started = Instant::now();
    let out = tracer
        .leaf("store.open", 0, None, || WorldStore::open(image))
        .map_err(|e| format!("store open: {e}"))?;
    let open_s = open_started.elapsed().as_secs_f64();
    let server = Arc::new(RelaxServer::new(
        out,
        serve_config(),
        ServeConfig::default(),
    ));
    let router = Router::new(Arc::clone(&server), None, RateLimiter::disabled(), None, K);

    let (mut discovered, mut candidates, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    for s in &samples {
        let (r, c) = (s.request, s.concept);
        let root = tracer.start("probe.request", r, None);
        let snapshot = server.snapshot();
        let relaxer = snapshot.relaxer();
        let (out, config) = (relaxer.ingested(), relaxer.config());

        // Algorithm 2 line 2 through the public pieces, growing the radius
        // exactly as the engine does.
        let mut radius = config.radius.max(1);
        let mut scan = tracer.leaf("ekg.enumerate", r, Some(root), || {
            NeighborhoodScan::new(&out.ekg, c)
        });
        let mut ring: Vec<(ExtConceptId, u32)> = Vec::new();
        let mut reachable = 0usize;
        loop {
            let processed = scan.discovered().len();
            tracer.leaf("ekg.enumerate", r, Some(root), || {
                scan.expand_to(radius);
            });
            tracer.leaf("core.flag_filter", r, Some(root), || {
                for &(cc, h) in &scan.discovered()[processed..] {
                    if out.flagged.contains(&cc) {
                        reachable += out.instances(cc).len();
                        ring.push((cc, h));
                    }
                }
            });
            if !config.dynamic_radius || reachable >= K || radius >= config.max_radius {
                break;
            }
            radius += 1;
        }
        discovered.push(scan.discovered().len() as f64);
        candidates.push(ring.len() as f64);
        kept.push(ring.len() as f64 / scan.discovered().len().max(1) as f64);
        let tag = Some(out.tag(context));
        tracer.leaf("core.score_tables", r, Some(root), || {
            let scorer = QrScorer::new(&out.ekg, &out.freqs, config);
            let scoped = scorer.query_scoped(c, tag, &out.reach);
            let max_h = ring.last().map_or(0, |&(_, h)| h);
            let max_dc = ring
                .iter()
                .map(|&(cc, _)| out.ekg.depth(cc))
                .max()
                .unwrap_or(0);
            std::hint::black_box(scoped.bounds(max_h, max_dc));
        });
        let relaxed = tracer
            .leaf("core.relax", r, Some(root), || {
                relaxer.relax_concept(c, Some(context), K)
            })
            .map_err(|e| format!("relax_concept({}): {e}", c.raw()))?;

        let miss = tracer
            .leaf("serve.miss", r, Some(root), || {
                server.serve_concept(c, Some(context), K)
            })
            .map_err(|e| format!("serve_concept({}): {e}", c.raw()))?;
        let hit = tracer
            .leaf("serve.hit", r, Some(root), || {
                server.serve_concept(c, Some(context), K)
            })
            .map_err(|e| format!("serve_concept({}): {e}", c.raw()))?;
        if *miss.result != relaxed || *hit.result != relaxed || !hit.cached() || miss.cached() {
            return Err(format!(
                "serve_concept({}) disagrees with relax_concept",
                c.raw()
            ));
        }
        let rendered = tracer.leaf("http.render", r, Some(root), || render_serve_result(&hit));

        let bytes = Client::request_bytes("POST", "/relax", Some(&relax_body(c, context)));
        let request = tracer
            .leaf("http.parse", r, Some(root), || {
                let mut parser = RequestParser::new(ParseLimits::default());
                parser.push(&bytes);
                parser.next_request()
            })
            .map_err(|e| format!("parse: {e}"))?
            .ok_or("parser wants more bytes of a whole request")?;
        let routed = tracer.leaf("http.route", r, Some(root), || {
            router.handle(&request, "127.0.0.1", Instant::now())
        });
        if routed.status != 200 || routed.body != rendered {
            return Err(format!(
                "Router::handle({}) disagrees with render_serve_result",
                c.raw()
            ));
        }
        tracer.end(root);
    }

    // `Router::handle` on the same request as the wire's: warm for a wire
    // hit; for a wire miss, the warm route with the warm serve swapped for
    // the cold one (the route does nothing else differently). Re-routing
    // cold after an epoch bump would time the first requests on a freshly
    // loaded snapshot, which run slower than the wire's misses did.
    let route = tracer.self_time_by_request("http.route");
    let miss = tracer.self_time_by_request("serve.miss");
    let hit = tracer.self_time_by_request("serve.hit");
    let overhead: Vec<f64> = samples
        .iter()
        .map(|s| {
            let r = s.request;
            let in_process = if s.hit {
                route[&r]
            } else {
                route[&r] - hit[&r] + miss[&r]
            };
            s.latency_s - in_process
        })
        .collect();

    let enumerate = tracer.self_time_by_request("ekg.enumerate");
    let filter = tracer.self_time_by_request("core.flag_filter");
    let tables = tracer.self_time_by_request("core.score_tables");
    let relax = tracer.self_time_by_request("core.relax");
    let rest: Vec<f64> = relax
        .iter()
        .map(|(r, t)| t - enumerate[r] - filter[r] - tables[r])
        .collect();
    let ms = |name: &str, v: f64| Metric::new(name, v * 1e3, "ms");
    let us = |name: &str, v: f64| Metric::new(name, v * 1e6, "us");
    Ok(vec![
        ms("ekg.enumerate_ms", median_of(&enumerate)),
        Metric::new("ekg.discovered", median(&discovered), "count"),
        ms("core.flag_filter_ms", median_of(&filter)),
        Metric::new("core.candidates", median(&candidates), "count"),
        Metric::new("core.kept_ratio", median(&kept), "ratio"),
        ms("core.score_tables_ms", median_of(&tables)),
        ms("core.relax_ms", median_of(&relax)),
        ms("core.relax_rest_ms", median(&rest)),
        Metric::new("store.open_s", open_s, "s"),
        ms("serve.miss_ms", median_of(&miss)),
        us("serve.hit_us", median_of(&hit)),
        us(
            "http.parse_us",
            median_of(&tracer.self_time_by_request("http.parse")),
        ),
        us("http.route_us", median_of(&route)),
        us(
            "http.render_us",
            median_of(&tracer.self_time_by_request("http.render")),
        ),
        ms("http.wire_overhead_ms", median(&overhead)),
    ])
}

/// `relax.lcs.evals` per query and evals ÷ kept candidates, from the
/// difference of two `/metrics` snapshots of the server under test.
pub fn lcs_metrics(before: &str, after: &str) -> Result<Vec<Metric>, String> {
    let counter = |doc: &str, name: &str| -> Result<f64, String> {
        let json = medkb_serve::http::Json::parse(doc)?;
        Ok(json
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64)
    };
    let delta =
        |name: &str| -> Result<f64, String> { Ok(counter(after, name)? - counter(before, name)?) };
    let queries = delta(medkb_core::relax::obs_names::QUERIES)?;
    let evals = delta(medkb_core::relax::obs_names::LCS_EVALS)?;
    let kept = delta(medkb_core::relax::obs_names::CANDIDATES_KEPT)?;
    if queries == 0.0 || kept == 0.0 {
        return Err("the server computed no queries during the load".into());
    }
    Ok(vec![
        Metric::new("core.lcs_evals", evals / queries, "count"),
        Metric::new("core.lcs_eval_ratio", evals / kept, "ratio"),
    ])
}
