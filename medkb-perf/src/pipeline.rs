//! The run every workload makes, on its own world and read stream.
//!
//! 1. Input preparation (untimed): the world and its curation corpus.
//! 2. Set-up and ingest (timed): for `ingest-embed`, SGNS training plus the
//!    SIF fit; then mention counting, Algorithm 1 (`ingest_with_stats`)
//!    and the first store image (`WorldStore::save`).
//! 3. Serving: the server under test starts as a separate process over
//!    that image, and one closed-loop keep-alive reader sends `/relax`:
//!    first a read phase of a fixed number of reads with nothing else
//!    running, then an update phase in which a writer in this process
//!    applies document deltas through `DeltaEngine::apply`, saves each new
//!    world with `WorldStore::save` and publishes it with `POST /reload`,
//!    each at a fixed point in the read stream, while the reader goes on.
//! 4. Checks on every answer, the epochs, the ingest output and the
//!    store images, and an exhaustive oracle on a sample of answers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use medkb_core::{
    ingest, ingest_with_stats, outputs_identical, Delta, DeltaEngine, DeltaOp, MappingMethod,
    RelaxConfig,
};
use medkb_corpus::MentionCounts;
use medkb_serve::http::json::escape;
use medkb_store::WorldStore;
use medkb_types::ExtConceptId;

use crate::answer::{check_against_oracle, check_reply, oracle, Served};
use crate::client::{Client, Reply};
use crate::ingest_embed::{check_embedding, check_flagged, check_ic, check_inverse, train};
use crate::inputs::{
    file_mb, flagged_findings, flush_to_disk, sample_indices, serve_config, shuffled,
    world_and_corpus, Scale, WorkDir, K,
};
use crate::probe::{lcs_metrics, probe_layers, relax_body, WireSample};
use crate::server::spawn_measured;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Checks, Metric, Outcome, RunArgs};

/// Zipf exponent of a hot read stream (the head-heavy shape of query logs).
const ZIPF: f64 = 1.07;
/// Reads per round; the reader checks its stopping rules between rounds.
const ROUND: usize = 50;
/// Warm-up reads of a distinct stream, on concepts outside the stream.
const WARMUP: usize = 16;
/// Distinct concepts replayed in process by a traced run.
const PROBES: usize = 24;
/// Seconds past `--seconds` after which the reader stops whatever the
/// writer and the server do, so that a run always ends.
const LOAD_CAP_S: f64 = 80.0;

/// A workload: what it ingests and how it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SNOMED CT scale with the exact matcher; the reader asks for
    /// distinct flagged clinical findings, so every read is a cache miss
    /// and the relax core does almost all the work.
    WireMiss,
    /// 50k concepts with the production embedding matcher, whose mapping
    /// stage dominates the ingest; Zipf reads over a hundred hot concepts
    /// mostly hit the cache, so the HTTP and serve hot path dominates the
    /// reads.
    IngestEmbed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Self::WireMiss, Self::IngestEmbed];

    /// The workload called `name` in `BENCHMARK.json`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Its name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::WireMiss => "wire-miss",
            Self::IngestEmbed => "ingest-embed",
        }
    }
}

/// What the reader asks for.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// Each flagged clinical finding once, in seeded order: every read
    /// is a cache miss.
    Distinct,
    /// Zipf over this many hot flagged clinical findings: mostly hits.
    Hot(usize),
}

struct Shape {
    /// Concepts in the world.
    concepts: usize,
    /// Ingest with the embedding matcher (trained in set-up) instead of
    /// the exact one.
    embedding: bool,
    stream: Stream,
    /// Document deltas per run; `freshness_ms` is the median over them.
    updates: usize,
    /// Reads of the read phase per second of `--seconds`.
    reads_per_second: f64,
    /// Reads from the start of one update to the start of the next, and
    /// from the start of the last to the end of the run.
    window: usize,
    /// Reads at a new epoch before the next update may start or the run
    /// end; also how long an acknowledged epoch may stay unseen.
    gap: usize,
    /// Oracle-checked reads at the first and at the last epoch each.
    oracle_samples: usize,
    /// Instance phrases whose `EmbeddingIndex::search` is checked.
    search_samples: usize,
    /// Check the delta contract against a full re-ingest at the end.
    delta_contract: bool,
}

fn shape(workload: Workload, scale: Scale) -> Shape {
    match (workload, scale) {
        (Workload::WireMiss, Scale::Full) => Shape {
            concepts: 350_000,
            embedding: false,
            stream: Stream::Distinct,
            updates: 3,
            reads_per_second: 120.0,
            window: 100,
            gap: 50,
            oracle_samples: 3,
            search_samples: 0,
            delta_contract: true,
        },
        (Workload::WireMiss, Scale::Small) => Shape {
            concepts: 4_000,
            embedding: false,
            stream: Stream::Distinct,
            updates: 3,
            reads_per_second: 100.0,
            window: 100,
            gap: 50,
            oracle_samples: 8,
            search_samples: 0,
            delta_contract: true,
        },
        (Workload::IngestEmbed, Scale::Full) => Shape {
            concepts: 50_000,
            embedding: true,
            stream: Stream::Hot(100),
            updates: 7,
            reads_per_second: 360.0,
            window: 600,
            gap: 150,
            oracle_samples: 4,
            search_samples: 64,
            delta_contract: false,
        },
        (Workload::IngestEmbed, Scale::Small) => Shape {
            concepts: 2_000,
            embedding: true,
            stream: Stream::Hot(40),
            updates: 3,
            reads_per_second: 200.0,
            window: 300,
            gap: 150,
            oracle_samples: 8,
            search_samples: 32,
            delta_contract: false,
        },
    }
}

/// Document deltas a run of `workload` applies.
pub fn updates(workload: Workload, scale: Scale) -> usize {
    shape(workload, scale).updates
}

/// One completed read.
struct Read {
    concept: ExtConceptId,
    /// Highest epoch a `/reload` had acknowledged when the read was sent.
    required_epoch: u64,
    sent: Instant,
    received: Instant,
    reply: std::io::Result<Reply>,
}

impl Read {
    fn latency_s(&self) -> f64 {
        (self.received - self.sent).as_secs_f64()
    }
}

/// One applied update, as the writer saw it.
struct Update {
    apply_started: Instant,
    apply_s: f64,
    save_s: f64,
    reload_s: f64,
}

/// The epoch field that leads every `/relax` answer.
fn epoch_of(body: &str) -> Option<u64> {
    let rest = body.strip_prefix("{\"epoch\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// A delta that appends one existing corpus document again (its words
/// are all in the vocabulary already, as in a routine corpus refresh).
fn doc_delta(engine: &DeltaEngine, pick: usize) -> Delta {
    let corpus = engine.corpus();
    let doc = &corpus.docs[pick % corpus.docs.len()];
    let sentences = doc
        .sentences
        .iter()
        .map(|s| {
            (
                s.tag,
                s.tokens
                    .iter()
                    .map(|&t| corpus.vocab.resolve(t).to_string())
                    .collect(),
            )
        })
        .collect();
    Delta::new(vec![DeltaOp::AddDocument { sentences }])
}

/// Check the epochs the reader saw: never backwards, never older than the
/// last acknowledged reload, never newer than the last update.
pub fn check_epochs(epochs: &[(u64, u64)], last_epoch: u64) -> Result<(), String> {
    let mut prev = 0;
    for (i, &(epoch, required)) in epochs.iter().enumerate() {
        if epoch < prev {
            return Err(format!(
                "read {i} answered at epoch {epoch} after epoch {prev}"
            ));
        }
        if epoch < required {
            return Err(format!(
                "read {i} answered at epoch {epoch} after /reload acknowledged {required}"
            ));
        }
        if epoch > last_epoch {
            return Err(format!(
                "read {i} answered at epoch {epoch}, beyond the last update {last_epoch}"
            ));
        }
        prev = epoch;
    }
    Ok(())
}

/// Run `workload`.
pub fn run(workload: Workload, args: &RunArgs) -> Result<Outcome, String> {
    let name = workload.name();
    let work = WorkDir::new(name).map_err(|e| format!("scratch dir: {e}"))?;
    let shape = shape(workload, args.scale);
    let serve = serve_config();
    let ingest_config = if shape.embedding {
        let production = RelaxConfig::default();
        if !matches!(production.mapping, MappingMethod::Embedding { .. }) {
            return Err("the production configuration no longer maps with embeddings".into());
        }
        production
    } else {
        serve.clone()
    };
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let n_updates = shape.updates;

    // Input preparation (untimed): the world and its corpus.
    let prep = Instant::now();
    let (world, corpus) = world_and_corpus(shape.concepts);
    let context = world.treatment_context();
    let ekg = &world.terminology.ekg;
    eprintln!(
        "[medkb-perf] inputs ready in {:.2}s",
        prep.elapsed().as_secs_f64()
    );

    // Set-up of ingest-embed: the embedding model.
    let (sif, train_s) = if shape.embedding {
        let (sif, train_s, diverged) = train(&corpus, &mut checks);
        attempted += train_s.len() as u64;
        failed += diverged;
        (Some(sif), train_s)
    } else {
        (None, Vec::new())
    };

    // The ingest: counting, Algorithm 1, the first store image.
    let images: Vec<PathBuf> = (0..=n_updates)
        .map(|e| work.path(&format!("epoch{e}.store")))
        .collect();
    let t = Instant::now();
    let counts = MentionCounts::count(&corpus, ekg);
    let count_s = t.elapsed().as_secs_f64();
    let (out, stats) =
        ingest_with_stats(&world.kb, ekg.clone(), &counts, sif.clone(), &ingest_config)
            .map_err(|e| format!("ingest: {e}"))?;
    let t = Instant::now();
    WorldStore::save(&out, &images[0]).map_err(|e| format!("store save: {e}"))?;
    let ingest_s = count_s + stats.total_s + t.elapsed().as_secs_f64();
    attempted += 3;
    flush_to_disk(&images[0])?;

    let check_started = Instant::now();
    checks.check("flagged = concepts with instances", check_flagged(&out));
    checks.check("instances_of inverts mappings", check_inverse(&out));
    checks.check("IC finite and non-negative", check_ic(&out));
    if shape.embedding {
        check_embedding(
            &mut checks,
            &world,
            &out,
            &counts,
            shape.search_samples,
            args.seed,
        )?;
    }
    drop(counts);
    let pool = shuffled(&flagged_findings(&world, &out), args.seed);
    eprintln!(
        "[medkb-perf] ingest {ingest_s:.3}s (count {count_s:.3}, mapping {:.3}), \
         ingest checks {:.2}s",
        stats.mapping_s,
        check_started.elapsed().as_secs_f64()
    );

    // The delta engine adopts the ingest output (untimed).
    let mut engine = DeltaEngine::from_opened(
        world.kb.clone(),
        corpus,
        ekg.clone(),
        sif,
        ingest_config.clone(),
        out,
    );
    drop(world);
    let (warm, stream): (&[ExtConceptId], Vec<ExtConceptId>) = match shape.stream {
        Stream::Distinct => {
            let (warm, rest) = pool.split_at(WARMUP.min(pool.len() / 4));
            (warm, rest.to_vec())
        }
        Stream::Hot(n) => {
            let hot = &pool[..n.min(pool.len())];
            (
                hot,
                medkb_bench::zipf_query_stream(hot, 64 * 1024, ZIPF, args.seed),
            )
        }
    };
    let deltas: Vec<Delta> = (0..n_updates)
        .map(|i| doc_delta(&engine, (args.seed as usize).wrapping_mul(31) + 7919 * i))
        .collect();
    let read_phase =
        ((args.seconds * shape.reads_per_second / ROUND as f64).ceil() as usize).max(1) * ROUND;

    let (server, setups) = spawn_measured(&images[0])?;
    let addr = server.addr;
    let mut reader = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let warm_replies: Vec<Option<Served>> = warm
        .iter()
        .map(|&c| {
            let reply = reader.call("POST", "/relax", Some(&relax_body(c, context)));
            check_reply(&mut checks, &reply, c, K, serve.max_radius)
        })
        .collect();
    failed += warm_replies.iter().filter(|w| w.is_none()).count() as u64;
    // The oracle on the first epoch, before any delta changes the engine.
    for i in sample_indices(warm.len(), shape.oracle_samples, args.seed ^ 0x0AC1E) {
        if let Some(s) = &warm_replies[i] {
            checks.expect("the warm-up answers at epoch 0", s.epoch == 0);
            let expected = oracle(engine.output(), &serve, warm[i], Some(context), K);
            checks.check(
                &format!("oracle, concept {} at epoch 0", warm[i].raw()),
                check_against_oracle(s, &expected),
            );
        }
    }
    let metrics_before = reader
        .call("GET", "/metrics", None)
        .map_err(|e| format!("/metrics: {e}"))?
        .body;

    // The load: the read phase, then `updates` windows of `window` reads,
    // each opened by an update. The reader stops after the last window,
    // once `gap` reads came at the last epoch; or when the writer fails,
    // an acknowledged epoch stays unseen for `gap` reads, or the load
    // reaches its cap.
    let end = read_phase + n_updates * shape.window;
    let reads_done = AtomicUsize::new(0);
    let seen = AtomicU64::new(0);
    let gap_done = AtomicUsize::new(0);
    let acked = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let reader_gone = AtomicBool::new(false);
    let started = Instant::now();
    let (reads, read_phase_s, stall, (updates, writer_error)) = std::thread::scope(|scope| {
        let tracer = &mut tracer;
        let writer = scope.spawn(|| {
            let mut updates = Vec::with_capacity(n_updates);
            let error = (|| -> Result<(), String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("writer connect: {e}"))?;
                for (i, delta) in deltas.iter().enumerate() {
                    // Update i opens window i, once the reader has read
                    // `gap` reads at epoch i.
                    while seen.load(Ordering::SeqCst) < i as u64
                        || reads_done.load(Ordering::SeqCst) < read_phase + i * shape.window
                        || gap_done.load(Ordering::SeqCst) < i
                    {
                        if reader_gone.load(Ordering::SeqCst) {
                            return Err(format!("the reader stopped before update {}", i + 1));
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    let r = i as u64;
                    let root = tracer.start("writer.update", r, None);
                    let apply_started = Instant::now();
                    engine.apply(delta).map_err(|e| format!("delta {i}: {e}"))?;
                    let saving = Instant::now();
                    WorldStore::save(engine.output(), &images[i + 1])
                        .map_err(|e| format!("store save: {e}"))?;
                    let reloading = Instant::now();
                    let body = format!("{{\"path\":{}}}", escape(&images[i + 1].to_string_lossy()));
                    let epoch = (i + 1) as u64;
                    let reply = if args.unpublished_reload {
                        Reply {
                            status: 200,
                            body: format!("{{\"epoch\":{epoch}}}"),
                        }
                    } else {
                        client
                            .call("POST", "/reload", Some(&body))
                            .map_err(|e| format!("/reload: {e}"))?
                    };
                    let done = Instant::now();
                    if reply.status != 200 || reply.body != format!("{{\"epoch\":{epoch}}}") {
                        return Err(format!("/reload answered {} {}", reply.status, reply.body));
                    }
                    acked.store(epoch, Ordering::SeqCst);
                    for (name, from, to) in [
                        ("core.delta_apply", apply_started, saving),
                        ("store.save", saving, reloading),
                        ("serve.reload", reloading, done),
                    ] {
                        tracer.record(name, r, Some(root), from, to);
                    }
                    tracer.end(root);
                    updates.push(Update {
                        apply_started,
                        apply_s: (saving - apply_started).as_secs_f64(),
                        save_s: (reloading - saving).as_secs_f64(),
                        reload_s: (done - reloading).as_secs_f64(),
                    });
                }
                Ok(())
            })()
            .err();
            writer_done.store(true, Ordering::SeqCst);
            (updates, error)
        });

        let mut reads: Vec<Read> = Vec::with_capacity(end + ROUND);
        let mut read_phase_s = 0.0;
        let mut seen_epoch = 0u64;
        // The read count when the reader first saw the current epoch.
        let mut seen_at = 0usize;
        // The read count when the reader first found an acknowledged epoch
        // it had not yet been answered at.
        let mut unseen_since: Option<usize> = None;
        let stall = loop {
            for _ in 0..ROUND {
                let concept = stream[reads.len() % stream.len()];
                let bytes =
                    Client::request_bytes("POST", "/relax", Some(&relax_body(concept, context)));
                let required_epoch = acked.load(Ordering::SeqCst);
                let sent = Instant::now();
                let reply = reader.send(&bytes);
                let received = Instant::now();
                if let Ok(r) = &reply {
                    let epoch = epoch_of(&r.body).unwrap_or(0);
                    if epoch > seen_epoch {
                        seen_epoch = epoch;
                        seen_at = reads.len();
                        seen.store(epoch, Ordering::SeqCst);
                    }
                } else if let Ok(c) = Client::connect(addr) {
                    reader = c;
                }
                if required_epoch <= seen_epoch {
                    unseen_since = None;
                } else if unseen_since.is_none() {
                    unseen_since = Some(reads.len());
                }
                reads.push(Read {
                    concept,
                    required_epoch,
                    sent,
                    received,
                    reply,
                });
                if reads.len() >= seen_at + shape.gap {
                    gap_done.store(seen_epoch as usize, Ordering::SeqCst);
                }
                reads_done.store(reads.len(), Ordering::SeqCst);
                if reads.len() == read_phase {
                    read_phase_s = started.elapsed().as_secs_f64();
                }
            }
            if let Some(since) = unseen_since.filter(|&s| reads.len() - s >= shape.gap) {
                break Some(format!(
                    "epoch {} was acknowledged but not seen in the {} reads after read {since}",
                    acked.load(Ordering::SeqCst),
                    reads.len() - since
                ));
            }
            if started.elapsed().as_secs_f64() >= args.seconds + LOAD_CAP_S {
                break Some(format!(
                    "the load passed its cap at epoch {seen_epoch} of {n_updates}"
                ));
            }
            let all_seen = seen_epoch == n_updates as u64 && reads.len() >= seen_at + shape.gap;
            let writer_failed = writer_done.load(Ordering::SeqCst)
                && acked.load(Ordering::SeqCst) < n_updates as u64;
            if (all_seen || writer_failed) && reads.len() >= end {
                break None;
            }
        };
        reader_gone.store(true, Ordering::SeqCst);
        if reads.len() < read_phase {
            // Stopped inside the read phase (the run has failed).
            read_phase_s = started.elapsed().as_secs_f64();
        }
        (
            reads,
            read_phase_s,
            stall,
            writer.join().expect("writer thread panicked"),
        )
    });
    let peak_rss_mb = server.peak_rss_mb()?;
    let metrics_after = reader
        .call("GET", "/metrics", None)
        .map_err(|e| format!("/metrics: {e}"))?
        .body;
    drop(reader);
    server.stop()?;
    for (i, r) in reads.iter().enumerate() {
        tracer.record("wire.request", i as u64, None, r.sent, r.received);
    }

    // Checks: every answer, the epoch rules, the store round trip, the
    // delta contract, and the oracle on a sample at the last epoch. An
    // update whose epoch never reached the reader is a failed operation.
    let check_started = Instant::now();
    checks.check("reader", stall.map_or(Ok(()), Err));
    checks.check("writer", writer_error.clone().map_or(Ok(()), Err));
    let parsed: Vec<Option<Served>> = reads
        .iter()
        .map(|r| check_reply(&mut checks, &r.reply, r.concept, K, serve.max_radius))
        .collect();
    failed += parsed.iter().filter(|p| p.is_none()).count() as u64;
    if let Stream::Distinct = shape.stream {
        // Until the stream wraps, no concept repeats.
        for s in parsed.iter().take(stream.len()).flatten() {
            checks.expect(
                "every read of a distinct stream is a cache miss",
                s.served_from == "computed",
            );
        }
    }
    let epochs: Vec<(u64, u64)> = reads
        .iter()
        .zip(&parsed)
        .filter_map(|(r, p)| p.as_ref().map(|s| (s.epoch, r.required_epoch)))
        .collect();
    checks.check("reader epochs", check_epochs(&epochs, updates.len() as u64));

    // The last image the writer published; when the writer failed, the
    // engine may be ahead of it, so the checks that compare the two skip.
    let final_image = &images[updates.len()];
    if writer_error.is_none() {
        match WorldStore::open(final_image) {
            Ok(opened) => checks.expect(
                "the saved image round-trips to the engine's output",
                outputs_identical(&opened, engine.output()),
            ),
            Err(e) => checks.check("open the last image", Err(e.to_string())),
        }
    }
    if shape.delta_contract {
        let counts = MentionCounts::count(engine.corpus(), engine.native_ekg());
        match ingest(
            engine.kb(),
            engine.native_ekg().clone(),
            &counts,
            None,
            &ingest_config,
        ) {
            Ok(full) => checks.expect(
                "delta-applied output equals a full re-ingest of the mutated inputs",
                outputs_identical(engine.output(), &full),
            ),
            Err(e) => checks.check("full re-ingest", Err(e.to_string())),
        }
    }
    let last: Vec<usize> = (0..parsed.len())
        .filter(|&i| {
            writer_error.is_none()
                && parsed[i]
                    .as_ref()
                    .is_some_and(|s| s.epoch == n_updates as u64)
        })
        .collect();
    for p in sample_indices(last.len(), shape.oracle_samples, args.seed ^ 0x0AC1E) {
        let (read, served) = (
            &reads[last[p]],
            parsed[last[p]].as_ref().expect("picked among parsed reads"),
        );
        let expected = oracle(engine.output(), &serve, read.concept, Some(context), K);
        checks.check(
            &format!(
                "oracle, concept {} at epoch {n_updates}",
                read.concept.raw()
            ),
            check_against_oracle(served, &expected),
        );
    }
    eprintln!(
        "[medkb-perf] checks took {:.2}s",
        check_started.elapsed().as_secs_f64()
    );

    // Freshness: from the start of each apply to the first read answered
    // at the epoch it produced.
    let freshness: Vec<f64> = updates
        .iter()
        .enumerate()
        .filter_map(|(i, u)| {
            let epoch = (i + 1) as u64;
            reads
                .iter()
                .zip(&parsed)
                .find(|(_, p)| p.as_ref().is_some_and(|s| s.epoch >= epoch))
                .map(|(r, _)| (r.received - u.apply_started).as_secs_f64())
        })
        .collect();
    failed += (n_updates - freshness.len()) as u64;
    attempted += (warm.len() + reads.len() + n_updates) as u64;

    // Latency and throughput come from the read phase alone.
    let latencies: Vec<f64> = reads[..read_phase.min(reads.len())]
        .iter()
        .map(Read::latency_s)
        .collect();
    let p50 = median(&latencies) * 1e3;
    // Printed, not reported: see the README on the 99th percentile.
    let p99 = quantile(&latencies, 0.99) * 1e3;
    let qps = latencies.len() as f64 / read_phase_s;
    let hits = parsed
        .iter()
        .filter(|p| p.as_ref().is_some_and(|s| s.served_from == "cache"))
        .count();
    let setup_s = if shape.embedding {
        median(&train_s)
    } else {
        median(&setups)
    };
    eprintln!(
        "[medkb-perf] {name}: {} reads in {read_phase_s:.2}s then {} in {:.2}s, \
         p50 {p50:.3} ms, p99 {p99:.3} ms, {qps:.1} req/s, hit ratio {:.3}, \
         freshness {:?} ms, apply {:?} s, save {:?} s, reload {:?} s, \
         trainings {train_s:?} s, server set-ups {setups:?} s, trace {}",
        latencies.len(),
        reads.len() - latencies.len(),
        started.elapsed().as_secs_f64() - read_phase_s,
        hits as f64 / reads.len() as f64,
        freshness
            .iter()
            .map(|f| (f * 1e3).round())
            .collect::<Vec<_>>(),
        updates.iter().map(|u| u.apply_s).collect::<Vec<_>>(),
        updates.iter().map(|u| u.save_s).collect::<Vec<_>>(),
        updates.iter().map(|u| u.reload_s).collect::<Vec<_>>(),
        args.trace
    );
    let metrics = if args.trace {
        // Replay reads of the read phase in the stream's steady state
        // (misses for a distinct stream, cache hits for a hot one) against
        // the image they were answered from. Reads right after a reload
        // would carry the freshly loaded snapshot's first-touch cost.
        let expect_hit = matches!(shape.stream, Stream::Hot(_));
        let samples: Vec<WireSample> = reads
            .iter()
            .zip(&parsed)
            .take(read_phase)
            .enumerate()
            .filter(|(_, (_, p))| {
                p.as_ref()
                    .is_some_and(|s| s.epoch == 0 && (s.served_from == "cache") == expect_hit)
            })
            .map(|(i, (r, _))| WireSample {
                request: i as u64,
                concept: r.concept,
                latency_s: r.latency_s(),
                hit: expect_hit,
            })
            .collect();
        let mut m = probe_layers(&mut tracer, &images[0], context, &samples, PROBES)?;
        m.extend(lcs_metrics(&metrics_before, &metrics_after)?);
        let of_updates = |f: fn(&Update) -> f64| median(&updates.iter().map(f).collect::<Vec<_>>());
        m.extend([
            Metric::new("core.delta_apply_ms", of_updates(|u| u.apply_s) * 1e3, "ms"),
            Metric::new("store.save_s", of_updates(|u| u.save_s), "s"),
            Metric::new("serve.reload_ms", of_updates(|u| u.reload_s) * 1e3, "ms"),
            Metric::new("corpus.count_s", count_s, "s"),
            Metric::new("core.ingest.contexts_s", stats.contexts_s, "s"),
            Metric::new("core.ingest.mapping_s", stats.mapping_s, "s"),
            Metric::new("core.ingest.reach_s", stats.reach_s, "s"),
            Metric::new("core.ingest.freqs_s", stats.freqs_s, "s"),
            Metric::new("core.ingest.shortcuts_s", stats.shortcuts_s, "s"),
        ]);
        let path = WorkDir::trace_path(name, args.seed).map_err(|e| format!("trace dir: {e}"))?;
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
        m
    } else {
        let mut m = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("throughput_qps", qps, "req/s"),
        ];
        // Absent only when no update reached the reader, which has
        // already failed the run.
        if !freshness.is_empty() {
            m.push(Metric::new("freshness_ms", median(&freshness) * 1e3, "ms"));
        }
        m.extend([
            Metric::new("ingest_s", ingest_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new(
                "store_mb",
                file_mb(final_image).map_err(|e| format!("store size: {e}"))?,
                "MB",
            ),
        ]);
        m
    };
    Ok(Outcome {
        correct: checks.passed(),
        attempted,
        failed,
        metrics,
        problem: checks.problem(),
    })
}
