//! The ingest checks every workload makes, and the embedding pieces of
//! `ingest-embed`: SGNS training plus the SIF fit (its set-up), and the
//! checks on the embedding matcher's output.

use std::sync::Arc;
use std::time::Instant;

use medkb_core::{ingest, IngestOutput, MappingMethod, RelaxConfig};
use medkb_corpus::{Corpus, MentionCounts};
use medkb_embed::{EmbeddingIndex, SgnsConfig, SifModel, WordVectors};
use medkb_snomed::{ContextTag, MedWorld};
use medkb_types::{ExtConceptId, Id};

use crate::inputs::sample_indices;
use crate::Checks;

/// SGNS trainings per run; `setup_s` of `ingest-embed` is their median.
pub const TRAININGS: usize = 3;
/// Largest difference between two cosines that still counts as equal
/// (the index scores an f32-normalized query, the check an f64 one).
const COSINE_TOLERANCE: f64 = 1e-6;

/// The embedding model configuration of the repository's ingest
/// benchmarks.
fn sgns_config() -> SgnsConfig {
    SgnsConfig {
        seed: 55,
        epochs: 4,
        ..SgnsConfig::default()
    }
}

/// Whether every word vector of a trained model is finite.
pub fn vectors_finite(wv: &WordVectors) -> bool {
    wv.words()
        .all(|w| wv.get(w).is_some_and(|v| v.iter().all(|x| x.is_finite())))
}

/// `flagged` is exactly the set of concepts with at least one instance.
pub fn check_flagged(out: &IngestOutput) -> Result<(), String> {
    for c in (0..out.ekg.len()).map(ExtConceptId::from_usize) {
        if out.flagged.contains(&c) == out.instances(c).is_empty() {
            return Err(format!(
                "concept {} is flagged {} with {} instances",
                c.raw(),
                out.flagged.contains(&c),
                out.instances(c).len()
            ));
        }
    }
    Ok(())
}

/// `instances_of` holds exactly the inverted `mappings`.
pub fn check_inverse(out: &IngestOutput) -> Result<(), String> {
    let mut forward: Vec<(u32, u32)> = out
        .mappings
        .iter()
        .map(|(i, c)| (c.raw(), i.raw()))
        .collect();
    let mut inverse: Vec<(u32, u32)> = (0..out.ekg.len())
        .map(ExtConceptId::from_usize)
        .flat_map(|c| out.instances(c).iter().map(move |i| (c.raw(), i.raw())))
        .collect();
    forward.sort_unstable();
    inverse.sort_unstable();
    if forward != inverse {
        return Err(format!(
            "{} mappings against {} inverted entries, or they differ",
            forward.len(),
            inverse.len()
        ));
    }
    Ok(())
}

/// Every IC value, per context tag and aggregated, is finite and ≥ 0.
pub fn check_ic(out: &IngestOutput) -> Result<(), String> {
    for c in (0..out.ekg.len()).map(ExtConceptId::from_usize) {
        for tag in ContextTag::ALL.into_iter().map(Some).chain([None]) {
            let ic = out.freqs.ic(c, tag);
            if !ic.is_finite() || ic < 0.0 {
                return Err(format!("IC of concept {} under {tag:?} is {ic}", c.raw()));
            }
        }
    }
    Ok(())
}

/// The best cosine over `rows` (L2-normalized, `dim` wide) by a plain f64
/// scan, with the payloads that reach it.
pub fn brute_force_best(
    dim: usize,
    payloads: &[u32],
    rows: &[f32],
    query: &[f32],
) -> (f64, Vec<u32>) {
    let qn: f64 = query
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt();
    let cosines: Vec<f64> = rows
        .chunks_exact(dim)
        .map(|row| {
            let dot: f64 = row
                .iter()
                .zip(query)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            let rn: f64 = row
                .iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
                .sqrt();
            dot / (rn * qn)
        })
        .collect();
    let best = cosines.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let near: Vec<u32> = payloads
        .iter()
        .zip(&cosines)
        .filter(|(_, &c)| best - c <= COSINE_TOLERANCE)
        .map(|(&p, _)| p)
        .collect();
    (best, near)
}

/// The index's top hit must be one of the brute-force best payloads, with
/// the same cosine.
pub fn check_search(hit: Option<(u32, f64)>, best: f64, near: &[u32]) -> Result<(), String> {
    match hit {
        Some((payload, score))
            if near.contains(&payload) && (score - best).abs() <= COSINE_TOLERANCE =>
        {
            Ok(())
        }
        Some((payload, score)) => Err(format!(
            "top hit {payload} at {score}, brute force best {best} at {near:?}"
        )),
        None => Err("the index returned no hit".into()),
    }
}

/// Table 1's F1 of a mapping against the generator's gold mapping, over
/// the entity instances (findings, diseases, symptoms, drugs).
pub fn mapping_f1(world: &MedWorld, out: &IngestOutput) -> f64 {
    let onto = world.kb.ontology();
    let entity: Vec<_> = ["Finding", "Disease", "Symptom", "Drug"]
        .iter()
        .filter_map(|n| onto.lookup_concept(n))
        .collect();
    let (mut produced, mut correct, mut mappable) = (0usize, 0usize, 0usize);
    for (id, _) in world
        .kb
        .instances()
        .filter(|(_, i)| entity.contains(&i.concept))
    {
        let gold = world.origins[id].concept;
        mappable += usize::from(gold.is_some());
        if let Some(c) = out.mappings.get(id) {
            produced += 1;
            correct += usize::from(gold == Some(c));
        }
    }
    let p = correct as f64 / produced.max(1) as f64;
    let r = correct as f64 / mappable.max(1) as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Train [`TRAININGS`] models (SGNS plus the SIF fit) on `corpus`: the
/// set-up of `ingest-embed`. Returns the last model, each training's
/// seconds and the number of trainings whose word vectors are not all
/// finite, a failed operation each: at 50k concepts SGNS diverges to NaN
/// on every run, whatever the seed (see "The one failing operation" in
/// README.md), and the mapper then maps by exact name only.
pub fn train(corpus: &Corpus, checks: &mut Checks) -> (Arc<SifModel>, Vec<f64>, u64) {
    let mut train_s = Vec::with_capacity(TRAININGS);
    let mut diverged = 0u64;
    let mut sif: Option<SifModel> = None;
    for _ in 0..TRAININGS {
        let t = Instant::now();
        let model = SifModel::fit(WordVectors::train(corpus, &sgns_config()), corpus, 1e-3);
        train_s.push(t.elapsed().as_secs_f64());
        if !vectors_finite(model.vectors()) {
            diverged += 1;
        }
        if let Some(previous) = &sif {
            checks.expect(
                "training is deterministic",
                previous.to_parts().bits_eq(&model.to_parts()),
            );
        }
        sif = Some(model);
    }
    (
        Arc::new(sif.expect("at least one training")),
        train_s,
        diverged,
    )
}

/// The checks on an embedding-matcher ingest output: `EmbeddingIndex::search`
/// against a brute-force cosine scan for `samples` seeded instance phrases,
/// and Table 1's order, embedding F1 ≥ exact F1 against the generator's
/// gold mapping.
pub fn check_embedding(
    checks: &mut Checks,
    world: &MedWorld,
    out: &IngestOutput,
    counts: &MentionCounts,
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    let parts = out.mapper.to_parts();
    let model = out
        .mapper
        .sif_model()
        .ok_or("the embedding mapper holds no SIF model")?;
    let dim = model.vectors().dim();
    let index =
        EmbeddingIndex::from_raw(dim, parts.index_payloads.clone(), parts.index_data.clone());
    let names: Vec<&str> = world.kb.instances().map(|(_, i)| &*i.name).collect();
    let (mut embedded, mut compared) = (0usize, 0usize);
    for i in sample_indices(names.len(), samples, seed) {
        let Some(query) = model.embed(names[i]) else {
            continue;
        };
        embedded += 1;
        // A diverged model embeds every phrase as NaN: there is no nearest
        // neighbour to agree on.
        if query.iter().all(|x| x.is_finite()) {
            let hits = index.search(&query, 1);
            let (best, near) =
                brute_force_best(dim, &parts.index_payloads, &parts.index_data, &query);
            checks.check(
                &format!("EmbeddingIndex::search for {:?}", names[i]),
                check_search(hits.first().map(|h| (h.payload, h.score)), best, &near),
            );
            compared += 1;
        }
    }
    checks.expect("some sampled instance phrases embed", embedded > 0);
    checks.expect(
        "a finite model embeds some sampled phrase finitely",
        !vectors_finite(model.vectors()) || compared > 0,
    );
    let exact = ingest(
        &world.kb,
        world.terminology.ekg.clone(),
        counts,
        None,
        &RelaxConfig {
            mapping: MappingMethod::Exact,
            ..RelaxConfig::default()
        },
    )
    .map_err(|e| format!("exact ingest: {e}"))?;
    let (f1_embedding, f1_exact) = (mapping_f1(world, out), mapping_f1(world, &exact));
    checks.check(
        "Table 1 order: embedding F1 ≥ exact F1",
        if f1_embedding >= f1_exact {
            Ok(())
        } else {
            Err(format!("embedding {f1_embedding:.4} < exact {f1_exact:.4}"))
        },
    );
    eprintln!(
        "[medkb-perf] F1 embedding {f1_embedding:.4} exact {f1_exact:.4}, {compared} searches compared"
    );
    Ok(())
}
