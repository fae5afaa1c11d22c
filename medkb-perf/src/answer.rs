//! Served answers: wire parsing, property checks and the exhaustive
//! relaxation oracle.
//!
//! The oracle recomputes Algorithm 2 from public pieces only — its own
//! breadth-first search over `Ekg::parents`/`children`, the concepts that
//! have instances, `QrScorer::score` per candidate, `rank_order`, and the
//! cut at `k` instances — so it checks the program's bounded scan and cut
//! against a separate exhaustive computation rather than against a stored
//! copy of earlier output.

use medkb_core::{rank_order, IngestOutput, QrScorer, RelaxConfig};
use medkb_serve::http::Json;
use medkb_types::{ContextId, ExtConceptId, Id};

/// Largest difference between an oracle score and a served score that
/// still counts as equal.
pub const SCORE_TOLERANCE: f64 = 1e-9;

/// One ranked answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// External concept id.
    pub concept: u32,
    /// Eq. 5 score.
    pub score: f64,
    /// Hop distance from the query concept.
    pub hops: u32,
    /// KB instance ids, in served order.
    pub instances: Vec<u32>,
}

/// One `/relax` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Snapshot epoch that answered.
    pub epoch: u64,
    /// `cache`, `computed` or `shared_flight`.
    pub served_from: String,
    /// The query concept the server relaxed.
    pub query_concept: u32,
    /// Radius after dynamic growth.
    pub radius_used: u32,
    /// Ranked answers.
    pub answers: Vec<Answer>,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn small(v: u64, key: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("field {key:?} exceeds u32"))
}

/// Parse a `/relax` response body.
pub fn parse_served(body: &str) -> Result<Served, String> {
    let doc = Json::parse(body)?;
    let served_from = field(&doc, "served_from")?
        .as_str()
        .ok_or("served_from is not a string")?
        .to_string();
    let result = field(&doc, "result")?;
    let mut answers = Vec::new();
    for a in field(result, "answers")?
        .as_arr()
        .ok_or("answers is not an array")?
    {
        let score = match field(a, "score")? {
            Json::Num(x) => *x,
            _ => return Err("score is not a number".into()),
        };
        let instances = field(a, "instances")?
            .as_arr()
            .ok_or("instances is not an array")?
            .iter()
            .map(|i| {
                i.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or("bad instance id")
            })
            .collect::<Result<Vec<u32>, _>>()?;
        answers.push(Answer {
            concept: small(uint(a, "concept")?, "concept")?,
            score,
            hops: small(uint(a, "hops")?, "hops")?,
            instances,
        });
    }
    Ok(Served {
        epoch: uint(&doc, "epoch")?,
        served_from,
        query_concept: small(uint(result, "query_concept")?, "query_concept")?,
        radius_used: small(uint(result, "radius_used")?, "radius_used")?,
        answers,
    })
}

/// Check one `/relax` reply: a 200 whose body parses, answers the
/// requested concept, names a known `served_from`, and has the
/// [`check_properties`] properties. Returns the parsed answer when the
/// reply is usable; `None` counts as a failed operation.
pub fn check_reply(
    checks: &mut crate::Checks,
    reply: &std::io::Result<crate::client::Reply>,
    concept: ExtConceptId,
    k: usize,
    max_radius: u32,
) -> Option<Served> {
    let reply = match reply {
        Ok(r) if r.status == 200 => r,
        _ => return None,
    };
    match parse_served(&reply.body) {
        Ok(s) => {
            checks.check("answer properties", check_properties(&s, k, max_radius));
            checks.expect(
                "served_from is cache, computed or shared_flight",
                matches!(
                    s.served_from.as_str(),
                    "cache" | "computed" | "shared_flight"
                ),
            );
            checks.expect(
                "the answer is for the requested concept",
                s.query_concept == concept.raw(),
            );
            Some(s)
        }
        Err(e) => {
            checks.check("parse /relax answer", Err(e));
            None
        }
    }
}

/// Properties every answer must have, oracle or not: hops within the
/// radius, scores in [0, 1], answers in rank order, every answer carrying
/// instances, the cut made at the first answer that reaches `k`
/// instances, and at least `k` instances unless the radius grew to its
/// maximum (the ball is exhausted).
pub fn check_properties(s: &Served, k: usize, max_radius: u32) -> Result<(), String> {
    let mut returned = 0usize;
    for (i, a) in s.answers.iter().enumerate() {
        if a.hops == 0 || a.hops > s.radius_used {
            return Err(format!(
                "answer {i}: hops {} outside 1..={}",
                a.hops, s.radius_used
            ));
        }
        if !(0.0..=1.0).contains(&a.score) {
            return Err(format!("answer {i}: score {} outside [0, 1]", a.score));
        }
        if a.instances.is_empty() {
            return Err(format!(
                "answer {i}: concept {} has no instances",
                a.concept
            ));
        }
        if returned >= k {
            return Err(format!("answer {i} lies past the cut at {k} instances"));
        }
        returned += a.instances.len();
        if i > 0 {
            let p = &s.answers[i - 1];
            let order = rank_order(
                (p.score, p.hops, ExtConceptId::new(p.concept)),
                (a.score, a.hops, ExtConceptId::new(a.concept)),
            );
            if order != std::cmp::Ordering::Less {
                return Err(format!("answers {} and {i} are out of rank order", i - 1));
            }
        }
    }
    if returned < k && s.radius_used < max_radius {
        return Err(format!(
            "{returned} < k = {k} instances at radius {} below the maximum {max_radius}",
            s.radius_used
        ));
    }
    Ok(())
}

/// The exhaustive answer to `[query, context]` with budget `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Radius after dynamic growth.
    pub radius_used: u32,
    /// Ranked answers cut at `k` instances.
    pub answers: Vec<Answer>,
}

/// Breadth-first search over both edge directions of the customized
/// graph, one ring at a time.
struct Ball<'a> {
    out: &'a IngestOutput,
    hops: Vec<u32>,
    ring: Vec<ExtConceptId>,
    members: Vec<(ExtConceptId, u32)>,
    radius: u32,
}

impl<'a> Ball<'a> {
    fn new(out: &'a IngestOutput, start: ExtConceptId) -> Self {
        let mut hops = vec![u32::MAX; out.ekg.len()];
        hops[start.as_usize()] = 0;
        Self {
            out,
            hops,
            ring: vec![start],
            members: Vec::new(),
            radius: 0,
        }
    }

    fn grow_to(&mut self, radius: u32) {
        while self.radius < radius {
            self.radius += 1;
            let mut next = Vec::new();
            for c in std::mem::take(&mut self.ring) {
                let edges = self
                    .out
                    .ekg
                    .parents(c)
                    .iter()
                    .chain(self.out.ekg.children(c));
                for e in edges {
                    let slot = &mut self.hops[e.to.as_usize()];
                    if *slot == u32::MAX {
                        *slot = self.radius;
                        next.push(e.to);
                        self.members.push((e.to, self.radius));
                    }
                }
            }
            self.ring = next;
        }
    }
}

/// Algorithm 2 computed exhaustively: grow the ball from the configured
/// radius until it holds `k` instances (or the radius reaches its
/// maximum), score every concept in it that has instances, rank, cut.
pub fn oracle(
    out: &IngestOutput,
    config: &RelaxConfig,
    query: ExtConceptId,
    context: Option<ContextId>,
    k: usize,
) -> Expected {
    let mut radius = config.radius.max(1);
    let mut ball = Ball::new(out, query);
    let candidates: Vec<(ExtConceptId, u32)> = loop {
        ball.grow_to(radius);
        let with_instances: Vec<(ExtConceptId, u32)> = ball
            .members
            .iter()
            .copied()
            .filter(|&(c, _)| !out.instances(c).is_empty())
            .collect();
        let reachable: usize = with_instances
            .iter()
            .map(|&(c, _)| out.instances(c).len())
            .sum();
        if !config.dynamic_radius || reachable >= k || radius >= config.max_radius {
            break with_instances;
        }
        radius += 1;
    };
    let tag = context.map(|c| out.tag(c));
    let scorer = QrScorer::new(&out.ekg, &out.freqs, config);
    let mut scored: Vec<(f64, u32, ExtConceptId)> = candidates
        .iter()
        .map(|&(c, h)| (scorer.score(query, c, tag), h, c))
        .collect();
    scored.sort_by(|a, b| rank_order(*a, *b));
    let mut answers = Vec::new();
    let mut returned = 0usize;
    for (score, hops, c) in scored {
        if returned >= k {
            break;
        }
        let instances: Vec<u32> = out.instances(c).iter().map(|i| i.raw()).collect();
        returned += instances.len();
        answers.push(Answer {
            concept: c.raw(),
            score,
            hops,
            instances,
        });
    }
    Expected {
        radius_used: radius,
        answers,
    }
}

/// Whether a served answer matches the oracle: same radius, concepts,
/// hops and instances in the same order, scores within
/// [`SCORE_TOLERANCE`].
pub fn check_against_oracle(served: &Served, expected: &Expected) -> Result<(), String> {
    if served.radius_used != expected.radius_used {
        return Err(format!(
            "radius {} served, {} expected",
            served.radius_used, expected.radius_used
        ));
    }
    if served.answers.len() != expected.answers.len() {
        return Err(format!(
            "{} answers served, {} expected",
            served.answers.len(),
            expected.answers.len()
        ));
    }
    for (i, (s, e)) in served.answers.iter().zip(&expected.answers).enumerate() {
        if s.concept != e.concept || s.hops != e.hops || s.instances != e.instances {
            return Err(format!(
                "answer {i}: served concept {} at {} hops with {:?}, expected {} at {} hops with {:?}",
                s.concept, s.hops, s.instances, e.concept, e.hops, e.instances
            ));
        }
        if (s.score - e.score).abs() > SCORE_TOLERANCE {
            return Err(format!(
                "answer {i}: score {} served, {} expected",
                s.score, e.score
            ));
        }
    }
    Ok(())
}
