//! Building wire requests from generated asks, and judging the answers
//! a load phase brought back.

use std::collections::{HashMap, HashSet};

use tdmatch_core::serving::{Matcher, Query};
use tdmatch_serve::protocol::{
    ErrorCode, Request, RequestBody, Response, ResponseBody, StatsSnapshot,
};
use tdmatch_text::Preprocessor;

use crate::gen::Ask;
use crate::loadgen::{Answer, Shot};
use crate::report::Outcome;
use crate::setup::{same_ranking, K};

/// The wire request for `ask` (retrieval mode left to the daemon).
pub fn request(id: u64, ask: &Ask) -> Request {
    let body = match ask {
        Ask::Id(doc) => RequestBody::QueryId {
            doc: *doc,
            k: K,
            ann: None,
        },
        Ask::Text(text) => RequestBody::QueryText {
            text: text.clone(),
            k: K,
            ann: None,
        },
        Ask::Vector(v) => RequestBody::QueryVector {
            vector: v.clone(),
            k: K,
            ann: None,
        },
    };
    Request { id, body }
}

/// The engine query the daemon scores for `ask`: by-text asks are
/// tokenized and embedded the way the daemon does; `None` when no token
/// is known (the daemon then answers with no matches).
pub fn engine_query(matcher: &Matcher, pre: &Preprocessor, ask: &Ask) -> Option<Query> {
    match ask {
        Ask::Id(doc) => Some(Query::ById(*doc)),
        Ask::Vector(v) => Some(Query::ByVector(v.clone())),
        Ask::Text(text) => matcher
            .artifact()
            .embed_tokens(&pre.base_tokens(text))
            .map(Query::ByVector),
    }
}

/// The in-process facade's answer to every ask, scored in engine
/// batches by the exact scan.
pub fn expected(matcher: &Matcher, asks: &[Ask]) -> Vec<Vec<(usize, f32)>> {
    let pre = Preprocessor::default();
    let queries: Vec<Option<Query>> = asks
        .iter()
        .map(|a| engine_query(matcher, &pre, a))
        .collect();
    let scored: Vec<Query> = queries.iter().flatten().cloned().collect();
    let mut block = matcher.query_block();
    let (ranked, _) = matcher.query_batch_with_mode(&mut block, &scored, K, false);
    let mut ranked = ranked.into_iter();
    queries
        .iter()
        .map(|q| match q {
            Some(_) => ranked
                .next()
                .expect("one answer per scored query")
                .expect("generated asks are valid"),
            None => Vec::new(),
        })
        .collect()
}

/// Share of requests whose body (id aside) repeats an earlier one.
pub fn repeat_frac(asks: &[Ask]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = asks
        .iter()
        .filter(|a| !seen.insert(request(0, a).encode()))
        .count();
    repeats as f64 / asks.len().max(1) as f64
}

/// One answered shot.
#[derive(Debug, Clone)]
pub struct Judged {
    /// Index into the phase's shots.
    pub shot: usize,
    /// Latency from due time to answer, ms.
    pub latency_ms: f64,
    /// The ranked matches (empty on an error answer).
    pub matches: Vec<(usize, f32)>,
    /// The error code, when the daemon refused or failed the request.
    pub error: Option<ErrorCode>,
}

/// Pairs every answer with its shot; `sent(s)` tells whether shot `s`
/// went out. Returns the answered shots and the indices of shots that were
/// sent but never answered.
pub fn judge(
    answers: &[Answer],
    shots: &[Shot],
    sent: impl Fn(usize) -> bool,
) -> Result<(Vec<Judged>, Vec<usize>), String> {
    let index: HashMap<u64, usize> = shots.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut judged = Vec::with_capacity(answers.len());
    let mut answered = vec![false; shots.len()];
    for a in answers {
        let resp = Response::decode(&a.payload).map_err(|e| format!("undecodable answer: {e}"))?;
        let &i = index
            .get(&resp.id)
            .ok_or_else(|| format!("answer to unknown id {}", resp.id))?;
        if std::mem::replace(&mut answered[i], true) {
            return Err(format!("id {} answered twice", resp.id));
        }
        let (matches, error) = match resp.body {
            ResponseBody::Matches { matches, .. } => (matches, None),
            ResponseBody::Error { code, .. } => (Vec::new(), Some(code)),
            other => return Err(format!("id {}: unexpected answer {other:?}", resp.id)),
        };
        judged.push(Judged {
            shot: i,
            latency_ms: a.at_ns.saturating_sub(shots[i].due_ns) as f64 / 1e6,
            matches,
            error,
        });
    }
    let missing = (0..shots.len())
        .filter(|&i| sent(i) && !answered[i])
        .collect();
    Ok((judged, missing))
}

/// Checks one answer of a saturation phase against the facade's: the
/// request with id `first_id + a` carried ask `a`, whose answer is
/// `expect[a]`. `Err` when the answer cannot be read or names an id no
/// request carried.
pub fn check_ring(
    payload: &[u8],
    first_id: u64,
    expect: &[Vec<(usize, f32)>],
    out: &mut Outcome,
) -> Result<(), String> {
    let resp = Response::decode(payload).map_err(|e| format!("undecodable answer: {e}"))?;
    let ask = resp
        .id
        .checked_sub(first_id)
        .map(|a| a as usize)
        .filter(|&a| a < expect.len())
        .ok_or_else(|| format!("answer to unknown id {}", resp.id))?;
    out.check(match resp.body {
        ResponseBody::Matches { matches, .. } if same_ranking(&matches, &expect[ask]) => Ok(()),
        ResponseBody::Matches { .. } => {
            Err(format!("ask {ask}: wire answer differs from the facade"))
        }
        other => Err(format!("ask {ask}: daemon answered {other:?}")),
    });
    Ok(())
}

/// Checks every answer of a phase against the facade's: `expect[a]` is
/// the answer to ask `a`, and shot `s` carried ask `ask_of(s)`. Missing
/// answers, refusals, errors and wrong matches fail their check.
pub fn check_answers(
    judged: &[Judged],
    missing: &[usize],
    expect: &[Vec<(usize, f32)>],
    ask_of: impl Fn(usize) -> usize,
    out: &mut Outcome,
) {
    for j in judged {
        let a = ask_of(j.shot);
        out.check(match j.error {
            Some(code) => Err(format!("ask {a}: daemon answered {code}")),
            None if same_ranking(&j.matches, &expect[a]) => Ok(()),
            None => Err(format!("ask {a}: wire answer differs from the facade")),
        });
    }
    for &s in missing {
        out.check(Err(format!("ask {}: never answered", ask_of(s))));
    }
}

/// One shot per due time in `due_ns`, cycling through `asks` from ask
/// `first_ask`, with wire ids from `first_id` (`traced` picks the shots
/// whose send is traced). Shot `s` carries ask
/// `(first_ask + s) % asks.len()`.
pub fn shots(
    asks: &[Ask],
    first_ask: usize,
    due_ns: &[u64],
    first_id: u64,
    traced: impl Fn(usize) -> bool,
) -> Vec<Shot> {
    due_ns
        .iter()
        .enumerate()
        .map(|(s, &due)| {
            let id = first_id + s as u64;
            let ask = &asks[(first_ask + s) % asks.len()];
            Shot::new(id, due, &request(id, ask).encode(), traced(s))
        })
        .collect()
}

/// The daemon's own counters, summed over the phases and daemons of a
/// run: batch shape over the measured open-loop phases, refusals over
/// each daemon's whole life.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    batched: u64,
    batches: u64,
    coalesced: u64,
    shards: u64,
    ann_queries: u64,
    pooled: u64,
    shed: u64,
    evicted: u64,
    errors: u64,
}

impl Counters {
    /// Adds the batch shape of a phase between two snapshots.
    pub fn phase(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.batched += after.batched_requests - before.batched_requests;
        self.batches += after.batches - before.batches;
        self.coalesced += after.coalesced - before.coalesced;
        self.shards += after.shards - before.shards;
        self.ann_queries += after.ann_queries - before.ann_queries;
        self.pooled += after.pooled - before.pooled;
    }

    /// Adds the refusals of a daemon about to stop.
    pub fn end(&mut self, last: &StatsSnapshot) {
        self.shed += last.shed;
        self.evicted += last.evicted;
        self.errors += last.errors;
    }

    /// Sets the batch, pool, server and ANN pool metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set(
            "batch.mean_batch",
            self.batched as f64 / self.batches.max(1) as f64,
        );
        out.set(
            "batch.coalesced_frac",
            self.coalesced as f64 / self.batched.max(1) as f64,
        );
        out.set("pool.shards", self.shards as f64);
        out.set("server.shed", self.shed as f64);
        out.set("server.evicted", self.evicted as f64);
        out.set("server.errors", self.errors as f64);
        out.set(
            "ann.mean_pool",
            self.pooled as f64 / self.ann_queries.max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(id: u64, matches: Vec<(usize, f32)>) -> Vec<u8> {
        let body = ResponseBody::Matches { matches, batch: 1 };
        Response { id, body }.encode().into_bytes()
    }

    #[test]
    fn ring_answers_are_checked_by_ask() {
        let expect = vec![vec![(1, 0.5f32)], vec![(2, 0.25f32)]];
        let mut out = Outcome::default();
        for a in [
            answer(100, vec![(1, 0.5)]),
            answer(101, vec![(2, 0.25)]),
            answer(100, vec![(1, 0.5)]),
            answer(101, vec![(1, 0.5)]),
        ] {
            check_ring(&a, 100, &expect, &mut out).unwrap();
        }
        assert_eq!((out.attempted, out.failed), (4, 1));
        assert!(check_ring(&answer(102, vec![]), 100, &expect, &mut out).is_err());
        assert!(check_ring(b"{", 100, &expect, &mut out).is_err());
    }

    #[test]
    fn repeats_ignore_the_wire_id() {
        let asks = [Ask::Id(1), Ask::Id(2), Ask::Id(1), Ask::Text("a".into())];
        assert_eq!(repeat_frac(&asks), 0.25);
    }
}
