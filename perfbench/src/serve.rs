//! `serve`: request bytes → answer bytes, open loop, exact scan.
//!
//! Each round fits imdb-wt at tiny scale for a real vocabulary and real
//! query texts, grows the target side to 65,536 rows, publishes, and
//! starts the daemon at its shipped defaults. One pipelined connection
//! then carries a third each of by-id, by-text and by-vector requests at
//! the nominal rate, then a saturation phase for the daemon's throughput,
//! then reload → first-answer cycles ([`serve_round`], which `fit` runs
//! on its own artifact too). Every wire answer must be bit-identical to
//! the in-process facade's, computed before the first timed phase.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use tdmatch_core::serving::Matcher;
use tdmatch_datasets::Scale;
use tdmatch_serve::client::Client;
use tdmatch_serve::server::Server;

use crate::gen::{self, Ask};
use crate::layers;
use crate::loadgen::{self, Shot};
use crate::report::Outcome;
use crate::setup::{self, same_ranking, Rounds, K, ROUNDS};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, Counters, Judged};

/// Nominal open-loop rate, requests per second.
pub const NOMINAL_RPS: f64 = 400.0;
/// Target rows of the served artifact after growth.
pub const ROWS: usize = 65_536;
/// Builds of the served artifact per round: `fit_s` is their median. A
/// build takes a quarter of a second, and one per round left `fit_s`
/// spreading 0.16 to 0.24 between runs.
pub const BUILDS: usize = 3;
/// Requests kept outstanding in the saturation phase: two of the
/// daemon's default batches.
pub const WINDOW: usize = 16;
/// Latency within which the open loop's backlog may build up.
pub const LIMIT_MS: f64 = 10.0;
/// Ids of the saturation phases start here, clear of the nominal ones.
pub const SATURATION_IDS: u64 = 1 << 40;
/// Reload → first-answer cycles per round (p90 over the run needs 100
/// for ten beyond it).
const VISIBLE_PER_ROUND: usize = 14;
/// Distinct asks the saturation phase cycles through.
const SATURATION_ASKS: usize = 400;

/// How one round splits its share of `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slices {
    /// Requests of the nominal phase.
    pub nominal: usize,
    /// Length of the saturation phase.
    pub saturation: Duration,
    /// Reload → first-answer cycles.
    pub visible: usize,
}

impl Slices {
    /// Half a round at the nominal `rate` (but enough requests over the
    /// rounds for p99 to have ten samples beyond it), a quarter
    /// saturated; the rest is set-up and reload cycles. Saturated slices
    /// of three twentieths of a round left `max_rps` spreading up to 0.16
    /// between runs.
    pub fn of(seconds: f64, rate: f64) -> Self {
        let round = seconds / ROUNDS as f64;
        Slices {
            nominal: ((rate * 0.5 * round).round() as usize).max(LATENCY_SAMPLES / ROUNDS + 1),
            saturation: Duration::from_secs_f64(0.25 * round),
            visible: VISIBLE_PER_ROUND,
        }
    }
}

/// Open-loop latencies a run needs for p99 to have ten samples beyond.
pub const LATENCY_SAMPLES: usize = 1000;

/// The generated requests of a run and the facade's answers to them.
pub struct Inputs {
    /// The in-process facade over the served artifact.
    pub facade: Matcher,
    /// The nominal phases' asks, one slice per round.
    pub asks: Vec<Ask>,
    /// When each of `asks` falls due, ns: Poisson arrivals at
    /// [`NOMINAL_RPS`], counted from the first ask of the round's slice.
    pub due_ns: Vec<u64>,
    /// The facade's answer to each of `asks`.
    pub expect: Vec<Vec<(usize, f32)>>,
    /// The asks the saturation phases cycle through.
    pub saturation: Vec<Ask>,
    /// The facade's answer to each of `saturation`.
    pub saturation_expect: Vec<Vec<(usize, f32)>>,
    /// The facade's answer to every query document by id.
    pub by_id: Vec<Vec<(usize, f32)>>,
}

impl Inputs {
    /// `count` nominal asks and the saturation asks over `facade`, drawn
    /// from `seed` (by-text asks sample `words`), with expected answers.
    pub fn new(facade: Matcher, seed: u64, count: usize, words: &[String]) -> Self {
        let terms = setup::term_rows(facade.artifact());
        let asks = gen::query_mix(seed, count, facade.queries(), words, &terms);
        let due_ns = gen::arrivals(seed, count, NOMINAL_RPS);
        let saturation = gen::query_mix(
            seed.wrapping_add(1),
            SATURATION_ASKS,
            facade.queries(),
            words,
            &terms,
        );
        let expect = wire::expected(&facade, &asks);
        let saturation_expect = wire::expected(&facade, &saturation);
        let by_id = (0..facade.queries())
            .map(|q| facade.query_by_id(q, K).expect("in-range id"))
            .collect();
        Inputs {
            facade,
            asks,
            due_ns,
            expect,
            saturation,
            saturation_expect,
            by_id,
        }
    }
}

/// One open-loop phase and what came back.
pub struct Nominal {
    /// The phase's shots.
    pub shots: Vec<Shot>,
    /// The answered shots.
    pub judged: Vec<Judged>,
    /// Index of the ask the first shot carried.
    pub first: usize,
}

/// What the rounds of a run gather.
#[derive(Default)]
pub struct Gathered {
    /// Per-round samples of the end-to-end metrics.
    pub rounds: Rounds,
    /// The daemons' own counters.
    pub counters: Counters,
    /// Reload (or delta) → first answer, ms, tagged by whether it was
    /// traced.
    pub visible: Vec<(bool, f64)>,
    /// Open-loop latencies, ms, tagged by whether the send was traced.
    pub latencies: Vec<(bool, f64)>,
    /// The same latencies in send order, each phase after the one before.
    pub sequence: Vec<f64>,
    /// Recall@k of each checked answer against the exact scan.
    pub recall: Vec<f64>,
    /// The first open-loop phase, kept for the layer replay.
    pub first: Option<Nominal>,
    /// Requests the open loop sent.
    pub sent: usize,
    /// Repeated requests among those sent.
    pub repeats: f64,
    /// Latest send relative to its due time, ms.
    pub late_ms_max: f64,
    /// Whether a backlog grew in an open-loop phase.
    pub behind: bool,
}

impl Gathered {
    /// Adds an open-loop phase at `rate` whose shot `s` carried
    /// `asks[first + s]` and was answered as `judged`: the generator's
    /// record, the latencies, and the first phase.
    pub fn open_loop(
        &mut self,
        phase: &loadgen::Phase,
        rate: f64,
        shots: Vec<Shot>,
        judged: Vec<Judged>,
        asks: &[Ask],
        first: usize,
    ) {
        let sent = phase.sent_ns.iter().flatten().count();
        self.sent += sent;
        self.repeats += wire::repeat_frac(&asks[first..first + sent]) * sent as f64;
        self.late_ms_max = self.late_ms_max.max(phase.late_ms_max);
        self.behind |= loadgen::backlog_grows(&phase.backlog, rate, LIMIT_MS);
        self.latencies
            .extend(judged.iter().map(|j| (shots[j.shot].traced, j.latency_ms)));
        let mut sent: Vec<(usize, f64)> = judged.iter().map(|j| (j.shot, j.latency_ms)).collect();
        sent.sort_by_key(|s| s.0);
        self.sequence.extend(sent.iter().map(|s| s.1));
        if self.first.is_none() {
            self.first = Some(Nominal {
                shots,
                judged,
                first,
            });
        }
    }

    /// Sets the per-round medians, the latency percentiles (see
    /// [`latency_windows`]), visibility percentiles, recall and the
    /// generator's and daemons' numbers.
    pub fn report(&self, out: &mut Outcome) -> Result<(), String> {
        self.rounds.report(out);
        latency_windows(&self.sequence, out)?;
        let latencies: Vec<f64> = self.latencies.iter().map(|l| l.1).collect();
        let p99 = stats::summarize(&latencies, 0.99)?;
        out.set("loadgen.p99_ms", p99.tail);
        let visible: Vec<f64> = self.visible.iter().map(|v| v.1).collect();
        let vis = stats::summarize(&visible, 0.9)?;
        out.set("visible_p50_ms", vis.p50);
        out.set("visible_p90_ms", vis.tail);
        out.set(
            "recall_at_k",
            self.recall.iter().sum::<f64>() / self.recall.len().max(1) as f64,
        );
        out.set("loadgen.sent", self.sent as f64);
        out.set("loadgen.late_ms_max", self.late_ms_max);
        out.set(
            "loadgen.repeat_frac",
            self.repeats / self.sent.max(1) as f64,
        );
        out.note("loadgen.behind", self.behind || self.late_ms_max > LIMIT_MS);
        out.note("loadgen.spin_us", loadgen::SPIN_NS / 1000);
        out.note("loadgen.arrivals", "poisson");
        self.counters.report(out);
        Ok(())
    }
}

/// A run's latencies in send order, cut into as many equal windows of
/// consecutive samples as leave each ten beyond its p95, so that a burst
/// of host noise slows a few windows rather than the run.
pub fn windows(sequence: &[f64]) -> Vec<&[f64]> {
    let count = (sequence.len() / stats::min_samples(0.95)).max(1);
    (0..count)
        .map(|w| &sequence[w * sequence.len() / count..(w + 1) * sequence.len() / count])
        .collect()
}

/// Sets `p50_ms` and `p95_ms` to the middle means (the mean of the
/// middle half) over the [`windows`] of `sequence` of each window's
/// percentiles, and records the per-window values.
pub fn latency_windows(sequence: &[f64], out: &mut Outcome) -> Result<(), String> {
    let each = stats::each_window(&windows(sequence), 0.95)?;
    let lat = stats::across_windows(&each)?;
    out.set("p50_ms", lat.p50);
    out.set("p95_ms", lat.tail);
    out.note("latency.samples", lat.n);
    let listed = |f: fn(&stats::Summary) -> f64| {
        let v: Vec<String> = each.iter().map(|s| format!("{:.4}", f(s))).collect();
        v.join(" ")
    };
    out.note("windows.p50_ms", listed(|s| s.p50));
    out.note("windows.p95_ms", listed(|s| s.tail));
    Ok(())
}

/// Runs a saturation phase over `asks` (answers checked against
/// `expect`) and records its answers per second as a round's `max_rps`.
pub fn saturation(
    stream: &UnixStream,
    asks: &[Ask],
    expect: &[Vec<(usize, f32)>],
    length: Duration,
    rounds: &mut Rounds,
    out: &mut Outcome,
) -> Result<(), String> {
    let ring = wire::shots(asks, 0, &vec![0; asks.len()], SATURATION_IDS, |_| false);
    let mut undecodable = Ok(());
    let sat = loadgen::saturate(
        stream,
        &ring,
        WINDOW,
        length,
        Duration::from_secs(10),
        |a| {
            if let Err(e) = wire::check_ring(a, SATURATION_IDS, expect, out) {
                undecodable = Err(e);
            }
        },
    )
    .map_err(|e| format!("saturation: {e}"))?;
    undecodable?;
    rounds.push("max_rps", sat.rate());
    Ok(())
}

/// One round against a live daemon: the nominal open-loop phase
/// (`slices.nominal` asks from `round * slices.nominal`, answers checked
/// against the facade), the saturation phase, then reload → first-answer
/// cycles; on the last round also every query document once more,
/// closed loop.
#[allow(clippy::too_many_arguments)]
pub fn serve_round(
    server: &Server,
    socket: &Path,
    inputs: &Inputs,
    round: usize,
    slices: Slices,
    tracer: &Tracer,
    g: &mut Gathered,
    out: &mut Outcome,
) -> Result<(), String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let (n, first) = (slices.nominal, round * slices.nominal);
    let traced = |s: usize| tracer.enabled() && s % 2 == 1;
    let due: Vec<u64> = inputs.due_ns[first..first + n]
        .iter()
        .map(|d| d - inputs.due_ns[first])
        .collect();
    let shots = wire::shots(&inputs.asks, first, &due, first as u64, traced);
    let before = server.stats();
    let phase = loadgen::run(
        &stream,
        &shots,
        Instant::now(),
        None,
        Duration::from_secs(10),
        tracer,
    )
    .map_err(|e| format!("load: {e}"))?;
    g.counters.phase(&before, &server.stats());
    let (judged, missing) = wire::judge(&phase.answers, &shots, |s| phase.sent_ns[s].is_some())?;
    wire::check_answers(&judged, &missing, &inputs.expect, |s| first + s, out);
    g.recall.extend(
        judged
            .iter()
            .map(|j| setup::recall(&j.matches, &inputs.expect[first + j.shot])),
    );
    g.open_loop(&phase, NOMINAL_RPS, shots, judged, &inputs.asks, first);

    saturation(
        &stream,
        &inputs.saturation,
        &inputs.saturation_expect,
        slices.saturation,
        &mut g.rounds,
        out,
    )?;

    // Reload → first wire answer. The file is not republished: on a
    // filesystem that discards freed blocks at commit, replacing it
    // would make every cycle wait for the disk, not the daemon.
    let mut client = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
    for c in 0..slices.visible {
        let q = (round * slices.visible + c) % inputs.by_id.len();
        let t = Instant::now();
        tracer
            .span("serving.reload", 0, c as u64, |_| client.reload())
            .map_err(|e| format!("reload: {e}"))?;
        let answer = client.query_id(q, K).map_err(|e| format!("query: {e}"))?;
        g.visible
            .push((tracer.enabled(), t.elapsed().as_secs_f64() * 1e3));
        out.check(if same_ranking(&answer.0, &inputs.by_id[q]) {
            Ok(())
        } else {
            Err(format!(
                "query {q}: answer after reload differs from the facade"
            ))
        });
    }
    if round + 1 == ROUNDS {
        for (q, want) in inputs.by_id.iter().enumerate() {
            let (ranked, _) = client.query_id(q, K).map_err(|e| format!("query: {e}"))?;
            out.check(if same_ranking(&ranked, want) {
                Ok(())
            } else {
                Err(format!("query {q}: wire differs"))
            });
        }
    }
    g.counters.end(&server.stats());
    Ok(())
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let scenario = setup::scenario(Scale::Tiny, setup::FIXTURE_SEED);
    let words = setup::raw_words(&[&scenario.second]);
    let slices = Slices::of(seconds, NOMINAL_RPS);
    note_slices(slices, out);

    let mut g = Gathered::default();
    let mut inputs: Option<Inputs> = None;
    let mut published = None;
    for round in 0..ROUNDS {
        let serving = setup::round_setup(
            &scenario,
            seed,
            ROWS,
            BUILDS,
            dir,
            round,
            &mut g.rounds,
            out,
        )?;
        // Inputs and their expected answers, outside the timed phases.
        if inputs.is_none() {
            let facade = Matcher::load(&serving.path).map_err(|e| format!("facade load: {e}"))?;
            setup::note_serving(&scenario, &serving, &facade, out);
            inputs = Some(Inputs::new(facade, seed, ROUNDS * slices.nominal, &words));
            published = Some(serving.path.clone());
        }
        let inputs = inputs.as_ref().expect("set above");
        serve_round(
            &serving.server,
            &serving.socket,
            inputs,
            round,
            slices,
            tracer,
            &mut g,
            out,
        )?;
    }
    g.report(out)?;
    if tracer.enabled() {
        let inputs = inputs.expect("ROUNDS > 0");
        let published = published.expect("ROUNDS > 0");
        let config = setup::fit_config(&scenario, Scale::Tiny, setup::FIXTURE_SEED);
        let untraced = layers::untraced_fit(&scenario, &config, &dir.join("fit-untraced.tdm"))?;
        layers::fit(&scenario, &config, &untraced, dir, tracer, out)?;
        layers::ingest(&published, seed, &words, dir, tracer, out)?;
        layers::ann(&inputs.facade, &inputs.asks, tracer, out);
        layers::requests(&inputs.facade, &inputs.asks, &g, tracer, out);
        layers::overhead(&g.latencies, out);
    }
    Ok(())
}

/// Records how a round splits its time.
pub fn note_slices(slices: Slices, out: &mut Outcome) {
    out.note("rounds", ROUNDS);
    out.note("loadgen.nominal_rps", NOMINAL_RPS);
    out.note("loadgen.requests_per_round", slices.nominal);
    out.note("loadgen.window", WINDOW);
    out.note("saturation.secs_per_round", slices.saturation.as_secs_f64());
    out.note("visible.cycles_per_round", slices.visible);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_the_sequence_with_enough_samples_each() {
        let sequence: Vec<f64> = (0..500).map(f64::from).collect();
        let w = windows(&sequence);
        assert_eq!(w.iter().map(|w| w.len()).collect::<Vec<_>>(), [250, 250]);
        assert_eq!((w[0][0], w[1][0]), (0.0, 250.0));
        assert_eq!(windows(&sequence[..399]).len(), 1);
        assert_eq!(windows(&sequence[..10]).len(), 1);
    }

    #[test]
    fn slices_keep_enough_latency_samples() {
        let s = Slices::of(20.0, NOMINAL_RPS);
        assert_eq!(s.nominal, 500);
        assert!((s.saturation.as_secs_f64() - 0.625).abs() < 1e-9);
        // A short run still pools enough samples for p99.
        let short = Slices::of(1.0, NOMINAL_RPS);
        assert!(short.nominal * ROUNDS > LATENCY_SAMPLES);
        let tail = stats::tail_count(short.nominal * ROUNDS, 0.99);
        assert!(tail >= stats::MIN_TAIL, "{tail} beyond p99");
    }
}
