//! `fit`: corpus → published artifact. Fits imdb-wt at small scale as
//! W-RW-EX (what `tdmatch run --expand` does), publishes with
//! `MatchArtifact::save`, reopens the file mapped, and ranks k = 20.
//! Then the daemon serves the published artifact for the same rounds of
//! open-loop, saturated and reload traffic as `serve` runs.
//!
//! The traced run fits twice on the same seed: once through
//! `TdMatch::fit_with` (untraced, the reference for the program's own
//! `StageTimings` and for the tracing overhead) and once recomposed from
//! the public layer calls the pipeline makes, each inside a span.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::Matcher;
use tdmatch_datasets::Scale;
use tdmatch_eval::ranking::mean_metrics;

use crate::layers;
use crate::report::Outcome;
use crate::serve::{self, Gathered, Inputs, Slices, NOMINAL_RPS};
use crate::setup::{self, same_ranking, K, ROUNDS};
use crate::stats;
use crate::trace::Tracer;

/// Rankings of the whole query corpus per round; `p50_ms` and `p95_ms`
/// are taken over windows of them (see [`serve::latency_windows`]), two
/// a round.
const RANKINGS_PER_ROUND: usize = 400;
/// Reload → first-answer cycles per round. A reload of this small
/// artifact takes a millisecond and a half, so the cycles are cheap, and
/// the serving rounds' 14 left `visible_p90_ms` spreading 0.17 between
/// runs.
const VISIBLE_PER_ROUND: usize = 100;
/// Scenario generations after each round.
const SETUPS_PER_ROUND: usize = 5;
/// Fits every run makes, however long they take. One fit per run left
/// `fit_s` spreading 0.17 to 0.26 between runs.
const MIN_FITS: usize = 2;
/// How far training's share of the traced fit's stages may stray from
/// its share of the program's own `StageTimings`.
const TRAIN_SHARE_TOLERANCE: f64 = 0.05;

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up: generating the scenario fixture (corpora, KB, pre-trained
    // model). The corpus is the same on every run; the run's seed seeds
    // the trainer (walks and embedding initialisation). It takes a few
    // milliseconds, so it is repeated after every round too, and
    // `setup_s` is the median over the run.
    let mut setups = Vec::with_capacity(1 + ROUNDS * SETUPS_PER_ROUND);
    let generate = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let scenario = setup::scenario(Scale::Small, setup::FIXTURE_SEED);
        setups.push(t.elapsed().as_secs_f64());
        scenario
    };
    let scenario = generate(&mut setups);
    out.note("fixture.seed", setup::FIXTURE_SEED);
    let config = setup::fit_config(&scenario, Scale::Small, seed);
    out.note("corpus.targets", scenario.first.len());
    out.note("corpus.queries", scenario.second.len());
    out.note("fit.scale", "small");
    out.note("fit.trainer_threads", config.threads);

    // The measured fits: fit_with + save, at least MIN_FITS and more
    // while the budget lasts.
    let path = dir.join("fit.tdm");
    let mut fit_times = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let clock = Instant::now();
    let (model, timings) = loop {
        let t = Instant::now();
        let model = setup::fit(&scenario, &config);
        let artifact = model.artifact();
        artifact
            .save(&path)
            .map_err(|e| format!("publishing: {e}"))?;
        fit_times.push(t.elapsed().as_secs_f64());
        let timings = model.timings;
        let mean = clock.elapsed() / fit_times.len() as u32;
        if fit_times.len() >= MIN_FITS && clock.elapsed() + mean > budget {
            break (model, timings);
        }
    };
    let untraced_fit_s = stats::median(&fit_times).expect("at least one fit");
    out.set("fit_s", untraced_fit_s);
    out.note("fit.samples", fit_times.len());
    let (nodes, edges) = model.graph_size();
    out.note("fit.graph_nodes", nodes);
    out.note("fit.graph_edges", edges);
    out.note("fit.stage_train_s", timings.train);

    // Reopen mapped; it must rank exactly like the in-memory model.
    let mapped = MatchArtifact::load(&path).map_err(|e| format!("reopening: {e}"))?;
    out.check(if mapped.is_zero_copy() {
        Ok(())
    } else {
        Err("reopened artifact is not mapped".into())
    });
    let reopened = mapped.match_top_k(K);
    for (r, m) in reopened.iter().zip(&model.match_top_k(K)) {
        out.check(if same_ranking(&r.ranked, &m.ranked) {
            Ok(())
        } else {
            Err(format!(
                "query {}: mapped ranking differs from the in-memory model",
                r.query
            ))
        });
    }
    let judged: Vec<(Vec<usize>, HashSet<usize>)> = reopened
        .iter()
        .map(|r| r.target_indices())
        .zip(scenario.truth_sets())
        .collect();
    out.set("mrr", mean_metrics(&judged).mrr);

    // The daemon serves the published artifact, one daemon per round.
    let words = setup::raw_words(&[&scenario.second]);
    let slices = Slices {
        visible: VISIBLE_PER_ROUND,
        ..Slices::of(seconds, NOMINAL_RPS)
    };
    serve::note_slices(slices, out);
    let inputs = Inputs::new(Matcher::new(mapped), seed, ROUNDS * slices.nominal, &words);
    let mut g = Gathered::default();
    let mut ranking = Vec::with_capacity(ROUNDS * RANKINGS_PER_ROUND);
    for round in 0..ROUNDS {
        let (server, socket) = setup::start_daemon(&path, dir, &format!("round{round}"))?;
        serve::serve_round(
            &server, &socket, &inputs, round, slices, tracer, &mut g, out,
        )?;
        drop(server);
        for _ in 0..SETUPS_PER_ROUND {
            generate(&mut setups);
        }
        // The query corpus ranked against the reopened artifact, in
        // process: the matching `tdmatch run` publishes.
        for i in 0..RANKINGS_PER_ROUND {
            let t = Instant::now();
            let ranked = inputs.facade.artifact().match_top_k(K);
            ranking.push(t.elapsed().as_secs_f64() * 1e3);
            if i == 0 {
                out.check(
                    if ranked
                        .iter()
                        .zip(&reopened)
                        .all(|(a, b)| same_ranking(&a.ranked, &b.ranked))
                    {
                        Ok(())
                    } else {
                        Err(format!("round {round}: ranking the query corpus differs"))
                    },
                );
            }
        }
    }
    g.report(out)?;
    out.set(
        "setup_s",
        stats::median(&setups).expect("one set-up at least"),
    );
    // The fit's latency is ranking its query corpus: a wire request to
    // this small artifact takes a tenth of a millisecond, so its tail
    // measures the host's scheduling stalls, not the program.
    out.note("wire.p50_ms", out.metrics["p50_ms"]);
    out.note("wire.p95_ms", out.metrics["p95_ms"]);
    serve::latency_windows(&ranking, out)?;

    if tracer.enabled() {
        let untraced = layers::Untraced {
            fit_s: untraced_fit_s,
            timings,
        };
        let traced = layers::fit(&scenario, &config, &untraced, dir, tracer, out)?;
        // Single-threaded training is deterministic, so the recomposed
        // fit must reproduce fit_with's artifact exactly.
        if config.threads == 1 {
            out.check(if traced.artifact == model.artifact() {
                Ok(())
            } else {
                Err("recomposed fit differs from TdMatch::fit_with".into())
            });
        }
        // The span around training must agree with the program's own
        // StageTimings.train. The two come from separate fits, so they
        // are compared as shares of their fit's stages, which the host's
        // speed cancels out of.
        let program = layers::train_share(&timings);
        out.check(
            if (traced.train_share - program).abs() <= TRAIN_SHARE_TOLERANCE {
                Ok(())
            } else {
                Err(format!(
                    "word2vec span is {:.3} of the traced stages, StageTimings.train {:.3} \
                     of the program's",
                    traced.train_share, program
                ))
            },
        );
        out.set("trace.overhead_frac", traced.fit_s / untraced_fit_s - 1.0);
        layers::ingest(&path, seed, &words, dir, tracer, out)?;
        layers::ann(&inputs.facade, &inputs.asks, tracer, out);
        layers::requests(&inputs.facade, &inputs.asks, &g, tracer, out);
    }
    Ok(())
}
