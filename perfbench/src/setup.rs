//! Set-up shared by the workloads: scenario generation, the fit exactly
//! as `tdmatch run --expand` runs it, and a published, served artifact
//! grown to the serving size.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::config::TdConfig;
use tdmatch_core::delta::{DeltaBatch, DeltaOp};
use tdmatch_core::pipeline::{FitOptions, TdMatch, TdModel};
use tdmatch_core::serving::Matcher;
use tdmatch_datasets::{Scale, Scenario};
use tdmatch_serve::client::Client;
use tdmatch_serve::server::{ServeOptions, Server};

use crate::gen;
use crate::report::Outcome;

/// Ranked answers per query, everywhere in the benchmark.
pub const K: usize = 20;
/// Seed of the scenario fixture every workload fits: the corpora are
/// the same on every run, while the trainer seed (`fit`) and growth and
/// traffic (`serve`) follow the run's seed.
pub const FIXTURE_SEED: u64 = 42;
/// Rounds per run. Every round sets up afresh and then measures a slice
/// of each metric, so that each metric samples the whole run and one
/// burst of host noise moves one round, not the median over rounds.
pub const ROUNDS: usize = 8;
/// The daemon's shipped admission cap (`tdmatch serve --max-inflight`).
pub const MAX_INFLIGHT: usize = 1024;

/// The scenario every workload fits.
pub fn scenario(scale: Scale, seed: u64) -> Scenario {
    tdmatch_scenarios::registry::by_key("imdb-wt")
        .expect("imdb-wt is a registered scenario")
        .generate(scale, seed)
}

/// The fit configuration `tdmatch run --scenario imdb-wt --scale S
/// --seed N` resolves: the scenario's config, the scale's presets, the
/// seed, and the default thread count.
pub fn fit_config(scenario: &Scenario, scale: Scale, seed: u64) -> TdConfig {
    let mut config = scenario.config.clone();
    config.seed = seed;
    (
        config.walks_per_node,
        config.walk_len,
        config.dim,
        config.epochs,
    ) = tdmatch_scenarios::scale_presets(scale);
    config
}

/// The tiny fixture fit `serve` serves: [`fit_config`] at
/// tiny scale and [`FIXTURE_SEED`], pinned to one trainer thread. Every
/// round fits it afresh and checks its answers against expectations
/// taken from the first round, so it must be deterministic, and
/// multi-threaded (Hogwild) training is not.
pub fn fixture_config(scenario: &Scenario) -> TdConfig {
    let mut config = fit_config(scenario, Scale::Tiny, FIXTURE_SEED);
    config.threads = 1;
    config
}

/// W-RW-EX: expansion against the scenario's KB plus similarity merge,
/// as `tdmatch run --expand` fits.
pub fn fit(scenario: &Scenario, config: &TdConfig) -> TdModel {
    TdMatch::new(config.clone())
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: Some(scenario.kb.as_ref()),
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .expect("imdb-wt fits")
}

/// Whitespace-separated words of every document of `corpora`, raw.
pub fn raw_words(corpora: &[&tdmatch_core::corpus::Corpus]) -> Vec<String> {
    let mut words = Vec::new();
    for corpus in corpora {
        for i in 0..corpus.len() {
            for field in corpus.fields(i) {
                words.extend(
                    field
                        .split_whitespace()
                        .filter(|w| w.chars().any(char::is_alphanumeric))
                        .map(String::from),
                );
            }
        }
    }
    words
}

/// A live daemon over a published artifact.
pub struct Serving {
    /// The running daemon.
    pub server: Server,
    /// The published artifact it serves (and reloads from).
    pub path: PathBuf,
    /// Its socket.
    pub socket: PathBuf,
    /// Target rows the scenario itself contributed (they carry the
    /// ground truth; growth and deltas never touch them).
    pub scenario_targets: usize,
}

/// Maps the artifact published at `path` and starts the daemon over it
/// at its shipped defaults (one worker, 500 µs window, batch 8, exact
/// mode), on socket `<tag>.sock` in `dir`. Returns once it answers a
/// ping.
pub fn start_daemon(path: &Path, dir: &Path, tag: &str) -> Result<(Server, PathBuf), String> {
    let matcher = Matcher::load(path).map_err(|e| format!("mapping {}: {e}", path.display()))?;
    let options = ServeOptions::at(dir.join(format!("{tag}.sock")))
        .artifact(path)
        .max_inflight(MAX_INFLIGHT);
    let socket = options.socket.clone();
    let server = Server::start(matcher, options).map_err(|e| format!("daemon start: {e}"))?;
    Client::connect(&socket)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("daemon ping: {e}"))?;
    Ok((server, socket))
}

/// The served artifact, built and not yet published.
pub struct Built {
    /// The artifact.
    pub artifact: MatchArtifact,
    /// Tiny fit, growth and (index), input generation excluded.
    pub fit: Duration,
    /// Time spent generating inputs, to leave out of the set-up time.
    pub untimed: Duration,
    /// Target rows the scenario itself contributed.
    pub scenario_targets: usize,
    /// The tiny model's MRR against ground truth.
    pub mrr: f64,
}

/// Fits `scenario` with [`fixture_config`], grows the target side to
/// `rows` with appends of Zipf bags of the fitted vocabulary drawn from
/// `seed`. Input generation is not timed.
pub fn build(scenario: &Scenario, seed: u64, rows: usize) -> Built {
    let clock = Instant::now();
    let model = fit(scenario, &fixture_config(scenario));
    let mut artifact = model.artifact();
    let scenario_targets = artifact.corpus_sizes().0;
    let paused = Instant::now();
    let labels: Vec<String> = artifact.term_labels().map(String::from).collect();
    let ops = gen::zipf_bags(seed, labels.len(), rows - scenario_targets)
        .into_iter()
        .map(|bag| DeltaOp::Append {
            tokens: bag.into_iter().map(|t| labels[t].clone()).collect(),
        })
        .collect();
    let judged: Vec<(Vec<usize>, std::collections::HashSet<usize>)> = model
        .match_top_k(K)
        .iter()
        .map(|r| r.target_indices())
        .zip(scenario.truth_sets())
        .collect();
    let mrr = tdmatch_eval::ranking::mean_metrics(&judged).mrr;
    let untimed = paused.elapsed();
    artifact
        .apply_delta(&DeltaBatch { ops })
        .expect("appends are always in bounds");
    Built {
        artifact,
        fit: clock.elapsed() - untimed,
        untimed,
        scenario_targets,
        mrr,
    }
}

/// One round's set-up on `serve`: `builds - 1` builds for
/// `fit_s` only, then one more that is published (as `round<round>.tdm`
/// in `dir`) and served by [`start_daemon`]. Records the round's
/// `setup_s` (build to first pong; publishing waits on the disk's commit
/// latency) and `fit_s` (the mean of its builds: on a shared host a
/// build's time is bimodal, and a median over single builds jumps
/// between the modes as their mix shifts) and the fixture's MRR.
#[allow(clippy::too_many_arguments)]
pub fn round_setup(
    scenario: &Scenario,
    seed: u64,
    rows: usize,
    builds: usize,
    dir: &Path,
    round: usize,
    rounds: &mut Rounds,
    out: &mut Outcome,
) -> Result<Serving, String> {
    let mut fit = Duration::ZERO;
    for _ in 1..builds {
        fit += build(scenario, seed, rows).fit;
    }
    let clock = Instant::now();
    let built = build(scenario, seed, rows);
    let tag = format!("round{round}");
    let path = dir.join(format!("{tag}.tdm"));
    built
        .artifact
        .save(&path)
        .map_err(|e| format!("publishing the served artifact: {e}"))?;
    let (server, socket) = start_daemon(&path, dir, &tag)?;
    rounds.push("setup_s", (clock.elapsed() - built.untimed).as_secs_f64());
    rounds.push("fit_s", (fit + built.fit).as_secs_f64() / builds as f64);
    out.set("mrr", built.mrr);
    Ok(Serving {
        server,
        path,
        socket,
        scenario_targets: built.scenario_targets,
    })
}

/// Records the served corpus and daemon configuration in `out`.
pub fn note_serving(scenario: &Scenario, serving: &Serving, facade: &Matcher, out: &mut Outcome) {
    out.note("corpus.targets", facade.targets());
    out.note("corpus.queries", facade.queries());
    out.note("corpus.scenario_targets", serving.scenario_targets);
    out.note("corpus.dim", facade.dim());
    out.note("fit.scale", "tiny");
    out.note("fit.trainer_threads", fixture_config(scenario).threads);
    out.note("fixture.seed", FIXTURE_SEED);
    out.note("daemon.mode", "exact");
    out.note("daemon.workers", serving.server.stats().workers);
}

/// Per-round samples of end-to-end metrics, each reported as the median
/// over the rounds of a run.
#[derive(Debug, Default)]
pub struct Rounds {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    /// Adds one round's value of metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets every metric to its median over the rounds and records the
    /// per-round values.
    pub fn report(&self, out: &mut Outcome) {
        for (&name, values) in &self.samples {
            out.set(name, crate::stats::median(values).expect("pushed"));
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            out.note(&format!("rounds.{name}"), listed.join(" "));
        }
    }
}

/// Every term vector of `artifact`, in label order.
pub fn term_rows(artifact: &MatchArtifact) -> Vec<&[f32]> {
    artifact
        .term_labels()
        .map(|l| artifact.term_vector(l).expect("a listed term has a vector"))
        .collect()
}

/// Bitwise equality of two rankings (`f32::to_bits` on every score).
pub fn same_ranking(a: &[(usize, f32)], b: &[(usize, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Share of `exact`'s targets that `served` also returned.
pub fn recall(served: &[(usize, f32)], exact: &[(usize, f32)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact
        .iter()
        .filter(|(t, _)| served.iter().any(|(s, _)| s == t))
        .count();
    hits as f64 / exact.len() as f64
}

/// The size of a file in bytes (0 when it cannot be read).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankings_compare_by_bits() {
        let a = [(3, 0.5f32), (1, 0.25)];
        assert!(same_ranking(&a, &a));
        assert!(!same_ranking(&a, &[(3, 0.5), (1, 0.250_000_03)]));
        assert!(!same_ranking(&a, &a[..1]));
        assert!(!same_ranking(&[(0, 0.0f32)], &[(0, -0.0)]));
    }

    #[test]
    fn rounds_report_their_median() {
        let mut rounds = Rounds::default();
        for v in [3.0, 1.0, 2.0, 10.0, 2.5] {
            rounds.push("p50_ms", v);
        }
        let mut out = Outcome::default();
        rounds.report(&mut out);
        assert_eq!(out.metrics["p50_ms"], 2.5);
        assert_eq!(out.record["rounds.p50_ms"].split(' ').count(), 5);
    }

    #[test]
    fn recall_counts_shared_targets() {
        let exact = [(1, 0.9f32), (2, 0.8), (3, 0.7), (4, 0.6)];
        assert_eq!(recall(&exact, &exact), 1.0);
        assert_eq!(recall(&[(1, 0.9), (9, 0.85), (3, 0.7)], &exact), 0.5);
        assert_eq!(recall(&[], &[]), 1.0);
    }
}
