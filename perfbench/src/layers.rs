//! Per-layer numbers for the traced run. The benchmark calls the public
//! functions of each layer itself, each call inside a span, and derives
//! the layer metrics from the spans' self times. Every workload measures
//! every layer on its own inputs: the fit's stages, the ingest path, ANN
//! candidate search, and the daemon's per-request calls (codec,
//! tokenizer, scan).

use std::path::Path;
use std::time::Instant;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::builder::{build_graph, doc_label};
use tdmatch_core::config::TdConfig;
use tdmatch_core::delta::DeltaBatch;
use tdmatch_core::expand::expand_graph;
use tdmatch_core::pipeline::StageTimings;
use tdmatch_core::serving::{Matcher, Query};
use tdmatch_datasets::Scenario;
use tdmatch_embed::ann::{HnswParams, SearchScratch, DEFAULT_POOL};
use tdmatch_embed::score::{QueryBlock, ScoreMatrix, QUERY_BLOCK};
use tdmatch_embed::walks::generate_walk_corpus;
use tdmatch_embed::word2vec::train_corpus;
use tdmatch_graph::{CorpusSide, CsrGraph};
use tdmatch_serve::protocol::{Request, Response, ResponseBody};
use tdmatch_text::{PreprocessOptions, Preprocessor};

use crate::gen::{self, Ask};
use crate::report::Outcome;
use crate::serve::Gathered;
use crate::setup::{self, K};
use crate::stats;
use crate::trace::{totals, Span, Tracer};
use crate::wire;

/// Delta batches the ingest replay runs on workloads without a stream.
const INGEST_DELTAS: usize = 5;
/// Queries the ANN replay searches.
const ANN_PROBES: usize = 200;

/// Mean span duration of `name` in `unit` seconds (1e-3 for ms), with
/// the span count; `(0, 0)` when no span has the name.
fn mean(spans: &[Span], name: &str, unit: f64) -> (f64, u64) {
    let t = totals(spans);
    t.get(name).map_or((0.0, 0), |e| {
        (e.1 as f64 / 1e9 / unit / e.0.max(1) as f64, e.0)
    })
}

/// The program's own fit, untraced: `TdMatch::fit_with` plus save.
pub struct Untraced {
    /// Wall time of the fit and its publish, s.
    pub fit_s: f64,
    /// The program's own stage timings of that fit.
    pub timings: StageTimings,
}

/// Fits `scenario` with `config` through `TdMatch::fit_with`, untraced,
/// and publishes it to `path`: the reference the traced fit is held to.
pub fn untraced_fit(
    scenario: &Scenario,
    config: &TdConfig,
    path: &Path,
) -> Result<Untraced, String> {
    let t = Instant::now();
    let model = setup::fit(scenario, config);
    model
        .artifact()
        .save(path)
        .map_err(|e| format!("publishing: {e}"))?;
    Ok(Untraced {
        fit_s: t.elapsed().as_secs_f64(),
        timings: model.timings,
    })
}

/// What the traced fit measured.
pub struct TracedFit {
    /// The artifact the recomposed fit published.
    pub artifact: MatchArtifact,
    /// The traced fit's wall time, s.
    pub fit_s: f64,
    /// Training's share of the stages `StageTimings` covers (build,
    /// expand, walks, train), from the spans.
    pub train_share: f64,
}

/// Training's share of the stages `timings` covers. Host speed cancels
/// out of it, so it compares across separate fits.
pub fn train_share(timings: &StageTimings) -> f64 {
    timings.train / timings.total()
}

/// The fit of `scenario` with `config` as W-RW-EX, recomposed from the
/// public layer calls `TdMatch::fit_with` makes, each in a span under
/// one root, then published. Sets the fit's layer metrics;
/// `fit.accounted_frac` is the layers' summed self times over the
/// program's own untraced fit of the same configuration.
pub fn fit(
    scenario: &Scenario,
    config: &TdConfig,
    untraced: &Untraced,
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<TracedFit, String> {
    let path = dir.join("fit-traced.tdm");
    let (first, second) = (&scenario.first, &scenario.second);
    let mut sizes = (0usize, 0usize, 0usize, 0usize);
    let artifact = tracer.span("fit", 0, 0, |root| -> Result<MatchArtifact, String> {
        let built = tracer.span("builder.build", root, 0, |_| {
            build_graph(
                first,
                second,
                config,
                Some((&scenario.pretrained, scenario.gamma)),
            )
        });
        let mut graph = built.graph;
        sizes.0 = graph.node_count();
        sizes.1 = graph.edge_count();
        let expanded = tracer.span("expand.expand", root, 0, |_| {
            expand_graph(
                &mut graph,
                scenario.kb.as_ref(),
                config.max_relations_per_node,
            )
        });
        sizes.2 = expanded.edges_added;
        let csr = tracer.span("walks.freeze", root, 0, |_| CsrGraph::from_graph(&graph));
        let corpus = tracer.span("walks.generate", root, 0, |_| {
            generate_walk_corpus(&csr, &config.walk_config())
        });
        sizes.3 = corpus.total_tokens();
        let matrix = tracer.span("word2vec.train", root, 0, |_| {
            let counts = corpus.token_counts(graph.id_bound(), false);
            train_corpus(&corpus, &counts, &config.w2v_config())
        });
        let artifact = tracer.span("artifact.assemble", root, 0, |_| {
            let dim = config.dim;
            let rows = |side: CorpusSide, len: usize| -> Vec<Option<Vec<f32>>> {
                (0..len)
                    .map(|i| {
                        graph
                            .meta_node(&doc_label(side, i))
                            .map(|n| matrix[n.index() * dim..(n.index() + 1) * dim].to_vec())
                    })
                    .collect()
            };
            let terms: Vec<(String, Vec<f32>)> = graph
                .nodes()
                .filter(|&n| !graph.kind(n).is_metadata())
                .map(|n| {
                    (
                        graph.label(n).to_string(),
                        matrix[n.index() * dim..(n.index() + 1) * dim].to_vec(),
                    )
                })
                .collect();
            MatchArtifact::from_matrices(
                dim,
                terms,
                ScoreMatrix::from_options_dim(&rows(CorpusSide::First, first.len()), dim),
                ScoreMatrix::from_options_dim(&rows(CorpusSide::Second, second.len()), dim),
            )
        });
        tracer
            .span("artifact.publish", root, 0, |_| artifact.save(&path))
            .map_err(|e| format!("publishing: {e}"))?;
        Ok(artifact)
    })?;

    let spans = tracer.spans();
    let t = totals(&spans);
    let busy = |name: &str| t.get(name).map_or(0.0, |e| e.2 as f64 / 1e9);
    let fit_s = t.get("fit").map_or(0.0, |e| e.1 as f64 / 1e9);
    let w2v = busy("word2vec.train");
    let stages = StageTimings {
        build: busy("builder.build"),
        expand: busy("expand.expand"),
        compress: 0.0,
        walks: busy("walks.freeze") + busy("walks.generate"),
        train: w2v,
    };
    let layers = stages.total() + busy("artifact.assemble") + busy("artifact.publish");
    let tokens = (sizes.3 * config.epochs) as f64;
    out.set("word2vec.busy_s", w2v);
    out.set("word2vec.tokens", tokens);
    out.set("word2vec.tokens_per_s", tokens / w2v);
    out.set("word2vec.threads", config.threads as f64);
    out.set("builder.busy_s", stages.build);
    out.set("builder.nodes", sizes.0 as f64);
    out.set("builder.edges", sizes.1 as f64);
    out.set("expand.busy_s", stages.expand);
    out.set("expand.edges_added", sizes.2 as f64);
    out.set("walks.busy_s", stages.walks);
    out.set("walks.tokens", sizes.3 as f64);
    out.set("artifact.save_s", busy("artifact.publish"));
    out.set("fit.accounted_frac", layers / untraced.fit_s);
    out.note("fit.traced_fit_s", fit_s);
    out.note("fit.untraced_fit_s", untraced.fit_s);
    out.note("fit.traced_train_share", train_share(&stages));
    out.note("fit.stage_train_share", train_share(&untraced.timings));
    Ok(TracedFit {
        artifact,
        fit_s,
        train_share: train_share(&stages),
    })
}

/// The ingest path `tdmatch ingest` takes, replayed on the artifact
/// published at `path`: [`INGEST_DELTAS`] seeded TSV batches (field
/// texts drawn from `words`), each parsed, applied to a fresh load of
/// the previous batch's file, and saved to a file of its own. Sets the
/// delta and artifact metrics.
pub fn ingest(
    path: &Path,
    seed: u64,
    words: &[String],
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let pre = Preprocessor::new(PreprocessOptions::default());
    let rows = MatchArtifact::load(path)
        .map_err(|e| format!("artifact load: {e}"))?
        .corpus_sizes()
        .0;
    let deltas = gen::delta_stream(seed, INGEST_DELTAS, rows, 0, words, &|_| true);
    // The batches form one stream (later ones may touch rows earlier ones
    // appended), so each applies to the file the one before published.
    let mut from = path.to_path_buf();
    for (j, d) in deltas.iter().enumerate() {
        let to = dir.join(format!("ingest-{j}.tdm"));
        ingest_batch(&d.tsv, &pre, &from, &to, j as u64 + 1, tracer, out)?;
        from = to;
    }
    out.set("artifact.bytes", setup::file_bytes(path) as f64);
    ingest_metrics(tracer, out);
    Ok(())
}

/// One TSV batch through the calls `tdmatch ingest` makes, each in a
/// span for request `req`: parse, load the artifact at `from`, apply,
/// and publish to `to`. Checks the batch applied in the generated shape.
/// Returns the parsed batch and the updated artifact.
pub fn ingest_batch(
    tsv: &str,
    pre: &Preprocessor,
    from: &Path,
    to: &Path,
    req: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(DeltaBatch, MatchArtifact), String> {
    let batch = tracer
        .span("delta.parse", 0, req, |_| DeltaBatch::from_tsv(tsv, pre))
        .map_err(|e| format!("delta parse: {e}"))?;
    let mut artifact = tracer
        .span("artifact.load", 0, req, |_| MatchArtifact::load(from))
        .map_err(|e| format!("artifact load: {e}"))?;
    let summary = tracer
        .span("delta.apply", 0, req, |_| artifact.apply_delta(&batch))
        .map_err(|e| format!("apply: {e}"))?;
    let shape = (summary.appended, summary.updated, summary.tombstoned);
    out.check(if shape == gen::DELTA_SHAPE {
        Ok(())
    } else {
        Err(format!("delta {req} applied as {shape:?}"))
    });
    tracer
        .span("artifact.save", 0, req, |_| artifact.save(to))
        .map_err(|e| format!("save: {e}"))?;
    Ok((batch, artifact))
}

/// Sets the delta and artifact metrics from the ingest spans.
pub fn ingest_metrics(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let ms = |name: &str| mean(&spans, name, 1e-3).0;
    out.set("delta.parse_ms", ms("delta.parse"));
    out.set("delta.apply_ms", ms("delta.apply"));
    out.set("artifact.load_ms", ms("artifact.load"));
    out.set("artifact.save_ms", ms("artifact.save"));
    out.set("serving.reload_ms", ms("serving.reload"));
    let (_, batches) = mean(&spans, "delta.apply", 1.0);
    let (a, u, t) = gen::DELTA_SHAPE;
    out.set("delta.ops", (batches as usize * (a + u + t)) as f64);
}

/// ANN candidate search at the daemon's default pool, on the first
/// [`ANN_PROBES`] of `asks`. When `facade`'s artifact has no index
/// (`serve`, `fit`), one is built with default parameters on a copy.
/// Sets `ann.search_us`, and `ann.mean_pool` where the daemon did not
/// search.
pub fn ann(facade: &Matcher, asks: &[Ask], tracer: &Tracer, out: &mut Outcome) {
    let built;
    let artifact = match facade.artifact().ann() {
        Some(_) => facade.artifact(),
        None => {
            let mut copy = facade.artifact().clone();
            copy.build_ann(&HnswParams::default());
            built = copy;
            &built
        }
    };
    let pre = Preprocessor::default();
    let mut scratch = SearchScratch::new();
    let mut block = QueryBlock::new(facade.dim());
    let mut pooled = 0usize;
    let mut searched = 0usize;
    for (i, a) in asks.iter().take(ANN_PROBES).enumerate() {
        let Some(q) = wire::engine_query(facade, &pre, a) else {
            continue;
        };
        block.clear();
        match q {
            Query::ById(id) => block.push_unit(artifact.second_matrix().row(id)),
            Query::ByVector(v) => block.push_raw(&v),
        };
        let row = block.matrix().row(0);
        let pool = tracer.span("ann.search", 0, i as u64, |_| {
            artifact.ann_pool_with(row, DEFAULT_POOL, DEFAULT_POOL, &mut scratch)
        });
        pooled += pool.map_or(0, |p| p.len());
        searched += 1;
    }
    out.set("ann.search_us", mean(&tracer.spans(), "ann.search", 1e-6).0);
    if out.metrics.get("ann.mean_pool").is_none_or(|&p| p == 0.0) {
        out.set("ann.mean_pool", pooled as f64 / searched.max(1) as f64);
    }
}

/// Replays the daemon's per-request layer calls in process, each inside
/// a span, on the first open-loop phase's requests and answers: frame
/// decode, answer encode, tokenization of by-text asks, and the scan at
/// the observed batch width. `server.unattributed_ms` is the wire p50
/// minus these self times: queue wait plus socket time.
pub fn requests(facade: &Matcher, asks: &[Ask], g: &Gathered, tracer: &Tracer, out: &mut Outcome) {
    let first = g.first.as_ref().expect("a run has an open-loop phase");
    let pre = Preprocessor::default();
    for s in &first.shots {
        let payload = &s.frame[4..];
        let decoded = tracer.span("protocol.decode", 0, s.id, |_| Request::decode(payload));
        std::hint::black_box(decoded.ok());
    }
    for j in &first.judged {
        let resp = Response {
            id: first.shots[j.shot].id,
            body: ResponseBody::Matches {
                matches: j.matches.clone(),
                batch: 1,
            },
        };
        std::hint::black_box(tracer.span("protocol.encode", 0, resp.id, |_| resp.encode()));
    }
    let asks = &asks[first.first..first.first + first.shots.len()];
    let mut texts = 0usize;
    for (s, ask) in first.shots.iter().zip(asks) {
        if let Ask::Text(t) = ask {
            texts += 1;
            std::hint::black_box(tracer.span("text.tokenize", 0, s.id, |_| pre.base_tokens(t)));
        }
    }
    let queries: Vec<Query> = asks
        .iter()
        .filter_map(|a| wire::engine_query(facade, &pre, a))
        .collect();
    let mean_batch = out.metrics.get("batch.mean_batch").copied().unwrap_or(1.0);
    let width = (mean_batch.round() as usize).clamp(1, QUERY_BLOCK);
    let mut block = facade.query_block();
    for chunk in queries.chunks(width) {
        std::hint::black_box(tracer.span("score.scan", 0, 0, |_| {
            facade.query_batch_with_mode(&mut block, chunk, K, false)
        }));
    }

    let spans = tracer.spans();
    let us = |name: &str| mean(&spans, name, 1e-6).0;
    let (decode, encode, tokenize, scan) = (
        us("protocol.decode"),
        us("protocol.encode"),
        us("text.tokenize"),
        us("score.scan"),
    );
    let (_, calls) = mean(&spans, "score.scan", 1.0);
    out.set("protocol.decode_us", decode);
    out.set("protocol.encode_us", encode);
    out.set("text.tokenize_us", tokenize);
    out.set("score.scan_us", scan);
    out.set(
        "score.pairs_per_s",
        (queries.len() * facade.targets()) as f64 / (scan * calls as f64 / 1e6).max(1e-12),
    );
    out.note("score.width", width);
    let text_share = texts as f64 / asks.len().max(1) as f64;
    let attributed_us = decode + encode + tokenize * text_share + scan / width as f64;
    let wire: Vec<f64> = g.latencies.iter().map(|l| l.1).collect();
    let wire_p50 = stats::median(&wire).expect("a run has open-loop answers");
    out.set("server.unattributed_ms", wire_p50 - attributed_us / 1e3);
}

/// Sets `trace.overhead_frac` from samples tagged traced or not.
pub fn overhead(samples: &[(bool, f64)], out: &mut Outcome) {
    if let Some(o) = stats::overhead(samples) {
        out.set("trace.overhead_frac", o);
    }
}
