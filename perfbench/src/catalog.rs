//! What the benchmark measures and why: the workloads, every metric
//! with its unit and direction, and which end-to-end metric each layer
//! metric should move on which workload. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fit",
        why: "cold fit of imdb-wt small as W-RW-EX, publish, mapped reopen, then served: the only workload where builder, expand, walks and word2vec do the work",
    },
    Workload {
        name: "serve",
        why: "open-loop exact serving of 65,536 targets at 400 req/s, saturated throughput, reloads: scan, codec and scheduler work; fit, ANN and delta are bypassed",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures on each workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median over the rounds of one set-up: fit: generating the scenario corpora, \
                  KB and pre-trained model (once before the fit and five times after each round); \
                  serve: tiny fit, growth of the target side to 65,536 rows, publish, mapped \
                  open, daemon start and first pong",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        meaning: "peak resident set of the benchmark process, daemon included",
    },
    EndToEnd {
        name: "fit_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "corpus in to artifact: fit: median over the run's fits (at least two, more \
                  while --seconds lasts) of the small W-RW-EX fit plus its publish; \
                  serve: median over the rounds of the mean of the round's three builds of the \
                  served artifact: tiny fit and growth (its publish is in setup_s)",
    },
    EndToEnd {
        name: "mrr",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.1,
        meaning: "fit: the reopened artifact's top-20 against ground truth; serve: the same for \
                  the tiny fixture model behind the served artifact, before growth",
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "mean of the middle half of the windows' median wire latencies from due \
                  time, a window being 200 or more consecutive open-loop requests of the \
                  run: serve: 400 req/s, arriving as a Poisson process; fit: ranking the whole \
                  query corpus against the reopened artifact in process, 400 times \
                  after each round",
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "mean of the middle half of the same windows' p95s (ten samples or more \
                  beyond each); their pooled p99 is loadgen.p99_ms, not gated: \
                  on a small shared host about 1% of the time is scheduling stalls, so p99 \
                  measures the host rather than the program",
    },
    EndToEnd {
        name: "max_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "median over the rounds of the answers per second with 16 requests kept \
                  outstanding on one connection, so the backlog cannot grow: the daemon's \
                  saturated throughput, exact mode",
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        meaning: "checked outputs that passed (wire answers, rankings, answers after \
                  reloads), over those attempted: 1 - the failure share",
    },
    EndToEnd {
        name: "visible_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
        meaning: "reload request to the first wire answer after it",
    },
    EndToEnd {
        name: "visible_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "p90 of the same samples as visible_p50_ms (at least ten samples beyond it)",
    },
    EndToEnd {
        name: "recall_at_k",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        meaning: "recall@20 of the open-loop wire answers against the exact scan at the same \
                  generation",
    },
];

/// A per-layer metric and what it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed with its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metrics and workloads it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const FIT_TIME: &str = "fit_s on fit (not serve, except a little of its setup_s)";
const SERVE_SCAN: &str = "p50_ms, p95_ms and max_rps on serve";
const REPLAY: &str = "no end-to-end metric: both workloads bypass this path, which the traced \
                      run measures by replay";

/// The per-layer metrics every traced run prints. Every workload
/// measures each layer on its own inputs (see `layers`); the daemon's
/// counters read 0 where nothing happened.
pub const PER_LAYER: [Layer; 40] = [
    layer(
        "word2vec.busy_s",
        "s",
        Better::Lower,
        "fit_s on fit (about 99% of it); guards mrr",
    ),
    layer("word2vec.tokens", "count", Better::Lower, FIT_TIME),
    layer("word2vec.tokens_per_s", "1/s", Better::Higher, FIT_TIME),
    layer("word2vec.threads", "count", Better::Higher, FIT_TIME),
    layer("builder.busy_s", "s", Better::Lower, FIT_TIME),
    layer("builder.nodes", "count", Better::Lower, FIT_TIME),
    layer("builder.edges", "count", Better::Lower, FIT_TIME),
    layer("expand.busy_s", "s", Better::Lower, FIT_TIME),
    layer("expand.edges_added", "count", Better::Lower, FIT_TIME),
    layer("walks.busy_s", "s", Better::Lower, FIT_TIME),
    layer("walks.tokens", "count", Better::Lower, FIT_TIME),
    layer("artifact.save_s", "s", Better::Lower, FIT_TIME),
    layer(
        "artifact.bytes",
        "bytes",
        Better::Lower,
        "fit_s on fit; setup_s on serve",
    ),
    layer(
        "fit.accounted_frac",
        "ratio",
        Better::Higher,
        "summed self times of the traced fit's layers over the program's own untraced \
         fit (fit_with plus save) of the same configuration: below 1 when fit_with does \
         work the layers leave out",
    ),
    layer("score.scan_us", "us", Better::Lower, SERVE_SCAN),
    layer("score.pairs_per_s", "1/s", Better::Higher, SERVE_SCAN),
    layer(
        "batch.mean_batch",
        "count",
        Better::Higher,
        "max_rps and p95_ms on serve",
    ),
    layer(
        "batch.coalesced_frac",
        "ratio",
        Better::Higher,
        "max_rps and p95_ms on serve",
    ),
    layer(
        "pool.shards",
        "count",
        Better::Lower,
        "max_rps and p95_ms on serve",
    ),
    layer("protocol.decode_us", "us", Better::Lower, "p50_ms on serve"),
    layer("protocol.encode_us", "us", Better::Lower, "p50_ms on serve"),
    layer("text.tokenize_us", "us", Better::Lower, "p50_ms on serve"),
    layer(
        "server.unattributed_ms",
        "ms",
        Better::Lower,
        "p50_ms and p95_ms on serve (queue wait plus socket time)",
    ),
    layer("server.shed", "count", Better::Lower, "ok_frac on serve"),
    layer("server.evicted", "count", Better::Lower, "ok_frac on serve"),
    layer("server.errors", "count", Better::Lower, "ok_frac on serve"),
    layer("ann.search_us", "us", Better::Lower, REPLAY),
    layer("ann.mean_pool", "count", Better::Lower, REPLAY),
    layer("delta.parse_ms", "ms", Better::Lower, REPLAY),
    layer("delta.apply_ms", "ms", Better::Lower, REPLAY),
    layer("delta.ops", "count", Better::Higher, REPLAY),
    layer("artifact.load_ms", "ms", Better::Lower, REPLAY),
    layer("artifact.save_ms", "ms", Better::Lower, REPLAY),
    layer(
        "serving.reload_ms",
        "ms",
        Better::Lower,
        "visible_p50_ms and visible_p90_ms on serve and fit",
    ),
    layer(
        "loadgen.sent",
        "count",
        Better::Higher,
        "validity of the open loop",
    ),
    layer(
        "loadgen.p99_ms",
        "ms",
        Better::Lower,
        "the tail beyond p95_ms on serve (wire latency on fit)",
    ),
    layer(
        "loadgen.late_ms_max",
        "ms",
        Better::Lower,
        "validity of the open loop",
    ),
    layer(
        "loadgen.repeat_frac",
        "ratio",
        Better::Lower,
        "validity of the open loop",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Better::Lower,
        "traced over untraced, minus 1: fit: the recomposed fit against fit_with on the same \
         seed; serve: traced against untraced requests",
    ),
    layer(
        "trace.spans",
        "count",
        Better::Lower,
        "spans recorded in the traced run",
    ),
];

/// True for a valid metric or workload name: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "invalid name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "invalid unit {u}");
        }
    }

    #[test]
    fn name_rule_rejects_bad_characters() {
        assert!(valid_name("word2vec.busy_s"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("ünicode"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s") && !valid_unit(""));
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
        assert_eq!(unit_of("max_rps"), Some("1/s"));
        assert_eq!(unit_of("delta.ops"), Some("count"));
        assert!(workload("serve").is_some() && workload("nope").is_none());
    }
}
