//! Seeded input generation. Every input the program receives is made
//! here from the run's seed: the same seed gives byte-identical inputs.

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that
    /// independent inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(s) over `n` ranks; rank 0 is the most frequent.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Due times, ns from the start, of `count` requests arriving as a
/// Poisson process at `rate` per second: independent users. Evenly
/// spaced requests lock into step with anything else periodic on the
/// host or in the program (a delta stream, a timer), so that a whole
/// stretch of them either meets it or misses it.
pub fn arrivals(seed: u64, count: usize, rate: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 4);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            let due = at;
            at += -(1.0 - rng.unit()).ln() / rate;
            (due * 1e9) as u64
        })
        .collect()
}

/// Zipf bags of vocabulary indices: `rows` documents of 6 to 12 terms,
/// with term popularity ranked by a seeded permutation.
pub fn zipf_bags(seed: u64, vocab: usize, rows: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, 1);
    let order = rng.permutation(vocab);
    let zipf = Zipf::new(vocab, 1.0);
    (0..rows)
        .map(|_| {
            let len = rng.between(6, 12);
            (0..len).map(|_| order[zipf.sample(&mut rng)]).collect()
        })
        .collect()
}

/// Words sampled from raw texts, joined by spaces: `lo..=hi` words.
pub fn word_sample(rng: &mut Rng, words: &[String], lo: usize, hi: usize) -> String {
    let n = rng.between(lo, hi);
    (0..n)
        .map(|_| words[rng.below(words.len())].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// One generated query, before it is given a wire id.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// A query-corpus document by index.
    Id(usize),
    /// Raw text, tokenized by the daemon.
    Text(String),
    /// A raw embedding.
    Vector(Vec<f32>),
}

/// The query mix: one third each by-id (uniform over `queries`
/// documents, so ids repeat), by-text (3 to 8 words sampled from
/// `words`), and by-vector (the mean of 2 to 5 Zipf-drawn rows of
/// `terms` plus Gaussian noise, so every vector is new).
pub fn query_mix(
    seed: u64,
    count: usize,
    queries: usize,
    words: &[String],
    terms: &[&[f32]],
) -> Vec<Ask> {
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(terms.len(), 1.0);
    let order = rng.permutation(terms.len());
    let dim = terms[0].len();
    (0..count)
        .map(|_| match rng.below(3) {
            0 => Ask::Id(rng.below(queries)),
            1 => Ask::Text(word_sample(&mut rng, words, 3, 8)),
            _ => {
                let picks = rng.between(2, 5);
                let mut v = vec![0.0f32; dim];
                for _ in 0..picks {
                    for (s, x) in v.iter_mut().zip(terms[order[zipf.sample(&mut rng)]]) {
                        *s += x / picks as f32;
                    }
                }
                for s in &mut v {
                    *s += 0.05 * rng.normal() as f32;
                }
                Ask::Vector(v)
            }
        })
        .collect()
}

/// One generated ingest batch, in the `tdmatch ingest` TSV format.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The TSV text handed to the delta parser.
    pub tsv: String,
    /// Rows this batch appends, in order.
    pub appended: Vec<usize>,
    /// Rows this batch re-embeds.
    pub updated: Vec<usize>,
    /// Rows this batch tombstones.
    pub tombstoned: Vec<usize>,
}

/// Appends, updates and tombstones per generated batch.
pub const DELTA_SHAPE: (usize, usize, usize) = (4, 2, 2);

/// A stream of `count` batches over a target side that starts with
/// `rows` rows, of which the first `protected` (the scenario's own
/// targets, which carry the ground truth) are never touched. Each batch
/// appends 4 documents, updates 2 live rows and tombstones 2 others.
/// Field texts are 6 to 10 words from `words`, redrawn until `accept`
/// takes them.
pub fn delta_stream(
    seed: u64,
    count: usize,
    rows: usize,
    protected: usize,
    words: &[String],
    accept: &dyn Fn(&str) -> bool,
) -> Vec<Delta> {
    let mut rng = Rng::new(seed, 3);
    let mut live: Vec<usize> = (protected..rows).collect();
    let mut next = rows;
    let text = |rng: &mut Rng| loop {
        let t = word_sample(rng, words, 6, 10);
        if accept(&t) {
            break t;
        }
    };
    let (appends, updates, tombstones) = DELTA_SHAPE;
    (0..count)
        .map(|_| {
            let mut tsv = String::new();
            let mut delta = Delta {
                tsv: String::new(),
                appended: Vec::new(),
                updated: Vec::new(),
                tombstoned: Vec::new(),
            };
            for _ in 0..appends {
                tsv.push_str(&format!("append\t{}\n", text(&mut rng)));
                delta.appended.push(next);
                next += 1;
            }
            // Distinct live rows for this batch's updates and tombstones.
            for u in 0..updates + tombstones {
                let row = live.swap_remove(rng.below(live.len()));
                if u < updates {
                    tsv.push_str(&format!("update\t{row}\t{}\n", text(&mut rng)));
                    delta.updated.push(row);
                } else {
                    tsv.push_str(&format!("tombstone\t{row}\n"));
                    delta.tombstoned.push(row);
                }
            }
            live.extend(&delta.updated);
            live.extend(&delta.appended);
            delta.tsv = tsv;
            delta
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<String> {
        "quentin tarantino pulp fiction heist crime drama noir bruce willis"
            .split(' ')
            .map(String::from)
            .collect()
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut p = Rng::new(3, 0).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(5, 0);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[90]);
    }

    #[test]
    fn generated_inputs_repeat_per_seed() {
        let t = [[1.0f32, 0.0], [0.0, 1.0], [0.5, 0.5]];
        let terms: Vec<&[f32]> = t.iter().map(|r| &r[..]).collect();
        let w = words();
        assert_eq!(
            query_mix(9, 300, 20, &w, &terms),
            query_mix(9, 300, 20, &w, &terms)
        );
        assert_ne!(
            query_mix(9, 300, 20, &w, &terms),
            query_mix(10, 300, 20, &w, &terms)
        );
        assert_eq!(arrivals(4, 100, 400.0), arrivals(4, 100, 400.0));
        assert_ne!(arrivals(4, 100, 400.0), arrivals(5, 100, 400.0));
        assert_eq!(zipf_bags(4, 50, 100), zipf_bags(4, 50, 100));
        assert_ne!(zipf_bags(4, 50, 100), zipf_bags(5, 50, 100));
        let yes = |_: &str| true;
        assert_eq!(
            delta_stream(2, 30, 100, 40, &w, &yes),
            delta_stream(2, 30, 100, 40, &w, &yes)
        );
        assert_ne!(
            delta_stream(2, 30, 100, 40, &w, &yes),
            delta_stream(3, 30, 100, 40, &w, &yes)
        );
    }

    #[test]
    fn arrivals_keep_their_rate() {
        let due = arrivals(1, 20_000, 400.0);
        assert_eq!(due[0], 0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 19_999.0 / (due[19_999] as f64 / 1e9);
        assert!((380.0..420.0).contains(&rate), "{rate} per second");
    }

    #[test]
    fn query_mix_is_a_third_each() {
        let t = [[1.0f32, 0.0], [0.0, 1.0]];
        let terms: Vec<&[f32]> = t.iter().map(|r| &r[..]).collect();
        let mix = query_mix(1, 3000, 20, &words(), &terms);
        let ids = mix.iter().filter(|a| matches!(a, Ask::Id(_))).count();
        let texts = mix.iter().filter(|a| matches!(a, Ask::Text(_))).count();
        assert!((900..1100).contains(&ids) && (900..1100).contains(&texts));
    }

    #[test]
    fn delta_stream_keeps_its_shape_and_protects_rows() {
        let deltas = delta_stream(11, 50, 100, 40, &words(), &|t: &str| t.contains("noir"));
        let mut tombstoned = std::collections::HashSet::<usize>::new();
        for (j, d) in deltas.iter().enumerate() {
            assert_eq!(d.appended, (100 + 4 * j..104 + 4 * j).collect::<Vec<_>>());
            assert_eq!((d.updated.len(), d.tombstoned.len()), (2, 2));
            for &r in d.updated.iter().chain(&d.tombstoned) {
                assert!(r >= 40, "protected row {r} touched");
                assert!(
                    !tombstoned.contains(&r),
                    "row {r} touched after its tombstone"
                );
            }
            tombstoned.extend(&d.tombstoned);
            assert_eq!(d.tsv.lines().count(), 8);
            assert!(d
                .tsv
                .lines()
                .filter(|l| l.starts_with("append"))
                .all(|l| l.contains("noir")));
        }
    }
}
