//! Multi-pattern ("bank") workload: N correlated queries over one
//! stream.
//!
//! The generator emits a pool of event types `T00, T01, …` and N
//! two-variable sequence patterns, each watching a pair of types from
//! the pool and correlating on `ID`. With a pool of `2 × patterns`
//! types the pairs are disjoint — every event concerns exactly one
//! pattern, the predicate index's best case; shrinking the pool makes
//! patterns share types, exercising overlapping routing. The
//! repository's benchmark (`stream-bank`, `server-ingest`) and the
//! bank-vs-independent differential suite feed on this.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ses_event::{AttrType, CmpOp, Duration, Relation, Schema, Timestamp, Value};
use ses_pattern::Pattern;

/// The bank workload schema: an event type label and a correlation key.
pub fn schema() -> Schema {
    Schema::builder()
        .attr("TYPE", AttrType::Str)
        .attr("ID", AttrType::Int)
        .build()
        .expect("static schema is valid")
}

/// The `i`-th event type label of the pool.
pub fn label(i: usize) -> String {
    format!("T{i:02}")
}

/// Configuration of the bank workload generator.
#[derive(Debug, Clone)]
pub struct BankConfig {
    /// Number of patterns to generate.
    pub patterns: usize,
    /// Size of the event-type pool. At `2 × patterns` the patterns'
    /// type pairs are disjoint; smaller pools make patterns overlap.
    pub event_types: usize,
    /// Number of events in the stream.
    pub events: usize,
    /// Each pattern's window, in ticks.
    pub within: i64,
    /// Correlation keys are drawn from `0..ids` — small so matches
    /// actually occur.
    pub ids: i64,
    /// RNG seed.
    pub seed: u64,
}

impl BankConfig {
    /// A small deterministic workload for tests and CI smoke runs.
    pub fn small() -> BankConfig {
        BankConfig {
            patterns: 8,
            event_types: 16,
            events: 2_000,
            within: 20,
            ids: 4,
            seed: 42,
        }
    }

    /// Scales to `n` patterns, keeping the type pool at `2 × n` so the
    /// pairs stay disjoint.
    pub fn with_patterns(mut self, n: usize) -> BankConfig {
        self.patterns = n;
        self.event_types = 2 * n.max(1);
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> BankConfig {
        self.seed = seed;
        self
    }

    /// Replaces the stream length.
    pub fn with_events(mut self, events: usize) -> BankConfig {
        self.events = events;
        self
    }
}

/// The bank's named patterns: pattern `i` is `a THEN b` with
/// `a.TYPE = T(2i mod m)`, `b.TYPE = T(2i+1 mod m)`, and `a.ID = b.ID`.
pub fn patterns(config: &BankConfig) -> Vec<(String, Pattern)> {
    assert!(config.event_types >= 1, "need at least one event type");
    (0..config.patterns)
        .map(|i| {
            let a = label((2 * i) % config.event_types);
            let b = label((2 * i + 1) % config.event_types);
            let p = Pattern::builder()
                .set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "TYPE", CmpOp::Eq, a.as_str())
                .cond_const("b", "TYPE", CmpOp::Eq, b.as_str())
                .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
                .within(Duration::ticks(config.within))
                .build()
                .expect("bank pattern is valid");
            (format!("q{i:02}"), p)
        })
        .collect()
}

/// Generates the event stream: random types and correlation keys on a
/// clock that advances 0–2 ticks per event (so timestamp ties occur).
/// Types are uniform. Deterministic per seed, chronologically ordered.
pub fn generate(config: &BankConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = Relation::builder(schema());
    let mut t = 0i64;
    for _ in 0..config.events {
        t += rng.random_range(0..=2);
        let ty = rng.random_range(0..config.event_types);
        let id = rng.random_range(0..config.ids.max(1));
        builder = builder
            .row(
                Timestamp::new(t),
                vec![Value::from(label(ty)), Value::from(id)],
            )
            .expect("generated rows are well-typed");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::{MatcherOptions, PatternBank, StreamMatcher};
    use ses_pattern::{IndexClass, PatternIndex};

    #[test]
    fn deterministic_and_chronological() {
        let cfg = BankConfig::small();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), cfg.events);
        assert_eq!(
            a.events().iter().map(|e| e.ts()).collect::<Vec<_>>(),
            b.events().iter().map(|e| e.ts()).collect::<Vec<_>>()
        );
        for w in a.events().windows(2) {
            assert!(w[0].ts() <= w[1].ts());
        }
        assert_ne!(
            generate(&cfg.clone().with_seed(7)).events()[0].values(),
            a.events()[0].values()
        );
    }

    #[test]
    fn disjoint_pool_is_fully_point_indexed() {
        let cfg = BankConfig::small().with_patterns(16);
        let compiled: Vec<_> = patterns(&cfg)
            .iter()
            .map(|(_, p)| p.compile(&schema()).unwrap())
            .collect();
        let index = PatternIndex::build(compiled.iter());
        for i in 0..cfg.patterns {
            assert_eq!(index.class(i), IndexClass::Indexed);
        }
    }

    #[test]
    fn bank_agrees_with_independent_matchers_and_index_saves_pushes() {
        let cfg = BankConfig {
            events: 600,
            ..BankConfig::small()
        };
        let rel = generate(&cfg);
        let named = patterns(&cfg);

        let mut builder = PatternBank::builder(&schema());
        for (name, p) in &named {
            builder = builder
                .register(name.clone(), p, MatcherOptions::default())
                .unwrap();
        }
        let mut bank = builder.build();
        let mut independent: Vec<StreamMatcher> = named
            .iter()
            .map(|(_, p)| StreamMatcher::compile(p, &schema()).unwrap())
            .collect();

        let mut got: Vec<Vec<ses_core::Match>> = vec![Vec::new(); named.len()];
        let mut want = got.clone();
        for (_, e) in rel.iter() {
            for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
                got[i].push(m);
            }
            for (i, sm) in independent.iter_mut().enumerate() {
                want[i].extend(sm.push(e.ts(), e.values().to_vec()).unwrap());
            }
        }
        let hits = bank.total_hits();
        for (i, m) in bank.finish() {
            got[i].push(m);
        }
        for (i, sm) in independent.into_iter().enumerate() {
            want[i].extend(sm.finish());
        }
        assert_eq!(got, want);
        assert!(got.iter().any(|g| !g.is_empty()), "workload never matches");
        // Disjoint pairs: each event is routed to exactly one pattern.
        assert_eq!(hits, cfg.events as u64);
    }
}
