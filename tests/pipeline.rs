//! End-to-end pipelines across crates: generator → CSV store → query
//! language → matcher, on all three domain workloads.

use ses::prelude::*;
use ses::workload::{chemo, finance, rfid};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ses-pipeline-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.csv", std::process::id()))
}

#[test]
fn chemo_pipeline_via_csv_and_query_language() {
    // Generate, persist, reload: matching the reloaded store must give
    // identical results to matching the in-memory relation.
    let relation = chemo::generate(&chemo::ChemoConfig::small());
    let store = EventStore::new("chemo", relation.clone());
    let path = temp_path("chemo");
    store.save_csv(&path).unwrap();
    let reloaded = EventStore::load_csv(&path).unwrap();
    assert_eq!(reloaded.len(), relation.len());

    let pattern = ses::query::parse_pattern(
        "PATTERN PERMUTE(c, p+, d) THEN b \
         WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
           AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
         WITHIN 264 HOURS",
        TickUnit::Hour,
    )
    .unwrap();
    let matcher = Matcher::compile(&pattern, relation.schema()).unwrap();
    let direct = matcher.find(&relation);
    let via_csv = matcher.find(reloaded.relation());
    assert_eq!(direct, via_csv);
    assert!(!direct.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn finance_pipeline_finds_planted_motifs() {
    let cfg = finance::FinanceConfig::small();
    let tape = finance::generate(&cfg);
    let pattern = ses::query::parse_pattern(
        "PATTERN PERMUTE(buy, sell) THEN alert \
         WHERE buy.TYPE = 'BUY' AND buy.QTY >= 10000 \
           AND sell.TYPE = 'SELL' AND sell.QTY >= 10000 \
           AND alert.TYPE = 'ALERT' \
           AND buy.SYM = sell.SYM AND buy.SYM = alert.SYM \
         WITHIN 60 TICKS",
        TickUnit::Minute,
    )
    .unwrap();
    let matches = Matcher::compile(&pattern, tape.schema())
        .unwrap()
        .find(&tape);
    assert!(
        matches.len() >= cfg.motifs,
        "found {} of {} planted motifs",
        matches.len(),
        cfg.motifs
    );
    // And it agrees with the programmatic pattern.
    let prog = finance::accumulation_pattern(cfg.large_qty, Duration::ticks(60));
    let prog_matches = Matcher::compile(&prog, tape.schema()).unwrap().find(&tape);
    assert_eq!(matches.len(), prog_matches.len());
}

#[test]
fn rfid_pipeline_partitioned_equals_global() {
    // Matching per-tag partitions must find the same number of matches
    // as the correlated global query.
    let cfg = rfid::RfidConfig::small();
    let tape = rfid::generate(&cfg);
    let pattern = rfid::fulfillment_pattern(Duration::ticks(cfg.journey_seconds * 2));
    let matcher = Matcher::compile(&pattern, tape.schema()).unwrap();
    let global = matcher.find(&tape);

    let tag_attr = tape.schema().attr_id("TAG").unwrap();
    let mut partitioned_total = 0;
    for (_, view) in ses::event::partition_views(&tape, tag_attr) {
        let mut part = Relation::new(tape.schema().clone());
        for (_, event) in view.iter() {
            part.push_event(event.clone()).unwrap();
        }
        partitioned_total += matcher.find(&part).len();
    }
    assert_eq!(global.len(), partitioned_total);
    assert_eq!(global.len(), cfg.complete_parcels);
}

#[test]
fn dataset_duplication_scales_window_size() {
    // The D1…D5 construction of the paper's §5.1: each event k times ⇒
    // W scales by k.
    let base = chemo::generate(&chemo::ChemoConfig::small());
    let w1 = base.window_size(Duration::hours(264));
    for k in 1..=5 {
        let d = base.duplicate(k);
        assert_eq!(d.window_size(Duration::hours(264)), k * w1);
    }
}

#[test]
fn matches_on_duplicated_data_grow() {
    // Duplicated events multiply binding choices; the engine must cope
    // with massive timestamp ties and still produce valid matches.
    let pattern = ses::workload::paper::query_q1();
    let base = ses::workload::paper::figure1();
    let matcher = Matcher::compile(&pattern, base.schema()).unwrap();
    let d2 = base.duplicate(2);
    let compiled = pattern.compile(base.schema()).unwrap();
    let matches = matcher.find(&d2);
    assert!(!matches.is_empty());
    for m in &matches {
        assert!(ses::core::satisfies_conditions_1_3(
            &compiled,
            &d2,
            m.bindings()
        ));
    }
}
