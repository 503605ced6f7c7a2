//! A full product-style scenario: a hospital monitoring deployment that
//! exercises every layer together — generation, persistence, partitioned
//! stores, the query language, batch and streaming matching, measures,
//! negation, and instrumentation — with cross-layer consistency checks.

use std::collections::BTreeMap;

use ses::prelude::*;
use ses::workload::{chemo, paper};

fn ward() -> Relation {
    chemo::generate(&chemo::ChemoConfig {
        patients: 12,
        cycles: 3,
        ..chemo::ChemoConfig::small()
    })
}

#[test]
fn end_to_end_hospital_monitoring() {
    let ward = ward();
    let schema = paper::schema();

    // --- Persistence: the CSV round trip is lossless. -----------------
    let dir = std::env::temp_dir().join("ses-scenario");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("ward-{}.csv", std::process::id()));
    EventStore::new("ward", ward.clone())
        .save_csv(&path)
        .unwrap();
    let reloaded = EventStore::load_csv_with_schema(&path, &schema).unwrap();
    assert_eq!(reloaded.len(), ward.len());
    std::fs::remove_file(&path).ok();

    // --- The protocol query, from text. --------------------------------
    let q1 = ses::query::parse_pattern(
        "PATTERN PERMUTE(c, p+, d) THEN b \
         WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
           AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
         WITHIN 264 HOURS",
        TickUnit::Hour,
    )
    .unwrap();
    let matcher = Matcher::compile(&q1, &schema).unwrap();

    let mut probe = CountingProbe::new();
    let matches = matcher.find_with_probe(reloaded.relation(), &mut probe);
    assert!(!matches.is_empty());
    assert!(probe.events_filtered > 0, "aux events must be filtered");

    // --- Batch == streaming (eager emissions + final flush). -----------
    let mut stream = StreamMatcher::compile(&q1, &schema).unwrap();
    let mut streamed = Vec::new();
    for e in ward.events() {
        streamed.extend(stream.push(e.ts(), e.values().to_vec()).unwrap());
    }
    streamed.extend(stream.finish());
    let mut batch = matches.clone();
    streamed.sort();
    batch.sort();
    assert_eq!(streamed, batch);

    // --- Global correlated == per-patient partitioned. -----------------
    let id_attr = schema.attr_id("ID").unwrap();
    let per_patient: usize = ses::event::partition_views(&ward, id_attr)
        .iter()
        .map(|(_, view)| {
            let mut part = Relation::new(schema.clone());
            for (_, event) in view.iter() {
                part.push_event(event.clone()).unwrap();
            }
            matcher.find(&part).len()
        })
        .sum();
    assert_eq!(per_patient, matches.len());

    // --- Per-patient report with dose measures. ------------------------
    let p_var = q1.var_id("p").unwrap();
    let v_attr = schema.attr_id("V").unwrap();
    let mut report: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for m in &matches {
        let patient = ward
            .event(m.first_event())
            .value_by_name("ID", &schema)
            .unwrap()
            .to_string();
        let total = match ses::core::aggregate(m, p_var, v_attr, ses::core::Aggregate::Sum, &ward) {
            Some(Value::Float(f)) => f,
            Some(Value::Int(i)) => i as f64,
            other => panic!("dose sum must be numeric, got {other:?}"),
        };
        let entry = report.entry(patient).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += total;
    }
    assert!(!report.is_empty());
    for (patient, (cycles, dose)) in &report {
        assert!(
            *cycles >= 1 && *cycles <= 3,
            "patient {patient}: {cycles} cycles"
        );
        // 1–5 Prednisone administrations of 80–130 mg per matched cycle.
        assert!(
            *dose >= 80.0 * *cycles as f64 && *dose <= 5.0 * 130.0 * *cycles as f64,
            "patient {patient}: implausible total dose {dose}"
        );
    }

    // --- Matching a time slice only. -----------------------------------
    let mid = ward.event(EventId((ward.len() / 2) as u32)).ts();
    let mut early = Relation::new(schema.clone());
    for event in ward.events().iter().take_while(|e| e.ts() <= mid) {
        early.push_event(event.clone()).unwrap();
    }
    let early_matches = matcher.find(&early);
    assert!(early_matches.len() <= matches.len());

    // --- The negated variant returns a subset. --------------------------
    let calm = ses::query::parse_pattern(
        "PATTERN PERMUTE(c, p+, d) THEN NOT fever THEN b \
         WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
           AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
           AND fever.L = 'T' AND fever.ID = c.ID \
         WITHIN 264 HOURS",
        TickUnit::Hour,
    )
    .unwrap();
    let calm_matches = Matcher::compile(&calm, &schema).unwrap().find(&ward);
    assert!(calm_matches.len() <= matches.len());
    for m in &calm_matches {
        assert!(batch.contains(m));
    }
}

#[test]
fn merged_wards_match_like_a_single_ward() {
    // Two hospital sites stream into one monitoring deployment; matching
    // the merged relation equals the sum of per-site matches (patient ids
    // are disjoint, so no cross-site matches can exist).
    let site_a = chemo::generate(&chemo::ChemoConfig::small().with_seed(1));
    // Shift site B's patient ids by 1000 to keep them disjoint.
    let site_b_raw = chemo::generate(&chemo::ChemoConfig::small().with_seed(2));
    let mut site_b = Relation::new(paper::schema());
    for e in site_b_raw.events() {
        let mut values = e.values().to_vec();
        let Value::Int(id) = values[0] else {
            panic!("ID is INT")
        };
        values[0] = Value::Int(id + 1000);
        site_b.push_values(e.ts(), values).unwrap();
    }

    // Interleave the sites chronologically; ties keep site A first.
    let mut events: Vec<Event> = site_a
        .events()
        .iter()
        .chain(site_b.events())
        .cloned()
        .collect();
    events.sort_by_key(Event::ts);
    let mut merged = Relation::new(paper::schema());
    for e in events {
        merged.push_event(e).unwrap();
    }
    assert_eq!(merged.len(), site_a.len() + site_b.len());

    let matcher = Matcher::compile(&paper::query_q1(), &paper::schema()).unwrap();
    let merged_count = matcher.find(&merged).len();
    let split_count = matcher.find(&site_a).len() + matcher.find(&site_b).len();
    assert_eq!(merged_count, split_count);
    assert!(merged_count > 0);
}
