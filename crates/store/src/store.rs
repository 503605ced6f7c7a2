//! The event store: a named, persistent event relation.
//!
//! The paper keeps its input relation "in an Oracle database, Enterprise
//! Edition 11.1, which is accessed over the OCI API" and reads it in
//! timestamp order. [`EventStore`] provides the same contract — a
//! time-ordered tuple source — from an in-memory relation with CSV
//! persistence.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use ses_event::{Duration, Relation, Schema};

use crate::csv::{read_csv, write_csv};
use crate::StoreError;

/// A named event relation with persistence and analytical helpers.
#[derive(Debug, Clone)]
pub struct EventStore {
    name: String,
    relation: Relation,
}

impl EventStore {
    /// Wraps a relation.
    pub fn new(name: impl Into<String>, relation: Relation) -> EventStore {
        EventStore {
            name: name.into(),
            relation,
        }
    }

    /// Loads a store from a CSV file (schema inferred from the typed
    /// header); the store is named after the file stem.
    pub fn load_csv(path: impl AsRef<Path>) -> Result<EventStore, StoreError> {
        let path = path.as_ref();
        let relation = read_csv(BufReader::new(File::open(path)?))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string());
        Ok(EventStore { name, relation })
    }

    /// Loads a store, validating the file's schema against `expected`.
    pub fn load_csv_with_schema(
        path: impl AsRef<Path>,
        expected: &Schema,
    ) -> Result<EventStore, StoreError> {
        let store = EventStore::load_csv(path)?;
        if !store.relation.schema().is_compatible(expected) {
            return Err(StoreError::SchemaMismatch {
                expected: expected.to_string(),
                found: store.relation.schema().to_string(),
            });
        }
        Ok(store)
    }

    /// Writes the store as CSV.
    pub fn save_csv(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut out = BufWriter::new(File::create(path)?);
        write_csv(&self.relation, &mut out)
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying relation (the matcher's input).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Consumes the store, returning the relation.
    pub fn into_relation(self) -> Relation {
        self.relation
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// `true` iff the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Window size `W` for window width `τ` (Definition 5).
    pub fn window_size(&self, tau: Duration) -> usize {
        self.relation.window_size(tau)
    }

    /// Quick descriptive statistics used by `ses-cli stats`.
    pub fn stats(&self, tau: Duration) -> StoreStats {
        StoreStats {
            events: self.relation.len(),
            attributes: self.relation.schema().len(),
            first_ts: self.relation.first_ts().map(|t| t.ticks()),
            last_ts: self.relation.last_ts().map(|t| t.ticks()),
            window_size: self.relation.window_size(tau),
        }
    }
}

/// Descriptive statistics of a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of events.
    pub events: usize,
    /// Number of non-temporal attributes.
    pub attributes: usize,
    /// First timestamp (ticks), if any.
    pub first_ts: Option<i64>,
    /// Last timestamp (ticks), if any.
    pub last_ts: Option<i64>,
    /// Window size `W` for the queried `τ`.
    pub window_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, Timestamp, Value};

    fn sample() -> EventStore {
        let schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap();
        let mut r = Relation::new(schema);
        for (t, id, l) in [(0, 1, "A"), (1, 2, "B"), (2, 1, "C"), (3, 2, "D")] {
            r.push_values(Timestamp::new(t), [Value::from(id), Value::from(l)])
                .unwrap();
        }
        EventStore::new("sample", r)
    }

    #[test]
    fn csv_file_round_trip() {
        let store = sample();
        let dir = std::env::temp_dir().join("ses-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        store.save_csv(&path).unwrap();
        let loaded = EventStore::load_csv(&path).unwrap();
        assert_eq!(loaded.name(), "sample");
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.relation().events()[2].values()[1], Value::from("C"));
        // Schema validation path.
        let ok = EventStore::load_csv_with_schema(&path, store.relation().schema());
        assert!(ok.is_ok());
        let other = Schema::builder().attr("X", AttrType::Int).build().unwrap();
        assert!(matches!(
            EventStore::load_csv_with_schema(&path, &other),
            Err(StoreError::SchemaMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_summary() {
        let s = sample().stats(Duration::ticks(1));
        assert_eq!(
            s,
            StoreStats {
                events: 4,
                attributes: 2,
                first_ts: Some(0),
                last_ts: Some(3),
                window_size: 2,
            }
        );
    }
}
