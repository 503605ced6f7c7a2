//! Durable subscription registry.
//!
//! The checkpoint carries matcher *state*; this file carries matcher
//! *identity* — the ordered list of `(name, query)` pairs registered so
//! far, which is exactly the `specs` argument `PatternBank::restore`
//! demands. The registry is rewritten atomically on every change
//! ([`ses_store::replace_file`]: tmp, fsync, rename, directory fsync),
//! and the subscribe protocol persists it *before* saving the
//! checkpoint and acking the client, so:
//!
//! * registry length ≥ checkpoint pattern count, always;
//! * the checkpointed patterns are a prefix of the registry (banks only
//!   append);
//! * a crash between registry write and checkpoint save leaves an
//!   unacked tail entry, which restart re-subscribes at the restored
//!   watermark — the client never saw an ack, so re-subscribing is the
//!   contract.

use std::path::{Path, PathBuf};

use ses_store::StoreError;

/// One registered subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubSpec {
    /// Registration name (unique).
    pub name: String,
    /// Query text in the `ses-query` language.
    pub query: String,
}

/// The on-disk registry: `name\tquery` per line, `\`/`\n`/`\t` escaped.
#[derive(Debug)]
pub struct Registry {
    path: PathBuf,
    entries: Vec<SubSpec>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl Registry {
    /// Loads the registry at `path`, or an empty one if absent.
    pub fn load(path: impl Into<PathBuf>) -> Result<Registry, String> {
        let path = path.into();
        let mut entries = Vec::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for (i, line) in text.lines().enumerate() {
                    if line.is_empty() {
                        continue;
                    }
                    let Some((name, query)) = line.split_once('\t') else {
                        return Err(format!(
                            "{}: line {} is not `name\\tquery`",
                            path.display(),
                            i + 1
                        ));
                    };
                    entries.push(SubSpec {
                        name: unescape(name),
                        query: unescape(query),
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        Ok(Registry { path, entries })
    }

    /// The registered subscriptions, in registration order.
    pub fn entries(&self) -> &[SubSpec] {
        &self.entries
    }

    /// Appends a subscription and durably rewrites the file before
    /// returning.
    pub fn add(&mut self, name: &str, query: &str) -> Result<(), String> {
        self.entries.push(SubSpec {
            name: name.to_string(),
            query: query.to_string(),
        });
        self.persist()
    }

    fn persist(&self) -> Result<(), String> {
        let text: String = self
            .entries
            .iter()
            .map(|e| format!("{}\t{}\n", escape(&e.name), escape(&e.query)))
            .collect();
        let dir = self.path.parent().unwrap_or(Path::new(""));
        std::fs::create_dir_all(dir)
            .map_err(StoreError::from)
            .and_then(|()| ses_store::replace_file(&self.path, text.as_bytes()))
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }

    /// Conventional registry path inside a checkpoint directory.
    pub fn default_path(checkpoint_dir: &Path) -> PathBuf {
        checkpoint_dir.join("subs.registry")
    }

    /// Conventional per-subscription match-log path. The file is keyed
    /// by registration *index* (stable across restarts because banks
    /// only append), so subscription names stay free-form.
    pub fn match_log_path(checkpoint_dir: &Path, index: usize) -> PathBuf {
        checkpoint_dir.join(format!("sub-{index:05}.matches.log"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ses-registry-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("subs.registry")
    }

    #[test]
    fn round_trips_entries_with_escaping() {
        let path = tmp("roundtrip");
        let mut r = Registry::load(&path).unwrap();
        assert!(r.entries().is_empty());
        r.add("q1", "PATTERN a WHERE a.L = 'C'\nWITHIN 5 TICKS")
            .unwrap();
        r.add("q\t2", "PATTERN b").unwrap();
        let r2 = Registry::load(&path).unwrap();
        assert_eq!(r2.entries(), r.entries());
        assert_eq!(
            r2.entries()[0].query,
            "PATTERN a WHERE a.L = 'C'\nWITHIN 5 TICKS"
        );
        assert_eq!(r2.entries()[1].name, "q\t2");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_file_is_an_empty_registry() {
        let path = tmp("missing");
        let r = Registry::load(&path).unwrap();
        assert!(r.entries().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
