//! Making a file durable beyond its own bytes: its directory entry.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::StoreError;

/// Atomically replaces the file at `path` with `bytes`: written to a
/// `.tmp` sibling, fsynced, renamed over `path`, and the directory
/// fsynced so the rename itself survives a power loss. A crash leaves
/// the old file or the new one under `path` — at worst beside a stray
/// `.tmp` — never a half-written one.
pub fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// Fsyncs the directory holding `path`, so that a file created or
/// renamed there is found after a power loss.
pub(crate) fn sync_parent(path: &Path) -> Result<(), StoreError> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    Ok(())
}
