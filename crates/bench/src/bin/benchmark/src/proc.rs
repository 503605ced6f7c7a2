//! The `ses-server` child process: spawned from the binary built beside
//! this one, announced port read with a deadline, stderr kept for the
//! failure report, killed on drop.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a freshly spawned server may take to announce its port
/// (a recovering one replays its log first).
const START_DEADLINE: Duration = Duration::from_secs(60);

/// `--schema` of the bank stream (`ses_workload::bank::schema`).
pub const BANK_SCHEMA: &str = "TYPE:str,ID:int";

/// The server binary: `ses-server` next to the running benchmark, where
/// `run.sh` builds both.
pub fn server_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = me.with_file_name("ses-server");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release` (run.sh does)",
            path.display()
        ))
    }
}

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// The `recovery: …` line the server printed before listening.
    pub recovery: String,
    /// Spawn → port announced.
    pub start_time: Duration,
    /// Moment of `spawn()`, for timing recovery to the first reply.
    pub spawned_at: Instant,
    /// Flags passed beyond `--schema`/`--tick`, for the run record.
    pub extra_flags: Vec<String>,
    stdout: Option<JoinHandle<()>>,
    stderr: Option<JoinHandle<String>>,
}

impl ServerProc {
    /// Spawns `ses-server --schema … --tick abstract [--checkpoint DIR]`
    /// with every other flag at its default, and waits for
    /// `listening on ADDR`.
    pub fn spawn(checkpoint: Option<&Path>, kill_after: Option<u64>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(server_binary()?);
        cmd.args(["--schema", BANK_SCHEMA, "--tick", "abstract"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .env_remove("SES_KILL_AFTER");
        let mut extra_flags = Vec::new();
        if let Some(dir) = checkpoint {
            cmd.arg("--checkpoint").arg(dir);
            extra_flags.push("--checkpoint".to_string());
        }
        if let Some(k) = kill_after {
            cmd.env("SES_KILL_AFTER", k.to_string());
        }
        let spawned_at = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn ses-server: {e}"))?;

        let mut err_pipe = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = err_pipe.read_to_string(&mut text);
            text
        });
        // The reader thread forwards lines until the address line, then
        // keeps draining so the server never blocks on a full pipe.
        let out_pipe = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        let stdout = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(out_pipe).lines() {
                let Ok(line) = line else { return };
                if let Some(t) = &tx {
                    let last = line.starts_with("listening on ");
                    if t.send(line).is_err() || last {
                        tx = None;
                    }
                }
            }
        });

        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            recovery: String::new(),
            start_time: Duration::ZERO,
            spawned_at,
            extra_flags,
            stdout: Some(stdout),
            stderr: Some(stderr),
        };
        loop {
            let left = START_DEADLINE.saturating_sub(spawned_at.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("recovery: ") {
                        server.recovery = rest.to_string();
                    } else if let Some(rest) = line.strip_prefix("listening on ") {
                        server.addr = rest
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad address line {line:?}: {e}"))?;
                        server.start_time = spawned_at.elapsed();
                        return Ok(server);
                    }
                }
                Err(_) => {
                    let stderr = server.kill();
                    return Err(format!(
                        "ses-server did not announce a port within {START_DEADLINE:?}; stderr:\n{stderr}"
                    ));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `deadline` for the process to exit on its own (an
    /// injected abort, say).
    pub fn wait_exit(&mut self, deadline: Duration) -> bool {
        let give_up = Instant::now() + deadline;
        while Instant::now() < give_up {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// SIGKILLs the server, reaps it, and returns what it wrote to
    /// stderr.
    pub fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A scratch directory under the build directory, removed on drop — as
/// a whole and only then: on a file system mounted with `discard`,
/// deleting one rep's logs slows the fsyncs of the next.
pub struct Scratch {
    dir: PathBuf,
    /// Subdirectories handed out so far.
    handed_out: std::cell::Cell<usize>,
}

impl Scratch {
    /// Creates `<target>/benchmark-scratch/<pid>`, where `<target>` is
    /// the directory holding the running binary's profile directory —
    /// inside the checkout, ignored by git.
    pub fn create() -> Result<Scratch, String> {
        let me = std::env::current_exe().map_err(|e| e.to_string())?;
        let base = me
            .parent()
            .and_then(Path::parent)
            .ok_or("benchmark binary has no target directory")?;
        let dir = base
            .join("benchmark-scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch {
            dir,
            handed_out: std::cell::Cell::new(0),
        })
    }

    /// Creates and returns a subdirectory no earlier call returned.
    pub fn fresh_dir(&self) -> Result<PathBuf, String> {
        self.handed_out.set(self.handed_out.get() + 1);
        let dir = self.dir.join(self.handed_out.get().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
