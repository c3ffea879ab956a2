//! Checkpoint-directory lockfile.
//!
//! Two processes pointed at the same `--checkpoint-dir` would interleave
//! commits and observation-log parts, corrupting both runs in a way the
//! content hashes only catch after the fact. [`DirLock`] prevents
//! that up front: a `lock.json` in the checkpoint dir records the holder's
//! PID, a random token, and a heartbeat timestamp. Acquisition is atomic
//! (`O_CREAT | O_EXCL`); a lock whose holder is dead or whose heartbeat is
//! older than the staleness budget is taken over so a SIGKILLed run never
//! wedges the directory. Long-running holders call [`DirLock::heartbeat`]
//! at natural progress points (the streaming path does so once per
//! ingested week) to keep the lock fresh.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::durable::{remove_tmp_files, write_atomic};

/// File name of the lock inside the guarded directory.
pub const LOCK_FILE: &str = "lock.json";

/// Default staleness budget: a heartbeat older than this (from a live PID)
/// is treated as abandoned.
pub const DEFAULT_STALE_MS: u64 = 30_000;

/// What `lock.json` holds on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LockInfo {
    pid: u32,
    token: u64,
    heartbeat_ms: u64,
}

/// Why a lock could not be acquired.
#[derive(Debug)]
pub enum LockError {
    /// Another live process holds the lock.
    Held {
        /// PID recorded in the lockfile.
        pid: u32,
        /// Milliseconds since the holder's last heartbeat.
        age_ms: u64,
    },
    /// Filesystem error while acquiring.
    Io(io::Error),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Held { pid, age_ms } => write!(
                f,
                "held by pid {pid} (heartbeat {age_ms} ms ago); \
                 another analysis appears to be running against this checkpoint dir"
            ),
            LockError::Io(e) => write!(f, "lockfile io error: {e}"),
        }
    }
}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> Self {
        LockError::Io(e)
    }
}

/// An exclusive, heartbeat-refreshed lock on a directory.
///
/// Released on drop (best effort: the file is only removed if it still
/// carries this lock's token, so a takeover by another process is never
/// clobbered).
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
    token: u64,
    stale_ms: u64,
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Best-effort liveness probe. On Linux `/proc/<pid>` exists exactly while
/// the process does; elsewhere we conservatively assume the holder is
/// alive and rely on the heartbeat age alone.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

impl DirLock {
    /// Acquire the lock on `dir` (created if missing) with the default
    /// staleness budget.
    pub fn acquire(dir: &Path) -> Result<DirLock, LockError> {
        DirLock::acquire_with(dir, DEFAULT_STALE_MS)
    }

    /// Acquire the lock on `dir`, treating heartbeats older than
    /// `stale_ms` (or a dead holder PID) as abandoned and taking over.
    pub fn acquire_with(dir: &Path, stale_ms: u64) -> Result<DirLock, LockError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        // A token, not a PID, identifies *this* acquisition: PIDs recycle
        // and the same process may legitimately re-lock after a takeover.
        let token = now_ms()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(std::process::id() as u64);
        // One takeover attempt at most: if the file reappears after we
        // removed a stale lock, a concurrent acquirer won the race.
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    let info = LockInfo {
                        pid: std::process::id(),
                        token,
                        heartbeat_ms: now_ms(),
                    };
                    let body = serde_json::to_string(&info)
                        .map_err(|e| LockError::Io(io::Error::other(e.to_string())))?;
                    let mut file = file;
                    io::Write::write_all(&mut file, body.as_bytes())?;
                    // A holder killed mid-heartbeat leaves its
                    // `lock.json.tmp.N` behind. The lock is ours now and we
                    // have not heartbeated yet, so no write to `lock.json`
                    // is in flight and the sweep is safe. It is best
                    // effort: a failure must not strand the lock we hold.
                    let _ = remove_tmp_files(dir, LOCK_FILE);
                    return Ok(DirLock {
                        path,
                        token,
                        stale_ms,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder: Option<LockInfo> = fs::read(&path)
                        .ok()
                        .and_then(|b| serde_json::from_slice(&b).ok());
                    let stale = match &holder {
                        // Unreadable or torn lockfile: the writer died
                        // mid-write; treat as abandoned.
                        None => true,
                        Some(info) => {
                            let age = now_ms().saturating_sub(info.heartbeat_ms);
                            info.pid == std::process::id() || !pid_alive(info.pid) || age > stale_ms
                        }
                    };
                    if !stale || attempt == 1 {
                        let (pid, age_ms) = holder
                            .map(|i| (i.pid, now_ms().saturating_sub(i.heartbeat_ms)))
                            .unwrap_or((0, 0));
                        return Err(LockError::Held { pid, age_ms });
                    }
                    fs::remove_file(&path).or_else(|e| {
                        if e.kind() == io::ErrorKind::NotFound {
                            Ok(())
                        } else {
                            Err(e)
                        }
                    })?;
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        unreachable!("lock acquisition loop always returns");
    }

    /// Refresh the heartbeat so other processes keep seeing the lock as
    /// live. Written with [`write_atomic`] so a concurrent staleness probe
    /// never reads a torn file.
    pub fn heartbeat(&self) -> io::Result<()> {
        let info = LockInfo {
            pid: std::process::id(),
            token: self.token,
            heartbeat_ms: now_ms(),
        };
        let body = serde_json::to_string(&info).map_err(|e| io::Error::other(e.to_string()))?;
        write_atomic(&self.path, body.as_bytes())
    }

    /// Milliseconds after which other processes may take this lock over if
    /// the heartbeat is not refreshed.
    pub fn stale_ms(&self) -> u64 {
        self.stale_ms
    }

    /// Path of the lockfile itself.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Only remove the file if it is still *our* acquisition; a takeover
        // (e.g. after a long GC pause pushed us past the staleness budget)
        // must not have its lock deleted out from under it.
        let ours = fs::read(&self.path)
            .ok()
            .and_then(|b| serde_json::from_slice::<LockInfo>(&b).ok())
            .map(|info| info.token == self.token)
            .unwrap_or(false);
        if ours {
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "retrodns-lock-{name}-{}-{}",
            std::process::id(),
            now_ms()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plant_lock(dir: &Path, pid: u32, heartbeat_ms: u64) {
        let info = LockInfo {
            pid,
            token: 42,
            heartbeat_ms,
        };
        fs::write(dir.join(LOCK_FILE), serde_json::to_string(&info).unwrap()).unwrap();
    }

    #[test]
    fn acquire_and_release() {
        let dir = tmp_dir("basic");
        let lock = DirLock::acquire(&dir).unwrap();
        assert!(dir.join(LOCK_FILE).exists());
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_foreign_holder_blocks() {
        let dir = tmp_dir("held");
        // PID 1 is always alive on Linux; a fresh heartbeat makes the lock
        // unambiguously live.
        plant_lock(&dir, 1, now_ms());
        match DirLock::acquire(&dir) {
            Err(LockError::Held { pid, .. }) => assert_eq!(pid, 1),
            other => panic!("expected Held, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_heartbeat_taken_over() {
        let dir = tmp_dir("stale");
        plant_lock(&dir, 1, now_ms().saturating_sub(120_000));
        let lock = DirLock::acquire_with(&dir, 30_000).unwrap();
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_holder_taken_over_even_with_fresh_heartbeat() {
        let dir = tmp_dir("dead");
        // No real process gets this PID (kernel pid_max is far lower by
        // default); a fresh heartbeat must not save a dead holder.
        plant_lock(&dir, 3_999_999, now_ms());
        let lock = DirLock::acquire(&dir).unwrap();
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lockfile_taken_over() {
        let dir = tmp_dir("corrupt");
        fs::write(dir.join(LOCK_FILE), b"{ torn wri").unwrap();
        let lock = DirLock::acquire(&dir).unwrap();
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_refreshes_timestamp() {
        let dir = tmp_dir("beat");
        let lock = DirLock::acquire(&dir).unwrap();
        let before: LockInfo =
            serde_json::from_slice(&fs::read(dir.join(LOCK_FILE)).unwrap()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        lock.heartbeat().unwrap();
        let after: LockInfo =
            serde_json::from_slice(&fs::read(dir.join(LOCK_FILE)).unwrap()).unwrap();
        assert!(after.heartbeat_ms > before.heartbeat_ms);
        assert_eq!(after.token, before.token);
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acquire_sweeps_only_orphaned_heartbeat_tmp_files() {
        let dir = tmp_dir("sweep");
        for name in ["lock.json.tmp.7", "lock.json.tmp", "other.json.tmp.3"] {
            fs::write(dir.join(name), b"{}").unwrap();
        }
        let lock = DirLock::acquire(&dir).unwrap();
        assert!(!dir.join("lock.json.tmp.7").exists());
        assert!(dir.join("lock.json.tmp").exists());
        assert!(dir.join("other.json.tmp.3").exists());
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn takeover_does_not_delete_new_holders_lock_on_drop() {
        let dir = tmp_dir("takeover-drop");
        let old = DirLock::acquire(&dir).unwrap();
        // Simulate the old holder being declared stale and taken over:
        // plant a foreign lock over ours, then drop the old guard.
        plant_lock(&dir, 1, now_ms());
        drop(old);
        assert!(
            dir.join(LOCK_FILE).exists(),
            "drop of a superseded lock must not remove the new holder's file"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
