//! The one atomic-write primitive.
//!
//! Every file the system rewrites in place — the checkpoint commit and
//! its log parts, the lockfile heartbeat, serve's job spec, status,
//! report archive and port file, the CLI's report archive — goes
//! through [`write_atomic`]: the bytes land in a uniquely named tmp file
//! beside the target, which is then renamed over it. A reader (or a
//! process resuming after a kill) sees either the old complete file or
//! the new complete one, never a torn mix. A kill between the write and
//! the rename leaves only an orphaned tmp file, which
//! [`remove_tmp_files`] sweeps.
//!
//! Nothing here calls `fsync`: a process kill leaves the page cache
//! intact, so rename order is enough for SIGKILL consistency. Surviving
//! power loss needs `fsync` on the file and its directory, which is a
//! change to [`write_atomic`] alone.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Infix between a target's file name and the sequence number of one of
/// its tmp files: `status.json` is written through `status.json.tmp.7`.
const TMP_INFIX: &str = ".tmp.";

/// Write `bytes` to `path` atomically: write a tmp file with a name
/// unique within this process in the target's directory, then rename it
/// over the target. If the rename fails the tmp file is removed.
///
/// Concurrent writers to the same target (a cancel racing a worker's
/// status update) each rename a complete file, so the target is never
/// torn; rename order decides which complete file persists.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!("{TMP_INFIX}{n}"));
    std::fs::write(&tmp, bytes)?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Remove the tmp files [`write_atomic`] left in `dir` for targets whose
/// file name starts with `prefix` (`""` for every target). Only call it
/// when no write to those targets can be in flight: a swept tmp file
/// fails its writer's rename. Returns how many files were removed.
pub fn remove_tmp_files(dir: &Path, prefix: &str) -> io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let orphan = name.starts_with(prefix)
            && name.rsplit_once(TMP_INFIX).is_some_and(|(target, n)| {
                !target.is_empty() && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())
            });
        if orphan && entry.file_type()?.is_file() {
            match std::fs::remove_file(entry.path()) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("retrodns-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_replaces_the_target_and_leaves_no_tmp() {
        let d = dir("write");
        let path = d.join("status.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(names(&d), ["status.json"]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn failed_rename_removes_the_tmp() {
        let d = dir("rename");
        // A directory in the target's place makes the rename fail.
        std::fs::create_dir(d.join("report.json")).unwrap();
        std::fs::write(d.join("report.json").join("x"), b"").unwrap();
        assert!(write_atomic(&d.join("report.json"), b"{}").is_err());
        assert_eq!(names(&d), ["report.json"]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn sweep_removes_only_matching_tmp_files() {
        let d = dir("sweep");
        for name in [
            "status.json",
            "status.json.tmp.3",
            "checkpoint.json.tmp.12",
            "notes.tmp.txt",
            ".tmp.4",
        ] {
            std::fs::write(d.join(name), b"x").unwrap();
        }
        assert_eq!(remove_tmp_files(&d, "checkpoint.json").unwrap(), 1);
        assert_eq!(remove_tmp_files(&d, "").unwrap(), 1);
        assert_eq!(names(&d), [".tmp.4", "notes.tmp.txt", "status.json"]);
        let _ = std::fs::remove_dir_all(&d);
    }
}
