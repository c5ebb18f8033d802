//! Run metadata: the machine and the commit a result was taken on.

use std::path::Path;

/// `nproc`, CPU model, cache sizes and commit, as `(key, value)` pairs.
pub fn collect(nproc: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("l2", cache_size(2)),
        ("l3", cache_size(3)),
        ("commit", commit(Path::new("."))),
    ]
}

/// Size of the level-`level` cache of cpu0 as sysfs reports it.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .find_map(|i| {
            let dir = base.join(format!("index{i}"));
            let lvl = std::fs::read_to_string(dir.join("level")).ok()?;
            let kind = std::fs::read_to_string(dir.join("type")).ok()?;
            (lvl.trim() == level.to_string() && kind.trim() != "Instruction")
                .then(|| std::fs::read_to_string(dir.join("size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository reports `unknown`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
