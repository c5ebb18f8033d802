//! The on-disk verdict cache: a tuned pick persisted per matrix
//! structure, so the tuning cost is paid once and amortized across warm
//! starts the way schedule construction is (§7.7).
//!
//! Trust model (the plan cache's, PR 8): files are versioned and
//! checksummed; a stale, truncated or edited file is **an error, never a
//! wrong pick**. On top of the checksum the winning spec is revalidated
//! against the registry before it is trusted — a verdict naming an
//! unregistered scheduler or an unsupported model is corruption even if
//! its checksum matches.
//!
//! Format (line-oriented text, like `sptrsv-plan`):
//!
//! ```text
//! sptrsv-verdict v1
//! fingerprint <32 hex — structure-only PlanFingerprint of (matrix, tune key)>
//! winner <spec text>
//! checksum <16 hex — FNV over the winner line>
//! ```

use crate::TuneError;
use sptrsv_core::registry::{self, SchedulerSpec};
use sptrsv_core::serialize::{FingerprintHasher, PlanFingerprint};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version header of the verdict file format.
const VERDICT_HEADER: &str = "sptrsv-verdict v1";

/// The file a fingerprint's verdict lives in under a cache directory.
pub fn verdict_path(dir: &Path, fingerprint: &PlanFingerprint) -> PathBuf {
    dir.join(format!("{fingerprint}.verdict"))
}

/// Checksum of the payload the file protects: the winner spec text.
fn verdict_checksum(fingerprint: &PlanFingerprint, winner: &str) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(fingerprint.to_string().as_bytes());
    hasher.write_bytes(winner.as_bytes());
    hasher.finish64()
}

/// Renders a verdict file.
pub fn write_verdict(fingerprint: &PlanFingerprint, winner: &SchedulerSpec) -> String {
    let winner = winner.to_string();
    let mut out = String::new();
    let _ = writeln!(out, "{VERDICT_HEADER}");
    let _ = writeln!(out, "fingerprint {fingerprint}");
    let _ = writeln!(out, "winner {winner}");
    let _ = writeln!(out, "checksum {:016x}", verdict_checksum(fingerprint, &winner));
    out
}

/// Parses and **revalidates** a verdict file.
///
/// Errors on: wrong version, missing/misordered lines, fingerprint
/// mismatch against `expected`, checksum mismatch, a winner that does not
/// parse under the spec grammar, an unregistered scheduler, a model the
/// scheduler does not support, an invalid policy value, or a key the
/// scheduler does not take.
pub fn read_verdict(text: &str, expected: &PlanFingerprint) -> Result<SchedulerSpec, TuneError> {
    let corrupt = |what: &str| TuneError::Cache(format!("verdict cache: {what}"));
    let mut lines = text.lines();
    let mut next = |what: &'static str| {
        lines.next().ok_or_else(|| corrupt(&format!("truncated before {what}")))
    };

    let header = next("header")?;
    if header.trim() != VERDICT_HEADER {
        return Err(corrupt(&format!(
            "unsupported format `{}` (expected `{VERDICT_HEADER}`)",
            header.trim()
        )));
    }
    let fp_line = next("fingerprint")?;
    let fp_text =
        fp_line.strip_prefix("fingerprint ").ok_or_else(|| corrupt("missing fingerprint line"))?;
    let found =
        PlanFingerprint::parse(fp_text.trim()).ok_or_else(|| corrupt("unparsable fingerprint"))?;
    if found != *expected {
        return Err(corrupt(&format!(
            "fingerprint mismatch: expected {expected}, file has {found}"
        )));
    }
    let winner_line = next("winner")?;
    let winner_text =
        winner_line.strip_prefix("winner ").ok_or_else(|| corrupt("missing winner line"))?.trim();
    let checksum_line = next("checksum")?;
    let stored = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| corrupt("missing checksum line"))?;
    let computed = verdict_checksum(expected, winner_text);
    if stored != computed {
        return Err(corrupt(&format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }

    // Checksum fine — now revalidate the pick itself.
    let spec: SchedulerSpec =
        winner_text.parse().map_err(|e| corrupt(&format!("winner does not parse: {e}")))?;
    registry::info(spec.name()).ok_or_else(|| {
        corrupt(&format!("winner names unregistered scheduler `{}`", spec.name()))
    })?;
    registry::validate(&spec).map_err(|e| corrupt(&format!("winner invalid: {e}")))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_sparse::CsrMatrix;

    fn fp() -> PlanFingerprint {
        PlanFingerprint::compute(&CsrMatrix::identity(4), "tune|test")
    }

    #[test]
    fn verdict_round_trips() {
        let spec: SchedulerSpec = "growlocal:fastmath=on@async".parse().unwrap();
        let text = write_verdict(&fp(), &spec);
        let back = read_verdict(&text, &fp()).unwrap();
        assert_eq!(back.to_string(), spec.to_string());
    }

    #[test]
    fn truncation_version_and_checksum_are_errors() {
        let spec: SchedulerSpec = "spmp@async".parse().unwrap();
        let text = write_verdict(&fp(), &spec);
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(read_verdict(&partial, &fp()).is_err(), "accepted {keep}-line prefix");
        }
        let wrong_version = text.replacen("v1", "v9", 1);
        assert!(read_verdict(&wrong_version, &fp()).is_err());
        let edited = text.replace("spmp@async", "bspg@barrier");
        assert!(read_verdict(&edited, &fp()).is_err(), "edited winner must fail the checksum");
    }

    #[test]
    fn fingerprint_mismatch_is_an_error() {
        let spec: SchedulerSpec = "spmp@async".parse().unwrap();
        let text = write_verdict(&fp(), &spec);
        let other = PlanFingerprint::compute(&CsrMatrix::identity(5), "tune|test");
        assert!(read_verdict(&text, &other).is_err());
    }

    #[test]
    fn checksummed_garbage_is_still_revalidated() {
        // A well-formed file whose winner names a scheduler that does not
        // exist: the checksum passes, revalidation must not.
        let bogus = SchedulerSpec::new("warp-drive");
        let text = write_verdict(&fp(), &bogus);
        let err = read_verdict(&text, &fp()).unwrap_err();
        assert!(err.to_string().contains("unregistered"), "got: {err}");
    }

    #[test]
    fn a_checksummed_winner_with_an_unknown_key_is_a_cache_error() {
        // `elastic=` and `batch=` are not policy keys: a verdict naming one
        // is corruption at read time, whatever its checksum says.
        for (text, key) in
            [("growlocal:elastic=on@barrier", "elastic"), ("growlocal:batch=8@barrier", "batch")]
        {
            let spec: SchedulerSpec = text.parse().unwrap();
            let verdict = write_verdict(&fp(), &spec);
            let err = read_verdict(&verdict, &fp()).unwrap_err();
            assert!(matches!(&err, TuneError::Cache(m) if m.contains(key)), "{text}: {err}");
        }
    }
}
