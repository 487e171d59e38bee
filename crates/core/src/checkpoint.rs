//! Saving and restoring trained policies.
//!
//! Checkpoints use a small self-describing text format (one header line,
//! one line of hex `f64::to_bits` words per 64 parameters, so round-trips
//! are exact and files diff cleanly). Format **v2** appends an integrity
//! trailer — `crc32=XXXXXXXX len=N` over every byte before it — and all
//! writes go through temp-file + fsync + atomic rename, so a crash
//! mid-write can never leave a truncated checkpoint behind and bitrot is
//! detected at load time as a typed [`LoadCheckpointError::Corrupt`]
//! instead of a parse panic. v1 files (no trailer) still load.

use crate::agent::SdpAgent;
use crate::drl::DrlAgent;
use spikefolio_resilience::io::atomic_write_faulted;
use spikefolio_resilience::{crc32, FaultPlan};
use spikefolio_snn::stbp::{flat_params, set_flat_params};
use std::fmt::Write as _;
use std::path::Path;

/// Magic tag of the legacy (un-checksummed) checkpoint format.
const MAGIC_V1: &str = "spikefolio-checkpoint-v1";

/// Magic tag of the current checkpoint format.
const MAGIC_V2: &str = "spikefolio-checkpoint-v2";

/// Fault-plan label under which checkpoint IO faults are scheduled.
pub const CHECKPOINT_IO_LABEL: &str = "checkpoint";

/// Error loading or parsing a checkpoint.
#[derive(Debug)]
pub enum LoadCheckpointError {
    /// File could not be read.
    Io(std::io::Error),
    /// File contents did not parse as a checkpoint.
    Parse(String),
    /// The v2 integrity trailer did not match the stored bytes — the file
    /// was truncated or bit-flipped after it was written.
    Corrupt {
        /// Checksum the trailer promised.
        expected: u32,
        /// Checksum of the bytes actually present.
        found: u32,
    },
    /// Parameter counts do not match the target network.
    Shape {
        /// Parameters in the file.
        found: usize,
        /// Parameters the network expects.
        expected: usize,
    },
}

impl std::fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadCheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            LoadCheckpointError::Parse(m) => write!(f, "invalid checkpoint syntax: {m}"),
            LoadCheckpointError::Corrupt { expected, found } => {
                write!(f, "checkpoint corrupted: stored crc32={expected:08x}, computed {found:08x}")
            }
            LoadCheckpointError::Shape { found, expected } => {
                write!(f, "checkpoint has {found} parameters, network expects {expected}")
            }
        }
    }
}

impl std::error::Error for LoadCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadCheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadCheckpointError {
    fn from(e: std::io::Error) -> Self {
        LoadCheckpointError::Io(e)
    }
}

fn encode(kind: &str, params: &[f64]) -> String {
    let mut s = String::with_capacity(params.len() * 18 + 96);
    let _ = writeln!(s, "{MAGIC_V2} kind={kind} params={}", params.len());
    for chunk in params.chunks(64) {
        for p in chunk {
            let _ = write!(s, "{:016x} ", p.to_bits());
        }
        s.push('\n');
    }
    let crc = crc32(s.as_bytes());
    let _ = writeln!(s, "crc32={crc:08x} len={}", s.len());
    s
}

/// Splits a v2 file into `(payload, trailer)` and verifies the checksum.
fn verify_v2(text: &str) -> Result<&str, LoadCheckpointError> {
    let body = text.strip_suffix('\n').unwrap_or(text);
    let trailer_start = match body.rfind('\n') {
        Some(i) => i + 1,
        None => return Err(LoadCheckpointError::Parse("missing v2 trailer".into())),
    };
    let trailer = &body[trailer_start..];
    let payload = &text[..trailer_start];
    let mut fields = trailer.split_whitespace();
    let expected = fields
        .next()
        .and_then(|f| f.strip_prefix("crc32="))
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| LoadCheckpointError::Parse("bad v2 trailer (crc32= field)".into()))?;
    let len: usize = fields
        .next()
        .and_then(|f| f.strip_prefix("len="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| LoadCheckpointError::Parse("bad v2 trailer (len= field)".into()))?;
    if payload.len() != len {
        // A torn write that cut whole lines: the trailer survived but the
        // payload length disagrees. Surface as corruption, not syntax.
        return Err(LoadCheckpointError::Corrupt { expected, found: crc32(payload.as_bytes()) });
    }
    let found = crc32(payload.as_bytes());
    if found != expected {
        return Err(LoadCheckpointError::Corrupt { expected, found });
    }
    Ok(payload)
}

/// Reads a checkpoint leniently: bitrot can make the file invalid UTF-8,
/// which must classify as corruption (via the CRC mismatch downstream),
/// not as an opaque IO error. Lossy decoding guarantees the damaged bytes
/// change the checksummed payload.
fn read_checkpoint_text(path: impl AsRef<Path>) -> Result<String, LoadCheckpointError> {
    let bytes = std::fs::read(path)?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

fn decode(text: &str, kind: &str) -> Result<Vec<f64>, LoadCheckpointError> {
    let magic = text.split_whitespace().next().unwrap_or_default();
    let payload = match magic {
        m if m == MAGIC_V2 => verify_v2(text)?,
        m if m == MAGIC_V1 => text,
        _ => return Err(LoadCheckpointError::Parse("bad magic".into())),
    };
    let mut lines = payload.lines();
    let header = lines.next().ok_or_else(|| LoadCheckpointError::Parse("empty file".into()))?;
    let mut fields = header.split_whitespace();
    let _magic = fields.next();
    let kind_field = fields.next().unwrap_or_default();
    if kind_field != format!("kind={kind}") {
        return Err(LoadCheckpointError::Parse(format!(
            "expected kind={kind}, found {kind_field}"
        )));
    }
    let count: usize = fields
        .next()
        .and_then(|f| f.strip_prefix("params="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| LoadCheckpointError::Parse("missing params= field".into()))?;
    // The header is untrusted: size the buffer from the bytes actually
    // present (each value takes at least one digit and one separator).
    let mut out = Vec::with_capacity(count.min(payload.len() / 2));
    for line in lines {
        for tok in line.split_whitespace() {
            let bits = u64::from_str_radix(tok, 16)
                .map_err(|_| LoadCheckpointError::Parse(format!("bad hex token {tok:?}")))?;
            out.push(f64::from_bits(bits));
        }
    }
    if out.len() != count {
        return Err(LoadCheckpointError::Parse(format!(
            "header promised {count} values, found {}",
            out.len()
        )));
    }
    Ok(out)
}

/// Saves an SDP agent's trained parameters (v2 format, atomic write).
///
/// # Errors
///
/// Returns any I/O error from staging, syncing, or renaming the file.
pub fn save_sdp(agent: &SdpAgent, path: impl AsRef<Path>) -> std::io::Result<()> {
    save_sdp_faulted(agent, path, None)
}

/// [`save_sdp`] with a fault-injection seam: when `faults` is `Some`, the
/// plan may fail the write with a transient error or corrupt the stored
/// bytes afterwards (see [`atomic_write_faulted`]).
///
/// # Errors
///
/// Returns injected faults as `ErrorKind::Interrupted`, otherwise any
/// real I/O error.
pub fn save_sdp_faulted(
    agent: &SdpAgent,
    path: impl AsRef<Path>,
    faults: Option<&mut FaultPlan>,
) -> std::io::Result<()> {
    let text = encode("sdp", &flat_params(&agent.network));
    atomic_write_faulted(path, text.as_bytes(), CHECKPOINT_IO_LABEL, faults)
}

/// Restores an SDP agent's parameters in place.
///
/// The agent must have been constructed with the same configuration
/// (network shape) the checkpoint was saved from. Both v2 and legacy v1
/// files load; only v2 files carry integrity protection.
///
/// # Errors
///
/// Returns [`LoadCheckpointError`] on I/O failure, syntax errors,
/// checksum mismatch, or a parameter-count mismatch.
pub fn load_sdp(agent: &mut SdpAgent, path: impl AsRef<Path>) -> Result<(), LoadCheckpointError> {
    load_sdp_faulted(agent, path, None)
}

/// [`load_sdp`] with a fault-injection seam for transient read errors.
///
/// # Errors
///
/// As [`load_sdp`]; injected read faults surface as
/// [`LoadCheckpointError::Io`] with `ErrorKind::Interrupted`.
pub fn load_sdp_faulted(
    agent: &mut SdpAgent,
    path: impl AsRef<Path>,
    faults: Option<&mut FaultPlan>,
) -> Result<(), LoadCheckpointError> {
    if let Some(err) = faults.and_then(|p| p.take_read_fault(CHECKPOINT_IO_LABEL)) {
        return Err(err.into());
    }
    let text = read_checkpoint_text(path)?;
    let params = decode(&text, "sdp")?;
    let expected = flat_params(&agent.network).len();
    if params.len() != expected {
        return Err(LoadCheckpointError::Shape { found: params.len(), expected });
    }
    set_flat_params(&mut agent.network, &params);
    Ok(())
}

/// Probes the checkpoint at `path` against `agent` and rewrites it from
/// the agent's in-memory parameters if it is unreadable, corrupt, or the
/// wrong shape. Returns `true` when a heal (rewrite) happened, `false`
/// when the file verified clean.
///
/// The rewrite goes through the same atomic temp-file + fsync + rename
/// path as every checkpoint write, so a heal racing a concurrent swap of
/// the same file can never expose a truncated or CRC-invalid checkpoint:
/// readers see either the old bytes or the new bytes, whole.
///
/// # Errors
///
/// Returns the I/O error if the healing rewrite itself fails (a clean or
/// corrupt probe never errors; a missing file is healed by writing it).
pub fn heal_sdp(agent: &SdpAgent, path: impl AsRef<Path>) -> std::io::Result<bool> {
    let path = path.as_ref();
    let mut probe = agent.clone();
    match load_sdp(&mut probe, path) {
        Ok(()) => Ok(false),
        Err(_) => {
            save_sdp(agent, path)?;
            Ok(true)
        }
    }
}

/// Saves a DRL baseline agent's parameters (v2 format, atomic write).
///
/// # Errors
///
/// Returns any I/O error from staging, syncing, or renaming the file.
pub fn save_drl(agent: &DrlAgent, path: impl AsRef<Path>) -> std::io::Result<()> {
    let text = encode("drl", &agent.network.flat_params());
    atomic_write_faulted(path, text.as_bytes(), CHECKPOINT_IO_LABEL, None)
}

/// Restores a DRL baseline agent's parameters in place (v2 or legacy v1).
///
/// # Errors
///
/// Returns [`LoadCheckpointError`] on I/O failure, syntax errors,
/// checksum mismatch, or a parameter-count mismatch.
pub fn load_drl(agent: &mut DrlAgent, path: impl AsRef<Path>) -> Result<(), LoadCheckpointError> {
    let text = read_checkpoint_text(path)?;
    let params = decode(&text, "drl")?;
    let expected = agent.network.flat_params().len();
    if params.len() != expected {
        return Err(LoadCheckpointError::Shape { found: params.len(), expected });
    }
    agent.network.set_flat_params(&params);
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SdpConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spikefolio-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn sdp_round_trip_is_bit_exact() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("sdp.ckpt");
        save_sdp(&agent, &path).unwrap();
        let mut restored = SdpAgent::new(&cfg, 5, 999); // different init
        load_sdp(&mut restored, &path).unwrap();
        assert_eq!(flat_params(&restored.network), flat_params(&agent.network));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn drl_round_trip_is_bit_exact() {
        let cfg = SdpConfig::smoke();
        let agent = DrlAgent::new(&cfg, 5, 7);
        let path = tmp("drl.ckpt");
        save_drl(&agent, &path).unwrap();
        let mut restored = DrlAgent::new(&cfg, 5, 999);
        load_drl(&mut restored, &path).unwrap();
        assert_eq!(restored.network.flat_params(), agent.network.flat_params());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("kind.ckpt");
        save_sdp(&agent, &path).unwrap();
        let mut drl = DrlAgent::new(&cfg, 5, 7);
        let err = load_drl(&mut drl, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Parse(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("shape.ckpt");
        save_sdp(&agent, &path).unwrap();
        let mut other = SdpAgent::new(&cfg, 11, 7); // different asset count
        let err = load_sdp(&mut other, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Shape { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_files_are_rejected() {
        let path = tmp("garbage.ckpt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let cfg = SdpConfig::smoke();
        let mut agent = SdpAgent::new(&cfg, 5, 7);
        assert!(load_sdp(&mut agent, &path).is_err());
        std::fs::remove_file(&path).ok();
        // Missing file is an Io error.
        assert!(matches!(load_sdp(&mut agent, &path), Err(LoadCheckpointError::Io(_))));
    }

    #[test]
    fn huge_params_header_is_a_parse_error_not_an_allocation() {
        for count in ["4000000000000", "18446744073709551615"] {
            let text = format!("{MAGIC_V1} kind=sdp params={count}\n");
            let err = decode(&text, "sdp").unwrap_err();
            assert!(matches!(err, LoadCheckpointError::Parse(_)), "params={count}: {err}");
        }
    }

    #[test]
    fn special_values_survive_round_trip() {
        let params = vec![0.0, -0.0, f64::MIN_POSITIVE, 1e300, -1e-300, std::f64::consts::PI];
        let text = encode("sdp", &params);
        let back = decode(&text, "sdp").unwrap();
        for (a, b) in params.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn v1_files_still_load() {
        // A legacy checkpoint: same body, v1 magic, no trailer.
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let params = flat_params(&agent.network);
        let v2 = encode("sdp", &params);
        let payload_end = v2.rfind("crc32=").unwrap();
        let v1 = v2[..payload_end].replacen(MAGIC_V2, MAGIC_V1, 1);
        let path = tmp("legacy.ckpt");
        std::fs::write(&path, v1).unwrap();
        let mut restored = SdpAgent::new(&cfg, 5, 999);
        load_sdp(&mut restored, &path).unwrap();
        assert_eq!(flat_params(&restored.network), params);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bit_flips_are_detected_as_corruption() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("bitflip.ckpt");
        save_sdp(&agent, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut restored = SdpAgent::new(&cfg, 5, 999);
        let err = load_sdp(&mut restored, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Corrupt { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncation_is_detected_as_corruption() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("trunc.ckpt");
        save_sdp(&agent, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Keep the trailer but drop a payload line — a torn write.
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 3);
        lines.remove(1);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut restored = SdpAgent::new(&cfg, 5, 999);
        let err = load_sdp(&mut restored, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Corrupt { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn heal_rewrites_corrupt_and_missing_files_only() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("heal.ckpt");
        std::fs::remove_file(&path).ok();
        // Missing file: healed by writing it.
        assert!(heal_sdp(&agent, &path).unwrap(), "missing file must heal");
        // Clean file: untouched.
        assert!(!heal_sdp(&agent, &path).unwrap(), "clean file must not heal");
        // Corrupt file: healed back to the agent's parameters.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(heal_sdp(&agent, &path).unwrap(), "corrupt file must heal");
        let mut restored = SdpAgent::new(&cfg, 5, 999);
        load_sdp(&mut restored, &path).unwrap();
        assert_eq!(flat_params(&restored.network), flat_params(&agent.network));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_checkpoint_corruption_is_caught_on_load() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("inject.ckpt");
        let mut plan = FaultPlan::new(3).corrupt_write(CHECKPOINT_IO_LABEL, 0);
        save_sdp_faulted(&agent, &path, Some(&mut plan)).unwrap();
        let mut restored = SdpAgent::new(&cfg, 5, 999);
        let err = load_sdp(&mut restored, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Corrupt { .. }), "{err}");
        // A clean rewrite recovers the file.
        save_sdp(&agent, &path).unwrap();
        load_sdp(&mut restored, &path).unwrap();
        assert_eq!(flat_params(&restored.network), flat_params(&agent.network));
        std::fs::remove_file(path).ok();
    }
}
