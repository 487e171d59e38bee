//! Saving and restoring trained policies.
//!
//! Checkpoints use a small self-describing text format (one header line,
//! one line of hex `f64::to_bits` words per 64 parameters, so round-trips
//! are exact and files diff cleanly). Format **v2** appends an integrity
//! trailer — `crc32=XXXXXXXX len=N` over every byte before it — and all
//! writes go through temp-file + fsync + atomic rename, so a crash
//! mid-write can never leave a truncated checkpoint behind and bitrot is
//! detected at load time as a typed [`LoadCheckpointError::Corrupt`]
//! instead of a parse panic. v1 files (no trailer) still load. A load
//! reads at most [`read_limit`] bytes, whatever file the path names.

use crate::agent::SdpAgent;
use spikefolio_resilience::io::atomic_write_faulted;
use spikefolio_resilience::{crc32, FaultPlan};
use spikefolio_snn::stbp::{flat_params, set_flat_params};
use std::io::Read as _;
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
    /// The file is longer than any checkpoint of the target network
    /// could be; reading stopped at `limit` bytes.
    TooLarge {
        /// The read limit, in bytes.
        limit: u64,
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
            LoadCheckpointError::TooLarge { limit } => {
                write!(f, "checkpoint file exceeds the {limit}-byte read limit")
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

/// Lowercase hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of each byte that is a lowercase hex digit; every other
/// byte maps to `0xFF`, whose high bits mark the token as not canonical.
static NIBBLE_VALUES: [u8; 256] = {
    let mut table = [0xFFu8; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

fn encode(kind: &str, params: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(params.len() * 18 + 96);
    out.extend_from_slice(format!("{MAGIC_V2} kind={kind} params={}\n", params.len()).as_bytes());
    for chunk in params.chunks(64) {
        for p in chunk {
            let bits = p.to_bits();
            let mut word = [b' '; 17];
            for (i, digit) in word[..16].iter_mut().enumerate() {
                *digit = HEX_DIGITS[((bits >> (60 - 4 * i)) & 0xF) as usize];
            }
            out.extend_from_slice(&word);
        }
        out.push(b'\n');
    }
    let crc = crc32(&out);
    let trailer = format!("crc32={crc:08x} len={}\n", out.len());
    out.extend_from_slice(trailer.as_bytes());
    out
}

/// Value of 16 lowercase hex digits, or `None` if any byte is not one.
/// Every digit goes through [`NIBBLE_VALUES`] with no branch on its
/// value, so random digits cost no mispredictions.
fn canonical_word(digits: &[u8; 16]) -> Option<u64> {
    let (mut bits, mut invalid) = (0u64, 0u8);
    for &b in digits {
        let nibble = NIBBLE_VALUES[b as usize];
        invalid |= nibble;
        bits = (bits << 4) | u64::from(nibble & 0xF);
    }
    (invalid & 0xF0 == 0).then_some(bits)
}

/// Parses a value token the fast path in [`push_line_values`] did not
/// take. `u64::from_str_radix` gives a canonical word the same value as
/// [`canonical_word`], so the two paths agree on every token.
fn parse_hex_token(tok: &str) -> Result<u64, LoadCheckpointError> {
    u64::from_str_radix(tok, 16)
        .map_err(|_| LoadCheckpointError::Parse(format!("bad hex token {tok:?}")))
}

/// Appends the value of every token of one payload line, splitting it as
/// `str::split_whitespace` does. An ASCII line is scanned bytewise: at a
/// token start, 16 canonical digits and a whitespace byte are one whole
/// token, parsed by [`canonical_word`]; anything else is cut at the next
/// whitespace byte and parsed by [`parse_hex_token`]. A line that is not
/// ASCII (only a damaged file has one) is split by `split_whitespace`.
fn push_line_values(line: &str, out: &mut Vec<f64>) -> Result<(), LoadCheckpointError> {
    if !line.is_ascii() {
        for tok in line.split_whitespace() {
            out.push(f64::from_bits(parse_hex_token(tok)?));
        }
        return Ok(());
    }
    // The ASCII characters `char::is_whitespace` accepts.
    let is_space = |b: u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_space(bytes[i]) {
            i += 1;
            continue;
        }
        if let Some((digits, &[sep, ..])) = bytes[i..].split_first_chunk::<16>() {
            if let Some(bits) = canonical_word(digits).filter(|_| is_space(sep)) {
                out.push(f64::from_bits(bits));
                i += 17;
                continue;
            }
        }
        let end = bytes[i..].iter().position(|&b| is_space(b)).map_or(bytes.len(), |n| i + n);
        out.push(f64::from_bits(parse_hex_token(&line[i..end])?));
        i = end;
    }
    Ok(())
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

/// Largest checkpoint file [`load_sdp`] reads for a network of `params`
/// parameters: twice the canonical v2 size (17 bytes per value and a
/// newline per 64 values, so under 18 per value), plus 4 KiB for the
/// header and trailer. The path may name any file, so the read is bounded
/// by what a loadable checkpoint could plausibly take.
pub fn read_limit(params: usize) -> u64 {
    2 * 18 * params as u64 + 4096
}

/// Reads at most `limit` bytes of a checkpoint; a longer file is
/// [`LoadCheckpointError::TooLarge`].
fn read_checkpoint_text(path: impl AsRef<Path>, limit: u64) -> Result<String, LoadCheckpointError> {
    let file = std::fs::File::open(path)?;
    let size_hint = file.metadata().map_or(0, |m| m.len()).min(limit + 1);
    let mut bytes = Vec::with_capacity(usize::try_from(size_hint).unwrap_or(0));
    file.take(limit + 1).read_to_end(&mut bytes)?;
    if bytes.len() as u64 > limit {
        return Err(LoadCheckpointError::TooLarge { limit });
    }
    Ok(checkpoint_text(bytes))
}

/// Decodes file bytes leniently: bitrot can make the file invalid UTF-8,
/// which must classify as corruption (via the CRC mismatch downstream),
/// not as an opaque IO error. Lossy decoding guarantees the damaged bytes
/// change the checksummed payload. Valid UTF-8 is kept without a copy.
fn checkpoint_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
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
        push_line_values(line, &mut out)?;
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
    let bytes = encode("sdp", &flat_params(&agent.network));
    atomic_write_faulted(path, &bytes, CHECKPOINT_IO_LABEL, faults)
}

/// Restores an SDP agent's parameters in place.
///
/// The agent must have been constructed with the same configuration
/// (network shape) the checkpoint was saved from. Both v2 and legacy v1
/// files load; only v2 files carry integrity protection.
///
/// # Errors
///
/// Returns [`LoadCheckpointError`] on I/O failure, a file longer than
/// [`read_limit`] allows, syntax errors, checksum mismatch, or a
/// parameter-count mismatch. The file is decoded and checked in full
/// before any parameter is written, so a failed load leaves `agent`
/// untouched (the desk gate probes every candidate into one agent).
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
    let expected = agent.network.num_params();
    let text = read_checkpoint_text(path, read_limit(expected))?;
    let params = decode(&text, "sdp")?;
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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SdpConfig;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spikefolio-test-{}-{name}", std::process::id()));
        p
    }

    /// Bytewise CRC-32 (IEEE, reflected), kept here so the pins below do
    /// not depend on the crc32 they help to check.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// The decoder as it stood before the table-driven codec (with its
    /// trailer check), kept as the reference the differential tests hold
    /// [`decode`] to.
    mod reference {
        use super::super::{LoadCheckpointError, MAGIC_V1, MAGIC_V2};
        use super::reference_crc32;

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
                .ok_or_else(|| {
                    LoadCheckpointError::Parse("bad v2 trailer (crc32= field)".into())
                })?;
            let len: usize = fields
                .next()
                .and_then(|f| f.strip_prefix("len="))
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| LoadCheckpointError::Parse("bad v2 trailer (len= field)".into()))?;
            if payload.len() != len {
                let found = reference_crc32(payload.as_bytes());
                return Err(LoadCheckpointError::Corrupt { expected, found });
            }
            let found = reference_crc32(payload.as_bytes());
            if found != expected {
                return Err(LoadCheckpointError::Corrupt { expected, found });
            }
            Ok(payload)
        }

        pub(super) fn decode(bytes: &[u8], kind: &str) -> Result<Vec<f64>, LoadCheckpointError> {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let magic = text.split_whitespace().next().unwrap_or_default();
            let payload = match magic {
                m if m == MAGIC_V2 => verify_v2(&text)?,
                m if m == MAGIC_V1 => &text,
                _ => return Err(LoadCheckpointError::Parse("bad magic".into())),
            };
            let mut lines = payload.lines();
            let header =
                lines.next().ok_or_else(|| LoadCheckpointError::Parse("empty file".into()))?;
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
            let mut out = Vec::with_capacity(count.min(payload.len() / 2));
            for line in lines {
                for tok in line.split_whitespace() {
                    let bits = u64::from_str_radix(tok, 16).map_err(|_| {
                        LoadCheckpointError::Parse(format!("bad hex token {tok:?}"))
                    })?;
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
    }

    /// Asserts that `bytes` decode as the reference decodes them: the same
    /// value bits, or the same error (variant and message).
    fn assert_decodes_like_reference(bytes: &[u8], what: &str) {
        let got = decode(&checkpoint_text(bytes.to_vec()), "sdp");
        let want = reference::decode(bytes, "sdp");
        match (got, want) {
            (Ok(g), Ok(w)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g), bits(&w), "{what}: decoded bits differ");
            }
            (Err(g), Err(w)) => {
                assert_eq!(
                    std::mem::discriminant(&g),
                    std::mem::discriminant(&w),
                    "{what}: error {g} != {w}"
                );
                assert_eq!(g.to_string(), w.to_string(), "{what}: error message");
            }
            (g, w) => panic!("{what}: got {g:?}, reference {w:?}"),
        }
    }

    /// Deterministic xorshift stream for building test inputs.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The first `n` parameters of a real smoke agent.
    fn real_params(n: usize) -> Vec<f64> {
        let mut params = flat_params(&SdpAgent::new(&SdpConfig::smoke(), 11, 7).network);
        params.truncate(n);
        params
    }

    /// `bytes` as a v1 file: v2 magic replaced, trailer dropped.
    fn as_v1(v2: &[u8]) -> Vec<u8> {
        let text = String::from_utf8_lossy(v2);
        let end = text.rfind("crc32=").unwrap_or(text.len());
        text[..end].replacen(MAGIC_V2, MAGIC_V1, 1).into_bytes()
    }

    /// `payload` with a v2 trailer that matches it, so the parser sees it.
    fn with_trailer(mut payload: Vec<u8>) -> Vec<u8> {
        let trailer = format!("crc32={:08x} len={}\n", reference_crc32(&payload), payload.len());
        payload.extend_from_slice(trailer.as_bytes());
        payload
    }

    /// A payload whose tokens and separators take the forms
    /// `u64::from_str_radix` and `split_whitespace` treat specially. Half
    /// the payloads are pure ASCII; the others add Unicode separators and
    /// may hold an invalid UTF-8 byte. Half hold one bad token, and some
    /// promise one value too many.
    fn unusual_payload(s: &mut Stream) -> Vec<u8> {
        const ASCII_SEPARATORS: [&str; 8] =
            [" ", "  ", "\t", "\n", "\r\n", "\r", "\u{0B}", "\u{0C}"];
        const UNICODE_SEPARATORS: [&str; 4] = ["\u{85}", "\u{A0}", "\u{2009}", "\u{3000}"];
        let ascii = s.below(2) == 0;
        let values: Vec<u64> = (0..s.below(200)).map(|_| s.next() >> s.below(64)).collect();
        let bad_at = (s.below(2) == 0).then(|| s.below(values.len() + 1));
        let count = values.len() + usize::from(s.below(8) == 0);
        let magic = if s.below(2) == 0 { MAGIC_V1 } else { MAGIC_V2 };
        let mut out = format!("{magic} kind=sdp params={count}\n").into_bytes();
        for (i, v) in values.into_iter().enumerate() {
            let canonical = format!("{v:016x}");
            let tok = if bad_at == Some(i) {
                let bad = ["g", "G", "z", "_", "-", "+", "\u{1C}", "\u{200B}", "\u{FFFD}"];
                match s.below(3) {
                    0 => canonical.replacen(&canonical[..1], bad[s.below(bad.len())], 1),
                    1 => format!("{canonical}{}", bad[s.below(bad.len())]),
                    _ => format!("1{canonical}"),
                }
            } else {
                match s.below(10) {
                    0 => format!("{v:016X}"),
                    1 => canonical.replacen('a', "A", 1),
                    2 => format!("+{v:x}"),
                    3 => format!("+{v:015x}"),
                    4 => format!("{v:x}"),
                    5 => format!("{canonical:0>width$}", width = 17 + s.below(8)),
                    _ => canonical,
                }
            };
            out.extend_from_slice(tok.as_bytes());
            let sep = if ascii || s.below(4) != 0 {
                ASCII_SEPARATORS[s.below(ASCII_SEPARATORS.len())]
            } else {
                UNICODE_SEPARATORS[s.below(UNICODE_SEPARATORS.len())]
            };
            out.extend_from_slice(sep.as_bytes());
        }
        if !ascii && s.below(4) == 0 {
            let at = s.below(out.len() + 1);
            out.insert(at, [0xFF, 0xC3, 0x80][s.below(3)]);
        }
        out
    }

    #[test]
    fn decoder_matches_reference_on_every_ascii_byte_at_every_digit() {
        for pos in 0..16 {
            for byte in 0..128u8 {
                let mut tok = *b"0123456789abcdef";
                tok[pos] = byte;
                let mut file = format!("{MAGIC_V1} kind=sdp params=1\n").into_bytes();
                file.extend_from_slice(&tok);
                file.extend_from_slice(b" \n");
                assert_decodes_like_reference(&file, &format!("byte {byte:#04x} at {pos}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn decoder_matches_reference_on_damaged_real_files(seed in 1u64..u64::MAX) {
            let mut s = Stream(seed);
            let v2 = encode("sdp", &real_params(1 + s.below(300)));
            let payload_len = String::from_utf8_lossy(&v2).rfind("crc32=").unwrap();
            let v1 = as_v1(&v2);
            for (name, file) in [("v2", &v2), ("v1", &v1)] {
                assert_decodes_like_reference(file, name);
                let cut = s.below(file.len());
                assert_decodes_like_reference(&file[..cut], &format!("{name} cut at {cut}"));
                let mut flipped = file.clone();
                let pos = s.below(payload_len);
                flipped[pos] ^= 1 << s.below(8);
                assert_decodes_like_reference(&flipped, &format!("{name} flipped at {pos}"));
            }
            // Re-sealed, a flipped v2 payload gets past the CRC to the parser.
            let mut payload = v2[..payload_len].to_vec();
            let pos = s.below(payload_len);
            payload[pos] ^= 1 << s.below(8);
            assert_decodes_like_reference(&with_trailer(payload), &format!("resealed flip at {pos}"));
        }

        #[test]
        fn decoder_matches_reference_on_unusual_tokens_and_separators(seed in 1u64..u64::MAX) {
            let mut s = Stream(seed);
            let payload = unusual_payload(&mut s);
            assert_decodes_like_reference(&payload, "unsealed");
            assert_decodes_like_reference(&with_trailer(payload), "sealed");
        }
    }

    #[test]
    fn files_over_the_read_limit_are_refused_unread() {
        // A v1 file padded with spaces loads at the limit and is refused
        // one byte over it.
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 11, 7);
        let limit = read_limit(agent.network.num_params());
        let mut file = as_v1(&encode("sdp", &flat_params(&agent.network)));
        file.resize(usize::try_from(limit).unwrap(), b' ');
        let path = tmp("limit.ckpt");
        std::fs::write(&path, &file).unwrap();
        let mut restored = SdpAgent::new(&cfg, 11, 999);
        load_sdp(&mut restored, &path).unwrap();
        assert_eq!(flat_params(&restored.network), flat_params(&agent.network));
        file.push(b' ');
        std::fs::write(&path, &file).unwrap();
        let err = load_sdp(&mut restored, &path).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::TooLarge { limit: l } if l == limit), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_files_are_pinned_bitwise() {
        // (config, file length, CRC-32 of the whole file) of `save_sdp` for
        // an 11-asset agent with init seed 7.
        let cases = [
            ("smoke", SdpConfig::smoke(), 256_533, 0x1c89_f78bu32),
            ("paper", SdpConfig::paper(), 8_474_946, 0x0992_22f7u32),
        ];
        for (name, cfg, len, crc) in cases {
            let agent = SdpAgent::new(&cfg, 11, 7);
            let path = tmp(&format!("pin-{name}.ckpt"));
            save_sdp(&agent, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), len, "{name}: file length");
            assert_eq!(reference_crc32(&bytes), crc, "{name}: file CRC-32");
            let mut restored = SdpAgent::new(&cfg, 11, 999);
            load_sdp(&mut restored, &path).unwrap();
            let bits = |a: &SdpAgent| -> Vec<u64> {
                flat_params(&a.network).iter().map(|p| p.to_bits()).collect()
            };
            assert_eq!(bits(&restored), bits(&agent), "{name}: reloaded bits");
            std::fs::remove_file(path).ok();
        }
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
    fn failed_loads_leave_the_agent_untouched() {
        let cfg = SdpConfig::smoke();
        let path = tmp("untouched.ckpt");
        save_sdp(&SdpAgent::new(&cfg, 5, 7), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] = if flipped[mid] == b'1' { b'2' } else { b'1' };
        save_sdp(&SdpAgent::new(&cfg, 11, 7), &path).unwrap(); // another shape
        let other_shape = std::fs::read(&path).unwrap();
        let mut agent = SdpAgent::new(&cfg, 5, 999);
        let before = flat_params(&agent.network);
        let damaged = [flipped, good[..good.len() / 2].to_vec(), other_shape];
        for (i, bytes) in damaged.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            assert!(load_sdp(&mut agent, &path).is_err(), "damage {i} must not load");
            assert_eq!(flat_params(&agent.network), before, "damage {i} wrote parameters");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let cfg = SdpConfig::smoke();
        let agent = SdpAgent::new(&cfg, 5, 7);
        let path = tmp("kind.ckpt");
        save_sdp(&agent, &path).unwrap();
        let text = read_checkpoint_text(&path, read_limit(agent.network.num_params())).unwrap();
        let err = decode(&text, "drl").unwrap_err();
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
        let text = String::from_utf8(encode("sdp", &params)).unwrap();
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
        let v2 = String::from_utf8(encode("sdp", &params)).unwrap();
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
