//! Polling tail reader for CSV market feeds.
//!
//! A live desk consumes a market CSV that another process *appends to*
//! while we read it, which breaks two assumptions the batch loader makes:
//! the final line may be torn mid-write (no trailing newline yet), and
//! the final period may be torn mid-cross-section (only some assets
//! written). [`CsvTailReader`] handles the byte level — it only ever
//! consumes up to the last complete line, leaving a partial tail on disk
//! to be re-read whole on the next poll instead of surfacing a
//! malformed-row error. [`CsvTail`] layers the market semantics on top:
//! it accumulates complete rows, validates the header once, and rebuilds
//! a [`MarketData`] snapshot per poll, dropping a trailing incomplete
//! period the same way (re-parsed once the rest of its rows land).
//!
//! Both are pull-based and stateless on disk: polling never writes, so a
//! reader can never corrupt the feed it is tailing.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::data::MarketData;
use crate::io::{from_csv, ParseMarketError};
use crate::time::Date;

/// The header every spikefolio market CSV starts with.
pub const CSV_HEADER: &str = "period,asset,open,high,low,close,volume";

/// Byte-level tail follower yielding only complete lines.
///
/// Keeps a byte offset into the file and advances it strictly past the
/// last newline seen, so a partially written final line is left in place
/// and re-read (in full) on a later poll. A file that shrinks below the
/// offset is treated as rotated and re-read from the start; a file that
/// does not exist yet simply yields nothing.
#[derive(Debug, Clone)]
pub struct CsvTailReader {
    path: PathBuf,
    offset: u64,
    /// The previous poll left a partial (torn) line on disk.
    torn_pending: bool,
    /// The line that completed a previously torn tail on the most
    /// recent poll — the one row whose bytes were written in (at least)
    /// two installments and deserve extra scrutiny.
    torn_completed: Option<String>,
}

impl CsvTailReader {
    /// A reader positioned at the start of `path` (which need not exist
    /// yet).
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            torn_pending: false,
            torn_completed: None,
        }
    }

    /// Bytes consumed so far (always a complete-line boundary).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Takes the line (if any) that the most recent [`poll`](Self::poll)
    /// assembled from a previously held-back torn tail. Callers that
    /// validate rows use this to tell "this row was torn across writes"
    /// from "this row arrived whole".
    pub fn take_torn_completed(&mut self) -> Option<String> {
        self.torn_completed.take()
    }

    /// Reads every complete line appended since the last poll.
    ///
    /// Blank lines are dropped and `\r\n` endings normalized. A trailing
    /// partial line (no newline yet) is *not* consumed: the offset stays
    /// before it, and the whole line is returned once its newline lands.
    ///
    /// # Errors
    ///
    /// IO failures other than the file not existing yet (which yields an
    /// empty batch).
    pub fn poll(&mut self) -> io::Result<Vec<String>> {
        self.torn_completed = None;
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.torn_pending = false;
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        };
        if file.metadata()?.len() < self.offset {
            // The feed was rotated or truncated under us; start over.
            // Whatever torn tail we were tracking is gone with the bytes.
            self.offset = 0;
            self.torn_pending = false;
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let Some(last_nl) = buf.iter().rposition(|&b| b == b'\n') else {
            // Nothing but a torn line so far: leave it for the next poll.
            self.torn_pending = !buf.is_empty();
            return Ok(Vec::new());
        };
        let was_torn = self.torn_pending;
        let complete = &buf[..=last_nl];
        self.offset += complete.len() as u64;
        self.torn_pending = last_nl + 1 < buf.len();
        let text = String::from_utf8_lossy(complete);
        let lines: Vec<String> = text
            .lines()
            .map(|l| l.trim_end_matches('\r').to_owned())
            .filter(|l| !l.trim().is_empty())
            .collect();
        if was_torn {
            // The first complete line is the re-read of the tail held
            // back last poll (plus whatever bytes finished it).
            self.torn_completed = lines.first().cloned();
        }
        Ok(lines)
    }
}

/// Why a [`CsvTail`] poll failed.
#[derive(Debug)]
pub enum TailError {
    /// Reading the feed file failed (beyond it merely not existing yet).
    Io(io::Error),
    /// The accumulated rows do not parse even after dropping a trailing
    /// incomplete period — the feed itself is malformed.
    Parse(ParseMarketError),
    /// The first complete line is not the expected CSV header.
    Header(String),
}

impl fmt::Display for TailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "feed io: {e}"),
            Self::Parse(e) => write!(f, "feed parse: {e}"),
            Self::Header(line) => {
                write!(f, "feed header {line:?} != expected {CSV_HEADER:?}")
            }
        }
    }
}

impl std::error::Error for TailError {}

/// A non-fatal feed anomaly surfaced by [`CsvTail::take_warnings`].
///
/// Warnings cover conditions the tail can recover from on its own —
/// unlike [`TailError`], which stops the poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailWarning {
    /// A line held back as torn (no trailing newline yet) finally
    /// completed on a later poll, but the re-read of the full line still
    /// failed field-level validation. The row was dropped: a torn write
    /// that never becomes a valid row is a writer fault on that one
    /// line, not a malformed feed.
    TornLineStillMalformed {
        /// The completed-but-invalid line, verbatim.
        line: String,
    },
}

impl TailWarning {
    /// Short machine-friendly tag for counters and structured records.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::TornLineStillMalformed { .. } => "torn_line_still_malformed",
        }
    }

    /// The offending feed line, verbatim.
    pub fn line(&self) -> &str {
        match self {
            Self::TornLineStillMalformed { line } => line,
        }
    }
}

impl fmt::Display for TailWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TornLineStillMalformed { line } => {
                write!(f, "torn feed line completed but is still malformed, dropped: {line:?}")
            }
        }
    }
}

/// Whether `line` has the shape of a valid market CSV data row:
/// seven comma-separated fields, an unsigned period index, a non-empty
/// asset name, and five parseable prices/volumes.
fn row_is_well_formed(line: &str) -> bool {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return false;
    }
    if fields[0].trim().parse::<usize>().is_err() {
        return false;
    }
    if fields[1].trim().is_empty() {
        return false;
    }
    fields[2..].iter().all(|f| f.trim().parse::<f64>().is_ok())
}

/// Market-level CSV tail: accumulates complete rows from a growing feed
/// file and rebuilds a [`MarketData`] snapshot when new data arrives.
///
/// A trailing period whose cross-section is still incomplete (some assets
/// not yet written) is held back — the snapshot ends at the last *fully
/// delivered* period and extends once the rest of the rows land.
#[derive(Debug)]
pub struct CsvTail {
    reader: CsvTailReader,
    start: Date,
    periods_per_day: u32,
    header_seen: bool,
    lines: Vec<String>,
    warnings: Vec<TailWarning>,
}

impl CsvTail {
    /// Tails `path` as a market CSV anchored at `start` with
    /// `periods_per_day` candles per day.
    pub fn new(path: impl AsRef<Path>, start: Date, periods_per_day: u32) -> Self {
        Self {
            reader: CsvTailReader::new(path),
            start,
            periods_per_day,
            header_seen: false,
            lines: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Drains every [`TailWarning`] accumulated since the last drain.
    pub fn take_warnings(&mut self) -> Vec<TailWarning> {
        std::mem::take(&mut self.warnings)
    }

    /// Polls the feed. `Ok(Some(data))` carries a fresh snapshot over
    /// every complete period delivered so far; `Ok(None)` means nothing
    /// new (or not yet one complete period).
    ///
    /// # Errors
    ///
    /// [`TailError`] on IO failures, a bad header, or rows that stay
    /// malformed even after dropping the trailing incomplete period.
    pub fn poll(&mut self) -> Result<Option<MarketData>, TailError> {
        let fresh = self.reader.poll().map_err(TailError::Io)?;
        let torn = self.reader.take_torn_completed();
        let mut grew = false;
        for line in fresh {
            if !self.header_seen {
                if line.trim() != CSV_HEADER {
                    return Err(TailError::Header(line));
                }
                self.header_seen = true;
            } else if torn.as_deref() == Some(line.as_str()) && !row_is_well_formed(&line) {
                // The held-back torn tail re-read whole and *still* does
                // not parse: drop the one poisoned row with a warning so
                // later rows (and a re-emitted fix) keep the feed alive.
                self.warnings.push(TailWarning::TornLineStillMalformed { line });
            } else {
                self.lines.push(line);
                grew = true;
            }
        }
        if !grew {
            return Ok(None);
        }
        self.rebuild()
    }

    fn rebuild(&self) -> Result<Option<MarketData>, TailError> {
        match from_csv(&self.text(&self.lines), self.start, self.periods_per_day) {
            Ok(data) => Ok(Some(data)),
            Err(err) => {
                // The feed may simply end mid-period; retry without the
                // trailing period's rows before declaring it malformed.
                let head = self.complete_prefix();
                if head.len() == self.lines.len() {
                    // Nothing to drop, so the error is real.
                    return Err(TailError::Parse(err));
                }
                if head.is_empty() {
                    // Only (part of) one period so far: not servable yet.
                    return Ok(None);
                }
                match from_csv(&self.text(head), self.start, self.periods_per_day) {
                    Ok(data) => Ok(Some(data)),
                    Err(_) => Err(TailError::Parse(err)),
                }
            }
        }
    }

    /// The accumulated rows minus the trailing run sharing the last row's
    /// period index (the cross-section that may still be incomplete).
    fn complete_prefix(&self) -> &[String] {
        let Some(last_period) = self.lines.last().map(|l| row_period(l)) else {
            return &self.lines;
        };
        let cut =
            self.lines.iter().rposition(|l| row_period(l) != last_period).map_or(0, |i| i + 1);
        &self.lines[..cut]
    }

    fn text(&self, lines: &[String]) -> String {
        let mut s = String::with_capacity(
            CSV_HEADER.len() + 1 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
        );
        s.push_str(CSV_HEADER);
        s.push('\n');
        for l in lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }
}

fn row_period(line: &str) -> &str {
    line.split(',').next().unwrap_or("").trim()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use std::fs;
    use std::io::Write;

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spikefolio-tail-{}-{name}.csv", std::process::id()))
    }

    fn append(path: &Path, text: &str) {
        let mut f = fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
    }

    fn start() -> Date {
        Date::new(2016, 1, 1)
    }

    #[test]
    fn reader_holds_back_partial_final_line() {
        let path = tmp("partial-line");
        let _ = fs::remove_file(&path);
        append(&path, "alpha\nbeta\ngam");
        let mut reader = CsvTailReader::new(&path);
        assert_eq!(reader.poll().unwrap(), vec!["alpha".to_owned(), "beta".to_owned()]);
        // The torn line stays on disk; nothing new yet.
        assert!(reader.poll().unwrap().is_empty());
        append(&path, "ma\n");
        assert_eq!(reader.poll().unwrap(), vec!["gamma".to_owned()]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reader_tolerates_missing_file_and_rotation() {
        let path = tmp("rotation");
        let _ = fs::remove_file(&path);
        let mut reader = CsvTailReader::new(&path);
        assert!(reader.poll().unwrap().is_empty(), "missing file yields nothing");
        append(&path, "one\r\ntwo\n");
        assert_eq!(reader.poll().unwrap(), vec!["one".to_owned(), "two".to_owned()]);
        fs::write(&path, "fresh\n").unwrap();
        assert_eq!(reader.poll().unwrap(), vec!["fresh".to_owned()], "shrunk file re-read");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_rereads_partial_row_instead_of_erroring() {
        let path = tmp("partial-row");
        let _ = fs::remove_file(&path);
        append(&path, "period,asset,open,high,low,close,volume\n");
        append(&path, "0,BTC,1,2,0.5,1.5,10\n");
        // A torn row: the writer got halfway through period 1's line.
        append(&path, "1,BTC,1.5,2.5");
        let mut tail = CsvTail::new(&path, start(), 48);
        let snap = tail.poll().unwrap().expect("period 0 is complete");
        assert_eq!(snap.num_periods(), 1);
        assert_eq!(snap.num_assets(), 1);
        assert!(tail.poll().unwrap().is_none(), "torn row is not consumed");
        append(&path, ",1,2,12\n");
        let snap = tail.poll().unwrap().expect("row completed");
        assert_eq!(snap.num_periods(), 2);
        assert_eq!(snap.close(1, 0), 2.0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_holds_back_incomplete_final_period() {
        let path = tmp("partial-period");
        let _ = fs::remove_file(&path);
        append(&path, "period,asset,open,high,low,close,volume\n");
        append(&path, "0,BTC,1,2,0.5,1.5,10\n0,ETH,1,2,0.5,1.2,10\n");
        append(&path, "1,BTC,1.5,2.5,1,2,12\n");
        let mut tail = CsvTail::new(&path, start(), 48);
        let snap = tail.poll().unwrap().expect("period 0 is complete");
        assert_eq!((snap.num_periods(), snap.num_assets()), (1, 2));
        append(&path, "1,ETH,1.2,2.2,1,1.8,12\n");
        let snap = tail.poll().unwrap().expect("period 1 completed");
        assert_eq!(snap.num_periods(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_rejects_bad_header() {
        let path = tmp("bad-header");
        let _ = fs::remove_file(&path);
        append(&path, "not,a,market,header\n");
        let mut tail = CsvTail::new(&path, start(), 48);
        assert!(matches!(tail.poll(), Err(TailError::Header(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_line_that_completes_malformed_warns_and_is_dropped() {
        let path = tmp("torn-malformed");
        let _ = fs::remove_file(&path);
        append(&path, "period,asset,open,high,low,close,volume\n");
        append(&path, "0,BTC,1,2,0.5,1.5,10\n");
        // Writer tears period 1's row mid-field...
        append(&path, "1,BTC,1.5,ga");
        let mut tail = CsvTail::new(&path, start(), 48);
        let snap = tail.poll().unwrap().expect("period 0 is complete");
        assert_eq!(snap.num_periods(), 1);
        assert!(tail.take_warnings().is_empty(), "held-back tail is not yet a warning");
        // ...and finishes it with garbage: the completed line is junk.
        append(&path, "rbage,oops\n");
        assert!(tail.poll().unwrap().is_none(), "poisoned row adds no data");
        let warnings = tail.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].kind(), "torn_line_still_malformed");
        assert_eq!(warnings[0].line(), "1,BTC,1.5,garbage,oops");
        assert!(tail.take_warnings().is_empty(), "drain is one-shot");
        // The writer re-emits the row correctly; the feed recovers.
        append(&path, "1,BTC,1.5,2.5,1,2,12\n");
        let snap = tail.poll().unwrap().expect("re-emitted row lands");
        assert_eq!(snap.num_periods(), 2);
        assert_eq!(snap.close(1, 0), 2.0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_line_that_completes_valid_carries_no_warning() {
        let path = tmp("torn-valid");
        let _ = fs::remove_file(&path);
        append(&path, "period,asset,open,high,low,close,volume\n");
        append(&path, "0,BTC,1,2,0.5,1.5,10\n1,BTC,1.5,2.5");
        let mut tail = CsvTail::new(&path, start(), 48);
        tail.poll().unwrap();
        append(&path, ",1,2,12\n");
        let snap = tail.poll().unwrap().expect("row completed");
        assert_eq!(snap.num_periods(), 2);
        assert!(tail.take_warnings().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_surfaces_genuinely_malformed_rows() {
        let path = tmp("malformed");
        let _ = fs::remove_file(&path);
        append(&path, "period,asset,open,high,low,close,volume\n");
        append(&path, "0,BTC,1,2,0.5,1.5,10\n");
        append(&path, "0,BTC,oops\n");
        append(&path, "1,BTC,1,2,0.5,1.5,10\n");
        let mut tail = CsvTail::new(&path, start(), 48);
        assert!(matches!(tail.poll(), Err(TailError::Parse(_))));
        let _ = fs::remove_file(&path);
    }
}
