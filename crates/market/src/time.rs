//! Minimal calendar-date type.
//!
//! The workspace only needs day-resolution dates to express the Table 1
//! train/backtest splits and to map simulation periods onto regime eras, so
//! we implement a small proleptic-Gregorian date rather than pulling in a
//! calendar dependency.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A calendar date (proleptic Gregorian), stored as days since 1970-01-01.
///
/// # Example
///
/// ```
/// use spikefolio_market::Date;
///
/// let d: Date = "2016/08/01".parse()?;
/// assert_eq!(d.year(), 2016);
/// assert_eq!(d + 31, "2016/09/01".parse()?);
/// # Ok::<(), spikefolio_market::time::ParseDateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    days: i64,
}

const DAYS_PER_400Y: i64 = 146_097;
const DAYS_PER_100Y: i64 = 36_524;
const DAYS_PER_4Y: i64 = 1_461;

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Date {
    /// Creates a date from year/month/day.
    ///
    /// # Panics
    ///
    /// Panics if the month or day is out of range for the given year.
    pub fn new(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        // Days from 1970-01-01 to the start of `year`.
        let y = year as i64 - 1970;
        let mut days = y * 365;
        // Count leap days between 1970 and `year` (exclusive).
        let leaps = |to: i64| -> i64 {
            // Number of leap years in [1, to] (years counted from year 1).
            to / 4 - to / 100 + to / 400
        };
        days += leaps(year as i64 - 1) - leaps(1969);
        for m in 1..month {
            days += days_in_month(year, m) as i64;
        }
        days += day as i64 - 1;
        Self { days }
    }

    /// Decomposes into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        // Convert to days since 0000-03-01 (civil-from-days algorithm,
        // Howard Hinnant's date algorithms).
        let z = self.days + 719_468;
        let era = z.div_euclid(DAYS_PER_400Y);
        let doe = z.rem_euclid(DAYS_PER_400Y);
        let yoe =
            (doe - doe / (DAYS_PER_4Y - 1) + doe / DAYS_PER_100Y - doe / (DAYS_PER_400Y - 1)) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month (1–12).
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Day of month (1–31).
    pub fn day(self) -> u32 {
        self.ymd().2
    }

    /// Whole days from `self` to `other` (`other - self`).
    pub fn days_until(self, other: Date) -> i64 {
        other.days - self.days
    }
}

impl std::ops::Add<i64> for Date {
    type Output = Date;

    fn add(self, rhs: i64) -> Date {
        Date { days: self.days + rhs }
    }
}

impl std::ops::Sub<i64> for Date {
    type Output = Date;

    fn sub(self, rhs: i64) -> Date {
        Date { days: self.days - rhs }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}/{m:02}/{d:02}")
    }
}

/// Error returned when parsing a date from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError {
    input: String,
}

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date syntax: {:?} (expected YYYY/MM/DD)", self.input)
    }
}

impl std::error::Error for ParseDateError {}

impl FromStr for Date {
    type Err = ParseDateError;

    /// Parses `YYYY/MM/DD` or `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDateError { input: s.to_owned() };
        let parts: Vec<&str> =
            if s.contains('/') { s.split('/').collect() } else { s.split('-').collect() };
        if parts.len() != 3 {
            return Err(err());
        }
        let year: i32 = parts[0].parse().map_err(|_| err())?;
        let month: u32 = parts[1].parse().map_err(|_| err())?;
        let day: u32 = parts[2].parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return Err(err());
        }
        Ok(Date::new(year, month, day))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).days, 0);
        assert_eq!(Date::new(1970, 1, 2).days, 1);
    }

    #[test]
    fn known_dates_round_trip() {
        for &(y, m, d) in &[
            (2016, 8, 1),
            (2019, 4, 14),
            (2020, 2, 29),
            (2021, 8, 1),
            (2000, 2, 29),
            (1999, 12, 31),
        ] {
            let date = Date::new(y, m, d);
            assert_eq!(date.ymd(), (y, m, d), "round-trip failed for {y}-{m}-{d}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(is_leap(2020));
        assert!(!is_leap(1900));
        assert!(!is_leap(2021));
    }

    #[test]
    fn arithmetic_crosses_month_and_year() {
        let d = Date::new(2019, 12, 31) + 1;
        assert_eq!(d.ymd(), (2020, 1, 1));
        let d2 = Date::new(2020, 3, 1) - 1;
        assert_eq!(d2.ymd(), (2020, 2, 29));
    }

    #[test]
    fn days_until_matches_table1_span() {
        let start: Date = "2016/08/01".parse().unwrap();
        let end: Date = "2019/08/01".parse().unwrap();
        // 3 years incl. one leap day.
        assert_eq!(start.days_until(end), 1095);
    }

    #[test]
    fn parse_accepts_both_separators() {
        assert_eq!("2016/08/01".parse::<Date>().unwrap(), Date::new(2016, 8, 1));
        assert_eq!("2016-08-01".parse::<Date>().unwrap(), Date::new(2016, 8, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("2016/13/01".parse::<Date>().is_err());
        assert!("2016/02/30".parse::<Date>().is_err());
        assert!("hello".parse::<Date>().is_err());
        assert!("2016/08".parse::<Date>().is_err());
    }

    #[test]
    fn display_uses_paper_format() {
        assert_eq!(Date::new(2019, 4, 14).to_string(), "2019/04/14");
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Date::new(2016, 8, 1) < Date::new(2019, 4, 14));
    }

    #[test]
    fn exhaustive_round_trip_over_decade() {
        // Every day from 2015-01-01 to 2025-01-01 must round-trip through ymd.
        let start = Date::new(2015, 1, 1).days;
        let end = Date::new(2025, 1, 1).days;
        let mut prev = None;
        for days in start..end {
            let (y, m, dd) = Date { days }.ymd();
            assert_eq!(Date::new(y, m, dd).days, days);
            if let Some((py, pm, _)) = prev {
                // Months only move forward (or wrap at year boundary).
                assert!(y > py || (y == py && m >= pm));
            }
            prev = Some((y, m, dd));
        }
    }
}
