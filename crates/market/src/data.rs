//! In-memory OHLCV dataset and the price-relative views the algorithms use.

use crate::candle::Candle;
use crate::time::Date;

/// A complete market dataset: `num_periods × num_assets` candles on a
/// uniform time grid.
///
/// Storage is row-major by period, so reading the cross-section of all
/// assets at one time step is contiguous — the access pattern of every
/// strategy in the workspace.
///
/// # Example
///
/// ```
/// use spikefolio_market::{Candle, Date, MarketData};
///
/// let candles = vec![Candle::flat(10.0), Candle::flat(20.0), Candle::new(10.0, 12.0, 10.0, 12.0, 1.0), Candle::flat(20.0)];
/// let data = MarketData::new(vec!["A".into(), "B".into()], Date::new(2020, 1, 1), 1, 2, candles);
/// let y = data.price_relatives(1); // close_1 / close_0 per asset
/// assert!((y[0] - 1.2).abs() < 1e-12);
/// assert!((y[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarketData {
    asset_names: Vec<String>,
    start: Date,
    periods_per_day: u32,
    num_assets: usize,
    /// Row-major `[period][asset]`.
    candles: Vec<Candle>,
}

impl MarketData {
    /// Assembles a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `candles.len()` is not a multiple of `num_assets`, or if
    /// `asset_names.len() != num_assets`, or `num_assets == 0`.
    pub fn new(
        asset_names: Vec<String>,
        start: Date,
        periods_per_day: u32,
        num_assets: usize,
        candles: Vec<Candle>,
    ) -> Self {
        assert!(num_assets > 0, "num_assets must be positive");
        assert_eq!(asset_names.len(), num_assets, "asset_names length mismatch");
        assert_eq!(
            candles.len() % num_assets,
            0,
            "candles length {} not a multiple of num_assets {num_assets}",
            candles.len()
        );
        assert!(periods_per_day > 0, "periods_per_day must be positive");
        Self { asset_names, start, periods_per_day, num_assets, candles }
    }

    /// Number of assets.
    pub fn num_assets(&self) -> usize {
        self.num_assets
    }

    /// Number of time periods.
    pub fn num_periods(&self) -> usize {
        self.candles.len() / self.num_assets
    }

    /// Asset display names.
    pub fn asset_names(&self) -> &[String] {
        &self.asset_names
    }

    /// First calendar day covered.
    pub fn start_date(&self) -> Date {
        self.start
    }

    /// Candles per calendar day.
    pub fn periods_per_day(&self) -> u32 {
        self.periods_per_day
    }

    /// Periods per year implied by the grid (crypto trades every day).
    pub fn periods_per_year(&self) -> f64 {
        365.0 * self.periods_per_day as f64
    }

    /// Calendar date containing period `t`.
    pub fn period_date(&self, t: usize) -> Date {
        self.start + (t / self.periods_per_day as usize) as i64
    }

    /// First period index on or after `date` (saturating at the end).
    pub fn period_at_date(&self, date: Date) -> usize {
        let days = self.start.days_until(date).max(0) as usize;
        (days * self.periods_per_day as usize).min(self.num_periods())
    }

    /// The candle for asset `a` at period `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn candle(&self, t: usize, a: usize) -> Candle {
        assert!(t < self.num_periods(), "period {t} out of bounds");
        assert!(a < self.num_assets, "asset {a} out of bounds");
        self.candles[t * self.num_assets + a]
    }

    /// Replaces the candle at `(t, a)` without validating OHLC invariants.
    ///
    /// This is the seam used by fault injection (to plant deliberately
    /// broken candles for resilience tests) and by the sanitizer (to write
    /// repaired ones). Ordinary construction goes through [`Candle::new`],
    /// which enforces the invariants.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set_candle_unchecked(&mut self, t: usize, a: usize, candle: Candle) {
        assert!(t < self.num_periods(), "period {t} out of bounds");
        assert!(a < self.num_assets, "asset {a} out of bounds");
        self.candles[t * self.num_assets + a] = candle;
    }

    /// Cross-section of all assets' candles at period `t`.
    pub fn cross_section(&self, t: usize) -> &[Candle] {
        assert!(t < self.num_periods(), "period {t} out of bounds");
        &self.candles[t * self.num_assets..(t + 1) * self.num_assets]
    }

    /// Closing price of asset `a` at period `t`.
    pub fn close(&self, t: usize, a: usize) -> f64 {
        self.candle(t, a).close
    }

    /// Price-relative vector `y_t = close_t / close_{t-1}` for each asset
    /// (no cash entry). For `t == 0` the open of period 0 is used as the
    /// previous close.
    pub fn price_relatives(&self, t: usize) -> Vec<f64> {
        self.relatives(t).collect()
    }

    fn relatives(&self, t: usize) -> impl Iterator<Item = f64> + '_ {
        (0..self.num_assets).map(move |a| {
            let c = self.candle(t, a);
            let prev = if t == 0 { c.open } else { self.close(t - 1, a) };
            c.close / prev
        })
    }

    /// Price-relative vector with a leading cash entry fixed at 1.0, i.e.
    /// the `y_t` of eq. (1) in the paper for an `M`-asset, `N = M + 1`
    /// portfolio.
    pub fn price_relatives_with_cash(&self, t: usize) -> Vec<f64> {
        let mut y = Vec::with_capacity(self.num_assets + 1);
        self.price_relatives_with_cash_into(t, &mut y);
        y
    }

    /// [`price_relatives_with_cash`](Self::price_relatives_with_cash)
    /// into `out`, which is cleared first.
    pub fn price_relatives_with_cash_into(&self, t: usize, out: &mut Vec<f64>) {
        out.clear();
        out.push(1.0);
        out.extend(self.relatives(t));
    }

    /// Sum of traded volume for asset `a` over the trailing `periods`
    /// periods ending at `t` (inclusive). Used to select "highest volume in
    /// the last 30 days" universes like the paper's.
    pub fn trailing_volume(&self, t: usize, a: usize, periods: usize) -> f64 {
        let from = t.saturating_sub(periods.saturating_sub(1));
        (from..=t).map(|s| self.candle(s, a).volume).sum()
    }

    /// Returns a copy restricted to periods `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > num_periods()`.
    pub fn slice(&self, from: usize, to: usize) -> MarketData {
        assert!(from <= to && to <= self.num_periods(), "bad slice [{from}, {to})");
        let day_offset = (from / self.periods_per_day as usize) as i64;
        MarketData {
            asset_names: self.asset_names.clone(),
            start: self.start + day_offset,
            periods_per_day: self.periods_per_day,
            num_assets: self.num_assets,
            candles: self.candles[from * self.num_assets..to * self.num_assets].to_vec(),
        }
    }

    /// Splits into `(before, from)` at the first period on/after `date` —
    /// the Table 1 train/backtest split.
    pub fn split_at_date(&self, date: Date) -> (MarketData, MarketData) {
        let t = self.period_at_date(date);
        (self.slice(0, t), self.slice(t, self.num_periods()))
    }

    /// Log return of asset `a` over `[t-1, t]` (uses open at `t == 0`).
    pub fn log_return(&self, t: usize, a: usize) -> f64 {
        self.price_relatives(t)[a].ln()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn toy() -> MarketData {
        // 2 assets, 3 periods; asset 0 rises 10% each period, asset 1 flat.
        let mut candles = Vec::new();
        let mut p = 100.0;
        for _ in 0..3 {
            let next = p * 1.1;
            candles.push(Candle::new(p, next, p, next, 1.0));
            candles.push(Candle::flat(50.0));
            p = next;
        }
        MarketData::new(vec!["UP".into(), "FLAT".into()], Date::new(2020, 1, 1), 2, 2, candles)
    }

    #[test]
    fn shape_accessors() {
        let d = toy();
        assert_eq!(d.num_assets(), 2);
        assert_eq!(d.num_periods(), 3);
        assert_eq!(d.asset_names(), &["UP".to_string(), "FLAT".to_string()]);
        assert_eq!(d.periods_per_year(), 730.0);
    }

    #[test]
    fn price_relatives_match_construction() {
        let d = toy();
        let y1 = d.price_relatives(1);
        assert!((y1[0] - 1.1).abs() < 1e-12);
        assert!((y1[1] - 1.0).abs() < 1e-12);
        let y0 = d.price_relatives(0);
        assert!((y0[0] - 1.1).abs() < 1e-12, "t=0 uses open as previous close");
    }

    #[test]
    fn cash_entry_is_prepended() {
        let d = toy();
        let y = d.price_relatives_with_cash(1);
        assert_eq!(y.len(), 3);
        assert_eq!(y[0], 1.0);
    }

    #[test]
    fn period_dates_follow_grid() {
        let d = toy(); // 2 periods per day
        assert_eq!(d.period_date(0), Date::new(2020, 1, 1));
        assert_eq!(d.period_date(1), Date::new(2020, 1, 1));
        assert_eq!(d.period_date(2), Date::new(2020, 1, 2));
        assert_eq!(d.period_at_date(Date::new(2020, 1, 2)), 2);
        // Dates beyond the data saturate.
        assert_eq!(d.period_at_date(Date::new(2021, 1, 1)), 3);
    }

    #[test]
    fn slice_and_split() {
        let d = toy();
        let s = d.slice(1, 3);
        assert_eq!(s.num_periods(), 2);
        assert_eq!(s.candle(0, 0), d.candle(1, 0));
        let (a, b) = d.split_at_date(Date::new(2020, 1, 2));
        assert_eq!(a.num_periods(), 2);
        assert_eq!(b.num_periods(), 1);
        assert_eq!(b.start_date(), Date::new(2020, 1, 2));
    }

    #[test]
    fn trailing_volume_window() {
        let d = toy();
        assert_eq!(d.trailing_volume(2, 0, 2), 2.0);
        assert_eq!(d.trailing_volume(2, 0, 10), 3.0);
        assert_eq!(d.trailing_volume(0, 1, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn candle_bounds_checked() {
        let d = toy();
        let _ = d.candle(3, 0);
    }

    #[test]
    fn log_return_consistency() {
        let d = toy();
        assert!((d.log_return(1, 0) - 1.1f64.ln()).abs() < 1e-12);
    }
}
