//! Calendar time at the granularity the paper's data sources operate on.
//!
//! The Censys CUIDS scans are weekly, passive DNS reports first/last-seen
//! *days*, and zone-file snapshots are daily — so a day-granularity clock is
//! the natural time base. [`Day`] counts days since the study epoch
//! **2017-01-01** (the start of the paper's measurement window). [`Period`]
//! models the six-month analysis windows the paper builds deployment maps in,
//! and [`StudyWindow`] the overall Jan 2017 – Mar 2021 span split into nine
//! such periods.

use crate::error::ParseError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// The study epoch: 2017-01-01, expressed as days since 1970-01-01 (civil).
const EPOCH_UNIX_DAYS: i64 = 17167;

/// A calendar day, stored as the number of days since 2017-01-01.
///
/// `Day` is the single time base of the workspace. It is cheap to copy,
/// totally ordered, and supports day arithmetic. Conversion to and from
/// `YYYY-MM-DD` strings uses a proleptic Gregorian calendar.
///
/// # Examples
///
/// ```
/// use retrodns_types::Day;
///
/// let d: Day = "2019-04-23".parse().unwrap();
/// assert_eq!(d.to_string(), "2019-04-23");
/// assert_eq!((d + 7).to_string(), "2019-04-30");
/// assert_eq!(d - Day::from_ymd(2019, 4, 16).unwrap(), 7);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Day(pub u32);

impl Day {
    /// The first day of the study window, 2017-01-01.
    pub const EPOCH: Day = Day(0);

    /// Construct from a calendar date. Returns an error for impossible
    /// dates or dates before the 2017-01-01 epoch.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Day, ParseError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(ParseError::InvalidDate(format!(
                "{year:04}-{month:02}-{day:02}"
            )));
        }
        let unix_days = days_from_civil(year, month as i64, day as i64);
        let offset = unix_days - EPOCH_UNIX_DAYS;
        if offset < 0 {
            return Err(ParseError::DateOutOfRange(format!(
                "{year:04}-{month:02}-{day:02}"
            )));
        }
        Ok(Day(offset as u32))
    }

    /// The calendar (year, month, day) of this `Day`.
    pub fn ymd(self) -> (i32, u32, u32) {
        let (y, m, d) = civil_from_days(EPOCH_UNIX_DAYS + self.0 as i64);
        (y as i32, m as u32, d as u32)
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Month component (1–12).
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Day-of-month component (1–31).
    pub fn day_of_month(self) -> u32 {
        self.ymd().2
    }

    /// The later of two days.
    pub fn max(self, other: Day) -> Day {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two days.
    pub fn min(self, other: Day) -> Day {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction of a number of days.
    pub fn saturating_sub_days(self, days: u32) -> Day {
        Day(self.0.saturating_sub(days))
    }

    /// Absolute distance in days between two dates.
    pub fn abs_diff(self, other: Day) -> u32 {
        self.0.abs_diff(other.0)
    }

    /// Short month-year form used in the paper's tables, e.g. `Apr'19`.
    pub fn month_year_short(self) -> String {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let (y, m, _) = self.ymd();
        format!("{}'{:02}", MONTHS[(m - 1) as usize], y % 100)
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl FromStr for Day {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('-');
        let (y, m, d) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(y), Some(m), Some(d), None) => (y, m, d),
            _ => return Err(ParseError::InvalidDate(s.to_string())),
        };
        let y: i32 = y.parse().map_err(|_| ParseError::InvalidDate(s.into()))?;
        let m: u32 = m.parse().map_err(|_| ParseError::InvalidDate(s.into()))?;
        let d: u32 = d.parse().map_err(|_| ParseError::InvalidDate(s.into()))?;
        Day::from_ymd(y, m, d)
    }
}

impl Add<u32> for Day {
    type Output = Day;
    fn add(self, rhs: u32) -> Day {
        Day(self.0 + rhs)
    }
}

impl AddAssign<u32> for Day {
    fn add_assign(&mut self, rhs: u32) {
        self.0 += rhs;
    }
}

impl Sub<u32> for Day {
    type Output = Day;
    fn sub(self, rhs: u32) -> Day {
        Day(self.0.checked_sub(rhs).expect("Day subtraction underflow"))
    }
}

impl Sub<Day> for Day {
    type Output = u32;
    /// Days elapsed from `rhs` to `self`. Panics if `rhs` is later.
    fn sub(self, rhs: Day) -> u32 {
        self.0
            .checked_sub(rhs.0)
            .expect("Day difference underflow: rhs is later than lhs")
    }
}

/// Days from civil date, Howard Hinnant's algorithm. Returns days since
/// 1970-01-01.
fn days_from_civil(y: i32, m: i64, d: i64) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Civil date from days since 1970-01-01. Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = mp + if mp < 10 { 3 } else { -9 };
    (y + if m <= 2 { 1 } else { 0 }, m, d)
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Identifier of a six-month analysis period within the study window
/// (0-based; the paper has nine periods over Jan 2017 – Mar 2021).
pub type PeriodId = usize;

/// A half-open day interval `[start, end)` representing one analysis period.
///
/// The paper builds an independent deployment map per domain per period;
/// the six-month length "balances compute time against the typical
/// certificate lifecycle" (§4.1, footnote 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Period {
    /// 0-based index within the study window.
    pub id: PeriodId,
    /// First day of the period (inclusive).
    pub start: Day,
    /// First day after the period (exclusive).
    pub end: Day,
}

impl Period {
    /// Does the period contain `day`?
    pub fn contains(&self, day: Day) -> bool {
        day >= self.start && day < self.end
    }

    /// Length in days.
    pub fn len_days(&self) -> u32 {
        self.end - self.start
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{} [{} .. {})", self.id, self.start, self.end)
    }
}

/// The overall study window, split into fixed-length periods.
///
/// Defaults mirror the paper: 2017-01-01 through 2021-03-31, six-month
/// periods (nine of them), weekly scan cadence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StudyWindow {
    /// First day of the study (inclusive).
    pub start: Day,
    /// Last day of the study (inclusive).
    pub end: Day,
    /// Period length in months (calendar months, anchored at `start`).
    pub period_months: u32,
    /// Days between successive Internet-wide scans (CUIDS: weekly).
    pub scan_interval_days: u32,
}

impl Default for StudyWindow {
    fn default() -> Self {
        StudyWindow {
            start: Day::EPOCH,
            end: Day::from_ymd(2021, 3, 31).expect("static date"),
            period_months: 6,
            scan_interval_days: 7,
        }
    }
}

impl StudyWindow {
    /// Construct a window; `end` must not precede `start`.
    pub fn new(start: Day, end: Day, period_months: u32, scan_interval_days: u32) -> StudyWindow {
        assert!(end >= start, "study end precedes start");
        assert!(period_months > 0, "period length must be positive");
        assert!(scan_interval_days > 0, "scan interval must be positive");
        StudyWindow {
            start,
            end,
            period_months,
            scan_interval_days,
        }
    }

    /// All analysis periods covering the window, in order. The last period
    /// may extend past `end` (it is truncated to `end + 1` so that every
    /// study day belongs to exactly one period).
    pub fn periods(&self) -> Vec<Period> {
        let mut out = Vec::new();
        let mut id = 0;
        let mut cursor = self.start;
        while cursor <= self.end {
            let next = add_months(cursor, self.period_months);
            let end = next.min(self.end + 1);
            out.push(Period {
                id,
                start: cursor,
                end,
            });
            cursor = next;
            id += 1;
        }
        out
    }

    /// Is `day` inside the window (`start..=end`)? Answers exactly what
    /// `self.period_of(day).is_some()` answers, because [`Self::periods`]
    /// partitions the window contiguously, but with two integer compares
    /// instead of calendar arithmetic.
    #[inline]
    pub fn contains(&self, day: Day) -> bool {
        (self.start..=self.end).contains(&day)
    }

    /// The period containing `day`, if the day is within the window.
    /// To test membership only, use [`Self::contains`].
    ///
    /// Runs in O(1): the period index is the number of whole calendar
    /// months elapsed since `start`, divided by `period_months`. The
    /// arithmetic is exact whenever the window starts on day-of-month
    /// ≤ 28, because then [`add_months`] never clamps and every period
    /// boundary falls on the same day-of-month as `start`. Windows
    /// anchored on the 29th–31st (where clamping shifts boundaries) fall
    /// back to scanning [`Self::periods`].
    pub fn period_of(&self, day: Day) -> Option<Period> {
        if !self.contains(day) {
            return None;
        }
        let (sy, sm, sd) = self.start.ymd();
        if sd > 28 {
            return self.periods().into_iter().find(|p| p.contains(day));
        }
        let (y, m, d) = day.ymd();
        let mut months = (y - sy) as i64 * 12 + (m as i64 - sm as i64);
        if d < sd {
            months -= 1;
        }
        let id = (months / self.period_months as i64) as PeriodId;
        let start = add_months(self.start, (id as u32) * self.period_months);
        let end = add_months(start, self.period_months).min(self.end + 1);
        debug_assert!(start <= day && day < end);
        Some(Period { id, start, end })
    }

    /// All scan dates in the window: `start`, `start + interval`, …
    pub fn scan_dates(&self) -> Vec<Day> {
        let mut out = Vec::new();
        let mut d = self.start;
        while d <= self.end {
            out.push(d);
            d += self.scan_interval_days;
        }
        out
    }

    /// Scan dates falling inside a specific period.
    pub fn scan_dates_in(&self, period: &Period) -> Vec<Day> {
        self.scan_dates()
            .into_iter()
            .filter(|d| period.contains(*d))
            .collect()
    }

    /// Expected number of scans per full period (used by the paper's
    /// "~12 scans ≈ 3 months" transient threshold arithmetic).
    pub fn scans_per_period(&self) -> usize {
        let p = self.periods();
        let full = p.first().expect("window has at least one period");
        (full.len_days() as usize).div_ceil(self.scan_interval_days as usize)
    }
}

/// Add `months` calendar months to a day, clamping the day-of-month to the
/// target month's length (e.g. Jan 31 + 1 month = Feb 28/29).
pub fn add_months(day: Day, months: u32) -> Day {
    let (y, m, d) = day.ymd();
    let total = (y as i64) * 12 + (m as i64 - 1) + months as i64;
    let ny = (total / 12) as i32;
    let nm = (total % 12) as u32 + 1;
    let nd = d.min(days_in_month(ny, nm));
    Day::from_ymd(ny, nm, nd).expect("month arithmetic stays in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2017() {
        assert_eq!(Day::EPOCH.to_string(), "2017-01-01");
        assert_eq!(Day::EPOCH.ymd(), (2017, 1, 1));
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "2017-01-01",
            "2019-04-23",
            "2020-02-29",
            "2021-03-31",
            "2020-12-31",
        ] {
            let d: Day = s.parse().unwrap();
            assert_eq!(d.to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_dates() {
        assert!("2019-02-29".parse::<Day>().is_err()); // not a leap year
        assert!("2019-13-01".parse::<Day>().is_err());
        assert!("2019-00-01".parse::<Day>().is_err());
        assert!("2019-01-32".parse::<Day>().is_err());
        assert!("2019-01".parse::<Day>().is_err());
        assert!("hello".parse::<Day>().is_err());
        assert!(matches!(
            "2016-12-31".parse::<Day>(),
            Err(ParseError::DateOutOfRange(_))
        ));
    }

    #[test]
    fn leap_year_handling() {
        let d = Day::from_ymd(2020, 2, 28).unwrap();
        assert_eq!((d + 1).to_string(), "2020-02-29");
        assert_eq!((d + 2).to_string(), "2020-03-01");
    }

    #[test]
    fn day_arithmetic() {
        let a = Day::from_ymd(2019, 4, 16).unwrap();
        let b = Day::from_ymd(2019, 4, 23).unwrap();
        assert_eq!(b - a, 7);
        assert_eq!(a + 7, b);
        assert_eq!(a.abs_diff(b), 7);
        assert_eq!(b.abs_diff(a), 7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn month_year_short_matches_paper_table_format() {
        let d = Day::from_ymd(2019, 4, 23).unwrap();
        assert_eq!(d.month_year_short(), "Apr'19");
        let d = Day::from_ymd(2020, 12, 22).unwrap();
        assert_eq!(d.month_year_short(), "Dec'20");
    }

    #[test]
    fn default_window_has_nine_periods() {
        let w = StudyWindow::default();
        let p = w.periods();
        assert_eq!(
            p.len(),
            9,
            "Jan 2017 – Mar 2021 splits into 9 six-month periods"
        );
        assert_eq!(p[0].start.to_string(), "2017-01-01");
        assert_eq!(p[0].end.to_string(), "2017-07-01");
        assert_eq!(p[8].start.to_string(), "2021-01-01");
        // final period truncated to the study end
        assert_eq!(p[8].end, w.end + 1);
    }

    #[test]
    fn periods_partition_the_window() {
        let w = StudyWindow::default();
        let periods = w.periods();
        let mut day = w.start;
        while day <= w.end {
            let covering: Vec<_> = periods.iter().filter(|p| p.contains(day)).collect();
            assert_eq!(covering.len(), 1, "day {day} covered by exactly one period");
            day += 13; // stride to keep the test fast
        }
    }

    #[test]
    fn period_of_finds_correct_period() {
        let w = StudyWindow::default();
        let d = Day::from_ymd(2019, 4, 23).unwrap();
        let p = w.period_of(d).unwrap();
        assert!(p.contains(d));
        assert_eq!(p.id, 4); // Jan'17.. five periods in: [Jan'19, Jul'19)
        assert!(w.period_of(w.end + 1).is_none());
    }

    #[test]
    fn period_of_window_edges() {
        let w = StudyWindow::default();
        let periods = w.periods();
        // First and last day of the window.
        assert_eq!(w.period_of(w.start), Some(periods[0]));
        assert_eq!(w.period_of(w.end), Some(periods[8]));
        // Outside the window on both sides.
        assert!(w.period_of(w.end + 1).is_none());
        let late_start = StudyWindow::new(Day(10), Day(400), 6, 7);
        assert!(late_start.period_of(Day(9)).is_none());
        assert_eq!(late_start.period_of(Day(10)).unwrap().id, 0);
        // Every period boundary: last day in, first day of the next.
        for p in &periods {
            assert_eq!(w.period_of(p.start), Some(*p));
            assert_eq!(w.period_of(p.end - 1).unwrap().id, p.id);
            if p.end <= w.end {
                assert_eq!(w.period_of(p.end).unwrap().id, p.id + 1);
            }
        }
    }

    #[test]
    fn period_of_agrees_with_linear_scan() {
        // Several windows, including 1- and 3-month periods and a
        // mid-month anchor.
        let windows = [
            StudyWindow::default(),
            StudyWindow::new(Day::EPOCH, Day::from_ymd(2018, 1, 1).unwrap(), 3, 7),
            StudyWindow::new(
                Day::from_ymd(2017, 5, 15).unwrap(),
                Day::from_ymd(2019, 2, 3).unwrap(),
                1,
                7,
            ),
        ];
        for w in windows {
            let periods = w.periods();
            let mut day = w.start;
            while day <= w.end {
                let linear = periods.iter().find(|p| p.contains(day)).copied();
                assert_eq!(w.period_of(day), linear, "window {w:?} day {day}");
                day += 1;
            }
        }
    }

    #[test]
    fn period_of_clamped_month_start_uses_fallback() {
        // Anchored on Jan 31: add_months clamps, so boundaries drift to
        // shorter months; the scan fallback must still agree with
        // periods() everywhere.
        let w = StudyWindow::new(
            Day::from_ymd(2017, 1, 31).unwrap(),
            Day::from_ymd(2018, 6, 30).unwrap(),
            1,
            7,
        );
        let periods = w.periods();
        let mut day = w.start;
        while day <= w.end {
            let linear = periods.iter().find(|p| p.contains(day)).copied();
            assert_eq!(w.period_of(day), linear, "day {day}");
            day += 1;
        }
    }

    #[test]
    fn contains_agrees_with_period_of() {
        // Anchors on the 1st, the 28th (the last exact anchor) and the
        // 29th–31st (clamped boundaries), at 1-, 6- and 12-month periods,
        // from 40 days before the window to 40 days after it.
        for anchor in [1, 28, 29, 30, 31] {
            for period_months in [1, 6, 12] {
                let w = StudyWindow::new(
                    Day::from_ymd(2018, 1, anchor).unwrap(),
                    Day::from_ymd(2020, 3, 15).unwrap(),
                    period_months,
                    7,
                );
                let periods = w.periods();
                let mut day = w.start - 40;
                while day <= w.end + 40 {
                    let in_a_period = periods.iter().any(|p| p.contains(day));
                    assert_eq!(w.contains(day), in_a_period, "window {w:?} day {day}");
                    assert_eq!(
                        w.period_of(day).is_some(),
                        in_a_period,
                        "window {w:?} day {day}"
                    );
                    day += 1;
                }
            }
        }
    }

    #[test]
    fn weekly_scans_are_about_26_per_period() {
        let w = StudyWindow::default();
        let p = w.periods();
        let n = w.scan_dates_in(&p[0]).len();
        assert!((25..=27).contains(&n), "got {n} scans in first period");
        assert_eq!(w.scans_per_period(), 26);
    }

    #[test]
    fn add_months_clamps() {
        let d = Day::from_ymd(2019, 1, 31).unwrap();
        assert_eq!(add_months(d, 1).to_string(), "2019-02-28");
        assert_eq!(add_months(d, 13).to_string(), "2020-02-29");
        let d = Day::from_ymd(2019, 3, 15).unwrap();
        assert_eq!(add_months(d, 6).to_string(), "2019-09-15");
    }

    #[test]
    fn custom_window_three_month_periods() {
        let w = StudyWindow::new(Day::EPOCH, Day::from_ymd(2018, 1, 1).unwrap(), 3, 7);
        let p = w.periods();
        assert_eq!(p.len(), 5); // 4 full quarters + the 2018-01-01 stub
        assert_eq!(p[1].start.to_string(), "2017-04-01");
    }
}
