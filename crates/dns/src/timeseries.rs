//! A change-log container with value-as-of-day semantics.
//!
//! All authoritative DNS state in the simulator is a [`TimeSeries`]: a
//! sorted list of `(effective_day, value)` change points. `value_at(day)`
//! returns the last change at or before `day` — exactly the semantics a
//! resolver sees when replaying history.

use retrodns_types::Day;
use serde::{Deserialize, Serialize};

/// A piecewise-constant value over time, represented by its change points.
///
/// # Examples
///
/// ```
/// use retrodns_dns::TimeSeries;
/// use retrodns_types::Day;
///
/// let mut ns = TimeSeries::new();
/// ns.set(Day(0), "ns1.infocom.kg");
/// ns.set(Day(100), "ns1.kg-infocom.ru"); // the hijack
/// ns.set(Day(103), "ns1.infocom.kg");    // restored
/// assert_eq!(ns.value_at(Day(50)), Some(&"ns1.infocom.kg"));
/// assert_eq!(ns.value_at(Day(101)), Some(&"ns1.kg-infocom.ru"));
/// assert_eq!(ns.value_at(Day(200)), Some(&"ns1.infocom.kg"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries<T> {
    /// Change points sorted by day, at most one per day (later `set` on the
    /// same day overwrites).
    changes: Vec<(Day, T)>,
}

impl<T> Default for TimeSeries<T> {
    fn default() -> Self {
        TimeSeries {
            changes: Vec::new(),
        }
    }
}

impl<T> TimeSeries<T> {
    /// An empty series (no value at any time).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the value becomes `value` on `day` (and stays until the
    /// next change point). Setting the same day twice overwrites.
    pub fn set(&mut self, day: Day, value: T) {
        match self.changes.binary_search_by_key(&day, |(d, _)| *d) {
            Ok(i) => self.changes[i] = (day, value),
            Err(i) => self.changes.insert(i, (day, value)),
        }
    }

    /// The value in effect on `day`: the last change at or before it.
    pub fn value_at(&self, day: Day) -> Option<&T> {
        match self.changes.binary_search_by_key(&day, |(d, _)| *d) {
            Ok(i) => Some(&self.changes[i].1),
            Err(0) => None,
            Err(i) => Some(&self.changes[i - 1].1),
        }
    }

    /// The day the currently effective value (as of `day`) was set.
    pub fn effective_since(&self, day: Day) -> Option<Day> {
        match self.changes.binary_search_by_key(&day, |(d, _)| *d) {
            Ok(i) => Some(self.changes[i].0),
            Err(0) => None,
            Err(i) => Some(self.changes[i - 1].0),
        }
    }

    /// All change points, in order.
    pub fn changes(&self) -> impl Iterator<Item = (Day, &T)> {
        self.changes.iter().map(|(d, v)| (*d, v))
    }

    /// Change points within `[from, to]` (inclusive).
    pub fn changes_in(&self, from: Day, to: Day) -> impl Iterator<Item = (Day, &T)> {
        self.changes
            .iter()
            .filter(move |(d, _)| *d >= from && *d <= to)
            .map(|(d, v)| (*d, v))
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True if no value was ever set.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The first change point, if any.
    pub fn first_change(&self) -> Option<(Day, &T)> {
        self.changes.first().map(|(d, v)| (*d, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_value() {
        let ts: TimeSeries<u32> = TimeSeries::new();
        assert_eq!(ts.value_at(Day(5)), None);
        assert!(ts.is_empty());
        assert_eq!(ts.first_change(), None);
    }

    #[test]
    fn value_before_first_change_is_none() {
        let mut ts = TimeSeries::new();
        ts.set(Day(10), 'a');
        assert_eq!(ts.value_at(Day(9)), None);
        assert_eq!(ts.value_at(Day(10)), Some(&'a'));
        assert_eq!(ts.value_at(Day(1000)), Some(&'a'));
    }

    #[test]
    fn out_of_order_sets_are_sorted() {
        let mut ts = TimeSeries::new();
        ts.set(Day(20), 'b');
        ts.set(Day(10), 'a');
        ts.set(Day(30), 'c');
        assert_eq!(ts.value_at(Day(15)), Some(&'a'));
        assert_eq!(ts.value_at(Day(20)), Some(&'b'));
        assert_eq!(ts.value_at(Day(25)), Some(&'b'));
        assert_eq!(ts.value_at(Day(30)), Some(&'c'));
        let days: Vec<Day> = ts.changes().map(|(d, _)| d).collect();
        assert_eq!(days, vec![Day(10), Day(20), Day(30)]);
    }

    #[test]
    fn same_day_set_overwrites() {
        let mut ts = TimeSeries::new();
        ts.set(Day(10), 'a');
        ts.set(Day(10), 'b');
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(Day(10)), Some(&'b'));
    }

    #[test]
    fn effective_since_reports_change_day() {
        let mut ts = TimeSeries::new();
        ts.set(Day(10), 'a');
        ts.set(Day(20), 'b');
        assert_eq!(ts.effective_since(Day(15)), Some(Day(10)));
        assert_eq!(ts.effective_since(Day(20)), Some(Day(20)));
        assert_eq!(ts.effective_since(Day(5)), None);
    }

    #[test]
    fn changes_in_window() {
        let mut ts = TimeSeries::new();
        for d in [10, 20, 30, 40] {
            ts.set(Day(d), d);
        }
        let inside: Vec<u32> = ts.changes_in(Day(15), Day(35)).map(|(_, v)| *v).collect();
        assert_eq!(inside, vec![20, 30]);
        let all: Vec<u32> = ts.changes_in(Day(10), Day(40)).map(|(_, v)| *v).collect();
        assert_eq!(all, vec![10, 20, 30, 40]);
    }

    #[test]
    fn hijack_and_restore_pattern() {
        // The mfa.gov.kg shape: stable, brief change, restore.
        let mut ns = TimeSeries::new();
        ns.set(Day(0), "legit");
        ns.set(Day(1449), "attacker"); // 2020-12-20
        ns.set(Day(1472), "legit"); // 2021-01-12
        assert_eq!(ns.value_at(Day(1448)), Some(&"legit"));
        assert_eq!(ns.value_at(Day(1449)), Some(&"attacker"));
        assert_eq!(ns.value_at(Day(1471)), Some(&"attacker"));
        assert_eq!(ns.value_at(Day(1472)), Some(&"legit"));
    }
}
