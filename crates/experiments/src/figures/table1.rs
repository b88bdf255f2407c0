//! Table 1: the tuning decision table.
//!
//! Not a simulation — the table *is* the algorithm. This module prints the
//! implemented decision for every (bandwidth-drop, throttling) combination,
//! so the artifact can be diffed against the paper's Table 1 directly.

use crate::Table;
use stcc::{decide, Action};

/// Tabulates the implemented decision table.
#[must_use]
pub fn generate() -> Table {
    let mut t = Table::new(
        "Table 1 — tuning decision table",
        &["drop_in_bandwidth", "currently_throttling", "action"],
    );
    for drop in [true, false] {
        for throttling in [true, false] {
            let action = match decide(drop, throttling) {
                Action::Cut => "decrement",
                Action::Raise => "increment",
                Action::Hold => "no change",
                Action::Reset { .. } => unreachable!("Table 1 never resets"),
            };
            t.push(vec![
                if drop { "yes" } else { "no" }.to_owned(),
                if throttling { "yes" } else { "no" }.to_owned(),
                action.to_owned(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table_1() {
        let t = generate();
        let rows: Vec<Vec<&str>> = t
            .rows()
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec!["yes", "yes", "decrement"],
                vec!["yes", "no", "decrement"],
                vec!["no", "yes", "increment"],
                vec!["no", "no", "no change"],
            ]
        );
    }
}
