//! One module per table/figure of the evaluation (see DESIGN.md's
//! per-experiment index).

pub mod ablation;
pub mod approxtop;
pub mod crossover;
pub mod error_curves;
pub mod fault_matrix;
pub mod hierarchical;
pub mod list_size;
pub mod maxchange;
pub mod parallel;
pub mod payload;
pub mod table1;
pub mod throughput;

use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::Table;

/// What every experiment returns: human-readable tables plus raw records.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Rendered tables, printed by the harness.
    pub tables: Vec<Table>,
    /// Machine-readable data points (JSON lines).
    pub records: Vec<ExperimentRecord>,
}

impl ExperimentOutput {
    /// Renders all tables, separated by blank lines.
    pub fn render(&self) -> String {
        self.tables
            .iter()
            .map(Table::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Success criterion for CANDIDATETOP(S, k, l): the candidate list must
/// contain at least `k` items whose exact count is `>= n_k`. (Identity-
/// based recall would be unfair under count ties, which are common at
/// small Zipf parameters.)
pub fn candidate_top_success(
    candidates: &[cs_hash::ItemKey],
    exact: &cs_stream::ExactCounter,
    k: usize,
) -> bool {
    let nk = exact.nk(k);
    if nk == 0 {
        return true;
    }
    let hits = candidates
        .iter()
        .filter(|&&key| exact.count(key) >= nk)
        .count();
    hits >= k
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_hash::ItemKey;
    use cs_stream::{ExactCounter, Stream};

    #[test]
    fn success_criterion_counts_ties() {
        // counts: 1→3, 2→2, 3→2, 4→1; k=2 → n_k = 2.
        let exact = ExactCounter::from_stream(&Stream::from_ids([1, 1, 1, 2, 2, 3, 3, 4]));
        // Reporting items 1 and 3 succeeds even though "the" top-2 by
        // tie-break is {1, 2}: item 3 also has count >= n_k.
        assert!(candidate_top_success(&[ItemKey(1), ItemKey(3)], &exact, 2));
        assert!(!candidate_top_success(&[ItemKey(1), ItemKey(4)], &exact, 2));
        assert!(!candidate_top_success(&[ItemKey(1)], &exact, 2));
    }

    #[test]
    fn success_vacuous_for_empty_truth() {
        assert!(candidate_top_success(&[], &ExactCounter::new(), 3));
    }

    #[test]
    fn output_render_joins_tables() {
        let mut out = ExperimentOutput::default();
        out.tables.push(Table::new("one", &["a"]));
        out.tables.push(Table::new("two", &["b"]));
        let s = out.render();
        assert!(s.contains("## one") && s.contains("## two"));
    }
}
