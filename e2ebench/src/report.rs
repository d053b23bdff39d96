//! Parsing `fi` reports and scoring them against the exact oracle.

use crate::gen::Oracle;
use crate::metrics::median;
use frequent_items::hash::ItemKey;

/// One report row: the item and the value `fi` printed for it.
pub type Row = (ItemKey, i64);

/// Parses a report whose first line must be `header`, followed by exactly
/// `rows` rows of `VALUE  ITEM`, each item once.
pub fn parse(
    report: &str,
    header: &str,
    rows: usize,
    key_of: fn(&str) -> Option<ItemKey>,
) -> Result<Vec<Row>, String> {
    let mut lines = report.lines();
    let first = lines.next().unwrap_or("");
    if first != header {
        return Err(format!("header {first:?}, expected {header:?}"));
    }
    let mut out = Vec::with_capacity(rows);
    for line in lines {
        let (value, item) = line
            .trim_start()
            .split_once("  ")
            .ok_or_else(|| format!("malformed row {line:?}"))?;
        let value = value
            .parse::<i64>()
            .map_err(|e| format!("row {line:?}: {e}"))?;
        let key = key_of(item).ok_or_else(|| format!("row {line:?}: unreadable item"))?;
        out.push((key, value));
    }
    if out.len() != rows {
        return Err(format!("{} rows, expected {rows}", out.len()));
    }
    let mut keys: Vec<ItemKey> = out.iter().map(|&(key, _)| key).collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != out.len() {
        return Err("an item is reported twice".into());
    }
    Ok(out)
}

/// The key of a row that names its item by token (`fi top`, `fi diff`).
pub fn label_key(item: &str) -> Option<ItemKey> {
    Some(ItemKey::of(item))
}

/// The key of a row that prints it as `key 0x…` (`fi serve`,
/// `fi coordinate`).
pub fn hex_key(item: &str) -> Option<ItemKey> {
    let hex = item.strip_prefix("key 0x")?;
    u64::from_str_radix(hex, 16).ok().map(ItemKey)
}

/// `(topk_recall, count_accuracy)` of a report's rows.
///
/// Recall is the share of the exact top-k among the rows, where every
/// item tied with the k-th exact value counts as exact top-k. Accuracy
/// is one minus the median of `|reported - exact| / |exact|`.
pub fn quality(rows: &[Row], oracle: &Oracle, k: usize) -> (f64, f64) {
    let kth = oracle.kth_magnitude(k);
    let hits = rows
        .iter()
        .filter(|&&(key, _)| {
            let exact = oracle.value(key).unsigned_abs();
            exact > 0 && exact >= kth
        })
        .count();
    let recall = hits.min(k) as f64 / k.min(oracle.len()).max(1) as f64;
    let errors: Vec<f64> = rows
        .iter()
        .map(|&(key, value)| match oracle.value(key) {
            0 => 1.0,
            exact => (value - exact).abs() as f64 / exact.abs() as f64,
        })
        .collect();
    (recall, 1.0 - median(&errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{token, Shape};

    #[test]
    fn parses_labelled_and_hex_rows() {
        let top = "# h\n        12  wa\n        -3  wb\n";
        let rows = parse(top, "# h", 2, label_key).unwrap();
        assert_eq!(rows, vec![(ItemKey::of("wa"), 12), (ItemKey::of("wb"), -3)]);
        assert!(parse(top, "# other", 2, label_key).is_err());
        assert!(parse(top, "# h", 3, label_key).is_err());
        assert!(parse("# h\n  1  wa\n  2  wa\n", "# h", 2, label_key).is_err());
        assert_eq!(
            parse("# h\n       +7  w1\n", "# h", 1, label_key).unwrap()[0].1,
            7
        );
        let served = "# h\n        12  key 0x00000000000000ff\n";
        assert_eq!(
            parse(served, "# h", 1, hex_key).unwrap(),
            vec![(ItemKey(255), 12)]
        );
        assert!(parse("# h\n  5  key 0xzz\n", "# h", 1, hex_key).is_err());
    }

    #[test]
    fn quality_counts_ties_and_relative_error() {
        let oracle = Oracle::counts(Shape::Short, &[10, 8, 8, 2]);
        let key = |rank| ItemKey::of(token(Shape::Short, rank).as_str());
        // Rank 2 ties with the 2nd exact count, so it is exact top-2.
        let (recall, accuracy) = quality(&[(key(0), 10), (key(2), 6)], &oracle, 2);
        assert_eq!(recall, 1.0);
        assert!((accuracy - 0.875).abs() < 1e-12, "{accuracy}");
        let (recall, _) = quality(&[(key(0), 10), (key(3), 2)], &oracle, 2);
        assert_eq!(recall, 0.5);
    }
}
