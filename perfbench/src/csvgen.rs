//! Deterministic table → CSV writer for generated inputs.
//!
//! The repository reads CSV but has no writer, so the benchmark turns
//! each generated table into the bytes a user would upload:
//!
//! - numbers in Rust's shortest round-trip decimal form (never an
//!   exponent), so re-ingest recovers the exact `f64`;
//! - timestamps as `YYYY-MM-DD HH:MM:SS`, a form `parse_timestamp` accepts;
//! - text with the delimiter, quote and line-break characters replaced by
//!   `_`, so no field needs quoting;
//! - nulls and non-finite numbers as empty fields.

use deepeye_data::{ColumnData, Table};
use std::fmt::Write as _;

/// Characters that would split, quote or end a field.
const RESERVED: [char; 4] = [',', '"', '\n', '\r'];

/// Serialize `table` as comma-separated text with a header row.
pub fn to_csv(table: &Table) -> String {
    let columns = table.columns();
    let mut out = String::with_capacity(table.row_count() * columns.len() * 12);
    for (i, column) in columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_text(&mut out, column.name());
    }
    out.push('\n');
    for row in 0..table.row_count() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column.data() {
                ColumnData::Numeric(v) => {
                    if let Some(x) = v[row].filter(|x| x.is_finite()) {
                        let _ = write!(out, "{x}");
                    }
                }
                ColumnData::Text(v) => {
                    if let Some(s) = &v[row] {
                        push_text(&mut out, s);
                    }
                }
                ColumnData::Temporal(v) => {
                    if let Some(t) = v[row] {
                        let c = t.civil();
                        let _ = write!(
                            out,
                            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
                            c.year, c.month, c.day, c.hour, c.minute, c.second
                        );
                    }
                }
            }
        }
        out.push('\n');
    }
    out
}

fn push_text(out: &mut String, s: &str) {
    out.extend(
        s.chars()
            .map(|c| if RESERVED.contains(&c) { '_' } else { c }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{table_from_csv_str, Civil, Column, TableBuilder, Timestamp};

    #[test]
    fn reserved_characters_never_reach_the_bytes() {
        let table = TableBuilder::new("t")
            .text("na,me", ["a,b", "say \"hi\"", "two\nlines"])
            .numeric("x", [1.5, -0.25, 1e-7])
            .build()
            .unwrap();
        let csv = to_csv(&table);
        assert_eq!(
            csv,
            "na_me,x\na_b,1.5\nsay _hi_,-0.25\ntwo_lines,0.0000001\n"
        );
    }

    #[test]
    fn timestamps_and_nulls_round_trip() {
        let ts = |d| Timestamp::from_civil(Civil::new(2016, 2, d, 23, 59, 7).unwrap());
        let table = TableBuilder::new("t")
            .column(Column::new(
                "when",
                ColumnData::Temporal(vec![Some(ts(28)), None, Some(ts(29))]),
            ))
            .column(Column::new(
                "v",
                ColumnData::Numeric(vec![Some(0.1 + 0.2), Some(f64::NAN), None]),
            ))
            .build()
            .unwrap();
        let back = table_from_csv_str("t", &to_csv(&table)).unwrap();
        assert_eq!(back.columns()[0].data(), table.columns()[0].data());
        assert_eq!(
            back.columns()[1].data(),
            &ColumnData::Numeric(vec![Some(0.1 + 0.2), None, None])
        );
    }
}
