//! Output checks applied to every response, and the top-k digests kept
//! for the default seed.

use crate::pipeline::Op;
use crate::workload::{Workload, K};
use deepeye_core::Recommendation;
use deepeye_data::Table;
use std::collections::BTreeMap;

/// The seed whose top-k digests are kept in `digests/<workload>.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Check one response: 1..=K recommendations ranked 1..n with no gaps,
/// finite factors, and every chart re-executing through
/// `deepeye_query::execute` to an identical series.
pub fn check(table: &Table, recs: &[Recommendation]) -> Result<(), String> {
    if recs.is_empty() || recs.len() > K {
        return Err(format!("{} recommendations, expected 1..={K}", recs.len()));
    }
    for (i, rec) in recs.iter().enumerate() {
        if rec.rank != i + 1 {
            return Err(format!("position {} has rank {}", i + 1, rec.rank));
        }
        let f = rec.factors;
        if !(f.m.is_finite() && f.q.is_finite() && f.w.is_finite()) {
            return Err(format!("rank {}: non-finite factors {f:?}", rec.rank));
        }
        match deepeye_query::execute(table, &rec.node.query) {
            Ok(chart) if chart.series == rec.node.data.series => {}
            Ok(_) => {
                return Err(format!(
                    "rank {}: re-executed series differs for {}",
                    rec.rank,
                    rec.query_text(table.name())
                ))
            }
            Err(e) => {
                return Err(format!(
                    "rank {}: re-execution failed for {}: {e}",
                    rec.rank,
                    rec.query_text(table.name())
                ))
            }
        }
    }
    Ok(())
}

/// FNV-1a digest of a response: each recommendation's rank, query text
/// and factors rounded to 1e-9.
pub fn digest(table: &Table, recs: &[Recommendation]) -> u64 {
    let mut text = String::new();
    for rec in recs {
        let f = rec.factors;
        text.push_str(&format!(
            "{}|{}|{:.9}|{:.9}|{:.9}\n",
            rec.rank,
            rec.query_text(table.name()),
            f.m,
            f.q,
            f.w
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Kept digests of one workload on the default seed, by (op, table).
#[derive(Debug, Default)]
pub struct Digests(BTreeMap<(String, String), u64>);

impl Digests {
    /// The digests kept in the benchmark's files for `workload`.
    pub fn kept(workload: Workload) -> Result<Digests, String> {
        let text = match workload {
            Workload::Tall => include_str!("../digests/tall.txt"),
            Workload::Wide => include_str!("../digests/wide.txt"),
            Workload::Session => include_str!("../digests/session.txt"),
        };
        Digests::parse(text)
    }

    /// Parse lines of `op<TAB>table<TAB>hex digest`.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let mut parts = line.split('\t');
            let (Some(op), Some(table), Some(hex), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("digest line {}: expected three fields", i + 1));
            };
            let value =
                u64::from_str_radix(hex, 16).map_err(|e| format!("digest line {}: {e}", i + 1))?;
            map.insert((op.to_owned(), table.to_owned()), value);
        }
        Ok(Digests(map))
    }

    pub fn insert(&mut self, op: Op, table: &str, value: u64) {
        self.0
            .insert((op.name().to_owned(), table.to_owned()), value);
    }

    /// Compare a response's digest with the kept one.
    pub fn verify(&self, op: Op, table: &str, value: u64) -> Result<(), String> {
        match self.0.get(&(op.name().to_owned(), table.to_owned())) {
            Some(&kept) if kept == value => Ok(()),
            Some(&kept) => Err(format!(
                "top-k digest {value:016x} differs from the kept {kept:016x}"
            )),
            None => Err("no kept digest for this request".to_owned()),
        }
    }

    /// The file form parsed by [`Digests::parse`].
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|((op, table), v)| format!("{op}\t{table}\t{v:016x}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_core::DeepEye;
    use deepeye_data::table_from_csv_str;

    fn table() -> Table {
        table_from_csv_str(
            "sales",
            "region,revenue,units\nN,10,1\nS,20,2\nE,15,1.5\nW,30,3\nN,12,1.2\nS,22,2.2\n",
        )
        .unwrap()
    }

    #[test]
    fn real_responses_pass_and_tampered_ones_fail() {
        let t = table();
        let mut recs = DeepEye::with_defaults().recommend(&t, K);
        check(&t, &recs).unwrap();
        recs[0].factors.q = f64::NAN;
        assert!(check(&t, &recs).unwrap_err().contains("non-finite"));
        recs[0].factors.q = 0.5;
        recs.swap(0, 1);
        assert!(check(&t, &recs).unwrap_err().contains("has rank"));
        recs.swap(0, 1);
        recs[1].node.slim();
        assert!(check(&t, &recs).unwrap_err().contains("differs"));
    }

    #[test]
    fn digests_round_trip_and_detect_changes() {
        let t = table();
        let recs = DeepEye::with_defaults().recommend(&t, K);
        let mut kept = Digests::default();
        kept.insert(Op::Recommend, "sales", digest(&t, &recs));
        let parsed = Digests::parse(&kept.render()).unwrap();
        parsed
            .verify(Op::Recommend, "sales", digest(&t, &recs))
            .unwrap();
        assert!(parsed
            .verify(Op::Recommend, "sales", digest(&t, &recs[1..]))
            .is_err());
        assert!(parsed.verify(Op::Search, "sales", 0).is_err());
    }
}
