//! The CSV writer round-trips every generated input: re-ingesting the
//! bytes gives back the generated shape and column types.

use deepeye_data::{table_from_csv_str, Column};
use deepeye_perfbench::workload::{inputs, tables, Workload};

#[test]
fn every_workload_table_round_trips_through_csv() {
    for workload in Workload::ALL {
        for seed in [1, 7] {
            let generated = tables(workload, seed);
            let sent = inputs(workload, seed);
            assert_eq!(generated.len(), sent.len());
            for (table, input) in generated.iter().zip(&sent) {
                let back = table_from_csv_str(&input.name, &input.csv).unwrap();
                let label = format!("{} seed {seed}: {}", workload.name(), input.name);
                assert_eq!(back.row_count(), table.row_count(), "{label}");
                assert_eq!(back.column_count(), table.column_count(), "{label}");
                let names = |t: &deepeye_data::Table| -> Vec<String> {
                    t.columns().iter().map(|c| c.name().to_owned()).collect()
                };
                assert_eq!(names(&back), names(table), "{label}");
                let types: Vec<_> = back.columns().iter().map(Column::data_type).collect();
                assert_eq!(types, input.types, "{label}");
            }
        }
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    let a = inputs(Workload::Wide, 3);
    let b = inputs(Workload::Wide, 3);
    let c = inputs(Workload::Wide, 4);
    for ((x, y), z) in a.iter().zip(&b).zip(&c) {
        assert_eq!(x.csv, y.csv);
        assert_eq!(x.keywords, y.keywords);
        assert_ne!(x.csv, z.csv, "another seed gives other values");
        assert_eq!(x.types, z.types, "but the same column plan");
    }
}
