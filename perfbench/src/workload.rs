//! The three workloads and the inputs each one sends, made from a seed.
//!
//! Every table comes from `deepeye-datagen`: the structured flight table
//! (`flight_table`) or tables composed from the same seeded `Synth` column
//! generators `build_table` uses. The column-type plan and row count of
//! each table slot are fixed; the seed changes only the values. That keeps
//! the candidate count — which sets the cost of a request — the same from
//! seed to seed, so runs with different seeds measure the same work.

use crate::csvgen::to_csv;
use deepeye_data::{Column, DataType, Table, TableBuilder, Timestamp};
use deepeye_datagen::{build_table, flight_table, test_specs, year_start, Synth};
use rand::Rng;

/// Recommendations asked for per request.
pub const K: usize = 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Narrow, tall tables: ingest and the executor do the work.
    Tall,
    /// Wide, short tables: candidate count drives rules, features and rank.
    Wide,
    /// X1–X10 shapes through the trained pipeline (recognizer + hybrid).
    Session,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Tall, Workload::Wide, Workload::Session];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tall => "tall",
            Workload::Wide => "wide",
            Workload::Session => "session",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one end-to-end pass over the workload's tables takes at the
    /// commit that added the benchmark, on 2 vCPUs.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Tall => 5.0,
            Workload::Wide => 6.0,
            Workload::Session => 12.0,
        }
    }

    /// Passes an end-to-end run of about `seconds` makes: at least one.
    pub fn passes(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_pass_s()).round() as usize).max(1)
    }

    /// Seeded draws of the workload's tables a run sends requests to.
    ///
    /// On `session` a table's cost depends on its drawn values, the
    /// progressive tournament's pruning above all, and the ten tables
    /// differ in cost by 100×. Each median therefore sits on the boundary
    /// between two tables and moves with their draw; several draws steady
    /// it. On `tall` and `wide` the work is the same for every seed, so
    /// one draw is enough.
    pub fn draws(self) -> usize {
        match self {
            Workload::Session => 8,
            Workload::Tall | Workload::Wide => 1,
        }
    }

    /// Whether requests run with the trained recognizer and hybrid ranker.
    pub fn trained(self) -> bool {
        self == Workload::Session
    }
}

/// One generated table, serialized, plus what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    /// Which draw of the workload's tables this input belongs to.
    pub draw: usize,
    /// The CSV bytes every request starts from.
    pub csv: String,
    /// Column types of the generated table, before serialization.
    pub types: Vec<DataType>,
    /// Text of this table's keyword-search requests.
    pub keywords: String,
}

impl Input {
    /// The key of this input's kept digests: the table name, followed by
    /// `#<draw>` on every draw but the first.
    pub fn key(&self) -> String {
        match self.draw {
            0 => self.name.clone(),
            d => format!("{}#{d}", self.name),
        }
    }
}

/// One table of a workload: its name, row count and column plan. A plan
/// has one letter per column, `c` categorical, `t` temporal, `n` numeric;
/// the plan `FLIGHT` selects `flight_table` (one temporal, two
/// categorical and three numeric columns).
#[derive(Debug, Clone)]
struct Slot {
    name: String,
    rows: usize,
    plan: String,
}

const FLIGHT: &str = "flight";

/// Tall: 4–7 columns, 5k–20k rows, both generator families. Rows are
/// traded against candidate count so every table costs about the same,
/// which keeps the pooled percentiles from jumping between tables.
const TALL: [(&str, usize, &str); 7] = [
    ("flights-5k", 5_000, FLIGHT),
    ("survey-12k", 12_000, "ctnn"),
    ("survey-20k", 20_000, "cctn"),
    ("survey-8k", 8_000, "ctnnn"),
    ("flights-7k", 7_000, FLIGHT),
    ("survey-6k", 6_000, "cctnnn"),
    ("survey-5k", 5_000, "cctnnnn"),
];

/// Wide: 16–24 columns, 120–500 rows, about 5k–7k candidates each, so the
/// partial-order scorer runs on both sides of its 4,000-node streaming
/// threshold.
const WIDE: [(&str, usize, &str); 5] = [
    ("wide-120x16", 120, "ccctnnnnnnnnnnnn"),
    ("wide-200x16", 200, "cccccctnnnnnnnnn"),
    ("wide-300x18", 300, "cccccccctnnnnnnnnn"),
    ("wide-500x20", 500, "cccccccccctnnnnnnnnn"),
    ("wide-150x24", 150, "cccccccccccccctnnnnnnnnn"),
];

/// Row cap for the session's X1–X10 shapes, so two passes over all ten
/// tables fit a run.
pub const SESSION_ROW_CAP: usize = 1_000;

/// SplitMix64: derives independent per-table seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated tables of `workload` for `seed`, before serialization.
pub fn tables(workload: Workload, seed: u64) -> Vec<Table> {
    let fixed = |slots: &[(&str, usize, &str)]| -> Vec<Slot> {
        slots
            .iter()
            .map(|&(name, rows, plan)| Slot {
                name: name.to_owned(),
                rows,
                plan: plan.to_owned(),
            })
            .collect()
    };
    let slots = match workload {
        Workload::Tall => fixed(&TALL),
        Workload::Wide => fixed(&WIDE),
        Workload::Session => session_slots(),
    };
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let table_seed = mix(seed, i as u64 + 1);
            if slot.plan == FLIGHT {
                rename(flight_table(table_seed, slot.rows), &slot.name)
            } else {
                synth_table(&slot.name, slot.rows, &slot.plan, table_seed)
            }
        })
        .collect()
}

/// The inputs of `workload` for `seed`: each table as CSV bytes plus the
/// keyword query its search requests send.
pub fn inputs(workload: Workload, seed: u64) -> Vec<Input> {
    tables(workload, seed)
        .into_iter()
        .enumerate()
        .map(|(i, table)| Input {
            name: table.name().to_owned(),
            draw: 0,
            csv: to_csv(&table),
            types: table.columns().iter().map(Column::data_type).collect(),
            keywords: keywords(&table, mix(seed, 1_000 + i as u64)),
        })
        .collect()
}

/// Every draw of the inputs of `workload` for `seed`: draw 0 is
/// [`inputs`]`(workload, seed)` and later draws use seeds derived from it.
pub fn drawn_inputs(workload: Workload, seed: u64) -> Vec<Vec<Input>> {
    (0..workload.draws())
        .map(|draw| {
            let draw_seed = match draw {
                0 => seed,
                d => mix(seed, 2_000 + d as u64),
            };
            let mut set = inputs(workload, draw_seed);
            for input in &mut set {
                input.draw = draw;
            }
            set
        })
        .collect()
}

/// X1–X10 of Table IV: each dataset's name, column count and column
/// types (read from the canonical `build_table` output), rows capped.
fn session_slots() -> Vec<Slot> {
    test_specs()
        .into_iter()
        .map(|spec| {
            let plan = if spec.name == "FlyDelay" {
                FLIGHT.to_owned()
            } else {
                let canonical = build_table(&deepeye_datagen::CorpusSpec {
                    rows: 50,
                    ..spec.clone()
                });
                canonical
                    .columns()
                    .iter()
                    .map(|c| match c.data_type() {
                        DataType::Categorical => 'c',
                        DataType::Temporal => 't',
                        DataType::Numerical => 'n',
                    })
                    .collect()
            };
            Slot {
                rows: spec.rows.min(SESSION_ROW_CAP),
                name: spec.name,
                plan,
            }
        })
        .collect()
}

fn rename(table: Table, name: &str) -> Table {
    Table::new(name, table.columns().to_vec()).unwrap_or(table)
}

/// Compose a table from `Synth` generators following `plan`. Categorical
/// cardinalities and temporal steps depend only on the column's position;
/// numeric columns cycle through the trending, correlated, seasonal,
/// gaussian and log-normal generators, with a few nulls in every fourth.
fn synth_table(name: &str, rows: usize, plan: &str, seed: u64) -> Table {
    const CARDINALITY: [usize; 5] = [6, 12, 4, 9, 16];
    const STEPS: [i64; 3] = [3_600, 86_400, 7 * 86_400];
    let mut s = Synth::new(seed);
    let mut builder = TableBuilder::new(name);
    let mut numeric: Vec<Vec<f64>> = Vec::new();
    let (mut cats, mut times) = (0usize, 0usize);
    for kind in plan.chars() {
        let column = match kind {
            'c' => {
                let k = CARDINALITY[cats % CARDINALITY.len()];
                cats += 1;
                s.categorical_generic(&format!("category_{}", cats - 1), rows, k, 1.0)
            }
            't' => {
                let step = STEPS[times % STEPS.len()];
                times += 1;
                // Start four and a half days into the year: with the start
                // on a period boundary, jitter would move the first row
                // into the previous year or month for some seeds only, and
                // the extra mark would change which charts reach rank.
                let start = Timestamp::from_unix_seconds(
                    year_start(2005 + times as i32).unix_seconds() + 4 * 86_400 + 43_200,
                );
                s.temporal(
                    &format!("recorded_{}", times - 1),
                    rows,
                    start,
                    step,
                    step / 4,
                )
            }
            _ => {
                let i = numeric.len();
                let col_name = format!("metric_{i}");
                let column = match i % 5 {
                    1 => {
                        let base = &numeric[i - 1];
                        let slope = s.rng().gen_range(0.5..3.0);
                        let noise = s.rng().gen_range(0.2..2.0);
                        s.correlated(&col_name, base, slope, 10.0, noise)
                    }
                    0 => {
                        let per_row = s.rng().gen_range(0.01..0.5);
                        s.trending(&col_name, rows, 10.0, per_row, 2.0)
                    }
                    2 => {
                        let period = s.rng().gen_range(10.0..80.0);
                        s.seasonal(&col_name, rows, 60.0, 20.0, period, 2.0)
                    }
                    3 => {
                        let sigma = s.rng().gen_range(1.0..15.0);
                        s.gaussian(&col_name, rows, 75.0, sigma)
                    }
                    _ => s.lognormal(&col_name, rows, 2.5, 0.6),
                };
                numeric.push(column.numbers());
                if i % 4 == 3 {
                    s.with_nulls(column, 0.02)
                } else {
                    column
                }
            }
        };
        builder = builder.column(column);
    }
    // Every generator emits exactly `rows` values, so the columns agree.
    builder
        .build()
        .expect("generated columns have equal lengths")
}

/// A keyword query naming one numeric column of `table` and a chart type.
fn keywords(table: &Table, seed: u64) -> String {
    let mut s = Synth::new(seed);
    let numeric: Vec<&str> = table
        .columns()
        .iter()
        .filter(|c| c.data_type() == DataType::Numerical)
        .map(Column::name)
        .collect();
    let chart = ["bar", "line", "pie", "scatter"][s.rng().gen_range(0..4)];
    match numeric.len() {
        0 => format!("{chart} chart"),
        n => format!("{} by {chart}", numeric[s.rng().gen_range(0..n)]),
    }
}
