//! The exact work counts of the traced run — the `exec.*` operator counts,
//! `rules.candidates` and `ranking.nodes` among them — repeat bit for bit
//! across two runs with the same seed, so later changes can name them as
//! claims.

use deepeye_obs::Observer;
use deepeye_perfbench::layers::{layer_pass, Counts};
use deepeye_perfbench::output::Outcome;
use deepeye_perfbench::pipeline::{deepeye, train_ltr, train_recognizer, training_corpus, Models};
use deepeye_perfbench::workload::{inputs, Workload};

/// One traced run from scratch: inputs and models built anew, then one
/// pass over the first two tables of each workload.
fn traced_counts(seed: u64) -> Vec<Counts> {
    let corpus = training_corpus();
    let models = Models {
        recognizer: train_recognizer(&corpus),
        ltr: train_ltr(&corpus),
    };
    Workload::ALL
        .into_iter()
        .map(|workload| {
            let inputs = inputs(workload, seed);
            let eye = deepeye(workload.trained().then_some(&models));
            let mut outcome = Outcome::default();
            let pass = layer_pass(
                &Observer::enabled(),
                &inputs[..2],
                &eye,
                &models,
                workload.trained(),
                &mut outcome,
            )
            .unwrap();
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            pass.counts
        })
        .collect()
}

#[test]
fn work_counts_repeat_across_traced_runs() {
    let first = traced_counts(5);
    let second = traced_counts(5);
    assert_eq!(first, second);
    for counts in &first {
        assert!(counts.candidates > 0 && counts.ranked > 0);
        assert!(counts.rows_scanned > 0 && counts.group_probes > 0);
        assert!(counts.agg_updates > 0 && counts.output_rows > 0);
    }
}
