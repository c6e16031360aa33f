//! The system under test as a user drives it: a configured `DeepEye` and
//! the three request types, each starting from CSV bytes.

use crate::workload::{Input, Workload, K};
use deepeye_core::{
    keyword_search, ClassifierKind, DeepEye, DeepEyeConfig, HybridRanker, LtrRanker, RankingMethod,
    Recognizer, Recommendation,
};
use deepeye_data::{table_from_csv_str, Table};
use deepeye_datagen::{ranking_examples, recognition_examples, training_tables, PerceptionOracle};

/// Row scale of the training corpus, as the repository's harness uses.
pub const TRAINING_SCALE: f64 = 0.03;

/// A request type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `DeepEye::recommend`: the full pipeline to top-k.
    Recommend,
    /// `DeepEye::recommend_progressive`: the §V-B tournament.
    Progressive,
    /// `keyword_search`: candidates re-ranked by a keyword query.
    Search,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Recommend, Op::Progressive, Op::Search];

    pub fn name(self) -> &'static str {
        match self {
            Op::Recommend => "recommend",
            Op::Progressive => "progressive",
            Op::Search => "search",
        }
    }
}

/// The trained models of the session workload.
pub struct Models {
    pub recognizer: Recognizer,
    pub ltr: LtrRanker,
}

/// The training corpus both models learn from.
pub fn training_corpus() -> Vec<Table> {
    training_tables(TRAINING_SCALE)
}

/// Train the decision-tree recognizer on `corpus`.
pub fn train_recognizer(corpus: &[Table]) -> Recognizer {
    let oracle = PerceptionOracle::default();
    Recognizer::train(
        ClassifierKind::DecisionTree,
        &recognition_examples(corpus, &oracle),
    )
}

/// Train the LambdaMART ranker on `corpus`.
pub fn train_ltr(corpus: &[Table]) -> LtrRanker {
    LtrRanker::fit(&ranking_examples(corpus, &PerceptionOracle::default()))
}

/// The pipeline a workload's requests run through: defaults, or with
/// `models` the recognizer filter and hybrid ranking.
pub fn deepeye(models: Option<&Models>) -> DeepEye {
    match models {
        None => DeepEye::with_defaults(),
        Some(m) => DeepEye::new(DeepEyeConfig {
            recognizer: Some(m.recognizer.clone()),
            ranking: RankingMethod::Hybrid(m.ltr.clone(), HybridRanker::default()),
            ..DeepEyeConfig::default()
        }),
    }
}

/// Everything a run needs before its first request.
pub struct Setup {
    /// The workload's inputs, one set of tables per draw.
    pub draws: Vec<Vec<Input>>,
    pub eye: DeepEye,
}

/// Build the inputs and the pipeline of `workload`; trains the models
/// when the workload uses them.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let draws = crate::workload::drawn_inputs(workload, seed);
    let models = workload.trained().then(|| {
        let corpus = training_corpus();
        Models {
            recognizer: train_recognizer(&corpus),
            ltr: train_ltr(&corpus),
        }
    });
    Setup {
        draws,
        eye: deepeye(models.as_ref()),
    }
}

/// One request: ingest the CSV bytes, then run `op` to top-k. Returns the
/// ingested table with the recommendations so the caller can check them.
pub fn request(
    eye: &DeepEye,
    op: Op,
    input: &Input,
) -> Result<(Table, Vec<Recommendation>), String> {
    let table = table_from_csv_str(&input.name, &input.csv).map_err(|e| e.to_string())?;
    let recs = match op {
        Op::Recommend => eye.recommend(&table, K),
        Op::Progressive => eye.recommend_progressive(&table, K),
        Op::Search => keyword_search(eye, &table, &input.keywords, K),
    };
    Ok((table, recs))
}
