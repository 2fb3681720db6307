//! The shared experiment pipeline behind every table/figure regenerator:
//! generate → clean → encode → split 80/10/10 → train the black box →
//! train/fit counterfactual methods → evaluate the §IV-D metrics.

use cfx_baselines::{BaselineContext, CfMethod};
use cfx_core::{
    feasibility_rate, Constraint, ConstraintMode, FeasibleCfConfig,
    FeasibleCfModel,
};
use cfx_data::{DatasetId, EncodedDataset, Split};
use cfx_metrics::{
    categorical_proximity, continuous_proximity, sparsity, validity_pct,
    MetricContext, RecoveryCounts, TableRow,
};
use cfx_core::WatchdogConfig;
use cfx_models::{BlackBox, BlackBoxConfig};
use cfx_tensor::checkpoint::{self, Checkpoint, CheckpointConfig};
use cfx_tensor::{runtime, Tensor};

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    /// ~6 000 raw instances — seconds per dataset; CI-friendly.
    Quick,
    /// ~1/4 of the paper's instance counts.
    Half,
    /// The paper's Table I sizes.
    Paper,
}

impl RunSize {
    /// Parses `quick` / `half` / `paper`.
    pub fn parse(s: &str) -> Option<RunSize> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(RunSize::Quick),
            "half" => Some(RunSize::Half),
            "paper" | "full" => Some(RunSize::Paper),
            _ => None,
        }
    }

    /// Raw instance count for a dataset at this size.
    pub fn raw_count(&self, dataset: DatasetId) -> usize {
        match self {
            RunSize::Quick => 6_000,
            RunSize::Half => dataset.paper_raw_size() / 4,
            RunSize::Paper => dataset.paper_raw_size(),
        }
    }
}

/// Harness settings.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Experiment scale.
    pub size: RunSize,
    /// Master seed.
    pub seed: u64,
    /// Cap on evaluated test instances.
    pub eval_cap: usize,
    /// Black-box training epochs.
    pub blackbox_epochs: usize,
    /// Durability policy: when a directory is set, every training stage
    /// (black box, baseline substrates, the paper's models) checkpoints
    /// there and completed table rows are persisted, so a killed run
    /// restarted with `resume` continues from the last durable state.
    pub checkpoint: CheckpointConfig,
    /// `--trace-out PATH`: JSONL telemetry sink; also arms the op-level
    /// tape profiler (see [`init_telemetry`]).
    pub trace_out: Option<std::path::PathBuf>,
    /// `--prom-out PATH`: write a Prometheus text-format metrics
    /// snapshot at end of run (see [`finish_telemetry`]).
    pub prom_out: Option<std::path::PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            size: RunSize::Quick,
            seed: 42,
            eval_cap: 500,
            blackbox_epochs: 12,
            checkpoint: CheckpointConfig::disabled(),
            trace_out: None,
            prom_out: None,
        }
    }
}

/// A prepared experiment: data, split, trained black box, constraints and
/// metric context for one dataset.
pub struct Harness {
    /// Which benchmark.
    pub dataset: DatasetId,
    /// Cleaned + encoded data.
    pub data: EncodedDataset,
    /// 80/10/10 split.
    pub split: Split,
    /// Trained, frozen classifier.
    pub blackbox: BlackBox,
    /// Metric context (stds, spans).
    pub metrics: MetricContext,
    /// The dataset's unary constraint (as a 1-element list).
    pub unary: Vec<Constraint>,
    /// The dataset's binary constraint (as a 1-element list).
    pub binary: Vec<Constraint>,
    /// Settings used.
    pub config: HarnessConfig,
}

impl Harness {
    /// Builds the pipeline for one dataset: generate, encode, split, train
    /// the black box on the train split.
    pub fn build(dataset: DatasetId, config: HarnessConfig) -> Harness {
        let _span = cfx_obs::span!(
            "harness_build",
            dataset = dataset.name(),
            seed = config.seed,
        );
        let raw = dataset.generate(config.size.raw_count(dataset), config.seed);
        let data = EncodedDataset::from_raw(&raw);
        let split = Split::paper(data.len(), config.seed);
        let (x_train, y_train) = data.subset(&split.train);

        let bb_cfg = BlackBoxConfig {
            epochs: config.blackbox_epochs,
            seed: config.seed,
            ..Default::default()
        };
        let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
        let bb_ckpt = config
            .checkpoint
            .clone()
            .with_prefix(format!("bb-{}", dataset.slug()));
        blackbox
            .train_with_checkpoints(&x_train, &y_train, &bb_cfg, &bb_ckpt)
            .expect("black-box checkpointing failed");

        let metrics = MetricContext::new(&data);
        let paper_cfg =
            FeasibleCfConfig::paper(dataset, ConstraintMode::Unary);
        let unary = FeasibleCfModel::paper_constraints(
            dataset,
            &data,
            ConstraintMode::Unary,
            paper_cfg.c1,
            paper_cfg.c2,
        ).unwrap();
        let binary = FeasibleCfModel::paper_constraints(
            dataset,
            &data,
            ConstraintMode::Binary,
            paper_cfg.c1,
            paper_cfg.c2,
        ).unwrap();
        Harness { dataset, data, split, blackbox, metrics, unary, binary, config }
    }

    /// Training rows.
    pub fn train_x(&self) -> Tensor {
        self.data.subset(&self.split.train).0
    }

    /// Test rows to explain, capped at `eval_cap`.
    ///
    /// As in the paper's recourse framing (the loan example of §I; the
    /// "Target class" column of Table I), counterfactuals are generated
    /// for instances the classifier puts in the *negative* class, asking
    /// how to reach the desired/target class.
    pub fn test_x(&self) -> Tensor {
        let all = self.data.x.gather_rows(&self.split.test);
        let preds = self.blackbox.predict(&all);
        let negatives: Vec<usize> = (0..all.rows())
            .filter(|&r| preds[r] == 0)
            .take(self.config.eval_cap)
            .collect();
        all.gather_rows(&negatives)
    }

    /// Classifier accuracy on the validation split.
    pub fn val_accuracy(&self) -> f32 {
        let (xv, yv) = self.data.subset(&self.split.val);
        self.blackbox.accuracy(&xv, &yv)
    }

    /// Evaluates a counterfactual batch into a Table IV row. `feas` picks
    /// which feasibility columns to fill (the paper prints "-" for the
    /// unevaluated constraint of its own and Mahajan's single-constraint
    /// models).
    pub fn evaluate(
        &self,
        method: &str,
        x: &Tensor,
        cf: &Tensor,
        feas: FeasColumns,
    ) -> TableRow {
        let desired: Vec<u8> = self
            .blackbox
            .predict(x)
            .iter()
            .map(|&p| 1 - p)
            .collect();
        let cf_pred = self.blackbox.predict(cf);
        let xr: Vec<Vec<f32>> =
            (0..x.rows()).map(|r| x.row_slice(r).to_vec()).collect();
        let cr: Vec<Vec<f32>> =
            (0..cf.rows()).map(|r| cf.row_slice(r).to_vec()).collect();

        let feas_unary = 100.0 * feasibility_rate(&self.unary, x, cf);
        let feas_binary = 100.0 * feasibility_rate(&self.binary, x, cf);
        TableRow {
            method: method.to_string(),
            validity: validity_pct(&desired, &cf_pred),
            feasibility_unary: match feas {
                FeasColumns::Both | FeasColumns::UnaryOnly => Some(feas_unary),
                FeasColumns::BinaryOnly => None,
            },
            feasibility_binary: match feas {
                FeasColumns::Both | FeasColumns::BinaryOnly => Some(feas_binary),
                FeasColumns::UnaryOnly => None,
            },
            continuous_proximity: continuous_proximity(&self.metrics, &xr, &cr),
            categorical_proximity: categorical_proximity(&self.metrics, &xr, &cr),
            sparsity: sparsity(&self.metrics, &xr, &cr),
            recovery: None,
        }
    }

    /// Trains the paper's model for one constraint mode.
    pub fn train_our_model(&self, mode: ConstraintMode) -> FeasibleCfModel {
        let config = FeasibleCfConfig::paper(self.dataset, mode)
            .with_seed(self.config.seed)
            .with_step_budget_of(self.dataset, self.split.train.len());
        let constraints = FeasibleCfModel::paper_constraints(
            self.dataset,
            &self.data,
            mode,
            config.c1,
            config.c2,
        ).unwrap();
        let mut model = FeasibleCfModel::new(
            &self.data,
            self.blackbox.clone(),
            constraints,
            config,
        );
        let mode_tag = match mode {
            ConstraintMode::Unary => "unary",
            ConstraintMode::Binary => "binary",
        };
        let ckpt = self.config.checkpoint.clone().with_prefix(format!(
            "ours-{mode_tag}-{}",
            self.dataset.slug()
        ));
        model
            .fit_with_checkpoints(
                &self.train_x(),
                &WatchdogConfig::default(),
                &ckpt,
                |_, _| {},
            )
            .expect("our-model checkpointing failed");
        model
    }

    /// Trains, explains and evaluates one Table IV row. Rows `0..=6` are
    /// the seven baselines in the paper's order; rows 7 and 8 are the
    /// paper's own unary and binary models.
    fn table4_row(
        &self,
        i: usize,
        x: &Tensor,
        ctx: &BaselineContext<'_>,
    ) -> TableRow {
        match i {
            0..=6 => {
                let method = build_baseline(i, ctx, self.dataset);
                let cf = method.counterfactuals(x);
                // Mahajan rows show only their own constraint column.
                let feas = match i {
                    0 => FeasColumns::UnaryOnly,
                    1 => FeasColumns::BinaryOnly,
                    _ => FeasColumns::Both,
                };
                self.evaluate(&method.name(), x, &cf, feas)
            }
            7 => {
                let ours = self.train_our_model(ConstraintMode::Unary);
                self.evaluate_ours(&ours, "Our method (a)*", x, FeasColumns::UnaryOnly)
            }
            8 => {
                let ours = self.train_our_model(ConstraintMode::Binary);
                self.evaluate_ours(&ours, "Our method (b)**", x, FeasColumns::BinaryOnly)
            }
            _ => unreachable!("Table IV has 9 rows"),
        }
    }

    /// Evaluates the paper's own model through `explain_batch` (so the
    /// retry/fallback ladder is active) and attaches the per-row
    /// provenance tally to the table row — recovery overhead is visible in
    /// the rendered table and in `BENCH_*.json`.
    fn evaluate_ours(
        &self,
        ours: &FeasibleCfModel,
        method: &str,
        x: &Tensor,
        feas: FeasColumns,
    ) -> TableRow {
        let batch = ours.explain_batch(x);
        let cf = batch.cf_tensor();
        let counts = batch.provenance_counts();
        let mut row = self.evaluate(method, x, &cf, feas);
        row.recovery = Some(RecoveryCounts {
            resampled: counts.resampled,
            fallback: counts.fallback,
        });
        row
    }

    /// Runs the full Table IV(x) for this dataset: all seven baseline rows
    /// plus the paper's unary and binary models, in the paper's order.
    /// `progress` receives one line per row, in row order.
    ///
    /// Rows are independent experiments — every method trains from its own
    /// seeded RNG and reads the shared harness immutably — so they
    /// train/evaluate concurrently on worker threads. Each row pins its
    /// kernels to one thread ([`runtime::with_threads`]), trading
    /// fine-grained matmul parallelism for coarse row parallelism without
    /// oversubscribing, and row order plus per-row seeding make the table
    /// identical to a serial run.
    pub fn run_table4(&self, mut progress: impl FnMut(&str)) -> Vec<TableRow> {
        let x = self.test_x();
        let mut ctx = BaselineContext::new(
            &self.data,
            self.train_x(),
            &self.blackbox,
            self.config.seed,
        );
        ctx.checkpoint = self
            .config
            .checkpoint
            .clone()
            .with_prefix(format!("table4-{}", self.dataset.slug()));
        let rows = runtime::parallel_map(9, 1, |i| {
            runtime::with_threads(1, || self.table4_row_durable(i, &x, &ctx))
        });
        for row in &rows {
            progress(&row.to_string());
        }
        rows
    }

    /// The durable wrapper around [`table4_row`](Self::table4_row): with a
    /// checkpoint directory configured, a completed row is persisted as
    /// its own checkpoint file, and a `resume` run replays finished rows
    /// from disk instead of retraining their methods — stage-level restart
    /// on top of the epoch-level resume inside each training loop. A row
    /// file that fails verification is quarantined and the row recomputed.
    fn table4_row_durable(
        &self,
        i: usize,
        x: &Tensor,
        ctx: &BaselineContext<'_>,
    ) -> TableRow {
        let path = self.config.checkpoint.dir.as_ref().map(|dir| {
            dir.join(format!(
                "table4-{}-row{i}.{}",
                self.dataset.slug(),
                checkpoint::EXTENSION
            ))
        });
        if self.config.checkpoint.resume {
            if let Some(p) = path.as_deref().filter(|p| p.exists()) {
                match Checkpoint::read(p)
                    .and_then(|c| TableRow::from_checkpoint(&c))
                {
                    Ok(row) => return row,
                    Err(_) => checkpoint::quarantine(p),
                }
            }
        }
        let row = self.table4_row(i, x, ctx);
        if let Some(p) = &path {
            if let Some(dir) = p.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            row.to_checkpoint()
                .write_atomic(p)
                .expect("persist completed table row");
        }
        row
    }
}

/// Which feasibility columns a Table IV row reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasColumns {
    /// Both unary and binary (library baselines).
    Both,
    /// Unary only (single-constraint unary models).
    UnaryOnly,
    /// Binary only (single-constraint binary models).
    BinaryOnly,
}

/// Builds baseline row `i` (0-based, the paper's order). A plain function
/// rather than a table of boxed closures so rows can be constructed from
/// worker threads.
fn build_baseline(
    i: usize,
    ctx: &BaselineContext<'_>,
    ds: DatasetId,
) -> Box<dyn CfMethod> {
    use cfx_baselines::*;
    match i {
        0 => Box::new(Mahajan::fit(ctx, ds, ConstraintMode::Unary)),
        1 => Box::new(Mahajan::fit(ctx, ds, ConstraintMode::Binary)),
        2 => Box::new(Revise::fit(ctx, ReviseConfig::default())),
        3 => Box::new(Cchvae::fit(ctx, CchvaeConfig::default())),
        4 => Box::new(Cem::fit(ctx, CemConfig::default())),
        5 => Box::new(DiceRandom::fit(ctx, DiceConfig::default())),
        6 => Box::new(Face::fit(ctx, FaceConfig::default())),
        _ => unreachable!("seven baselines"),
    }
}

/// The shared bench-bin usage text (printed by `--help`).
pub const CLI_USAGE: &str = "\
usage: <bin> [dataset] [options]

  dataset                adult | kdd | law (default varies by bin)
  --size quick|half|paper   experiment scale
  --seed N               master RNG seed
  --eval N               cap on evaluated test instances
  --checkpoint-dir DIR   write durable training checkpoints + completed
                         table rows to DIR (crash-safe: temp + fsync +
                         atomic rename)
  --resume               with --checkpoint-dir: resume from the newest
                         intact checkpoint instead of starting over;
                         corrupt files are quarantined (*.corrupt) and
                         the run falls back to the last good state
  --trace-out PATH       append structured telemetry (spans, per-epoch
                         losses, recovery events) as JSONL to PATH and
                         arm the op-level tape profiler; an end-of-run
                         top-N op profile is printed to stderr.
                         CFX_TRACE=PATH is the env equivalent
  --prom-out PATH        write a Prometheus text-format metrics snapshot
                         (training gauges, explain tallies, pool + op
                         stats) to PATH at end of run, atomically
  --help                 print this message

Telemetry never perturbs results: outputs are bitwise identical with
and without --trace-out/CFX_TRACE.
";

/// Parses common CLI args: `[dataset] [--size quick|half|paper]
/// [--seed N] [--eval N] [--checkpoint-dir DIR] [--resume]
/// [--trace-out PATH] [--prom-out PATH]`. Returns `(dataset, config)`.
/// `--help` prints [`CLI_USAGE`] and exits.
pub fn parse_cli(
    args: &[String],
    default_dataset: DatasetId,
) -> (DatasetId, HarnessConfig) {
    let mut dataset = default_dataset;
    let mut config = HarnessConfig::default();
    let mut ckpt_dir: Option<String> = None;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                i += 1;
                config.size = RunSize::parse(&args[i])
                    .unwrap_or_else(|| panic!("bad --size {:?}", args[i]));
            }
            "--seed" => {
                i += 1;
                config.seed = args[i].parse().expect("bad --seed");
            }
            "--eval" => {
                i += 1;
                config.eval_cap = args[i].parse().expect("bad --eval");
            }
            "--checkpoint-dir" => {
                i += 1;
                ckpt_dir = Some(args[i].clone());
            }
            "--resume" => resume = true,
            "--trace-out" => {
                i += 1;
                config.trace_out = Some(std::path::PathBuf::from(&args[i]));
            }
            "--prom-out" => {
                i += 1;
                config.prom_out = Some(std::path::PathBuf::from(&args[i]));
            }
            "--help" | "-h" => {
                print!("{CLI_USAGE}");
                std::process::exit(0);
            }
            name => {
                dataset = DatasetId::parse(name)
                    .unwrap_or_else(|| panic!("unknown dataset {name:?}"));
            }
        }
        i += 1;
    }
    match ckpt_dir {
        Some(dir) => {
            config.checkpoint =
                CheckpointConfig::in_dir(dir).with_resume(resume);
        }
        None => assert!(!resume, "--resume requires --checkpoint-dir"),
    }
    (dataset, config)
}

/// Wires up telemetry for a bench-bin run: honors `CFX_TRACE` (env),
/// then `--trace-out` (opens the JSONL sink and arms the op-level tape
/// profiler). Call once after [`parse_cli`], before building harnesses.
pub fn init_telemetry(config: &HarnessConfig) {
    if let Err(e) = cfx_obs::init_from_env() {
        panic!("CFX_TRACE: cannot open trace sink: {e}");
    }
    if let Some(path) = &config.trace_out {
        cfx_obs::init_jsonl(path)
            .unwrap_or_else(|e| panic!("--trace-out {}: {e}", path.display()));
        cfx_tensor::profile::set_enabled(true);
    }
}

/// Finishes a bench-bin run: exports op/pool/thread stats as gauges,
/// writes the `--prom-out` snapshot (atomically), prints the
/// human-readable top-N op profile to stderr when the profiler was
/// armed, and flushes + closes the JSONL sink.
pub fn finish_telemetry(config: &HarnessConfig) {
    cfx_tensor::profile::export_metrics();
    if let Some(path) = &config.prom_out {
        cfx_obs::metrics::write_prometheus(path)
            .unwrap_or_else(|e| panic!("--prom-out {}: {e}", path.display()));
        cfx_obs::info!("prometheus_written", path = path.display().to_string());
    }
    if cfx_tensor::profile::enabled() {
        let report = cfx_tensor::profile::report(10);
        if !report.is_empty() {
            cfx_obs::stderr_block(&report);
        }
    }
    cfx_obs::close_jsonl();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds_and_classifier_beats_majority() {
        let cfg = HarnessConfig {
            size: RunSize::Quick,
            eval_cap: 50,
            ..Default::default()
        };
        let h = Harness::build(DatasetId::Adult, cfg);
        assert_eq!(
            h.split.len(),
            h.data.len(),
            "split must cover the cleaned data"
        );
        assert!(h.val_accuracy() > 0.6);
        assert_eq!(h.test_x().rows(), 50);
    }

    #[test]
    fn evaluate_row_on_identity_cf_is_all_zero_changes() {
        let cfg = HarnessConfig {
            size: RunSize::Quick,
            eval_cap: 30,
            ..Default::default()
        };
        let h = Harness::build(DatasetId::LawSchool, cfg);
        let x = h.test_x();
        let row = h.evaluate("identity", &x, &x, FeasColumns::Both);
        // cf == x: nothing changed, never valid, always feasible.
        assert_eq!(row.validity, 0.0);
        assert_eq!(row.feasibility_unary, Some(100.0));
        assert_eq!(row.feasibility_binary, Some(100.0));
        assert_eq!(row.sparsity, 0.0);
        assert_eq!(row.continuous_proximity, 0.0);
        assert_eq!(row.categorical_proximity, 0.0);
    }

    #[test]
    fn cli_parser_handles_flags() {
        let args: Vec<String> = ["kdd", "--size", "half", "--seed", "7", "--eval", "99"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (ds, cfg) = parse_cli(&args, DatasetId::Adult);
        assert_eq!(ds, DatasetId::KddCensus);
        assert_eq!(cfg.size, RunSize::Half);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.eval_cap, 99);
        assert!(!cfg.checkpoint.enabled());
    }

    #[test]
    fn cli_parser_handles_checkpoint_flags() {
        // --resume before --checkpoint-dir must still take effect.
        let args: Vec<String> =
            ["--resume", "--checkpoint-dir", "/tmp/ck", "adult"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let (_, cfg) = parse_cli(&args, DatasetId::Adult);
        assert!(cfg.checkpoint.enabled());
        assert!(cfg.checkpoint.resume);
        assert_eq!(
            cfg.checkpoint.dir.as_deref(),
            Some(std::path::Path::new("/tmp/ck"))
        );
    }

    #[test]
    #[should_panic(expected = "--resume requires --checkpoint-dir")]
    fn cli_parser_rejects_resume_without_dir() {
        let args = vec!["--resume".to_string()];
        parse_cli(&args, DatasetId::Adult);
    }

    #[test]
    fn run_sizes_scale() {
        assert_eq!(RunSize::Paper.raw_count(DatasetId::Adult), 48_842);
        assert_eq!(RunSize::Half.raw_count(DatasetId::Adult), 12_210);
        assert_eq!(RunSize::Quick.raw_count(DatasetId::Adult), 6_000);
    }
}
