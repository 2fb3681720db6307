//! `cfx` — command-line interface to the feasible-counterfactual toolkit.
//!
//! ```text
//! cfx run <adult|kdd|law> [--mode unary|binary] [--n N] [--seed S] [--explain K]
//!     end-to-end: generate data, train black box + CF model, print
//!     metrics and a Table-V style example
//! cfx discover <adult|kdd|law> [--n N] [--seed S]
//!     scan the dataset for causal-constraint candidates (§V future work)
//! cfx diverse <adult|kdd|law> [--k K] [--n N] [--seed S]
//!     print a diverse counterfactual set for one denied instance
//! cfx data <adult|kdd|law> [--n N] [--seed S]
//!     dump the generated benchmark as CSV to stdout
//! cfx serve <adult|kdd|law> [--addr A] [--workers W] [--cache-cap C]
//!           [--queue-cap Q] [--deadline-ms D] [--model-dir DIR]
//!           [--prom-out FILE] [--drift-warn PSI] [--n N] [--seed S]
//!     train a boot model and serve POST /explain, GET /healthz and
//!     GET /metrics until SIGTERM/SIGINT triggers a graceful drain.
//!     --workers (or CFX_SERVE_WORKERS) sizes the explain pool — a
//!     job's resampling stream comes from its row content, so responses
//!     are byte-identical at any worker count; --cache-cap (or CFX_SERVE_CACHE_CAP, 0 = off)
//!     bounds the response cache; --drift-warn sets the PSI threshold
//!     the live traffic drift monitor warns at (default 0.25).
//!     CFX_SERVE_FAULT=slow-client|malformed|kill@<n> arms deterministic
//!     chaos for drills.
//! ```

use cfx::core::{
    discover_binary_constraints, format_comparison, ConstraintMode,
    DiscoveryConfig, DiverseConfig, FeasibleCfConfig, FeasibleCfModel,
};
use cfx::data::{csv::raw_to_csv, DatasetId, EncodedDataset, Split};
use cfx::models::{BlackBox, BlackBoxConfig};
use std::process::ExitCode;

struct Args {
    dataset: DatasetId,
    mode: ConstraintMode,
    n: usize,
    seed: u64,
    explain: usize,
    k: usize,
    addr: String,
    workers: Option<usize>,
    cache_cap: Option<usize>,
    queue_cap: usize,
    deadline_ms: u64,
    model_dir: Option<String>,
    prom_out: Option<String>,
    drift_warn: Option<f64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        dataset: DatasetId::Adult,
        mode: ConstraintMode::Unary,
        n: 8_000,
        seed: 42,
        explain: 100,
        k: 4,
        addr: "127.0.0.1:7878".into(),
        workers: None,
        cache_cap: None,
        queue_cap: 64,
        deadline_ms: 2_000,
        model_dir: None,
        prom_out: None,
        drift_warn: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                i += 1;
                out.mode = match args.get(i).map(String::as_str) {
                    Some("unary") => ConstraintMode::Unary,
                    Some("binary") => ConstraintMode::Binary,
                    other => return Err(format!("bad --mode {other:?}")),
                };
            }
            "--n" => {
                i += 1;
                out.n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --n")?;
            }
            "--seed" => {
                i += 1;
                out.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --seed")?;
            }
            "--explain" => {
                i += 1;
                out.explain = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --explain")?;
            }
            "--k" => {
                i += 1;
                out.k =
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --k")?;
            }
            "--addr" => {
                i += 1;
                out.addr =
                    args.get(i).cloned().ok_or("bad --addr")?;
            }
            "--workers" => {
                i += 1;
                let w: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&w| w >= 1)
                    .ok_or("bad --workers (want an integer >= 1)")?;
                out.workers = Some(w);
            }
            "--cache-cap" => {
                i += 1;
                out.cache_cap = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --cache-cap")?,
                );
            }
            "--queue-cap" => {
                i += 1;
                out.queue_cap = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --queue-cap")?;
            }
            "--deadline-ms" => {
                i += 1;
                out.deadline_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --deadline-ms")?;
            }
            "--model-dir" => {
                i += 1;
                out.model_dir =
                    Some(args.get(i).cloned().ok_or("bad --model-dir")?);
            }
            "--prom-out" => {
                i += 1;
                out.prom_out =
                    Some(args.get(i).cloned().ok_or("bad --prom-out")?);
            }
            "--drift-warn" => {
                i += 1;
                out.drift_warn = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|w: &f64| w.is_finite() && *w > 0.0)
                        .ok_or("bad --drift-warn (want a PSI > 0)")?,
                );
            }
            name => {
                out.dataset = DatasetId::parse(name)
                    .ok_or_else(|| format!("unknown dataset {name:?}"))?;
            }
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!("usage: cfx <run|discover|diverse|data|serve> <dataset> [flags]");
        return ExitCode::from(2);
    };
    let args = match parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // CFX_TRACE=<path> makes any cfx invocation emit a JSONL trace.
    if let Err(e) = cfx_obs::init_from_env() {
        eprintln!("error: CFX_TRACE: {e}");
        return ExitCode::from(2);
    }
    match command {
        "run" => cmd_run(&args),
        "discover" => cmd_discover(&args),
        "diverse" => cmd_diverse(&args),
        "data" => cmd_data(&args),
        "serve" => {
            if let Err(e) = cmd_serve(&args) {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
        other => {
            eprintln!("unknown command {other:?}");
            return ExitCode::from(2);
        }
    }
    cfx_obs::close_jsonl();
    ExitCode::SUCCESS
}

/// Shared setup: generate, encode, split, train black box + CF model.
fn setup(args: &Args) -> (EncodedDataset, Split, FeasibleCfModel) {
    cfx_obs::info!(
        "generating_dataset",
        dataset = args.dataset.name(),
        raw_rows = args.n,
        seed = args.seed,
    );
    let raw = args.dataset.generate(args.n, args.seed);
    let data = EncodedDataset::from_raw(&raw);
    let split = Split::paper(data.len(), args.seed);
    let (x_train, y_train) = data.subset(&split.train);

    cfx_obs::info!("training_black_box");
    let bb_cfg = BlackBoxConfig { seed: args.seed, ..Default::default() };
    let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
    blackbox.train(&x_train, &y_train, &bb_cfg);

    cfx_obs::info!("training_cf_model", mode = args.mode.label());
    let config = FeasibleCfConfig::paper(args.dataset, args.mode)
        .with_seed(args.seed)
        .with_step_budget_of(args.dataset, x_train.rows());
    let constraints = FeasibleCfModel::paper_constraints(
        args.dataset,
        &data,
        args.mode,
        config.c1,
        config.c2,
    ).unwrap();
    let mut model = FeasibleCfModel::new(&data, blackbox, constraints, config);
    model.fit(&x_train);
    (data, split, model)
}

fn denied(data: &EncodedDataset, split: &Split, model: &FeasibleCfModel, cap: usize) -> cfx::tensor::Tensor {
    let x = data.x.gather_rows(&split.test);
    let preds = model.blackbox().predict(&x);
    let idx: Vec<usize> =
        (0..x.rows()).filter(|&r| preds[r] == 0).take(cap).collect();
    x.gather_rows(&idx)
}

fn cmd_run(args: &Args) {
    let (data, split, model) = setup(args);
    let x = denied(&data, &split, &model, args.explain);
    let batch = model.explain_batch(&x);
    println!(
        "explained {} denied instances: validity {:.1}%, feasibility {:.1}%",
        batch.examples.len(),
        100.0 * batch.validity_rate(),
        100.0 * batch.feasibility_rate()
    );
    if let Some(e) = batch.examples.iter().find(|e| e.valid && e.feasible) {
        println!("\nexample (changes marked *):");
        print!("{}", format_comparison(&data.schema, &data.encoding, e));
    }
}

fn cmd_discover(args: &Args) {
    let raw = args.dataset.generate(args.n, args.seed);
    let data = EncodedDataset::from_raw(&raw);
    let found = discover_binary_constraints(&data, &DiscoveryConfig::default());
    println!(
        "{:<18} {:<18} {:>7} {:>10} {:>9}",
        "cause", "effect", "score", "floor-mono", "dominance"
    );
    for c in found.iter().take(10) {
        println!(
            "{:<18} {:<18} {:>7.3} {:>10.2} {:>9.3}",
            c.cause, c.effect, c.score, c.floor_monotonicity, c.dominance
        );
    }
    if found.is_empty() {
        println!("(no candidates — dataset too small?)");
    }
}

fn cmd_diverse(args: &Args) {
    let (data, split, model) = setup(args);
    let x = denied(&data, &split, &model, 1);
    if x.rows() == 0 {
        println!("no denied instance found");
        return;
    }
    let set = model.explain_diverse(
        &x,
        &DiverseConfig { k: args.k, seed: args.seed, ..Default::default() },
    );
    println!(
        "{} diverse counterfactuals (pool kept {}, diversity {:.3}):\n",
        set.selected.len(),
        set.pool_after_filter,
        set.diversity
    );
    for (i, e) in set.selected.iter().enumerate() {
        println!(
            "--- counterfactual {} (valid {}, feasible {}) ---",
            i + 1,
            e.valid,
            e.feasible
        );
        print!("{}", format_comparison(&data.schema, &data.encoding, e));
        println!();
    }
}

fn cmd_data(args: &Args) {
    let raw = args.dataset.generate(args.n, args.seed);
    print!("{}", raw_to_csv(&raw));
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use cfx::core::{ExplainConfig, GenRecoveryConfig};
    use cfx::serve::{self, Servable, ServeConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let (data, _split, model) = setup(args);
    let boot = Servable {
        model,
        data,
        explain: ExplainConfig::default(),
        recovery: GenRecoveryConfig::default(),
        version: 0,
        source: "boot".into(),
    };
    // Default::default() reads CFX_SERVE_WORKERS / CFX_SERVE_CACHE_CAP;
    // explicit flags win over the environment.
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers.unwrap_or(defaults.workers),
        cache_cap: args.cache_cap.unwrap_or(defaults.cache_cap),
        queue_cap: args.queue_cap,
        default_deadline_ms: args.deadline_ms,
        model_dir: args.model_dir.clone().map(Into::into),
        prom_out: args.prom_out.clone().map(Into::into),
        drift_warn: args.drift_warn.unwrap_or(defaults.drift_warn),
        ..defaults
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    serve::install_signal_handlers(&shutdown);
    let handle =
        serve::spawn(cfg, boot, shutdown).map_err(|e| e.to_string())?;
    // Load scripts parse this line to learn the bound port (port 0
    // resolves to a free one), so print and flush it before blocking.
    println!("cfx-serve listening on http://{}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = handle.join();
    println!(
        "cfx-serve drained: accepted={} served={} shed={} timeouts={} malformed={}",
        report.accepted,
        report.served,
        report.shed,
        report.timeouts,
        report.malformed
    );
    print!("{}", serve::report_serve(&report));
    Ok(())
}
