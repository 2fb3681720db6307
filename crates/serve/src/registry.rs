//! Hot-loading model registry.
//!
//! The daemon serves from an [`Servable`] snapshot behind an `Arc`:
//! request batches grab the current snapshot, so a reload never stalls
//! or torments in-flight work. [`ModelRegistry::poll`] watches a
//! directory for `*.cfxckpt` files written by
//! [`FeasibleCfModel::export_servable`]; the newest file (by mtime,
//! then name) is imported into a clone of the scaffold and swapped in
//! atomically. A file that fails verification — bad CRC, wrong width,
//! truncation — is quarantined (`*.corrupt`, the `cfx_tensor::checkpoint`
//! convention) and the registry keeps serving the last good model:
//! corrupt state is never loaded and never crashes the daemon.

use crate::cache::ResponseCache;
use crate::shard::fnv1a64;
use cfx_core::{
    ExplainConfig, FeasibleCfModel, GenRecoveryConfig, ReferenceStats,
};
use cfx_data::EncodedDataset;
use cfx_tensor::checkpoint::{self, Checkpoint};
use cfx_tensor::CfxError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Everything a batch needs to answer `/explain`: the trained model
/// plus the generation-side knobs, versioned for observability.
pub struct Servable {
    /// The trained model (generator + classifier + constraints + mask).
    pub model: FeasibleCfModel,
    /// Dataset the scaffold was built from (pool rebuilds on import).
    pub data: EncodedDataset,
    /// Generation-side knobs (fallback-pool cap).
    pub explain: ExplainConfig,
    /// Degradation-ladder budgets used per request.
    pub recovery: GenRecoveryConfig,
    /// Monotone version: 0 for the boot model, +1 per hot reload.
    pub version: u64,
    /// Where the weights came from (`"boot"` or a checkpoint file name).
    pub source: String,
}

impl Servable {
    /// Stable fingerprint of every explain-side knob that shapes
    /// response bytes *besides* the weights: the training seed (which
    /// keys the recovery RNG), the resampling budget and noise scale,
    /// and the fallback-pool cap. One ingredient of the response-cache
    /// key ([`crate::cache`]): two servables with the same version but
    /// different knobs must never share cached bodies.
    pub fn explain_fingerprint(&self) -> u64 {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&self.model.config().seed.to_le_bytes());
        bytes[8..16].copy_from_slice(
            &(self.explain.fallback_pool_cap as u64).to_le_bytes(),
        );
        bytes[16..24].copy_from_slice(
            &(self.recovery.resample_attempts as u64).to_le_bytes(),
        );
        bytes[24..28]
            .copy_from_slice(&self.recovery.noise_scale.to_bits().to_le_bytes());
        fnv1a64(&bytes)
    }
}

/// Registry state: the current snapshot plus reload bookkeeping.
pub struct ModelRegistry {
    current: Mutex<Arc<Servable>>,
    /// Reference traffic moments for the drift monitor, refreshed with
    /// every hot swap: preferred source is the checkpoint's
    /// `serve.refstats` table (written by `export_servable`, i.e. the
    /// *new* model's training distribution); a checkpoint without a
    /// readable one falls back to recomputing from the boot dataset.
    ref_stats: Mutex<Arc<ReferenceStats>>,
    dir: Option<PathBuf>,
    loaded: Mutex<Option<(SystemTime, PathBuf)>>,
    /// Response cache purged atomically with every swap (the version
    /// key already makes stale hits impossible; the purge reclaims the
    /// memory immediately instead of waiting for LRU churn).
    cache: Mutex<Option<Arc<ResponseCache>>>,
    /// Serializes scan→load→record so concurrent callers of the public
    /// [`poll`](Self::poll) cannot double-import one checkpoint and
    /// bump the version twice.
    polling: Mutex<()>,
}

impl ModelRegistry {
    /// Creates a registry serving `boot`, optionally hot-loading from
    /// `dir`.
    pub fn new(boot: Servable, dir: Option<PathBuf>) -> Self {
        let ref_stats = Arc::new(ReferenceStats::from_dataset(&boot.data));
        ModelRegistry {
            current: Mutex::new(Arc::new(boot)),
            ref_stats: Mutex::new(ref_stats),
            dir,
            loaded: Mutex::new(None),
            cache: Mutex::new(None),
            polling: Mutex::new(()),
        }
    }

    /// Registers the response cache to invalidate on every hot swap.
    pub fn attach_cache(&self, cache: Arc<ResponseCache>) {
        *self.cache.lock().expect("cache lock poisoned") = Some(cache);
    }

    /// The snapshot to serve the next batch from.
    pub fn current(&self) -> Arc<Servable> {
        Arc::clone(&self.current.lock().expect("current lock poisoned"))
    }

    /// The reference traffic moments the drift monitor scores against
    /// (training-set stats of the currently served model).
    pub fn ref_stats(&self) -> Arc<ReferenceStats> {
        Arc::clone(&self.ref_stats.lock().expect("ref_stats lock poisoned"))
    }

    /// Scans the watch directory and hot-loads the newest checkpoint if
    /// it differs from the last one loaded. The daemon's accept loop
    /// calls it whenever no connection is waiting (an idle tick, about
    /// every 2 ms), so a new checkpoint serves within one idle tick.
    ///
    /// Returns `Ok(true)` when a new model was swapped in. Corrupt
    /// candidates are quarantined and reported via the
    /// `cfx_serve_model_quarantined_total` counter; the last good model
    /// keeps serving either way.
    pub fn poll(&self) -> Result<bool, CfxError> {
        let Some(dir) = &self.dir else { return Ok(false) };
        // Another poller mid-scan covers this tick; skip, don't queue.
        let Ok(_polling) = self.polling.try_lock() else {
            return Ok(false);
        };
        let Some((mtime, path)) = newest_checkpoint(dir) else {
            return Ok(false);
        };
        {
            let loaded = self.loaded.lock().expect("loaded lock poisoned");
            if loaded.as_ref() == Some(&(mtime, path.clone())) {
                return Ok(false);
            }
        }
        match self.try_load(&path) {
            Ok(()) => {
                *self.loaded.lock().expect("loaded lock poisoned") =
                    Some((mtime, path.clone()));
                cfx_obs::metrics::counter("cfx_serve_model_reloads_total").inc(1);
                cfx_obs::info!(
                    "serve_model_reloaded",
                    path = path.display().to_string(),
                );
                Ok(true)
            }
            Err(CfxError::Io(e)) => {
                // Transient I/O (e.g. the file vanished between scan and
                // read): not corrupt, retry on the next poll.
                cfx_obs::warn!("serve_model_read_failed", error = e.clone());
                Ok(false)
            }
            Err(e) => {
                // Verification failure: quarantine so the next scan does
                // not retry the same bad file, keep serving the old model.
                checkpoint::quarantine(&path);
                cfx_obs::metrics::counter("cfx_serve_model_quarantined_total")
                    .inc(1);
                cfx_obs::warn!(
                    "serve_model_quarantined",
                    path = path.display().to_string(),
                    error = e.to_string(),
                );
                Ok(false)
            }
        }
    }

    fn try_load(&self, path: &Path) -> Result<(), CfxError> {
        let ckpt = Checkpoint::read(path)?;
        let cur = self.current();
        // Import into a clone: the served snapshot is immutable, and a
        // failed import leaves nothing half-loaded.
        let mut model = cur.model.clone();
        model.import_servable(&cur.data, &cur.explain, &ckpt)?;
        let next = Servable {
            model,
            data: cur.data.clone(),
            explain: cur.explain,
            recovery: cur.recovery,
            version: cur.version + 1,
            source: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
        };
        // Refresh the drift reference alongside the model: the new
        // checkpoint's own training moments when it shipped them, else
        // the boot dataset's (better than scoring against a model that
        // is no longer serving).
        let fresh_ref = ReferenceStats::read_from(&ckpt)
            .unwrap_or_else(|| ReferenceStats::from_dataset(&cur.data));
        *self.current.lock().expect("current lock poisoned") = Arc::new(next);
        *self.ref_stats.lock().expect("ref_stats lock poisoned") =
            Arc::new(fresh_ref);
        if let Some(cache) =
            self.cache.lock().expect("cache lock poisoned").as_ref()
        {
            cache.invalidate_all();
        }
        Ok(())
    }
}

/// Newest `*.cfxckpt` in `dir` by (mtime, name); `None` when the
/// directory is missing or holds no candidates.
fn newest_checkpoint(dir: &Path) -> Option<(SystemTime, PathBuf)> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(checkpoint::EXTENSION)
        {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        let candidate = (mtime, path);
        if best.as_ref().is_none_or(|b| candidate > *b) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_core::{ConstraintMode, FeasibleCfConfig, SERVABLE_REFSTATS};
    use cfx_data::DatasetId;
    use cfx_models::{BlackBox, BlackBoxConfig};
    use cfx_obs::sketch::BINS;

    fn boot() -> Servable {
        let data =
            EncodedDataset::from_raw(&DatasetId::Adult.generate_clean(300, 5));
        let bb = BlackBox::new(data.width(), &BlackBoxConfig::default());
        let cfg =
            FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary);
        Servable {
            model: FeasibleCfModel::new(&data, bb, vec![], cfg),
            data,
            explain: ExplainConfig::default(),
            recovery: GenRecoveryConfig::default(),
            version: 0,
            source: "boot".into(),
        }
    }

    /// A servable checkpoint as files written before the reference
    /// table existed hold it: format, width and weights, no
    /// `serve.refstats`.
    fn legacy_checkpoint(model: &FeasibleCfModel) -> Checkpoint {
        let mut ckpt = Checkpoint::new();
        ckpt.put_str("serve.format", cfx_core::SERVABLE_FORMAT);
        ckpt.put_u64s("serve.width", &[model.blackbox().input_dim() as u64]);
        model.vae().export_to(&mut ckpt, "serve.vae");
        model.blackbox().export_to(&mut ckpt, "serve.bb");
        ckpt
    }

    #[test]
    fn reload_without_a_readable_table_falls_back_to_boot_stats() {
        let dir = std::env::temp_dir()
            .join(format!("cfx-registry-refstats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let registry = ModelRegistry::new(boot(), Some(dir.clone()));
        let model = registry.current().model.clone();
        let boot_stats = ReferenceStats::from_dataset(&registry.current().data);
        let width = boot_stats.width();
        let shipped = ReferenceStats {
            means: vec![0.5; width],
            vars: vec![0.25; width],
            bins: vec![[1.0 / BINS as f64; BINS]; width],
        };
        assert_ne!(shipped, boot_stats);

        let with_table = |stats: &ReferenceStats| {
            let mut ckpt = legacy_checkpoint(&model);
            stats.write_to(&mut ckpt);
            ckpt
        };
        let mut malformed = legacy_checkpoint(&model);
        let short_rows = vec![0.5; width * 3];
        malformed.put_f32_table(SERVABLE_REFSTATS, width, 3, &short_rows);
        // Names sort in load order; each file is newer than the last.
        let steps = [
            (with_table(&shipped), &shipped),
            (malformed, &boot_stats),
            (with_table(&shipped), &shipped),
            (legacy_checkpoint(&model), &boot_stats),
        ];
        for (i, (ckpt, expect)) in steps.iter().enumerate() {
            let path = dir.join(format!("m{i}.{}", checkpoint::EXTENSION));
            ckpt.write_atomic(&path).expect("write checkpoint");
            assert!(registry.poll().expect("poll"), "m{i} did not load");
            assert_eq!(registry.current().version, i as u64 + 1);
            assert_eq!(*registry.ref_stats(), **expect, "after m{i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
