//! Durable, versioned binary checkpoints with crash-safe writes.
//!
//! The watchdog of `cfx-core` keeps its best snapshot in memory, which
//! dies with the process. This module is the on-disk half of the
//! durability story: a training loop periodically serializes its *full*
//! state — parameters, Adam moments + step count, RNG stream state, and
//! epoch/watchdog metadata — into a [`Checkpoint`], and a
//! [`CheckpointManager`] persists it so a killed run resumes
//! bit-for-bit where it left off.
//!
//! # File format (version 1)
//!
//! ```text
//! magic      8  bytes  "CFXCKPT\x01"
//! version    u32 LE
//! nsections  u32 LE
//! crc32      u32 LE    over magic..nsections
//! section ×nsections:
//!   name_len   u32 LE
//!   name       name_len bytes (UTF-8)
//!   payload_len u64 LE
//!   payload    payload_len bytes
//!   crc32      u32 LE   over (name_len, name, payload_len, payload)
//! ```
//!
//! Every byte of the file is covered by exactly one CRC32 (the header
//! CRC or a section CRC), so any single corrupted byte — torn write,
//! bit rot, truncation — is detected at load time as
//! [`CfxError::Corrupt`], never silently loaded. Multi-byte scalars are
//! little-endian; `f32` values are stored as raw bit patterns, so a
//! decode is bitwise identical to what was encoded (NaN payloads
//! included).
//!
//! # Crash consistency
//!
//! [`Checkpoint::write_atomic`] writes to a sibling temp file, `fsync`s
//! it, atomically renames it over the destination, and `fsync`s the
//! parent directory. At every instant the destination path holds either
//! the complete old checkpoint or the complete new one; a crash can
//! only lose the in-flight write, and a torn temp file is never visible
//! under the checkpoint name.

use crate::error::CfxError;
use crate::optim::AdamState;
use crate::tensor::Tensor;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// File magic: "CFXCKPT" + format generation byte.
pub const MAGIC: [u8; 8] = *b"CFXCKPT\x01";
/// Current format version.
pub const VERSION: u32 = 1;
/// Extension used for checkpoint files.
pub const EXTENSION: &str = "cfxckpt";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven.
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Checkpoint: named, CRC-protected binary sections.
// ---------------------------------------------------------------------------

/// An in-memory checkpoint: an ordered list of named binary sections.
///
/// Sections hold raw little-endian payloads; the typed helpers
/// ([`put_tensors`](Checkpoint::put_tensors),
/// [`put_adam`](Checkpoint::put_adam), …) define the payload layouts the
/// workspace's training loops use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    sections: Vec<(String, Vec<u8>)>,
}

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'a str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CfxError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CfxError::corrupt(format!(
                "{}: truncated (wanted {} bytes at offset {}, have {})",
                self.what,
                n,
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u32(&mut self) -> Result<u32, CfxError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CfxError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CfxError> {
        Ok(f32::from_bits(u32::from_le_bytes(
            self.take(4)?.try_into().unwrap(),
        )))
    }

    fn usize(&mut self) -> Result<usize, CfxError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            CfxError::corrupt(format!("{}: length {v} overflows usize", self.what))
        })
    }

    fn done(&self) -> Result<(), CfxError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CfxError::corrupt(format!(
                "{}: {} trailing bytes",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }
}

fn encode_tensors_into(buf: &mut Vec<u8>, tensors: &[Tensor]) {
    buf.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        buf.extend_from_slice(&(t.rows() as u64).to_le_bytes());
        buf.extend_from_slice(&(t.cols() as u64).to_le_bytes());
        for &v in t.as_slice() {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

fn decode_tensors_from(r: &mut Reader<'_>) -> Result<Vec<Tensor>, CfxError> {
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            CfxError::corrupt(format!("{}: tensor shape overflow", r.what))
        })?;
        // Bounds are enforced by take(), so a corrupted shape can never
        // trigger a huge allocation: the payload must actually hold n
        // f32s.
        let bytes = r.take(n.checked_mul(4).ok_or_else(|| {
            CfxError::corrupt(format!("{}: tensor byte count overflow", r.what))
        })?)?;
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect();
        out.push(Tensor::from_vec(rows, cols, data));
    }
    Ok(out)
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Names of all sections, in insertion order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Inserts (or replaces) a raw section.
    pub fn put_bytes(&mut self, name: &str, bytes: Vec<u8>) {
        if let Some(slot) =
            self.sections.iter_mut().find(|(n, _)| n == name)
        {
            slot.1 = bytes;
        } else {
            self.sections.push((name.to_string(), bytes));
        }
    }

    /// Raw payload of a section; a missing section is a format error.
    pub fn bytes(&self, name: &str) -> Result<&[u8], CfxError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| {
                CfxError::corrupt(format!("missing section {name:?}"))
            })
    }

    /// Whether a section exists.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }

    /// Stores a list of tensors (shapes + raw f32 bits).
    pub fn put_tensors(&mut self, name: &str, tensors: &[Tensor]) {
        let mut buf = Vec::new();
        encode_tensors_into(&mut buf, tensors);
        self.put_bytes(name, buf);
    }

    /// Reads back a tensor list, bitwise identical to what was stored.
    pub fn tensors(&self, name: &str) -> Result<Vec<Tensor>, CfxError> {
        let mut r = Reader::new(self.bytes(name)?, name);
        let out = decode_tensors_from(&mut r)?;
        r.done()?;
        Ok(out)
    }

    /// Stores a `u64` array.
    pub fn put_u64s(&mut self, name: &str, values: &[u64]) {
        let mut buf = Vec::with_capacity(values.len() * 8);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.put_bytes(name, buf);
    }

    /// Reads back a `u64` array.
    pub fn u64s(&self, name: &str) -> Result<Vec<u64>, CfxError> {
        let bytes = self.bytes(name)?;
        if bytes.len() % 8 != 0 {
            return Err(CfxError::corrupt(format!(
                "section {name:?}: length {} not a multiple of 8",
                bytes.len()
            )));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Stores an `f32` array as raw bit patterns.
    pub fn put_f32s(&mut self, name: &str, values: &[f32]) {
        let mut buf = Vec::with_capacity(values.len() * 4);
        for v in values {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.put_bytes(name, buf);
    }

    /// Reads back an `f32` array, bitwise.
    pub fn f32s(&self, name: &str) -> Result<Vec<f32>, CfxError> {
        let bytes = self.bytes(name)?;
        if bytes.len() % 4 != 0 {
            return Err(CfxError::corrupt(format!(
                "section {name:?}: length {} not a multiple of 4",
                bytes.len()
            )));
        }
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    /// Stores a dense `rows × cols` `f32` matrix as a pair of sections:
    /// `name.shape` (the two dimensions) and `name.data` (row-major bit
    /// patterns). Used for non-tensor tabular payloads that still need
    /// shape validation on read — e.g. the servable reference-moments
    /// table the serving daemon's drift monitor compares live traffic
    /// against.
    pub fn put_f32_table(&mut self, name: &str, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(
            data.len(),
            rows * cols,
            "table {name:?}: {} values for {rows}x{cols}",
            data.len()
        );
        self.put_u64s(&format!("{name}.shape"), &[rows as u64, cols as u64]);
        self.put_f32s(&format!("{name}.data"), data);
    }

    /// Reads back a matrix written by [`put_f32_table`](Self::put_f32_table)
    /// as `(rows, cols, row-major data)`, validating that the payload
    /// length matches the declared shape.
    pub fn f32_table(&self, name: &str) -> Result<(usize, usize, Vec<f32>), CfxError> {
        let shape = self.u64s(&format!("{name}.shape"))?;
        let [rows, cols] = shape[..] else {
            return Err(CfxError::corrupt(format!(
                "table {name:?}: shape section holds {} values, expected 2",
                shape.len()
            )));
        };
        let data = self.f32s(&format!("{name}.data"))?;
        if data.len() as u64 != rows.saturating_mul(cols) {
            return Err(CfxError::corrupt(format!(
                "table {name:?}: {} values for declared {rows}x{cols}",
                data.len()
            )));
        }
        Ok((rows as usize, cols as usize, data))
    }

    /// Stores a UTF-8 string.
    pub fn put_str(&mut self, name: &str, value: &str) {
        self.put_bytes(name, value.as_bytes().to_vec());
    }

    /// Reads back a string section.
    pub fn str_section(&self, name: &str) -> Result<String, CfxError> {
        String::from_utf8(self.bytes(name)?.to_vec()).map_err(|_| {
            CfxError::corrupt(format!("section {name:?}: invalid UTF-8"))
        })
    }

    /// Stores a full Adam optimizer state (hyper-parameters, step count,
    /// first/second moments) under `name`.
    pub fn put_adam(&mut self, name: &str, state: &AdamState) {
        let mut buf = Vec::new();
        for v in [state.lr, state.beta1, state.beta2, state.eps] {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&state.t.to_le_bytes());
        encode_tensors_into(&mut buf, &state.m);
        encode_tensors_into(&mut buf, &state.v);
        self.put_bytes(name, buf);
    }

    /// Reads back an Adam state, bitwise.
    pub fn adam(&self, name: &str) -> Result<AdamState, CfxError> {
        let mut r = Reader::new(self.bytes(name)?, name);
        let lr = r.f32()?;
        let beta1 = r.f32()?;
        let beta2 = r.f32()?;
        let eps = r.f32()?;
        let t = r.u32()?;
        let m = decode_tensors_from(&mut r)?;
        let v = decode_tensors_from(&mut r)?;
        r.done()?;
        Ok(AdamState { lr, beta1, beta2, eps, t, m, v })
    }

    /// Serializes to the version-1 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (name, payload) in &self.sections {
            let start = out.len();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Parses the binary format, verifying the magic, version, and every
    /// CRC. Any single corrupted byte yields [`CfxError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CfxError> {
        let mut r = Reader::new(bytes, "checkpoint");
        let magic = r.take(8)?;
        let version_bytes = r.take(4)?;
        let nsect_bytes = r.take(4)?;
        let header_crc = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
        if crc32(&bytes[..16]) != header_crc {
            return Err(CfxError::corrupt("header CRC mismatch"));
        }
        // CRC verified first: a bad magic/version behind a *valid* CRC is
        // a genuinely foreign or future file, still reported as Corrupt.
        if magic != MAGIC {
            return Err(CfxError::corrupt(format!("bad magic {magic:02x?}")));
        }
        let version = u32::from_le_bytes(version_bytes.try_into().unwrap());
        if version != VERSION {
            return Err(CfxError::corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let nsections =
            u32::from_le_bytes(nsect_bytes.try_into().unwrap()) as usize;
        let mut sections = Vec::with_capacity(nsections.min(64));
        for i in 0..nsections {
            let start = r.pos;
            let name_len = r.u32()? as usize;
            let name_bytes = r.take(name_len)?;
            let payload_len = r.usize()?;
            let payload = r.take(payload_len)?;
            let body_end = r.pos;
            let crc = r.u32()?;
            if crc32(&bytes[start..body_end]) != crc {
                return Err(CfxError::corrupt(format!(
                    "section {i} CRC mismatch"
                )));
            }
            let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| {
                CfxError::corrupt(format!("section {i}: non-UTF-8 name"))
            })?;
            sections.push((name, payload.to_vec()));
        }
        r.done()?;
        Ok(Checkpoint { sections })
    }

    /// Writes the checkpoint to `path` crash-safely: temp file → fsync →
    /// atomic rename → fsync of the parent directory. A crash at any
    /// point leaves either the previous file or the new one, never a
    /// torn mix.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CfxError> {
        write_bytes_atomic(path, &self.encode())
    }

    /// Reads and verifies a checkpoint file. I/O failures map to
    /// [`CfxError::Io`]; any format/CRC violation to [`CfxError::Corrupt`].
    pub fn read(path: &Path) -> Result<Checkpoint, CfxError> {
        let bytes = fs::read(path).map_err(|e| {
            CfxError::io(format!("read {}: {e}", path.display()))
        })?;
        Checkpoint::decode(&bytes).map_err(|e| match e {
            CfxError::Corrupt(detail) => CfxError::corrupt(format!(
                "{}: {detail}",
                path.display()
            )),
            other => other,
        })
    }
}

/// Crash-safe byte write: temp sibling + fsync + rename + dir fsync.
pub(crate) fn write_bytes_atomic(
    path: &Path,
    bytes: &[u8],
) -> Result<(), CfxError> {
    let io = |what: &str, e: std::io::Error| {
        CfxError::io(format!("{what} {}: {e}", path.display()))
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp).map_err(|e| io("create temp for", e))?;
    file.write_all(bytes).map_err(|e| io("write temp for", e))?;
    file.sync_all().map_err(|e| io("fsync temp for", e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io("rename into", e))?;
    // Make the rename itself durable. Failure to fsync the directory is
    // not fatal for correctness (the rename is still atomic), so a
    // best-effort sync suffices on filesystems without dir handles.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CheckpointConfig: how a training loop checkpoints.
// ---------------------------------------------------------------------------

/// Checkpointing policy handed to the training loops
/// (`FeasibleCfModel::fit_with_checkpoints`, `BlackBox::train_with_checkpoints`,
/// `PlainVae::fit_with_checkpoints`).
///
/// `dir: None` disables checkpointing entirely (the default), making the
/// durable entry points exact aliases of the plain ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files; `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Save every N completed epochs (0 is treated as 1).
    pub every_epochs: usize,
    /// How many most-recent step checkpoints to retain (the best-loss
    /// checkpoint is kept in addition, under its own name).
    pub keep_last: usize,
    /// Resume from the latest good checkpoint if one exists.
    pub resume: bool,
    /// File-name prefix distinguishing multiple training loops sharing
    /// one directory (e.g. `"blackbox"` vs `"ours-unary"`).
    pub prefix: String,
    /// Pause after this many epochs complete *in this call* (the run
    /// returns `TrainStatus::Paused` with a checkpoint on disk). `None`
    /// trains to the schedule's end. This is the time-budget/pause knob;
    /// the kill/resume tests also use it to stop at a known epoch.
    pub epoch_budget: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpointing disabled.
    pub fn disabled() -> Self {
        CheckpointConfig::default()
    }

    /// Checkpoint into `dir` every epoch, keeping the last 2 + best.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: Some(dir.into()),
            every_epochs: 1,
            keep_last: 2,
            resume: false,
            prefix: "ckpt".to_string(),
            epoch_budget: None,
        }
    }

    /// Builder: resume from the latest good checkpoint.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Builder: checkpoint cadence in epochs.
    pub fn with_every(mut self, every_epochs: usize) -> Self {
        self.every_epochs = every_epochs;
        self
    }

    /// Builder: retention count for step checkpoints.
    pub fn with_keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last;
        self
    }

    /// Builder: file-name prefix.
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Builder: pause after N epochs complete in one call.
    pub fn with_epoch_budget(mut self, epochs: usize) -> Self {
        self.epoch_budget = Some(epochs);
        self
    }

    /// Whether checkpointing is on.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Builds the manager for this config (creating the directory), or
    /// `None` when disabled.
    pub fn manager(&self) -> Result<Option<CheckpointManager>, CfxError> {
        match &self.dir {
            None => Ok(None),
            Some(dir) => Ok(Some(CheckpointManager::new(
                dir,
                &self.prefix,
                self.keep_last.max(1),
            )?)),
        }
    }
}

// ---------------------------------------------------------------------------
// CheckpointManager: naming, retention, corruption fallback.
// ---------------------------------------------------------------------------

/// Owns one training loop's checkpoint files inside a directory:
/// `"{prefix}-{step:08}.cfxckpt"` per saved step plus
/// `"{prefix}-best.cfxckpt"` for the best loss seen.
///
/// Retention keeps the newest `keep_last` step files and the best file.
/// Loading walks step files newest-first; a file that fails CRC/format
/// verification is quarantined (renamed to `*.corrupt`) and the next
/// older one is tried, so one torn or rotted file never strands a run.
#[derive(Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    prefix: String,
    keep_last: usize,
    best_loss: f32,
}

/// Loss stored inside every managed checkpoint (raw f32 bits).
const SEC_LOSS: &str = "manager.loss";
/// Step stored inside every managed checkpoint.
const SEC_STEP: &str = "manager.step";

impl CheckpointManager {
    /// Opens (creating if needed) `dir` for checkpoints named under
    /// `prefix`. Reads the existing best checkpoint, if any, to seed the
    /// best-loss watermark.
    pub fn new(
        dir: impl Into<PathBuf>,
        prefix: &str,
        keep_last: usize,
    ) -> Result<Self, CfxError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| {
            CfxError::io(format!("create {}: {e}", dir.display()))
        })?;
        let mut mgr = CheckpointManager {
            dir,
            prefix: prefix.to_string(),
            keep_last: keep_last.max(1),
            best_loss: f32::INFINITY,
        };
        let best_path = mgr.best_path();
        if best_path.exists() {
            match Checkpoint::read(&best_path)
                .and_then(|c| Ok(c.f32s(SEC_LOSS)?.first().copied()))
            {
                Ok(Some(loss)) => mgr.best_loss = loss,
                _ => quarantine(&best_path),
            }
        }
        Ok(mgr)
    }

    /// The directory this manager writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the step-`step` checkpoint.
    pub fn step_path(&self, step: u64) -> PathBuf {
        self.dir.join(format!("{}-{step:08}.{EXTENSION}", self.prefix))
    }

    /// Path of the best-loss checkpoint.
    pub fn best_path(&self) -> PathBuf {
        self.dir.join(format!("{}-best.{EXTENSION}", self.prefix))
    }

    /// Persists `ckpt` as the step-`step` checkpoint (atomically), also
    /// updating the best-loss checkpoint when `loss` improves on every
    /// loss saved before, then applies retention. Returns the step path.
    pub fn save(
        &mut self,
        step: u64,
        loss: f32,
        ckpt: &mut Checkpoint,
    ) -> Result<PathBuf, CfxError> {
        ckpt.put_u64s(SEC_STEP, &[step]);
        ckpt.put_f32s(SEC_LOSS, &[loss]);
        let bytes = ckpt.encode();
        let path = self.step_path(step);
        write_bytes_atomic(&path, &bytes)?;
        let best = loss < self.best_loss;
        if best {
            self.best_loss = loss;
            write_bytes_atomic(&self.best_path(), &bytes)?;
        }
        self.retain()?;
        cfx_obs::event!(
            "checkpoint_saved",
            path = path.display().to_string(),
            step = step,
            loss = loss,
            bytes = bytes.len() as u64,
            best = best,
        );
        Ok(path)
    }

    /// Loads the newest verifiable step checkpoint, quarantining any
    /// corrupt files encountered on the way down. Returns `None` when no
    /// good checkpoint exists.
    pub fn load_latest(&self) -> Result<Option<(u64, Checkpoint)>, CfxError> {
        let mut files = self.step_files();
        files.sort_by(|a, b| b.0.cmp(&a.0));
        for (step, path) in files {
            match Checkpoint::read(&path) {
                Ok(ckpt) => return Ok(Some((step, ckpt))),
                Err(CfxError::Corrupt(detail)) => {
                    cfx_obs::warn!(
                        "checkpoint_quarantined",
                        path = path.display().to_string(),
                        detail = detail,
                        fallback = "previous_checkpoint",
                    );
                    quarantine(&path);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Loads the best-loss checkpoint, if present and intact (a corrupt
    /// best file is quarantined and reported as absent).
    pub fn load_best(&self) -> Result<Option<(f32, Checkpoint)>, CfxError> {
        let path = self.best_path();
        if !path.exists() {
            return Ok(None);
        }
        match Checkpoint::read(&path) {
            Ok(ckpt) => {
                let loss =
                    ckpt.f32s(SEC_LOSS)?.first().copied().unwrap_or(f32::NAN);
                Ok(Some((loss, ckpt)))
            }
            Err(CfxError::Corrupt(detail)) => {
                cfx_obs::warn!(
                    "checkpoint_quarantined",
                    path = path.display().to_string(),
                    detail = detail,
                    which = "best",
                );
                quarantine(&path);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Deletes step checkpoints beyond the newest `keep_last` (the best
    /// file is never touched — it has its own name).
    fn retain(&self) -> Result<(), CfxError> {
        let mut files = self.step_files();
        files.sort_by(|a, b| b.0.cmp(&a.0));
        for (_, path) in files.into_iter().skip(self.keep_last) {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }

    /// `(step, path)` of every step checkpoint currently on disk.
    fn step_files(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let prefix = format!("{}-", self.prefix);
        let suffix = format!(".{EXTENSION}");
        entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let stem = name
                    .strip_prefix(&prefix)?
                    .strip_suffix(&suffix)?;
                let step: u64 = stem.parse().ok()?;
                Some((step, e.path()))
            })
            .collect()
    }
}

/// Renames a failed checkpoint aside so it stops shadowing good ones but
/// stays available for post-mortems.
///
/// Collision-safe: if the same path corrupts repeatedly (e.g. a step file
/// rewritten and re-quarantined across resume cycles), earlier forensic
/// evidence is never overwritten — the first quarantine takes
/// `{path}.corrupt`, later ones `{path}.corrupt.1`, `.corrupt.2`, … .
pub fn quarantine(path: &Path) {
    let base = {
        let mut t = path.as_os_str().to_owned();
        t.push(".corrupt");
        PathBuf::from(t)
    };
    let mut target = base.clone();
    let mut n = 0u32;
    while target.exists() {
        n += 1;
        let mut t = base.as_os_str().to_owned();
        t.push(format!(".{n}"));
        target = PathBuf::from(t);
        // A directory with u32::MAX quarantined copies of one file is
        // not a scenario worth looping forever on: give up uniqueness
        // and overwrite the last slot.
        if n == u32::MAX {
            break;
        }
    }
    let _ = fs::rename(path, target);
}

// ---------------------------------------------------------------------------
// Deterministic crash injection (kill/resume testing).
// ---------------------------------------------------------------------------

/// Exit code used by [`crash_point`] — the conventional SIGKILL code, so
/// a deterministic crash is indistinguishable from `kill -9` to callers.
pub const CRASH_EXIT_CODE: i32 = 137;

fn env_crash() -> Option<(String, u64)> {
    static ENV: OnceLock<Option<(String, u64)>> = OnceLock::new();
    ENV.get_or_init(|| {
        let spec = std::env::var("CFX_CRASH").ok()?;
        let (stage, idx) = spec.split_once('@')?;
        Some((stage.trim().to_string(), idx.trim().parse().ok()?))
    })
    .clone()
}

/// Deterministic kill switch for crash-consistency tests: when the
/// `CFX_CRASH=<stage>@<index>` environment variable matches, the process
/// exits immediately with [`CRASH_EXIT_CODE`] — the moral equivalent of
/// a SIGKILL at a repeatable point. Training loops call this right
/// *after* persisting a checkpoint, so the crash always lands between a
/// completed durable state and the next epoch. A no-op unless the
/// variable is set.
pub fn crash_point(stage: &str, index: u64) {
    if let Some((s, i)) = env_crash() {
        if s == stage && i == index {
            cfx_obs::warn!("simulated_crash", stage = stage, index = index);
            // The stderr subscriber writes unbuffered and the JSONL
            // sink flushes per line, so the notice lands before exit.
            std::process::exit(CRASH_EXIT_CODE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("cfx_checkpoint_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.put_tensors(
            "params",
            &[
                Tensor::from_vec(2, 3, vec![1.0, -2.5, f32::NAN, 0.0, 3e-9, 4e8]),
                Tensor::scalar(0.25),
            ],
        );
        c.put_u64s("rng", &[1, u64::MAX, 42, 0]);
        c.put_f32s("meta.f32", &[0.1, f32::INFINITY]);
        c.put_u64s("meta.u64", &[7]);
        c.put_str("label", "unary");
        c
    }

    fn bits(ts: &[Tensor]) -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let c = sample();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(
            bits(&c.tensors("params").unwrap()),
            bits(&d.tensors("params").unwrap())
        );
        assert_eq!(c.u64s("rng").unwrap(), d.u64s("rng").unwrap());
        assert_eq!(
            c.f32s("meta.f32").unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d.f32s("meta.f32").unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(d.str_section("label").unwrap(), "unary");
    }

    #[test]
    fn adam_state_round_trips() {
        let state = AdamState {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1234,
            m: vec![Tensor::from_vec(1, 2, vec![0.5, -0.5])],
            v: vec![Tensor::from_vec(1, 2, vec![0.25, 0.125])],
        };
        let mut c = Checkpoint::new();
        c.put_adam("adam", &state);
        let d = Checkpoint::decode(&c.encode()).unwrap();
        let got = d.adam("adam").unwrap();
        assert_eq!(got.t, state.t);
        assert_eq!(got.lr.to_bits(), state.lr.to_bits());
        assert_eq!(bits(&got.m), bits(&state.m));
        assert_eq!(bits(&got.v), bits(&state.v));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Exhaustive over a small checkpoint: flipping any one bit of any
        // one byte must yield Corrupt — no silent loads, no panics.
        let mut c = Checkpoint::new();
        c.put_tensors("t", &[Tensor::from_vec(1, 2, vec![1.0, -1.0])]);
        c.put_u64s("s", &[3]);
        let bytes = c.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match Checkpoint::decode(&bad) {
                Err(CfxError::Corrupt(_)) => {}
                other => panic!(
                    "flip at byte {i}/{} not detected: {other:?}",
                    bytes.len()
                ),
            }
        }
    }

    #[test]
    fn truncation_at_any_length_is_detected() {
        let bytes = sample().encode();
        for end in 0..bytes.len() {
            match Checkpoint::decode(&bytes[..end]) {
                Err(CfxError::Corrupt(_)) => {}
                other => panic!("truncation at {end} not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn missing_section_is_a_typed_error() {
        let c = sample();
        assert!(matches!(c.bytes("nope"), Err(CfxError::Corrupt(_))));
        assert!(matches!(c.tensors("nope"), Err(CfxError::Corrupt(_))));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = tmpdir("atomic");
        let path = dir.join("a.cfxckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        // No temp residue.
        assert!(!dir.join("a.cfxckpt.tmp").exists());
        let d = Checkpoint::read(&path).unwrap();
        assert_eq!(d.u64s("rng").unwrap(), c.u64s("rng").unwrap());
        // Overwrite is atomic too: write a different checkpoint on top.
        let mut c2 = sample();
        c2.put_u64s("rng", &[9]);
        c2.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap().u64s("rng").unwrap(), [9]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn manager_retention_keeps_last_k_and_best() {
        let dir = tmpdir("retention");
        let mut mgr = CheckpointManager::new(&dir, "m", 2).unwrap();
        // Losses dip at step 2 then rise: best must stay pinned at 2.
        for (step, loss) in [(1u64, 5.0f32), (2, 1.0), (3, 2.0), (4, 3.0)] {
            let mut c = sample();
            mgr.save(step, loss, &mut c).unwrap();
        }
        assert!(!mgr.step_path(1).exists());
        assert!(!mgr.step_path(2).exists());
        assert!(mgr.step_path(3).exists());
        assert!(mgr.step_path(4).exists());
        let (best_loss, _) = mgr.load_best().unwrap().unwrap();
        assert_eq!(best_loss, 1.0);
        let (step, _) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(step, 4);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_latest_quarantined_and_falls_back() {
        let dir = tmpdir("fallback");
        let mut mgr = CheckpointManager::new(&dir, "m", 3).unwrap();
        for step in 1..=3u64 {
            let mut c = sample();
            c.put_u64s("which", &[step]);
            mgr.save(step, step as f32, &mut c).unwrap();
        }
        // Flip one byte in the newest file.
        let latest = mgr.step_path(3);
        let mut bytes = fs::read(&latest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&latest, bytes).unwrap();

        let (step, ckpt) = mgr.load_latest().unwrap().unwrap();
        assert_eq!(step, 2, "must fall back past the corrupt file");
        assert_eq!(ckpt.u64s("which").unwrap(), [2]);
        assert!(!latest.exists(), "corrupt file must be moved aside");
        let quarantined = PathBuf::from(format!(
            "{}.corrupt",
            mgr.step_path(3).display()
        ));
        assert!(quarantined.exists(), "quarantine keeps the evidence");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn quarantine_never_overwrites_earlier_evidence() {
        let dir = tmpdir("quarantine-unique");
        let victim = dir.join("state.cfxckpt");
        for round in 0..3u8 {
            fs::write(&victim, [round]).unwrap();
            quarantine(&victim);
            assert!(!victim.exists(), "round {round}: file must move aside");
        }
        // Three distinct artifacts, each preserving its round's byte.
        let expect = [
            (dir.join("state.cfxckpt.corrupt"), 0u8),
            (dir.join("state.cfxckpt.corrupt.1"), 1u8),
            (dir.join("state.cfxckpt.corrupt.2"), 2u8),
        ];
        for (path, byte) in expect {
            let bytes = fs::read(&path)
                .unwrap_or_else(|_| panic!("{} missing", path.display()));
            assert_eq!(bytes, [byte], "{} clobbered", path.display());
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn manager_reopen_restores_best_watermark() {
        let dir = tmpdir("reopen");
        {
            let mut mgr = CheckpointManager::new(&dir, "m", 2).unwrap();
            let mut c = sample();
            mgr.save(1, 0.5, &mut c).unwrap();
        }
        let mut mgr = CheckpointManager::new(&dir, "m", 2).unwrap();
        // A worse loss must not displace the persisted best.
        let mut c = sample();
        c.put_u64s("which", &[2]);
        mgr.save(2, 1.5, &mut c).unwrap();
        let (best_loss, best) = mgr.load_best().unwrap().unwrap();
        assert_eq!(best_loss, 0.5);
        assert!(!best.has("which"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_point_is_noop_without_env() {
        // CFX_CRASH is unset in the test environment; reaching the other
        // side proves the no-op path.
        crash_point("epoch", 0);
        crash_point("row", u64::MAX);
    }
}
