//! The deterministic run journal — one JSON line per sweep cell.
//!
//! Every sweep writes `results/<exp>.jsonl` (or `--journal <path>`):
//! each row records the cell's coordinates in the grid (app, system,
//! opt level, clock, supply, scale, derived seed), its [`CellOutput`]
//! counters, any experiment-specific metrics under `extra`, how the
//! cell ended (`ok` / `build-error` / `panicked`), and two
//! non-deterministic provenance fields (`wall_ms`, `thread`).
//!
//! Rows are written in cell-index order regardless of how many worker
//! threads executed the sweep, so two journals of the same grid and
//! sweep seed are line-for-line identical except for `wall_ms` and
//! `thread` — the property the determinism tests pin down. Re-folding a
//! journal into a paper table is [`read`] plus ordinary iteration; no
//! re-simulation needed.
//!
//! [`CellOutput`]: crate::sweep::CellOutput

use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use tics_trace::SpanKind;

use crate::json::Json;

/// How a sweep cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The runner returned a result.
    Ok,
    /// The app × system × opt combination cannot be built (the paper's
    /// red-cross cells) or the runner reported an error.
    BuildError,
    /// The runner panicked; the sweep isolated it and continued.
    Panicked,
    /// The runner blew the sweep's per-cell wall-clock budget; the
    /// watchdog journaled the cell and moved on (see
    /// [`SweepArgs::cell_timeout_ms`]).
    ///
    /// [`SweepArgs::cell_timeout_ms`]: crate::sweep::SweepArgs::cell_timeout_ms
    Timeout,
}

impl CellStatus {
    /// Journal wire form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::BuildError => "build-error",
            CellStatus::Panicked => "panicked",
            CellStatus::Timeout => "timeout",
        }
    }

    fn parse(s: &str) -> Result<CellStatus, String> {
        match s {
            "ok" => Ok(CellStatus::Ok),
            "build-error" => Ok(CellStatus::BuildError),
            "panicked" => Ok(CellStatus::Panicked),
            "timeout" => Ok(CellStatus::Timeout),
            other => Err(format!("unknown cell status {other:?}")),
        }
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal row: a cell's coordinates, counters, and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRow {
    /// Experiment name (`table2`, `fig9`, ...).
    pub exp: String,
    /// Cell index in the declared grid (also the journal line order).
    pub cell: u64,
    /// App name (`AR`, `BC`, ...), or a custom label for non-app cells.
    pub app: String,
    /// System under test (`TICS`, `MementOS`, ...).
    pub system: String,
    /// Optimization level (`-O0` ... `-O2`).
    pub opt: String,
    /// Timekeeper (`perfect`, `volatile`, `rtc:<budget>`).
    pub clock: String,
    /// Power-supply spec label (`continuous`, `periodic:8000/1000`, ...).
    pub supply: String,
    /// Workload scale.
    pub scale: u32,
    /// The cell's derived deterministic seed.
    pub seed: u64,
    /// Fleet shard index, if this row summarizes one shard of a
    /// sharded fleet sweep ([`crate::fleet`]). `None` for ordinary
    /// sweep cells — and the field is then omitted from the wire form
    /// entirely, so pre-fleet journals stay byte-identical.
    pub shard: Option<u64>,
    /// How the cell ended.
    pub status: CellStatus,
    /// Run outcome text (`finished`, `out-of-energy`, error/panic text).
    pub outcome: String,
    /// Exit code if the program finished.
    pub exit_code: Option<i32>,
    /// Simulated cycles of on-time.
    pub cycles: u64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Restores performed.
    pub restores: u64,
    /// Power failures experienced.
    pub power_failures: u64,
    /// Undo-log appends.
    pub undo_appends: u64,
    /// `.text` bytes of the built image.
    pub text_bytes: u32,
    /// `.data` bytes of the built image.
    pub data_bytes: u32,
    /// Cycles charged to each [`SpanKind`], indexed by
    /// [`SpanKind::index`]. All-zero for rows predating span
    /// attribution (older journals parse with zeros).
    pub spans: [u64; SpanKind::COUNT],
    /// Experiment-specific metrics (violation counts, panel labels...).
    pub extra: Vec<(String, Json)>,
    /// Host wall-time of the cell in milliseconds (non-deterministic).
    pub wall_ms: f64,
    /// Worker-thread index that ran the cell (non-deterministic).
    pub thread: u64,
}

impl Default for JournalRow {
    fn default() -> Self {
        JournalRow {
            exp: String::new(),
            cell: 0,
            app: String::new(),
            system: String::new(),
            opt: String::new(),
            clock: String::new(),
            supply: String::new(),
            scale: 0,
            seed: 0,
            shard: None,
            status: CellStatus::Ok,
            outcome: String::new(),
            exit_code: None,
            cycles: 0,
            checkpoints: 0,
            restores: 0,
            power_failures: 0,
            undo_appends: 0,
            text_bytes: 0,
            data_bytes: 0,
            spans: [0; SpanKind::COUNT],
            extra: Vec::new(),
            wall_ms: 0.0,
            thread: 0,
        }
    }
}

impl JournalRow {
    /// Serializes the row as one compact JSON object (no newline).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("exp", self.exp.as_str())
            .field("cell", self.cell)
            .field("app", self.app.as_str())
            .field("system", self.system.as_str())
            .field("opt", self.opt.as_str())
            .field("clock", self.clock.as_str())
            .field("supply", self.supply.as_str())
            .field("scale", self.scale)
            // Hex string: seeds use all 64 bits, beyond JSON's safe
            // integer range.
            .field("seed", format!("{:#x}", self.seed));
        // Omitted (not null) when absent: non-fleet rows keep their
        // exact pre-shard byte layout.
        if let Some(shard) = self.shard {
            obj = obj.field("shard", shard);
        }
        obj.field("status", self.status.as_str())
            .field("outcome", self.outcome.as_str())
            .field("exit_code", self.exit_code)
            .field("cycles", self.cycles)
            .field("checkpoints", self.checkpoints)
            .field("restores", self.restores)
            .field("power_failures", self.power_failures)
            .field("undo_appends", self.undo_appends)
            .field("text_bytes", self.text_bytes)
            .field("data_bytes", self.data_bytes)
            .field(
                "spans",
                Json::Obj(
                    SpanKind::ALL
                        .iter()
                        .map(|&k| (k.label().to_string(), Json::from(self.spans[k.index()])))
                        .collect(),
                ),
            )
            .field("extra", Json::Obj(self.extra.clone()))
            .field("wall_ms", self.wall_ms)
            .field("thread", self.thread)
            .build()
    }

    /// Parses a row back from its JSON object form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<JournalRow, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        Ok(JournalRow {
            exp: str_field("exp")?,
            cell: u64_field("cell")?,
            app: str_field("app")?,
            system: str_field("system")?,
            opt: str_field("opt")?,
            clock: str_field("clock")?,
            supply: str_field("supply")?,
            scale: u32::try_from(u64_field("scale")?).map_err(|e| e.to_string())?,
            seed: {
                let s = str_field("seed")?;
                u64::from_str_radix(s.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("bad seed {s:?}: {e}"))?
            },
            shard: v.get("shard").and_then(Json::as_u64),
            status: CellStatus::parse(&str_field("status")?)?,
            outcome: str_field("outcome")?,
            exit_code: match v.get("exit_code") {
                None | Some(Json::Null) => None,
                Some(x) => Some(
                    x.as_i64()
                        .and_then(|i| i32::try_from(i).ok())
                        .ok_or("exit_code is not an i32")?,
                ),
            },
            cycles: u64_field("cycles")?,
            checkpoints: u64_field("checkpoints")?,
            restores: u64_field("restores")?,
            power_failures: u64_field("power_failures")?,
            undo_appends: u64_field("undo_appends")?,
            text_bytes: u32::try_from(u64_field("text_bytes")?).map_err(|e| e.to_string())?,
            data_bytes: u32::try_from(u64_field("data_bytes")?).map_err(|e| e.to_string())?,
            spans: {
                // Missing (pre-attribution journals) parses as all-zero.
                let mut spans = [0u64; SpanKind::COUNT];
                if let Some(obj) = v.get("spans") {
                    for k in SpanKind::ALL {
                        if let Some(n) = obj.get(k.label()).and_then(Json::as_u64) {
                            spans[k.index()] = n;
                        }
                    }
                }
                spans
            },
            extra: match v.get("extra") {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => return Err("missing object field \"extra\"".to_string()),
            },
            wall_ms: v
                .get("wall_ms")
                .and_then(Json::as_f64)
                .ok_or("missing number field \"wall_ms\"")?,
            thread: u64_field("thread")?,
        })
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn parse_line(line: &str) -> Result<JournalRow, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        JournalRow::from_json(&v)
    }

    /// Looks up an `extra` metric by key.
    #[must_use]
    pub fn metric(&self, key: &str) -> Option<&Json> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The `extra` metrics named in `keys`, in that order and exactly as
    /// journaled; keys the row lacks are skipped.
    #[must_use]
    pub fn project(&self, keys: &[&str]) -> Vec<(String, Json)> {
        keys.iter()
            .filter_map(|&k| self.metric(k).map(|v| (k.to_string(), v.clone())))
            .collect()
    }

    /// An `extra` metric as f64 (integers convert).
    #[must_use]
    pub fn metric_f64(&self, key: &str) -> Option<f64> {
        self.metric(key).and_then(Json::as_f64)
    }

    /// An `extra` metric as u64.
    #[must_use]
    pub fn metric_u64(&self, key: &str) -> Option<u64> {
        self.metric(key).and_then(Json::as_u64)
    }

    /// The row with its non-deterministic provenance fields (`wall_ms`,
    /// `thread`) zeroed — what the determinism tests compare.
    #[must_use]
    pub fn deterministic_view(&self) -> JournalRow {
        JournalRow {
            wall_ms: 0.0,
            thread: 0,
            ..self.clone()
        }
    }
}

/// A JSONL journal writer (buffered; flushed on drop or [`finish`]).
///
/// [`finish`]: Journal::finish
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    out: BufWriter<File>,
    rows: u64,
}

impl Journal {
    /// Creates (truncates) the journal file, creating parent dirs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Journal {
            out: BufWriter::new(File::create(&path)?),
            path,
            rows: 0,
        })
    }

    /// Appends one row as one line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, row: &JournalRow) -> std::io::Result<()> {
        writeln!(self.out, "{}", row.to_json().to_compact())?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    #[must_use]
    pub fn rows_written(&self) -> u64 {
        self.rows
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

/// Reads a whole journal back into rows (the "re-fold a table without
/// re-simulating" entry point).
///
/// # Errors
///
/// Propagates filesystem errors; malformed lines become
/// `io::ErrorKind::InvalidData` with the line number.
pub fn read(path: impl AsRef<Path>) -> std::io::Result<Vec<JournalRow>> {
    match read_prefix(path)? {
        (_, Some(bad)) => Err(bad),
        (rows, None) => Ok(rows),
    }
}

/// Reads a journal up to its first malformed line (a sweep killed
/// mid-write leaves a partial last row): the rows before it, plus an
/// `io::ErrorKind::InvalidData` error naming `path:line` if there is
/// such a line.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn read_prefix(
    path: impl AsRef<Path>,
) -> std::io::Result<(Vec<JournalRow>, Option<std::io::Error>)> {
    let file = BufReader::new(File::open(path.as_ref())?);
    let mut rows = Vec::new();
    for (i, line) in file.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match JournalRow::parse_line(&line) {
            Ok(row) => rows.push(row),
            Err(e) => {
                let bad = std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.as_ref().display(), i + 1),
                );
                return Ok((rows, Some(bad)));
            }
        }
    }
    Ok((rows, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> JournalRow {
        JournalRow {
            exp: "test".into(),
            cell: 7,
            app: "AR".into(),
            system: "TICS".into(),
            opt: "-O2".into(),
            clock: "rtc:60000000".into(),
            supply: "rf:3/2/0.85".into(),
            scale: 200,
            seed: 0xDEAD_BEEF,
            shard: None,
            status: CellStatus::Ok,
            outcome: "finished".into(),
            exit_code: Some(42),
            cycles: 123_456_789,
            checkpoints: 321,
            restores: 17,
            power_failures: 18,
            undo_appends: 999,
            text_bytes: 2048,
            data_bytes: 512,
            spans: [900_000, 120_000, 17_000, 5_000, 1_000, 400, 50, 25],
            extra: vec![
                ("violations".into(), Json::Int(3)),
                ("panel".into(), Json::Str("left".into())),
            ],
            wall_ms: 12.5,
            thread: 3,
        }
    }

    #[test]
    fn row_round_trips_through_jsonl() {
        let row = sample_row();
        let line = row.to_json().to_compact();
        assert_eq!(JournalRow::parse_line(&line).unwrap(), row);
    }

    #[test]
    fn row_with_null_exit_code_round_trips() {
        let row = JournalRow {
            exit_code: None,
            status: CellStatus::Panicked,
            outcome: "panicked: boom".into(),
            ..sample_row()
        };
        let line = row.to_json().to_compact();
        assert_eq!(JournalRow::parse_line(&line).unwrap(), row);
    }

    #[test]
    fn journal_file_round_trips() {
        let dir = std::env::temp_dir().join("tics_journal_test");
        let path = dir.join("roundtrip.jsonl");
        let rows: Vec<JournalRow> = (0..5)
            .map(|i| JournalRow {
                cell: i,
                seed: i * 31,
                ..sample_row()
            })
            .collect();
        let mut j = Journal::create(&path).unwrap();
        for r in &rows {
            j.append(r).unwrap();
        }
        assert_eq!(j.rows_written(), 5);
        j.finish().unwrap();
        assert_eq!(read(&path).unwrap(), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_without_spans_parse_with_zeros() {
        // Journals written before span attribution have no "spans"
        // field; they must still parse (with zeroed attribution).
        let line = sample_row().to_json().to_compact();
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("row is not an object");
        };
        let stripped = Json::Obj(fields.into_iter().filter(|(k, _)| k != "spans").collect());
        let parsed = JournalRow::from_json(&stripped).unwrap();
        assert_eq!(parsed.spans, [0; SpanKind::COUNT]);
    }

    #[test]
    fn shard_field_round_trips_and_is_omitted_when_none() {
        // A shard-less row must serialize without any "shard" key at
        // all — byte-identical to journals written before the field
        // existed — while a sharded row round-trips it.
        let plain = sample_row();
        let line = plain.to_json().to_compact();
        assert!(!line.contains("\"shard\""), "unexpected shard key: {line}");
        assert_eq!(JournalRow::parse_line(&line).unwrap().shard, None);

        let sharded = JournalRow {
            shard: Some(42),
            ..sample_row()
        };
        let line = sharded.to_json().to_compact();
        assert!(line.contains("\"shard\":42"), "missing shard key: {line}");
        assert_eq!(JournalRow::parse_line(&line).unwrap(), sharded);
    }

    #[test]
    fn deterministic_view_masks_provenance() {
        let a = JournalRow {
            wall_ms: 1.0,
            thread: 0,
            ..sample_row()
        };
        let b = JournalRow {
            wall_ms: 99.0,
            thread: 5,
            ..sample_row()
        };
        assert_ne!(a, b);
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}
