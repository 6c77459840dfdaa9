//! Shared harness utilities for the `wsmed-bench` experiment driver
//! (`src/main.rs`, one experiment per module under `src/experiments/`) and
//! the Criterion benches.
//!
//! Every experiment regenerates one table or figure from the paper's §V
//! (or one of our ablations), prints the measured numbers next to the
//! paper's reported values, and writes a CSV under `target/experiments/`.
//!
//! Absolute numbers are **model seconds**: the simulated latency model
//! replays the paper's 2008 web services, scaled down by `--scale` so a
//! 2400-second experiment takes seconds of wall time. The claims under
//! test are about *shape* — who wins, by what rough factor, and where the
//! optimum fanout sits.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsmed_core::{paper, wire, AdaptiveConfig, ExecutionReport, FanoutVector, Wsmed};
use wsmed_netsim::parse_time_scale;
use wsmed_services::DatasetConfig;
use wsmed_store::{ColumnData, Tuple, Value};

/// Command-line options shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Wall seconds per model second.
    pub scale: f64,
    /// Use the full paper-scale dataset (Query2 > 5000 calls) instead of
    /// the reduced one.
    pub full: bool,
    /// Print per-run detail.
    pub verbose: bool,
}

impl HarnessOpts {
    /// Parses `--scale <f>`, `--full`, `--small` and `--verbose` over the
    /// given defaults; `Err` says what is wrong with the arguments.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_scale: f64,
        default_full: bool,
    ) -> Result<Self, String> {
        let mut opts = HarnessOpts {
            scale: default_scale,
            full: default_full,
            verbose: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().ok_or("--scale needs a value")?;
                    // 0 is valid: it runs unpaced.
                    opts.scale = parse_time_scale(&v).map_err(|e| format!("--scale: {e}"))?;
                }
                "--full" => opts.full = true,
                "--small" => opts.full = false,
                "--verbose" => opts.verbose = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Exits with status 2 at `--scale 0`, for an experiment whose claims
    /// are about model seconds: unpaced, wall ÷ scale measures nothing, so
    /// the claim could only be skipped, never checked.
    pub fn require_model_time(&self) {
        if self.scale == 0.0 {
            eprintln!("--scale 0 is unpaced: this experiment's claims are about model time");
            std::process::exit(2);
        }
    }

    /// The dataset configuration this run uses.
    pub fn dataset(&self) -> DatasetConfig {
        if self.full {
            DatasetConfig::paper()
        } else {
            DatasetConfig::small()
        }
    }

    /// Builds the paper world at the chosen scale.
    pub fn setup(&self) -> paper::PaperSetup {
        paper::setup(self.scale, self.dataset())
    }
}

/// Outcome of one timed execution, in model seconds.
#[derive(Debug, Clone)]
pub struct Timed<R = ExecutionReport> {
    /// Model seconds ( = wall / scale ).
    pub model_secs: f64,
    /// What the execution returned: its report, or e.g. the rows of a
    /// materialized run.
    pub report: R,
}

/// Runs a closure and converts its wall time to model seconds.
pub fn timed<R>(scale: f64, run: impl FnOnce() -> wsmed_core::CoreResult<R>) -> Timed<R> {
    let t0 = Instant::now();
    let report = run().expect("query execution failed");
    let model_secs = t0.elapsed().as_secs_f64() / scale;
    Timed { model_secs, report }
}

/// Executes the central plan and times it.
pub fn run_central(w: &Wsmed, sql: &str, scale: f64) -> Timed {
    timed(scale, || w.run_central(sql))
}

/// Executes a manually parallelized plan and times it.
pub fn run_parallel(w: &Wsmed, sql: &str, fanouts: &FanoutVector, scale: f64) -> Timed {
    timed(scale, || w.run_parallel(sql, fanouts))
}

/// Executes an adaptive plan and times it.
pub fn run_adaptive(w: &Wsmed, sql: &str, config: &AdaptiveConfig, scale: f64) -> Timed {
    timed(scale, || w.run_adaptive(sql, config))
}

/// Opens (and creates) a CSV file under `target/experiments/`.
pub fn csv_writer(name: &str, header: &str) -> (PathBuf, fs::File) {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(name);
    let mut file = fs::File::create(&path).expect("create CSV");
    writeln!(file, "{header}").expect("write CSV header");
    (path, file)
}

/// Appends one CSV row.
pub fn csv_row(file: &mut fs::File, row: &str) {
    writeln!(file, "{row}").expect("write CSV row");
}

/// Writes `contents` to `target/experiments/<name>` (creating directories)
/// and returns its path.
pub fn write_experiment_file(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from("target/experiments").join(name);
    fs::create_dir_all(path.parent().expect("under target/experiments"))
        .expect("create experiments dir");
    fs::write(&path, contents).expect("write experiment output");
    path
}

// ---- machine-readable benchmark summary -------------------------------

/// Formats a float as a JSON number, mapping non-finite values (e.g. model
/// time measured at `--scale 0`) to `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

/// The one shared emission path for `BENCH_*.json` summaries: wraps `body`
/// in the common section schema — section name, the model-time `scale` the
/// measurement ran at (`None` → `null` for wall-clock-only benches), and
/// the payload under `"data"` — then merges it into `out_name`, whose
/// `_meta` header carries the schema version, a run id, and the section
/// list. Every experiment and bench writes through here so downstream
/// tooling can parse any `BENCH_*.json` the same way.
///
/// `body` must be a complete JSON value. The section is dropped as a
/// fragment under `target/experiments/bench_json_<stem>/` and the summary
/// is regenerated from every fragment present, so independent runs (the
/// wire benches, the experiments) contribute sections without clobbering
/// each other, and different output files never absorb each other's
/// fragments. Returns the merged summary's path.
pub fn emit_bench_section(
    out_name: &str,
    section: &str,
    scale: Option<f64>,
    body: &str,
) -> PathBuf {
    let scale_json = scale.map_or_else(|| "null".to_owned(), json_num);
    let wrapped = format!(
        "{{\"section\": \"{section}\", \"scale\": {scale_json}, \"data\": {}}}",
        body.trim()
    );
    let stem = out_name.strip_suffix(".json").unwrap_or(out_name);
    let fragment = write_experiment_file(&format!("bench_json_{stem}/{section}.json"), &wrapped);
    merge_bench_json(fragment.parent().expect("fragment dir"), out_name)
}

/// Rebuilds `<out_name>` from every fragment in `dir`, sections sorted
/// by name for a stable diffable output.
fn merge_bench_json(dir: &std::path::Path, out_name: &str) -> PathBuf {
    let mut sections: Vec<(String, String)> = fs::read_dir(dir)
        .expect("read bench_json dir")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path
                .file_name()?
                .to_str()?
                .strip_suffix(".json")?
                .to_owned();
            Some((name, fs::read_to_string(&path).ok()?))
        })
        .collect();
    sections.sort();
    // A `_meta` header leads every merged summary: schema version, a run id
    // for provenance (last merge wins — the id identifies the merge, not
    // each section's measurement), and the section list.
    let run_id = {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!("{secs:08x}-{:04x}", std::process::id() & 0xffff)
    };
    let names: Vec<String> = sections
        .iter()
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    let mut doc = String::from("{\n");
    doc.push_str(&format!(
        "  \"_meta\": {{\"schema\": \"wsmed-bench/v1\", \"run_id\": \"{run_id}\", \
         \"sections\": [{}]}},\n",
        names.join(", ")
    ));
    for (i, (name, body)) in sections.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!("  \"{name}\": {}", body.trim()));
    }
    doc.push_str("\n}\n");
    write_experiment_file(out_name, &doc)
}

// ---- row-vs-columnar wire micro-measurements ---------------------------

/// The 4-column parameter-tuple shape used throughout the wire benches
/// (three strings and a real, matching Query1's shipped views).
pub fn wire_bench_tuples(size: usize) -> Vec<Tuple> {
    (0..size)
        .map(|i| {
            Tuple::new(vec![
                Value::str("Atlanta Heights"),
                Value::str("GA"),
                Value::Real(i as f64 + 0.25),
                Value::str("Atlanta Heights, GA"),
            ])
        })
        .collect()
}

/// Wire-path micro-measurement over one batch of [`wire_bench_tuples`]:
/// the row message path (per-tuple encode + frame; per-tuple decode of the
/// frame's entries) versus the columnar path (whole-column encode; typed column
/// decode that borrows string heaps from the frame).
#[derive(Debug, Clone)]
pub struct WireMicro {
    /// Tuples per frame.
    pub size: usize,
    /// Row-path frame bytes (including the 1-byte kind prefix).
    pub row_frame_bytes: usize,
    /// Columnar frame bytes (including the 1-byte kind prefix).
    pub col_frame_bytes: usize,
    /// Row-path encode throughput, tuples per wall-clock second.
    pub row_encode_tps: f64,
    /// Columnar encode throughput, tuples per wall-clock second.
    pub col_encode_tps: f64,
    /// Row-path decode throughput (frame → value-accessible tuples).
    pub row_decode_tps: f64,
    /// Columnar decode throughput (frame → value-accessible batch).
    pub col_decode_tps: f64,
}

impl WireMicro {
    /// Frame bytes per tuple on the row path.
    pub fn row_bytes_per_tuple(&self) -> f64 {
        self.row_frame_bytes as f64 / self.size as f64
    }

    /// Frame bytes per tuple on the columnar path.
    pub fn col_bytes_per_tuple(&self) -> f64 {
        self.col_frame_bytes as f64 / self.size as f64
    }

    /// Columnar decode throughput over row decode throughput.
    pub fn decode_speedup(&self) -> f64 {
        self.col_decode_tps / self.row_decode_tps
    }

    /// Renders this measurement as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"size\": {}, \"row_frame_bytes\": {}, \"col_frame_bytes\": {}, \
             \"row_bytes_per_tuple\": {}, \"col_bytes_per_tuple\": {}, \
             \"row_encode_tuples_per_sec\": {}, \"col_encode_tuples_per_sec\": {}, \
             \"row_decode_tuples_per_sec\": {}, \"col_decode_tuples_per_sec\": {}, \
             \"decode_speedup\": {}}}",
            self.size,
            self.row_frame_bytes,
            self.col_frame_bytes,
            json_num(self.row_bytes_per_tuple()),
            json_num(self.col_bytes_per_tuple()),
            json_num(self.row_encode_tps),
            json_num(self.col_encode_tps),
            json_num(self.row_decode_tps),
            json_num(self.col_decode_tps),
            json_num(self.decode_speedup()),
        )
    }
}

/// Renders a slice of micro-measurements as a JSON array.
pub fn wire_micro_json(micros: &[WireMicro]) -> String {
    let items: Vec<String> = micros.iter().map(WireMicro::json).collect();
    format!("[{}]", items.join(", "))
}

/// Best-of-3 throughput of `f`, where each call processes `size` tuples.
fn best_tuples_per_sec(size: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..8 {
        f();
    }
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut iters = 0u64;
        while t0.elapsed() < Duration::from_millis(120) {
            f();
            iters += 1;
        }
        let tps = (iters * size as u64) as f64 / t0.elapsed().as_secs_f64();
        best = best.max(tps);
    }
    best
}

/// Measures the row and columnar wire paths at one batch size. Wall-clock
/// (real time, independent of `--scale`), best of 3 passes per closure.
pub fn measure_wire_micro(size: usize) -> WireMicro {
    let tuples = wire_bench_tuples(size);
    let encoded: Vec<_> = tuples.iter().map(wire::encode_tuple).collect();
    let row_frame = wire::encode_rows_message(encoded.iter());
    let col_frame = wire::encode_columnar_message(&tuples);

    let row_encode_tps = best_tuples_per_sec(size, || {
        let encoded: Vec<_> = tuples.iter().map(wire::encode_tuple).collect();
        std::hint::black_box(wire::encode_rows_message(encoded.iter()));
    });
    let col_encode_tps = best_tuples_per_sec(size, || {
        std::hint::black_box(wire::encode_columnar_message(&tuples));
    });
    let row_decode_tps = best_tuples_per_sec(size, || {
        std::hint::black_box(wire::decode_message(row_frame.clone()).expect("row frame decodes"));
    });
    let col_decode_tps = best_tuples_per_sec(size, || {
        std::hint::black_box(
            wire::decode_message(col_frame.clone()).expect("columnar frame decodes"),
        );
    });

    WireMicro {
        size,
        row_frame_bytes: row_frame.len(),
        col_frame_bytes: col_frame.len(),
        row_encode_tps,
        col_encode_tps,
        row_decode_tps,
        col_decode_tps,
    }
}

/// Asserts that decoding a `size`-tuple columnar frame performs no
/// per-value heap copies: every string column's heap must be a shared
/// slice of the received frame allocation. Returns the number of string
/// columns checked.
pub fn assert_columnar_zero_copy(size: usize) -> usize {
    let tuples = wire_bench_tuples(size);
    let frame = wire::encode_columnar_message(&tuples);
    let batch = match wire::decode_message(frame.clone()).expect("columnar frame decodes") {
        wire::MessageBatch::Columnar(batch) => batch,
        wire::MessageBatch::Rows(_) => panic!("uniform batch must encode columnar"),
    };
    let frame_range = frame.as_ptr_range();
    let mut shared = 0;
    for col in batch.columns() {
        if let ColumnData::Str(scol) = col.data() {
            assert!(
                scol.heap().is_shared(),
                "string heap must share the frame allocation, not copy out of it"
            );
            let heap = scol.heap().as_bytes().as_ptr_range();
            assert!(
                heap.start >= frame_range.start && heap.end <= frame_range.end,
                "string heap must point into the received frame"
            );
            shared += 1;
        }
    }
    assert!(shared > 0, "bench tuples contain string columns");
    shared
}

/// Prints a `measured vs paper` line with a rough agreement marker:
/// `ok` within 2× either way, `≠` otherwise (absolute agreement is not the
/// goal — the substrate is a simulator).
pub fn compare(label: &str, measured: f64, paper_value: f64) {
    let ratio = measured / paper_value;
    let marker = if (0.5..=2.0).contains(&ratio) {
        "ok"
    } else {
        "≠"
    };
    println!("  {label}: measured {measured:.1}  paper {paper_value:.1}  (×{ratio:.2} {marker})");
}

/// All fanout vectors `{fo1, fo2}` with `fo1 ≥ 1`, `fo2 ≥ 0` and total
/// processes `fo1 + fo1·fo2 ≤ max_processes` — the space of Fig. 16/17.
pub fn fanout_grid(max_fo1: usize, max_fo2: usize, max_processes: usize) -> Vec<(usize, usize)> {
    let mut grid = Vec::new();
    for fo1 in 1..=max_fo1 {
        for fo2 in 0..=max_fo2 {
            if fo1 + fo1 * fo2 <= max_processes {
                grid.push((fo1, fo2));
            }
        }
    }
    grid
}

/// Renders a `fo1 × fo2` matrix of times as an aligned text table
/// (the textual analogue of the paper's Fig. 16/17 surface plots).
pub fn print_matrix(rows: &[(usize, usize, f64)]) {
    let fo1s: Vec<usize> = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let fo2s: Vec<usize> = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.1).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    print!("fo1\\fo2 ");
    for fo2 in &fo2s {
        print!("{fo2:>8}");
    }
    println!();
    for fo1 in &fo1s {
        print!("{fo1:>7} ");
        for fo2 in &fo2s {
            match rows.iter().find(|r| r.0 == *fo1 && r.1 == *fo2) {
                Some((_, _, secs)) => print!("{secs:>8.1}"),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }
}

/// The argmin cell of a sweep.
pub fn best_cell(rows: &[(usize, usize, f64)]) -> (usize, usize, f64) {
    *rows
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("non-empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOpts, String> {
        HarnessOpts::parse_from(args.iter().map(|a| (*a).to_owned()), 0.002, true)
    }

    #[test]
    fn opts_parse_flags_and_keep_defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!((opts.scale, opts.full, opts.verbose), (0.002, true, false));
        let opts = parse(&["--small", "--scale", "0", "--verbose"]).unwrap();
        assert_eq!((opts.scale, opts.full, opts.verbose), (0.0, false, true));
        assert_eq!(parse(&["--scale", "1e-3"]).unwrap().scale, 0.001);
    }

    #[test]
    fn opts_reject_bad_input_without_panicking() {
        // Bad scale values are `wsmed_netsim::parse_time_scale`'s tests.
        for bad in [&["--scale"][..], &["--scale", "--full"], &["--fast"]] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn grid_respects_process_budget() {
        let grid = fanout_grid(10, 10, 60);
        assert!(grid.contains(&(5, 4)));
        assert!(grid.contains(&(1, 0)));
        for (fo1, fo2) in &grid {
            assert!(fo1 + fo1 * fo2 <= 60, "({fo1},{fo2}) exceeds budget");
        }
        // The paper's corners: {10,5} fits (60), {10,6} does not (70).
        assert!(grid.contains(&(10, 5)));
        assert!(!grid.contains(&(10, 6)));
    }

    #[test]
    fn best_cell_finds_minimum() {
        let rows = vec![(1, 1, 100.0), (5, 4, 42.0), (2, 2, 77.0)];
        assert_eq!(best_cell(&rows), (5, 4, 42.0));
    }

    #[test]
    fn emit_bench_section_wraps_shared_schema() {
        // Fragments of earlier runs would show up in the section list.
        let _ = std::fs::remove_dir_all("target/experiments/bench_json_BENCH_selftest");
        let out = emit_bench_section("BENCH_selftest.json", "unit", Some(0.5), "{\"x\": 1}");
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.contains("\"_meta\": {\"schema\": \"wsmed-bench/v1\", \"run_id\": \""));
        assert!(doc
            .contains("\"unit\": {\"section\": \"unit\", \"scale\": 0.500, \"data\": {\"x\": 1}}"));
        let out2 = emit_bench_section("BENCH_selftest.json", "wall", None, "[]");
        let doc2 = std::fs::read_to_string(&out2).unwrap();
        assert!(doc2.contains("\"scale\": null"));
        assert!(doc2.contains("\"sections\": [\"unit\", \"wall\"]"));
        // Written last, merged first: sections are sorted by name.
        let out3 = emit_bench_section("BENCH_selftest.json", "aa", None, "[1, 2]");
        let doc3 = std::fs::read_to_string(&out3).unwrap();
        assert!(doc3.contains("\"sections\": [\"aa\", \"unit\", \"wall\"]"));
        let aa = doc3.find("\"aa\": {").expect("aa section");
        let unit = doc3.find("\"unit\": {").expect("unit section");
        assert!(aa < unit, "sections must be sorted by name");
        assert!(doc3.starts_with("{\n") && doc3.ends_with("\n}\n"));
    }

    #[test]
    fn json_num_maps_non_finite_to_null() {
        assert_eq!(json_num(1.5), "1.500");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn columnar_decode_is_zero_copy() {
        // Three of the four bench columns are strings; all must borrow.
        assert_eq!(assert_columnar_zero_copy(16), 3);
    }

    #[test]
    fn csv_writer_creates_file() {
        let (path, mut f) = csv_writer("harness_selftest.csv", "a,b");
        csv_row(&mut f, "1,2");
        drop(f);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }
}
