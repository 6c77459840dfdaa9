//! Regenerates **Fig. 16**: Query1 execution time over fanout vectors
//! `{fo1, fo2}` with up to 60 query processes.
//!
//! Paper findings this sweep must reproduce:
//! * the fastest region sits at small, near-balanced fanouts;
//! * the best cell is `{5,4}` at 56.4 s — speedup 4.3 over the central
//!   plan's 244.8 s;
//! * tiny trees (`{1,1}`) are no better than the central plan, very wide
//!   trees degrade again.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- fig16_query1_sweep --full
//! ```

use std::path::PathBuf;

use wsmed_bench::{
    best_cell, compare, csv_row, csv_writer, fanout_grid, print_matrix, run_central, run_parallel,
    HarnessOpts, Timed,
};
use wsmed_core::paper;
use wsmed_services::calibration;

/// What the paper reports for a fanout surface: central and best time in
/// seconds, and the best cell.
pub struct PaperSurface {
    pub central_secs: f64,
    pub best_secs: f64,
    pub best_fanout: (usize, usize),
}

/// A swept fanout surface: one run per `{fo1, fo2}` cell in grid order,
/// the same as `(fo1, fo2, model seconds)` rows, the argmin cell, and the
/// CSV path.
pub struct Surface {
    pub cells: Vec<(usize, usize, Timed)>,
    pub rows: Vec<(usize, usize, f64)>,
    pub best: (usize, usize, f64),
    pub path: PathBuf,
}

/// Runs `sql` on every cell of `grid`, writes one CSV row per cell to
/// `csv_name`, and prints the matrix, the best cell and how it compares
/// with the paper and with `central`. Fig. 16 and Fig. 17 share it; only
/// these arguments and the shape claims they assert on the result differ.
pub fn sweep_surface(
    opts: &HarnessOpts,
    setup: &paper::PaperSetup,
    csv_name: &str,
    sql: &str,
    grid: &[(usize, usize)],
    central: &Timed,
    paper: PaperSurface,
) -> Surface {
    let (path, mut csv) = csv_writer(csv_name, "fo1,fo2,processes,model_secs,rows");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for &(fo1, fo2) in grid {
        let t = run_parallel(&setup.wsmed, sql, &vec![fo1, fo2], opts.scale);
        if opts.verbose {
            println!("  {{{fo1},{fo2}}}: {:.1} model-s", t.model_secs);
        }
        csv_row(
            &mut csv,
            &format!(
                "{fo1},{fo2},{},{:.2},{}",
                fo1 + fo1 * fo2,
                t.model_secs,
                t.report.row_count()
            ),
        );
        rows.push((fo1, fo2, t.model_secs));
        cells.push((fo1, fo2, t));
    }

    println!("execution time (model seconds), fo2 = 0 is the flat tree:");
    print_matrix(&rows);

    let (b1, b2, best) = best_cell(&rows);
    println!("\nbest cell: {{{b1},{b2}}} at {best:.1} model-s");
    compare("best parallel time", best, paper.best_secs);
    compare(
        "speedup over central",
        central.model_secs / best,
        paper.central_secs / paper.best_secs,
    );
    let (p1, p2) = paper.best_fanout;
    let paper_cell = rows
        .iter()
        .find(|r| r.0 == p1 && r.1 == p2)
        .expect("paper's best cell is in the grid");
    println!(
        "paper's best cell {{{p1},{p2}}}: {:.1} model-s ({:.0}% of our best)",
        paper_cell.2,
        100.0 * best / paper_cell.2
    );
    Surface {
        cells,
        rows,
        best: (b1, b2, best),
        path,
    }
}

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let setup = opts.setup();

    let central = run_central(&setup.wsmed, paper::QUERY1_SQL, opts.scale);
    println!(
        "central plan: {:.1} model-s (paper {:.1})\n",
        central.model_secs,
        calibration::PAPER_Q1_CENTRAL_SECS
    );

    let expected_rows = central.report.row_count();
    let grid = fanout_grid(10, 10, 60);
    let surface = sweep_surface(
        opts,
        &setup,
        "fig16_query1.csv",
        paper::QUERY1_SQL,
        &grid,
        &central,
        PaperSurface {
            central_secs: calibration::PAPER_Q1_CENTRAL_SECS,
            best_secs: calibration::PAPER_Q1_BEST_SECS,
            best_fanout: calibration::PAPER_Q1_BEST_FANOUT,
        },
    );
    for (fo1, fo2, t) in &surface.cells {
        assert_eq!(
            t.report.row_count(),
            expected_rows,
            "{{{fo1},{fo2}}} lost result tuples"
        );
    }
    let (b1, b2, best) = surface.best;

    // Shape assertions (the figure's qualitative claims).
    let tiny = surface
        .rows
        .iter()
        .find(|r| r.0 == 1 && r.1 == 1)
        .expect("{1,1} in grid")
        .2;
    assert!(
        tiny > 2.0 * best,
        "{{1,1}} ({tiny:.1}s) should be far worse than the optimum ({best:.1}s)"
    );
    assert!(
        central.model_secs > 3.0 * best,
        "parallelization should win big: central {:.1}s vs best {best:.1}s",
        central.model_secs
    );
    assert!(
        (2..=8).contains(&b1) && (1..=8).contains(&b2),
        "optimum {{{b1},{b2}}} should be an interior near-balanced cell"
    );
    let path = surface.path;
    println!("shape checks passed; CSV written to {}", path.display());
}
