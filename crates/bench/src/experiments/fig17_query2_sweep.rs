//! Regenerates **Fig. 17**: Query2 execution time over fanout vectors
//! `{fo1, fo2}`.
//!
//! Paper findings this sweep must reproduce:
//! * best execution at `{4,3}` (1243.89 s), speedup ≈ 2 over the central
//!   plan (2412.95 s);
//! * the optimum is near-balanced and small — Query2's bottom-level
//!   provider (codebump ZipCodes) saturates at low concurrency, so extra
//!   processes stop helping much earlier than Query1.
//!
//! The full dataset issues > 5000 calls per run, so the default grid is
//! coarser than Fig. 16's; `--verbose` prints each cell as it lands.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- fig17_query2_sweep --full
//! ```

use wsmed_bench::{run_central, HarnessOpts};
use wsmed_core::paper;
use wsmed_services::calibration;

use super::fig16_query1_sweep::{sweep_surface, PaperSurface};

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let setup = opts.setup();

    let central = run_central(&setup.wsmed, paper::QUERY2_SQL, opts.scale);
    println!(
        "central plan: {:.1} model-s (paper {:.1}), {} calls\n",
        central.model_secs,
        calibration::PAPER_Q2_CENTRAL_SECS,
        central.report.ws_calls
    );

    // A coarse grid over the same region as Fig. 17, N ≤ 60.
    let fo1s = [1usize, 2, 3, 4, 5, 6, 8, 10];
    let fo2s = [0usize, 1, 2, 3, 4, 6, 8];
    let mut grid = Vec::new();
    for fo1 in fo1s {
        for fo2 in fo2s {
            if fo1 + fo1 * fo2 > 60 {
                continue;
            }
            grid.push((fo1, fo2));
        }
    }
    let surface = sweep_surface(
        opts,
        &setup,
        "fig17_query2.csv",
        paper::QUERY2_SQL,
        &grid,
        &central,
        PaperSurface {
            central_secs: calibration::PAPER_Q2_CENTRAL_SECS,
            best_secs: calibration::PAPER_Q2_BEST_SECS,
            best_fanout: calibration::PAPER_Q2_BEST_FANOUT,
        },
    );
    for (fo1, fo2, t) in &surface.cells {
        assert_eq!(t.report.row_count(), 1, "{{{fo1},{fo2}}} lost USAF Academy");
    }
    let (b1, b2, best) = surface.best;

    // Shape assertions.
    let tiny = surface
        .rows
        .iter()
        .find(|r| r.0 == 1 && r.1 == 1)
        .expect("{1,1} in grid")
        .2;
    assert!(
        tiny > 1.5 * best,
        "{{1,1}} ({tiny:.1}s) should be far worse than {best:.1}s"
    );
    assert!(
        central.model_secs > 1.5 * best,
        "parallel must beat central: {:.1} vs {best:.1}",
        central.model_secs
    );
    assert!(
        (2..=6).contains(&b1) && (1..=6).contains(&b2),
        "optimum {{{b1},{b2}}} should be a small near-balanced cell"
    );
    let path = surface.path;
    println!("shape checks passed; CSV written to {}", path.display());
}
