//! Regenerates the paper's process-tree illustrations as text:
//!
//! * Fig. 4 — a two-level tree with fanouts {2, 3};
//! * Fig. 14 — the flat tree `{fo1, 0}` (both OWFs in one plan function);
//! * Fig. 15 — an unbalanced tree (`fo1 ≠ fo2`);
//! * Fig. 18–20 — the adaptive lifecycle: binary init, add stages, and
//!   (with the drop stage enabled) dropped subtrees.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- process_trees
//! ```

use wsmed_bench::{run_adaptive, run_parallel, HarnessOpts};
use wsmed_core::{paper, AdaptiveConfig};

pub fn run(opts: &HarnessOpts) {
    let setup = opts.setup();
    let w = &setup.wsmed;

    println!("== compiled plans (paper Fig. 9) ==");
    println!(
        "{}",
        w.explain(paper::QUERY1_SQL, Some(&vec![2, 3]))
            .expect("explain Query1")
    );

    println!("== Fig. 4: balanced-ish tree {{2,3}} ==");
    let t = run_parallel(w, paper::QUERY1_SQL, &vec![2, 3], opts.scale);
    println!("final tree: {}", t.report.tree.describe());
    print!("{}", t.report.tree.render_ascii());
    println!();
    assert_eq!(t.report.tree.levels[1].alive, 2);
    assert_eq!(t.report.tree.levels[2].alive, 6);

    println!("== Fig. 14: flat tree {{4,0}} ==");
    let t = run_parallel(w, paper::QUERY1_SQL, &vec![4, 0], opts.scale);
    println!("final tree: {}\n", t.report.tree.describe());
    assert_eq!(
        t.report.tree.levels.len(),
        2,
        "flat tree has a single level"
    );

    println!("== Fig. 15: unbalanced tree {{2,6}} ==");
    let t = run_parallel(w, paper::QUERY1_SQL, &vec![2, 6], opts.scale);
    println!("final tree: {}\n", t.report.tree.describe());
    assert_eq!(t.report.tree.levels[2].alive, 12);

    println!("== Fig. 18/19: AFF init (binary) + add stages, p=1, no drop ==");
    let cfg = AdaptiveConfig {
        add_step: 1,
        drop_enabled: false,
        ..Default::default()
    };
    let t = run_adaptive(w, paper::QUERY1_SQL, &cfg, opts.scale);
    println!(
        "final tree: {} (adds {}, drops {})",
        t.report.tree.describe(),
        t.report.tree.adds,
        t.report.tree.drops
    );
    println!("adaptation trace (first 12 decisions):");
    for event in t.report.tree.adapt_events.iter().take(12) {
        println!(
            "  q{} (level {}): {:>9} at {:.4}s/tuple with {} children",
            event.process, event.level, event.decision, event.per_tuple_secs, event.alive
        );
    }
    println!();
    assert!(t.report.tree.adds >= 2, "at least the binary init happened");

    println!("== Fig. 20: AFF with drop stage, p=2 ==");
    let cfg = AdaptiveConfig {
        add_step: 2,
        drop_enabled: true,
        ..Default::default()
    };
    let t = run_adaptive(w, paper::QUERY1_SQL, &cfg, opts.scale);
    println!(
        "final tree: {} (adds {}, drops {})",
        t.report.tree.describe(),
        t.report.tree.adds,
        t.report.tree.drops
    );
}
