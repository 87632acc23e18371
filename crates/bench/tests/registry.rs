//! The experiment registry end to end: every artifact on a reduced grid,
//! and the Table II cells against the benchmark's seed-7 golden.

use phishare_bench::registry::{find, Cell, ARTIFACTS};
use phishare_cluster::CellRecord;

/// At most 40 jobs, at most 2 nodes, and only the grid's first seed.
fn reduced(grid: Vec<Cell>) -> Vec<Cell> {
    let seed = grid[0].config.seed;
    grid.into_iter()
        .filter(|cell| cell.config.seed == seed)
        .map(|mut cell| {
            cell.jobs = cell.jobs.min(40);
            cell.config.nodes = cell.config.nodes.min(2);
            cell
        })
        .collect()
}

#[test]
fn every_artifact_runs_renders_and_passes_its_checks_on_a_reduced_grid() {
    for a in &ARTIFACTS {
        let report = a
            .run(reduced((a.grid)()))
            .unwrap_or_else(|e| panic!("{}: {e}", a.name));
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            a.name,
            report.failures
        );
        let markdown = a.markdown(&report.table);
        let rows = markdown.lines().filter(|l| l.starts_with("| ")).count();
        assert!(rows >= 2, "{}: no table rows in\n{markdown}", a.name);
        assert!(!markdown.contains("NaN"), "{}: {markdown}", a.name);
    }
}

#[test]
fn table2_cells_match_the_benchmark_golden() {
    // Read-only here; `plan_ms` is wall clock and excluded from equality.
    let golden: Vec<CellRecord> =
        serde_json::from_str(include_str!("../../../phibench/golden/table2.json")).unwrap();
    let table2 = find("table2").unwrap();
    let full_size: Vec<Cell> = (table2.grid)()
        .into_iter()
        .filter(|c| c.config.nodes == 8)
        .collect();
    let report = table2.run(full_size.clone()).unwrap();
    assert_eq!(report.cells.len(), 3, "MC, MCC and MCCK on 8 nodes");
    for (cell, (_, result)) in full_size.iter().zip(&report.cells) {
        let label = format!("{}/s{}", cell.config.policy, cell.config.seed);
        let want = golden
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.ok.as_ref());
        assert_eq!(result.as_ref(), want, "{label} differs from the golden");
    }
}
