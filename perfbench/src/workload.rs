//! The benchmark's workloads, each a list of the experiment harness's own
//! table specs, so the benchmark times exactly what `report` executes.

use fatrobots_sim::experiment::{
    adversary_table_spec, baseline_table_spec, delta_table_spec, expansion_table_spec,
    scale_table_spec, scaling_table_spec, shape_table_spec, RunSpec, TableSpec,
    SCALE_TABLE_EVENT_CAP,
};

/// Seeds per `tables_n6` run, starting at the workload seed.
pub const TABLE_SEEDS: u64 = 10;

/// The liveness distances of the n = 6 δ table, as `report` sweeps them.
const DELTAS: [f64; 4] = [1e-4, 1e-3, 1e-2, 5e-2];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E1's n = 96 row: one random start, random-async schedule, 60 000
    /// events, the default world mode.
    RandomN96,
    /// The n = 6 tables E2/E3, E4, E5, E6 and E7 over [`TABLE_SEEDS`] seeds,
    /// swept on a shared pool.
    TablesN6,
    /// SCALE's n = 10 000 row: hex packing, round-robin, sparse world, 64
    /// events, sampling off.
    HexN10k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::RandomN96, Workload::TablesN6, Workload::HexN10k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RandomN96 => "random_n96",
            Workload::TablesN6 => "tables_n6",
            Workload::HexN10k => "hex_n10k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the n = 96 probe's seed, and the
    /// first seed of the committed quick baseline otherwise.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::RandomN96 => 3,
            Workload::TablesN6 | Workload::HexN10k => 1,
        }
    }

    /// Sweep workers: `min(2, nproc)` for the table sweep, as `report` runs
    /// it on the two-core reference host; the single-run workloads run
    /// inline.
    pub fn jobs(self) -> usize {
        match self {
            Workload::TablesN6 => fatrobots_sim::sweep::default_jobs().min(2),
            Workload::RandomN96 | Workload::HexN10k => 1,
        }
    }

    /// The workload's tables for `seed`. The hex packing and the
    /// round-robin schedule are seed-free, so `hex_n10k` ignores the seed.
    pub fn tables(self, seed: u64) -> Vec<TableSpec> {
        match self {
            Workload::RandomN96 => vec![scaling_table_spec(&[96], &[seed])],
            Workload::TablesN6 => {
                let seeds: Vec<u64> = (seed..seed + TABLE_SEEDS).collect();
                vec![
                    expansion_table_spec(6, &seeds),
                    adversary_table_spec(6, &seeds),
                    baseline_table_spec(6, &seeds),
                    delta_table_spec(6, &DELTAS, &seeds),
                    shape_table_spec(6, &seeds),
                ]
            }
            Workload::HexN10k => {
                let mut table = scale_table_spec(SCALE_TABLE_EVENT_CAP);
                table
                    .groups
                    .retain(|g| g.specs.iter().all(|s| s.n == 10_000));
                vec![table]
            }
        }
    }
}

/// Every run of `tables`, row-major, in execution order.
pub fn flat_specs(tables: &[TableSpec]) -> Vec<RunSpec> {
    tables
        .iter()
        .flat_map(|t| t.groups.iter())
        .flat_map(|g| g.specs.iter().copied())
        .collect()
}
