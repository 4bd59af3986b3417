//! A small scaling study: gathering cost as the number of robots grows.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use fatrobots::sim::experiment::scaling_table_spec;
use fatrobots::sim::sweep;

fn main() {
    let ns = [3usize, 5, 6, 8, 10];
    let seeds = [1u64, 2, 3];
    // Sweeps fan out over the available cores; the output is byte-identical
    // to a serial run regardless of the worker count.
    let table = scaling_table_spec(&ns, &seeds).execute(sweep::default_jobs());
    println!("{}", table.title);
    println!("{}", fatrobots::sim::experiment::AggregateRow::header());
    for row in table.rows() {
        println!("{row}");
    }
}
