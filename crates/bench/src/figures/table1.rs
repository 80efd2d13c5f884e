//! Table I: microarchitecture comparison of the three GPUs.

use gnoc_bench::header;
use gnoc_core::GpuSpec;

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Table I",
        "microarchitecture comparison of V100 / A100 / H100",
    );
    let rows: Vec<Vec<(&'static str, String)>> = GpuSpec::paper_presets()
        .iter()
        .map(|s| s.table1_row())
        .collect();
    for i in 0..rows[0].len() {
        let label = rows[0][i].0;
        print!("{label:<22}");
        for row in &rows {
            print!("{:>16}", row[i].1);
        }
        println!();
    }
}
