//! The figure registry: one module per table, figure or extension
//! experiment, each with a `run` entry point that prints its section of
//! `FIGURES.txt` on stdout.

use gnoc_core::TelemetryHandle;

mod ablation_chain;
mod ablation_crossing;
mod ablation_ports;
mod ablation_queueing;
mod ablation_scheduler;
mod covert_channel;
mod fault_robustness;
mod fig01;
mod fig02;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig18;
mod fig19;
mod fig20;
mod fig21;
mod fig22;
mod fig23;
mod figures_svg;
mod latency_load;
mod locality_sched;
mod mp_recon;
mod noc_compare;
mod table1;
mod whatif_h100;

/// A figure's entry point. It prints the figure on stdout and records its
/// metrics into the handle.
pub type Figure = fn(&TelemetryHandle);

/// Every figure by name, in `FIGURES.txt` order.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1", table1::run),
    ("fig01", fig01::run),
    ("fig02", fig02::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("fig21", fig21::run),
    ("fig22", fig22::run),
    ("fig23", fig23::run),
    ("ablation_queueing", ablation_queueing::run),
    ("ablation_chain", ablation_chain::run),
    ("ablation_crossing", ablation_crossing::run),
    ("ablation_scheduler", ablation_scheduler::run),
    ("ablation_ports", ablation_ports::run),
    ("whatif_h100", whatif_h100::run),
    ("locality_sched", locality_sched::run),
    ("mp_recon", mp_recon::run),
    ("covert_channel", covert_channel::run),
    ("noc_compare", noc_compare::run),
    ("latency_load", latency_load::run),
    ("fault_robustness", fault_robustness::run),
    ("figures_svg", figures_svg::run),
];

#[cfg(test)]
mod tests {
    use super::FIGURES;

    #[test]
    fn registry_lists_the_sections_of_figures_txt_in_order() {
        let headers: Vec<&str> = include_str!("../../../FIGURES.txt")
            .lines()
            .filter_map(|line| line.strip_prefix("### "))
            .collect();
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, headers);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate figure name");
    }
}
