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

/// A figure's entry point. Each prints the figure on stdout.
#[derive(Debug, Clone, Copy)]
pub enum Figure {
    /// Prints only.
    Plain(fn()),
    /// Prints and records counters into the handle; the runner writes them
    /// to `out/<name>.metrics.json`, a `ci.sh` `cmp` gate.
    Metered(fn(&TelemetryHandle)),
}

use Figure::{Metered, Plain};

/// Every figure by name, in `FIGURES.txt` order.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1", Plain(table1::run)),
    ("fig01", Metered(fig01::run)),
    ("fig02", Plain(fig02::run)),
    ("fig03", Plain(fig03::run)),
    ("fig04", Plain(fig04::run)),
    ("fig05", Plain(fig05::run)),
    ("fig06", Plain(fig06::run)),
    ("fig07", Plain(fig07::run)),
    ("fig08", Plain(fig08::run)),
    ("fig09", Plain(fig09::run)),
    ("fig10", Plain(fig10::run)),
    ("fig11", Plain(fig11::run)),
    ("fig12", Plain(fig12::run)),
    ("fig13", Plain(fig13::run)),
    ("fig14", Plain(fig14::run)),
    ("fig15", Plain(fig15::run)),
    ("fig16", Plain(fig16::run)),
    ("fig17", Plain(fig17::run)),
    ("fig18", Plain(fig18::run)),
    ("fig19", Plain(fig19::run)),
    ("fig20", Plain(fig20::run)),
    ("fig21", Metered(fig21::run)),
    ("fig22", Plain(fig22::run)),
    ("fig23", Metered(fig23::run)),
    ("ablation_queueing", Plain(ablation_queueing::run)),
    ("ablation_chain", Plain(ablation_chain::run)),
    ("ablation_crossing", Plain(ablation_crossing::run)),
    ("ablation_scheduler", Plain(ablation_scheduler::run)),
    ("ablation_ports", Plain(ablation_ports::run)),
    ("whatif_h100", Plain(whatif_h100::run)),
    ("locality_sched", Plain(locality_sched::run)),
    ("mp_recon", Plain(mp_recon::run)),
    ("covert_channel", Plain(covert_channel::run)),
    ("noc_compare", Plain(noc_compare::run)),
    ("latency_load", Plain(latency_load::run)),
    ("fault_robustness", Metered(fault_robustness::run)),
    ("figures_svg", Plain(figures_svg::run)),
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
