//! Fig. 18: AES key-recovery correlation per key guess under (a) static and
//! (b) random thread-block scheduling — the first four key bytes, as in the
//! paper.

use gnoc_bench::header;
use gnoc_core::{run_aes_attack, AesAttackConfig, CtaScheduler, GpuDevice};

pub fn run() {
    header(
        "Fig. 18 — AES last-round key recovery (A100)",
        "(a) static scheduling: the correct byte's correlation peaks; \
         (b) random scheduling: the peak disappears",
    );
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    for (label, scheduler) in [
        ("(a) static scheduling", CtaScheduler::Static),
        (
            "(b) random thread-block scheduling",
            CtaScheduler::RandomSeed,
        ),
    ] {
        println!("\n{label}:");
        for position in 0..4usize {
            let mut dev = GpuDevice::a100(18);
            let r = run_aes_attack(
                &mut dev,
                &AesAttackConfig {
                    key,
                    samples: 2500,
                    position,
                    scheduler,
                },
                position as u64 + 100,
            );
            let mut order: Vec<usize> = (0..256).collect();
            order.sort_by(|&a, &b| r.correlations[b].partial_cmp(&r.correlations[a]).unwrap());
            let rank = order
                .iter()
                .position(|&g| g == r.true_byte as usize)
                .unwrap()
                + 1;
            println!(
                "  key byte {position}: true 0x{:02x} → corr {:+.3}, rank {rank}/256, best guess 0x{:02x} ({})",
                r.true_byte,
                r.correlations[r.true_byte as usize],
                r.best_guess,
                if r.succeeded() { "RECOVERED" } else { "hidden" },
            );
        }
    }
}
