//! Extension experiment: the slice-contention covert channel the paper's
//! Section V-A sketches, built on placement knowledge from Implication #1.

use gnoc_bench::{compare, header};
use gnoc_core::sidechannel::covert::{
    bits_of, bytes_of, channel_snr, transmit, CovertChannelConfig,
};
use gnoc_core::{GpuDevice, SliceId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Extension — L2-slice contention covert channel (A100)",
        "placement-aware co-location yields a clean channel; naive far \
         placement degrades SNR (Section V-A)",
    );
    let mut dev = GpuDevice::a100(0);
    let slice = SliceId::new(5);

    // Two transmitter SMs: enough for a clear dip when co-located, but not
    // enough to saturate the slice from the far partition.
    let near = CovertChannelConfig::colocated(&dev, slice, 2);
    let far = CovertChannelConfig::far(&dev, slice, 2);
    let snr_near = channel_snr(&mut dev, &near);
    let snr_far = channel_snr(&mut dev, &far);
    compare("SNR, placement-aware TX", "high", format!("{snr_near:.1}"));
    compare("SNR, naive far TX", "lower", format!("{snr_far:.1}"));

    let payload = bits_of(b"MICRO24");
    let tx = CovertChannelConfig::colocated(&dev, slice, 6);
    let r = transmit(&mut dev, &tx, &payload);
    println!(
        "\ntransmitted {:?} over {} bits: BER {:.3}, decoded {:?}",
        "MICRO24",
        payload.len(),
        r.ber,
        String::from_utf8_lossy(&bytes_of(&r.received)),
    );
    println!(
        "raw symbol rate {:.0} kb/s, effective capacity {:.0} kb/s",
        r.raw_bits_per_sec / 1e3,
        r.capacity_bits_per_sec() / 1e3
    );
}
