//! The device's lazily grown `M[s]` tables must answer exactly what a fresh
//! upward scan of the address map answers, for every requester partition,
//! slice and table length — including after the map is replaced by a fault
//! plan, a runtime quarantine or a release.

use gnoc_engine::GpuDevice;
use gnoc_faults::FaultPlan;
use gnoc_topo::{GpuSpec, PartitionId, SliceId, SmId};

/// Table lengths, asked for out of order so that the table both grows and
/// answers prefixes of what it already holds.
const LENGTHS: [usize; 4] = [8, 1, 64, 12];

fn assert_tables_match_scan(dev: &mut GpuDevice, what: &str) {
    let h = dev.hierarchy().clone();
    for p in 0..h.num_partitions() {
        let p = PartitionId::new(p as u32);
        let sm = h.sms_in_partition(p)[0];
        for n in LENGTHS {
            for s in SliceId::range(h.num_slices()) {
                let want = dev.address_map().addresses_for_slice(s, p, n, 0);
                let got = dev.addresses_for_slice(sm, s, n);
                assert_eq!(got, want, "{what}: partition {p}, slice {s}, n {n}");
            }
        }
    }
}

fn presets() -> Vec<GpuDevice> {
    vec![GpuDevice::v100(0), GpuDevice::a100(0), GpuDevice::h100(0)]
}

#[test]
fn preset_tables_match_the_address_scan() {
    for mut dev in presets() {
        let name = dev.spec().name.clone();
        assert_tables_match_scan(&mut dev, &name);
    }
}

#[test]
fn faulted_device_tables_skip_disabled_slices() {
    let mut plan = FaultPlan::none();
    plan.disabled_slices = vec![4, 40, 41];
    let mut dev = GpuDevice::with_faults(GpuSpec::a100(), &plan, 0).unwrap();
    assert_tables_match_scan(&mut dev, "a100 with 3 slices off");
    assert!(dev
        .addresses_for_slice(SmId::new(0), SliceId::new(40), 8)
        .is_empty());
}

#[test]
fn quarantine_and_release_rebuild_the_tables() {
    for mut dev in presets() {
        let name = dev.spec().name.clone();
        // Fill the tables for the original map first, so a stale table
        // would be visible below.
        assert_tables_match_scan(&mut dev, &name);
        let slice = SliceId::new(3);
        dev.quarantine_slice(slice).unwrap();
        assert!(dev.addresses_for_slice(SmId::new(0), slice, 4).is_empty());
        assert_tables_match_scan(&mut dev, &format!("{name} after quarantine"));
        dev.release_slice(slice).unwrap();
        assert_tables_match_scan(&mut dev, &format!("{name} after release"));
    }
}
