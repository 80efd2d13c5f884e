//! Building a faulted fabric makes a bounded number of heap allocations.
//!
//! A die mesh keeps its queues, arbiters and output-busy cycles in flat
//! arrays sized once, so the allocation count of a build does not grow
//! with the number of routers. The recipe is the 4-device ring of 5×5 dies
//! with flaky and stalled die faults and a flaky and a dead fabric link
//! that the benchmark's fault soak builds eight times per op.

use gnoc_fabric::{FabricConfig, FabricSim};
use gnoc_faults::{FaultGenConfig, FaultPlan};
use gnoc_topo::FabricTopology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations, so the test harness's own threads do
/// not leak into the measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const DEVICES: u32 = 4;
const SIDE: u32 = 5;

fn soak_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultGenConfig {
        flaky_links: 3,
        flaky_drop_prob: 0.2,
        stalled_routers: 1,
        stall_duration: 300,
        onset: 50,
        devices: DEVICES,
        fabric_topology: FabricTopology::Ring,
        dead_fabric_links: 1,
        flaky_fabric_links: 1,
        fabric_flaky_drop_prob: 0.2,
        ..FaultGenConfig::benign(seed, SIDE, SIDE)
    })
}

/// Allocations made by one `FabricSim::with_faults` of `plan`.
fn build_allocations(plan: &FaultPlan) -> u64 {
    let cfg = FabricConfig::new(DEVICES, FabricTopology::Ring);
    let before = allocations();
    let sim = FabricSim::with_faults(cfg, plan).expect("the soak recipe builds");
    let made = allocations() - before;
    drop(sim);
    made
}

#[test]
fn faulted_fabric_build_allocations_are_bounded() {
    for seed in 0..8 {
        let plan = soak_plan(seed);
        // The first build may fill the process-wide route-table cache.
        build_allocations(&plan);
        let made = build_allocations(&plan);
        assert!(
            made <= 150,
            "seed {seed}: a 4-die fabric build made {made} allocations"
        );
    }
}
