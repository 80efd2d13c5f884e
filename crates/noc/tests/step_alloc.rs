//! A warm, fault-free, recorder-free `Mesh::step` makes no heap allocation:
//! its working buffers live in the mesh, and queues and the ejection buffer
//! keep their capacity from cycle to cycle. Warm `Crossbar` and
//! `HierCrossbar` steps allocate nothing either. Building a mesh makes a
//! fixed number of allocations, whatever its size.

use gnoc_noc::{
    ArbiterKind, Crossbar, CrossbarConfig, HierConfig, HierCrossbar, Mesh, MeshConfig, NodeId,
    PacketClass,
};
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

#[test]
fn warm_step_allocates_nothing() {
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let mut m = Mesh::new(MeshConfig::paper_6x6(arbiter).with_vcs(2));
        let nodes = m.config().num_nodes() as u64;
        let mut state = 1u64;
        let mut step_allocs = 0;
        for cycle in 0..3_000u64 {
            // Uniform random traffic in both classes, so every queue is
            // exercised during warm-up.
            for src in 0..nodes {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let dst = (state >> 33) % nodes;
                let class = if state >> 63 == 0 {
                    PacketClass::Request
                } else {
                    PacketClass::Reply
                };
                let flits = 1 + (state >> 40) as u32 % 4;
                let _ = m.try_inject(
                    NodeId::new(src as u32),
                    NodeId::new(dst as u32),
                    flits,
                    class,
                );
            }
            let before = allocations();
            m.step();
            if cycle >= 2_000 {
                step_allocs += allocations() - before;
            }
            drop(m.drain_ejected());
        }
        assert!(m.stats().delivered_total > 10_000, "the mesh must be busy");
        assert_eq!(step_allocs, 0, "{arbiter:?}: warm steps allocated");
    }
}

#[test]
fn warm_crossbar_steps_allocate_nothing() {
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let hier_cfg = HierConfig {
            arbiter,
            ..HierConfig::gpu_like()
        };
        let terminals = hier_cfg.num_terminals();
        let mut xbar = Crossbar::new(CrossbarConfig {
            inputs: terminals,
            outputs: hier_cfg.outputs,
            buffer_packets: hier_cfg.buffer_packets,
            arbiter,
        });
        let mut hier = HierCrossbar::new(hier_cfg);
        let mut state = 1u64;
        let (mut xbar_allocs, mut hier_allocs) = (0, 0);
        for cycle in 0..3_000u64 {
            // Every terminal offers a packet of 1-4 flits to a random output.
            for src in 0..terminals {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let src = NodeId::new(src as u32);
                let dst = NodeId::new(((state >> 33) % hier_cfg.outputs as u64) as u32);
                let flits = 1 + (state >> 40) as u32 % 4;
                let _ = xbar.try_inject(src, dst, flits, PacketClass::Request);
                let _ = hier.try_inject(src, dst, flits, PacketClass::Request);
            }
            let before = allocations();
            xbar.step();
            let between = allocations();
            hier.step();
            if cycle >= 2_000 {
                xbar_allocs += between - before;
                hier_allocs += allocations() - between;
            }
            drop(xbar.drain_ejected());
            drop(hier.drain_ejected());
        }
        assert!(
            xbar.stats().delivered_total > 1_000,
            "the crossbar must be busy"
        );
        assert!(
            hier.stats().delivered_total > 1_000,
            "the hierarchy must be busy"
        );
        assert_eq!(xbar_allocs, 0, "{arbiter:?}: warm crossbar steps allocated");
        assert_eq!(
            hier_allocs, 0,
            "{arbiter:?}: warm hierarchical steps allocated"
        );
    }
}

/// Allocations made by one `Mesh::try_new(cfg)`.
fn build_allocations(cfg: MeshConfig) -> u64 {
    let before = allocations();
    let m = Mesh::try_new(cfg).expect("valid config");
    let made = allocations() - before;
    drop(m);
    made
}

#[test]
fn mesh_build_allocations_do_not_scale_with_size() {
    let sized = |side: usize, vcs: usize| MeshConfig {
        width: side,
        height: side,
        ..MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(vcs)
    };
    // Queues, arbiters and output-busy cycles are flat arrays sized once,
    // so a larger mesh or more VCs make the same number of allocations.
    let base = build_allocations(sized(3, 1));
    for (side, vcs) in [(8, 1), (3, 2), (8, 2)] {
        assert_eq!(
            build_allocations(sized(side, vcs)),
            base,
            "{side}x{side} mesh with {vcs} VCs"
        );
    }
}
