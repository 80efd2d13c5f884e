//! A warm, fault-free, recorder-free `Mesh::step` makes no heap allocation,
//! and neither does draining its ejections: its working buffers live in the
//! mesh, and the packet slab and the ejection buffer keep their capacity
//! from cycle to cycle. A cold mesh allocates only to grow those buffers,
//! never once per queue. Warm `ReliableMesh`, `Crossbar` and `HierCrossbar`
//! steps allocate nothing either. Building a mesh makes a fixed number of
//! allocations, whatever its size.

use gnoc_noc::{
    ArbiterKind, Crossbar, CrossbarConfig, HierConfig, HierCrossbar, Mesh, MeshConfig, NodeId,
    PacketClass, ReliableMesh, RetryConfig, NUM_PORTS,
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

/// One cycle's offered traffic: every node draws a random destination,
/// class and length (1-4 flits) from the LCG `state`, so every queue of
/// the mesh is exercised. Returns the allocations the injections made.
fn offer_uniform(m: &mut Mesh, state: &mut u64) -> u64 {
    let nodes = m.config().num_nodes() as u64;
    let before = allocations();
    for src in 0..nodes {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let dst = (*state >> 33) % nodes;
        let class = if *state >> 63 == 0 {
            PacketClass::Request
        } else {
            PacketClass::Reply
        };
        let flits = 1 + (*state >> 40) as u32 % 4;
        let _ = m.try_inject(
            NodeId::new(src as u32),
            NodeId::new(dst as u32),
            flits,
            class,
        );
    }
    allocations() - before
}

/// The counted cycle is the whole of a caller's: injections, the step and
/// a drain that reads every ejected packet.
#[test]
fn warm_step_allocates_nothing() {
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let mut m = Mesh::new(MeshConfig::paper_6x6(arbiter).with_vcs(2));
        let mut state = 1u64;
        let mut step_allocs = 0;
        let mut drained_flits = 0u64;
        for cycle in 0..3_000u64 {
            let inject_allocs = offer_uniform(&mut m, &mut state);
            let before = allocations();
            m.step();
            for p in m.drain_ejected() {
                drained_flits += u64::from(p.flits);
            }
            if cycle >= 2_000 {
                step_allocs += inject_allocs + allocations() - before;
            }
        }
        assert!(m.stats().delivered_total > 10_000, "the mesh must be busy");
        assert_eq!(
            drained_flits,
            m.stats().link_flits.iter().step_by(NUM_PORTS).sum::<u64>(),
            "the drain must yield every ejected packet"
        );
        assert_eq!(step_allocs, 0, "{arbiter:?}: warm steps allocated");
    }
}

/// A freshly built mesh allocates, over its first 3,000 busy cycles of
/// injections and steps, only to grow three buffers by doubling: the
/// packet slab (up to the most packets ever buffered), the move list and
/// the ejection buffer. Input queues with a heap buffer each made one
/// allocation per queue they touched, 322 allocations in all here.
#[test]
fn cold_steps_allocate_only_to_grow_buffers() {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(2);
    let mut m = Mesh::new(cfg);
    let mut state = 1u64;
    let mut allocs = 0;
    for _ in 0..3_000u64 {
        allocs += offer_uniform(&mut m, &mut state);
        let before = allocations();
        m.step();
        allocs += allocations() - before;
        drop(m.drain_ejected());
    }
    assert!(m.stats().delivered_total > 10_000, "the mesh must be busy");
    // Each buffer doubles from 4 (or 8) entries; the slab is bounded by
    // every slot full, the move list and the ejection buffer by one entry
    // per link.
    let doublings = |max: usize| usize::BITS - max.leading_zeros();
    let slots = cfg.num_nodes() * 5 * cfg.vcs;
    let links = cfg.num_nodes() * 5;
    let bound = doublings(slots * cfg.buffer_packets) + 2 * doublings(links);
    assert!(
        allocs <= u64::from(bound),
        "{allocs} allocations in 3,000 cold cycles, bound {bound}"
    );
}

/// A warm, fault-free, recorder-free `ReliableMesh::step` allocates
/// nothing: it drains the mesh's ejections through a buffer it keeps, and
/// its pending queue, packet map and resolution list keep their capacity.
/// Submitting (outside the step) is free to grow the transfer list.
#[test]
fn warm_reliable_step_allocates_nothing() {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(2);
    let mut r = ReliableMesh::new(Mesh::new(cfg), RetryConfig::default());
    let nodes = cfg.num_nodes() as u64;
    let mut state = 3u64;
    let mut step_allocs = 0;
    for cycle in 0..3_000u64 {
        // About four transfers a cycle: busy, but far below saturation, so
        // no ACK timeout fires and nothing is retried.
        for _ in 0..4 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (src, dst) = ((state >> 33) % nodes, (state >> 45) % nodes);
            let class = if state >> 63 == 0 {
                PacketClass::Request
            } else {
                PacketClass::Reply
            };
            r.submit(NodeId::new(src as u32), NodeId::new(dst as u32), 1, class);
        }
        let before = allocations();
        r.step();
        if cycle >= 2_000 {
            step_allocs += allocations() - before;
        }
        r.drain_resolved().for_each(drop);
    }
    let s = r.stats();
    assert!(s.delivered > 10_000, "the mesh must be busy");
    assert_eq!(s.retries, 0, "the load must stay below the ACK timeout");
    assert_eq!(step_allocs, 0, "warm reliable steps allocated");
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
