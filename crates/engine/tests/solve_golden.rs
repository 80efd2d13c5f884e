//! Golden pins for `FabricModel::solve`.
//!
//! For V100, A100 and H100, every flow set below pins the exact bits of
//! each flow's rate and latency (as FNV-1a digests of their `to_bits()`),
//! the exact bits of `total_gbps`, and the bottleneck list with its
//! utilisation bits. The values were captured from the allocating solver
//! before it moved to reused scratch buffers and a flat path array, so any
//! change in the order of a float sum, a `min`/`max` call or the tail
//! average fails here. The Fig. 12 rows and the tied-capacity calibrations
//! were captured before the max-min fill dropped constraints that cannot
//! bind, so they pin that pruning to the unpruned solver's bits.

use gnoc_engine::{AccessKind, Calibration, FlowSolution, FlowSpec, GpuDevice};
use gnoc_telemetry::hash::fnv1a64;
use gnoc_topo::{CachePolicy, GpcId, GpuSpec, PartitionId, SliceId, SmId};

fn bits_digest(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Everything a case pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    flows: usize,
    rates: u64,
    latencies: u64,
    total_bits: u64,
    bottlenecks: usize,
    /// FNV-1a of the bottleneck list, utilisations as raw bits.
    bottleneck_digest: u64,
}

fn pin(flows: &[FlowSpec], sol: &FlowSolution) -> Pin {
    assert_eq!(sol.rates_gbps.len(), flows.len());
    assert_eq!(sol.latencies_cycles.len(), flows.len());
    let listed: Vec<String> = sol
        .bottlenecks
        .iter()
        .map(|(kind, dir, util)| format!("{kind:?}/{dir:?}/{:016x}", util.to_bits()))
        .collect();
    Pin {
        flows: flows.len(),
        rates: bits_digest(&sol.rates_gbps),
        latencies: bits_digest(&sol.latencies_cycles),
        total_bits: sol.total_gbps.to_bits(),
        bottlenecks: listed.len(),
        bottleneck_digest: fnv1a64(listed.join(";").as_bytes()),
    }
}

fn flow(sm: SmId, slice: SliceId, kind: AccessKind) -> FlowSpec {
    FlowSpec { sm, slice, kind }
}

/// Every slice `sm` can stream from on `dev`.
fn reachable(dev: &GpuDevice, sm: SmId) -> Vec<SliceId> {
    let h = dev.hierarchy();
    match dev.spec().cache_policy {
        CachePolicy::GloballyShared => SliceId::range(h.num_slices()).collect(),
        CachePolicy::PartitionLocal => h.slices_in_partition(h.sm(sm).partition).to_vec(),
    }
}

fn aggregate(dev: &GpuDevice, kind: AccessKind) -> Vec<FlowSpec> {
    SmId::range(dev.hierarchy().num_sms())
        .flat_map(|sm| {
            reachable(dev, sm)
                .into_iter()
                .map(move |s| flow(sm, s, kind))
        })
        .collect()
}

/// The named flow sets of one device.
fn cases(dev: &GpuDevice) -> Vec<(&'static str, Vec<FlowSpec>)> {
    let h = dev.hierarchy();
    let sm0 = SmId::new(0);
    let p0 = h.sm(sm0).partition;
    let near = h.slices_in_partition(p0)[1];
    let gpc0 = h.sms_in_gpc(GpcId::new(0)).to_vec();
    let target = reachable(dev, gpc0[0])[5];
    let mut out = vec![
        ("single_near", vec![flow(sm0, near, AccessKind::ReadHit)]),
        (
            "gpc_to_slice",
            gpc0.iter()
                .map(|&sm| flow(sm, target, AccessKind::ReadHit))
                .collect(),
        ),
        ("aggregate_hit", aggregate(dev, AccessKind::ReadHit)),
        ("aggregate_miss", aggregate(dev, AccessKind::ReadMiss)),
        (
            "gpc_writes",
            gpc0.iter()
                .flat_map(|&sm| {
                    reachable(dev, sm)
                        .into_iter()
                        .map(move |s| flow(sm, s, AccessKind::Write))
                })
                .collect(),
        ),
        (
            "duplicates",
            vec![
                flow(sm0, near, AccessKind::ReadHit),
                flow(sm0, near, AccessKind::ReadHit),
                flow(gpc0[1], near, AccessKind::ReadHit),
                flow(sm0, near, AccessKind::ReadMiss),
                flow(sm0, near, AccessKind::ReadMiss),
            ],
        ),
    ];
    if h.num_partitions() > 1 {
        let p1 = PartitionId::new(1 - p0.index() as u32);
        let far = h.slices_in_partition(p1)[1];
        out.push(("single_far", vec![flow(sm0, far, AccessKind::ReadHit)]));
        // Two partition-local flows that share no resource: static
        // resources whose flow sets have equal size but differ, the first
        // set's tightest capacity (a write port) below the second's.
        let far_sm = h.sms_in_partition(p1)[0];
        out.push((
            "disjoint_pair",
            vec![
                flow(sm0, near, AccessKind::Write),
                flow(far_sm, far, AccessKind::ReadHit),
            ],
        ));
    }
    out
}

/// Solves the cases of `dev` whose names `keep` accepts.
fn compute(dev: &GpuDevice, label: &str, keep: impl Fn(&str) -> bool) -> Vec<(String, Pin)> {
    cases(dev)
        .into_iter()
        .filter(|(name, _)| keep(name))
        .map(|(name, flows)| {
            let sol = dev.solve_bandwidth(&flows);
            (format!("{label}/{name}"), pin(&flows, &sol))
        })
        .collect()
}

/// Runs every case and compares against `expected`, reporting every
/// mismatch at once.
fn check(got: Vec<(String, Pin)>, expected: &[(&str, Pin)]) {
    let mut report = String::new();
    for (name, p) in &got {
        match expected.iter().find(|(n, _)| n == name) {
            Some((_, e)) if e == p => {}
            _ => report.push_str(&format!("(\"{name}\", {p:?}),\n")),
        }
    }
    assert_eq!(got.len(), expected.len(), "case count\n{report}");
    assert!(report.is_empty(), "solver output drifted:\n{report}");
}

const fn p(
    flows: usize,
    rates: u64,
    latencies: u64,
    total_bits: u64,
    bottlenecks: usize,
    bottleneck_digest: u64,
) -> Pin {
    Pin {
        flows,
        rates,
        latencies,
        total_bits,
        bottlenecks,
        bottleneck_digest,
    }
}

/// A Fig. 12 row: one single-flow read solve per slice `sm` can reach,
/// folded into one pin (`total_bits` digests the per-solve totals).
fn fig12_row(dev: &GpuDevice, label: &str, sm: SmId) -> (String, Pin) {
    let (mut rates, mut latencies, mut totals, mut listed) = (vec![], vec![], vec![], vec![]);
    let slices = reachable(dev, sm);
    for &slice in &slices {
        let flows = [flow(sm, slice, AccessKind::ReadHit)];
        let sol = dev.solve_bandwidth(&flows);
        rates.extend(&sol.rates_gbps);
        latencies.extend(&sol.latencies_cycles);
        totals.push(sol.total_gbps);
        listed.extend(
            sol.bottlenecks
                .iter()
                .map(|(kind, dir, util)| format!("{kind:?}/{dir:?}/{:016x}", util.to_bits())),
        );
    }
    let pin = Pin {
        flows: slices.len(),
        rates: bits_digest(&rates),
        latencies: bits_digest(&latencies),
        total_bits: bits_digest(&totals),
        bottlenecks: listed.len(),
        bottleneck_digest: fnv1a64(listed.join(";").as_bytes()),
    };
    (format!("{label}/fig12_row_sm{}", sm.index()), pin)
}

/// The cases of `dev` cheap enough to repeat per calibration, plus a Fig. 12
/// row of SM 0.
fn small_cases(dev: &GpuDevice, label: &str) -> Vec<(String, Pin)> {
    let mut got = compute(dev, label, |name| !name.starts_with("aggregate_"));
    got.push(fig12_row(dev, label, SmId::new(0)));
    got
}

#[test]
fn v100_solutions_are_bit_identical() {
    check(compute(&GpuDevice::v100(0), "v100", |_| true), &V100);
}

#[test]
fn a100_solutions_are_bit_identical() {
    check(compute(&GpuDevice::a100(0), "a100", |_| true), &A100);
}

#[test]
fn h100_solutions_are_bit_identical() {
    check(compute(&GpuDevice::h100(0), "h100", |_| true), &H100);
}

#[test]
fn zero_queueing_ablation_is_bit_identical() {
    let mut got = Vec::new();
    for spec in [GpuSpec::v100(), GpuSpec::a100()] {
        let mut calib = Calibration::for_spec(&spec);
        calib.slice_queue_cycles = 0.0;
        let label = format!("{}-noq", spec.name.to_lowercase());
        let dev = GpuDevice::with_calibration(spec, calib, 0).unwrap();
        got.extend(compute(&dev, &label, |name| {
            name == "gpc_to_slice" || name == "aggregate_hit"
        }));
    }
    check(got, &ABLATION);
}

#[test]
fn fig12_rows_are_bit_identical() {
    let got = [
        (GpuDevice::v100(0), "v100"),
        (GpuDevice::a100(0), "a100"),
        (GpuDevice::h100(0), "h100"),
    ]
    .iter()
    .map(|(dev, label)| fig12_row(dev, label, SmId::new(0)))
    .collect();
    check(got, &FIG12);
}

/// Calibrations where an SM port and its TPC carry the same flows at equal
/// capacity (`tpc_read_speedup = 1`, `tpc_write_speedup = 1`), and where the
/// TPC's capacity exceeds the port's by less than one part in 10⁶, so
/// neither can stand in for the other in the max-min fill.
#[test]
fn tied_capacity_calibrations_are_bit_identical() {
    let mut got = Vec::new();
    for spec in [GpuSpec::v100(), GpuSpec::a100(), GpuSpec::h100()] {
        for (tag, speedup) in [("tie", 1.0), ("near", 1.0 + 1e-7)] {
            let mut calib = Calibration::for_spec(&spec);
            calib.tpc_read_speedup = speedup;
            calib.tpc_write_speedup = speedup;
            let label = format!("{}-{tag}", spec.name.to_lowercase());
            let dev = GpuDevice::with_calibration(spec.clone(), calib, 0).unwrap();
            got.extend(small_cases(&dev, &label));
        }
    }
    check(got, &TIES);
}

const V100: [(&str, Pin); 6] = [
    (
        "v100/single_near",
        p(
            1,
            12019988397894790657,
            482732555607960619,
            4630010039411251610,
            0,
            14695981039346656037,
        ),
    ),
    (
        "v100/gpc_to_slice",
        p(
            14,
            8510351829582659649,
            15847642073883301030,
            4635681760191971327,
            1,
            16473169892475194932,
        ),
    ),
    (
        "v100/aggregate_hit",
        p(
            2560,
            13772916726474207525,
            1851547912564766069,
            4656159064747671594,
            6,
            16466344601604989825,
        ),
    ),
    (
        "v100/aggregate_miss",
        p(
            2560,
            17114235457131642661,
            13653465287706437424,
            4650177721492570357,
            8,
            3901201985235014044,
        ),
    ),
    (
        "v100/gpc_writes",
        p(
            448,
            1054912031990229029,
            10531497649700128316,
            4637652085028945889,
            1,
            5403959289623795605,
        ),
    ),
    (
        "v100/duplicates",
        p(
            5,
            12499714138980294577,
            8267843696407497764,
            4634902042062556348,
            0,
            14695981039346656037,
        ),
    ),
];
const A100: [(&str, Pin); 8] = [
    (
        "a100/single_near",
        p(
            1,
            8846230486841400211,
            10594150537481723279,
            4630784095597205914,
            1,
            17485115051889276148,
        ),
    ),
    (
        "a100/gpc_to_slice",
        p(
            14,
            12985476188917020645,
            18014875328629910044,
            4635329916471083007,
            1,
            1422506143907891149,
        ),
    ),
    (
        "a100/aggregate_hit",
        p(
            8640,
            12614968571576857765,
            9516850304758905873,
            4659888179111379070,
            2,
            13132501040919664685,
        ),
    ),
    (
        "a100/aggregate_miss",
        p(
            8640,
            14988311074655639589,
            14832018883213167737,
            4653664712668899418,
            10,
            17960401774328004463,
        ),
    ),
    (
        "a100/gpc_writes",
        p(
            1120,
            5167971204116858917,
            16799216013328601058,
            4641592734702895104,
            1,
            15593027936814124032,
        ),
    ),
    (
        "a100/duplicates",
        p(
            5,
            14661116483855305714,
            3555203894689599011,
            4634531090601428066,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100/single_far",
        p(
            1,
            16519143527118259849,
            8544308835952637872,
            4627780381192370076,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100/disjoint_pair",
        p(
            2,
            12737622907187366205,
            16214069586060999053,
            4635132883987385549,
            2,
            15224932241027108199,
        ),
    ),
];
const H100: [(&str, Pin); 8] = [
    (
        "h100/single_near",
        p(
            1,
            9997493270591537987,
            6355926953992121723,
            4633922541587529729,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100/gpc_to_slice",
        p(
            18,
            15604646347719972549,
            16659137603355372199,
            4638777984935788546,
            1,
            10888329652240334600,
        ),
    ),
    (
        "h100/aggregate_hit",
        p(
            5280,
            10802598064342866853,
            3430229760235354973,
            4664662733145794460,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100/aggregate_miss",
        p(
            5280,
            13501310645122310757,
            16766864291192112141,
            4658778717171545338,
            8,
            5073001485217150856,
        ),
    ),
    (
        "h100/gpc_writes",
        p(
            720,
            15270071248885656325,
            17107254763827923183,
            4646448178051153806,
            1,
            5359204768317988636,
        ),
    ),
    (
        "h100/duplicates",
        p(
            5,
            15675917117386362790,
            12158972901101869517,
            4637282213714995503,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100/single_far",
        p(
            1,
            6455058878093416013,
            3984731921337293557,
            4630563045640578886,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100/disjoint_pair",
        p(
            2,
            11730815849163593135,
            18008270889462644671,
            4638074297494011904,
            1,
            609306262473941651,
        ),
    ),
];
const ABLATION: [(&str, Pin); 4] = [
    (
        "v100-noq/gpc_to_slice",
        p(
            14,
            8510351829582659649,
            12074721686484073423,
            4635681760191971327,
            1,
            16473169892475194932,
        ),
    ),
    (
        "v100-noq/aggregate_hit",
        p(
            2560,
            13772916726474207525,
            8361237668181612010,
            4656159064747671594,
            6,
            16466344601604989825,
        ),
    ),
    (
        "a100-noq/gpc_to_slice",
        p(
            14,
            12985476188917020645,
            6033012198404689799,
            4635329916471083007,
            1,
            1422506143907891149,
        ),
    ),
    (
        "a100-noq/aggregate_hit",
        p(
            8640,
            12614968571576857765,
            16813566641551573184,
            4659888179111379070,
            2,
            13132501040919664685,
        ),
    ),
];
const FIG12: [(&str, Pin); 3] = [
    (
        "v100/fig12_row_sm0",
        p(
            32,
            8017245062361247653,
            14128430410145387505,
            8017245062361247653,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100/fig12_row_sm0",
        p(
            80,
            9069926188583256116,
            7332918565780375343,
            9069926188583256116,
            34,
            8747055613159971454,
        ),
    ),
    (
        "h100/fig12_row_sm0",
        p(
            40,
            4557730712370003887,
            16549357770908132280,
            4557730712370003887,
            0,
            14695981039346656037,
        ),
    ),
];
const TIES: [(&str, Pin); 38] = [
    (
        "v100-tie/single_near",
        p(
            1,
            12019988397894790657,
            482732555607960619,
            4630010039411251610,
            0,
            14695981039346656037,
        ),
    ),
    (
        "v100-tie/gpc_to_slice",
        p(
            14,
            8510351829582659649,
            15847642073883301030,
            4635681760191971327,
            1,
            16473169892475194932,
        ),
    ),
    (
        "v100-tie/gpc_writes",
        p(
            448,
            1054912031990229029,
            10531497649700128316,
            4637652085028945889,
            1,
            5403959289623795605,
        ),
    ),
    (
        "v100-tie/duplicates",
        p(
            5,
            10358271800785942908,
            1883653777148906952,
            4634626229029306368,
            1,
            16566779118422520867,
        ),
    ),
    (
        "v100-tie/fig12_row_sm0",
        p(
            32,
            8017245062361247653,
            14128430410145387505,
            8017245062361247653,
            0,
            14695981039346656037,
        ),
    ),
    (
        "v100-near/single_near",
        p(
            1,
            12019988397894790657,
            482732555607960619,
            4630010039411251610,
            0,
            14695981039346656037,
        ),
    ),
    (
        "v100-near/gpc_to_slice",
        p(
            14,
            8510351829582659649,
            15847642073883301030,
            4635681760191971327,
            1,
            16473169892475194932,
        ),
    ),
    (
        "v100-near/gpc_writes",
        p(
            448,
            1054912031990229029,
            10531497649700128316,
            4637652085028945889,
            1,
            5403959289623795605,
        ),
    ),
    (
        "v100-near/duplicates",
        p(
            5,
            11729128368305774979,
            14603031444780525486,
            4634626229521887578,
            1,
            16566779118422520867,
        ),
    ),
    (
        "v100-near/fig12_row_sm0",
        p(
            32,
            8017245062361247653,
            14128430410145387505,
            8017245062361247653,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100-tie/single_near",
        p(
            1,
            8846230486841400211,
            10594150537481723279,
            4630784095597205914,
            2,
            12671667567269734731,
        ),
    ),
    (
        "a100-tie/gpc_to_slice",
        p(
            14,
            12985476188917020645,
            18014875328629910044,
            4635329916471083007,
            1,
            1422506143907891149,
        ),
    ),
    (
        "a100-tie/gpc_writes",
        p(
            1120,
            5167971204116858917,
            16799216013328601058,
            4641592734702895104,
            1,
            15593027936814124032,
        ),
    ),
    (
        "a100-tie/duplicates",
        p(
            5,
            8493073631527684215,
            5984764042147079208,
            4630784095597205914,
            1,
            16566779118422520867,
        ),
    ),
    (
        "a100-tie/single_far",
        p(
            1,
            16519143527118259849,
            8544308835952637872,
            4627780381192370076,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100-tie/fig12_row_sm0",
        p(
            80,
            9069926188583256116,
            7332918565780375343,
            9069926188583256116,
            68,
            9318901114544119540,
        ),
    ),
    (
        "a100-near/single_near",
        p(
            1,
            8846230486841400211,
            10594150537481723279,
            4630784095597205914,
            2,
            6002002422536689802,
        ),
    ),
    (
        "a100-near/gpc_to_slice",
        p(
            14,
            12985476188917020645,
            18014875328629910044,
            4635329916471083007,
            1,
            1422506143907891149,
        ),
    ),
    (
        "a100-near/gpc_writes",
        p(
            1120,
            5167971204116858917,
            16799216013328601058,
            4641592734702895104,
            1,
            15593027936814124032,
        ),
    ),
    (
        "a100-near/duplicates",
        p(
            5,
            14939231587673723629,
            9835328900069832804,
            4630784096155933743,
            1,
            16566779118422520867,
        ),
    ),
    (
        "a100-near/single_far",
        p(
            1,
            16519143527118259849,
            8544308835952637872,
            4627780381192370076,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100-near/fig12_row_sm0",
        p(
            80,
            9069926188583256116,
            7332918565780375343,
            9069926188583256116,
            68,
            13969262056039320086,
        ),
    ),
    (
        "h100-tie/single_near",
        p(
            1,
            9997493270591537987,
            6355926953992121723,
            4633922541587529729,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100-tie/gpc_to_slice",
        p(
            18,
            15604646347719972549,
            16659137603355372199,
            4638777984935788546,
            1,
            10888329652240334600,
        ),
    ),
    (
        "h100-tie/gpc_writes",
        p(
            720,
            15270071248885656325,
            17107254763827923183,
            4646448178051153806,
            1,
            5359204768317988636,
        ),
    ),
    (
        "h100-tie/duplicates",
        p(
            5,
            6875595275625816406,
            15791816135243023646,
            4634485491540951040,
            1,
            16566779118422520867,
        ),
    ),
    (
        "h100-tie/single_far",
        p(
            1,
            6455058878093416013,
            3984731921337293557,
            4630563045640578886,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100-tie/fig12_row_sm0",
        p(
            40,
            4557730712370003887,
            16549357770908132280,
            4557730712370003887,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100-near/single_near",
        p(
            1,
            9997493270591537987,
            6355926953992121723,
            4633922541587529729,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100-near/gpc_to_slice",
        p(
            18,
            15604646347719972549,
            16659137603355372199,
            4638777984935788546,
            1,
            10888329652240334600,
        ),
    ),
    (
        "h100-near/gpc_writes",
        p(
            720,
            15270071248885656325,
            17107254763827923183,
            4646448178051153806,
            1,
            5359204768317988636,
        ),
    ),
    (
        "h100-near/duplicates",
        p(
            5,
            6127494082590677229,
            9145897893964096058,
            4634485492019458501,
            1,
            16566779118422520867,
        ),
    ),
    (
        "h100-near/single_far",
        p(
            1,
            6455058878093416013,
            3984731921337293557,
            4630563045640578886,
            0,
            14695981039346656037,
        ),
    ),
    (
        "h100-near/fig12_row_sm0",
        p(
            40,
            4557730712370003887,
            16549357770908132280,
            4557730712370003887,
            0,
            14695981039346656037,
        ),
    ),
    (
        "a100-tie/disjoint_pair",
        p(
            2,
            12737622907187366205,
            16214069586060999053,
            4635132883987385549,
            4,
            12271314347153765540,
        ),
    ),
    (
        "a100-near/disjoint_pair",
        p(
            2,
            12737622907187366205,
            16214069586060999053,
            4635132883987385549,
            4,
            16449560756569226741,
        ),
    ),
    (
        "h100-tie/disjoint_pair",
        p(
            2,
            11730815849163593135,
            18008270889462644671,
            4638074297494011904,
            2,
            14652205980650070729,
        ),
    ),
    (
        "h100-near/disjoint_pair",
        p(
            2,
            11730815849163593135,
            18008270889462644671,
            4638074297494011904,
            2,
            7639909600417034092,
        ),
    ),
];
