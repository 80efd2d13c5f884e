//! `gnoc trace replay` and the daemon's `replay` job share one replay path
//! (`gnoc_core::trace_digest::replay`). These tests drive both on the same
//! trace files and check that they report the same event count, stats
//! digest and completeness for every kind of trace: a faulted mesh, a
//! 4-device ring fabric, a campaign, a truncated mesh trace and a
//! recording that sealed no digest.

use std::path::PathBuf;
use std::process::Command;

use gnoc_core::soak::MeshSoak;
use gnoc_core::trace::{to_hex, TraceHeader, TraceTap};
use gnoc_core::{ArbiterKind, FaultPlan};
use gnoc_serve::protocol::JobSpec;
use gnoc_serve::run::execute;

/// A per-test scratch path that won't collide across parallel test binaries.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gnoc-agree-{}-{name}", std::process::id()))
}

/// Runs the `gnoc` binary; returns its exit code and stdout.
fn gnoc(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(args)
        .output()
        .expect("spawn gnoc");
    let code = out.status.code().expect("gnoc terminated by signal");
    (
        code,
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

/// What a replay reported: events, digest, and whether the trace was whole.
#[derive(Debug, PartialEq, Eq)]
struct Report {
    events: u64,
    digest: String,
    complete: bool,
}

/// The text between `start` and the next `end` in `s`.
fn between<'a>(s: &'a str, start: &str, end: &str) -> &'a str {
    let from = s.find(start).unwrap_or_else(|| panic!("{start:?} in {s}")) + start.len();
    let len = s[from..]
        .find(end)
        .unwrap_or_else(|| panic!("{end:?} in {s}"));
    &s[from..from + len]
}

/// `gnoc trace replay`'s report on `trace`, which must exit 0.
fn cli_report(trace: &str, plan: Option<&str>) -> (Report, String) {
    let mut args = vec!["trace", "replay", trace];
    if let Some(p) = plan {
        args.extend(["--faults", p]);
    }
    let (code, stdout) = gnoc(&args);
    assert_eq!(code, 0, "gnoc {}: {stdout}", args.join(" "));
    let report = Report {
        events: between(&stdout, ": ", " event(s)").parse().unwrap(),
        digest: between(&stdout, "stats digest ", " ").to_owned(),
        complete: !stdout.contains(" prefix: "),
    };
    (report, stdout)
}

/// The daemon's `replay` job report on `trace`, which must succeed.
fn daemon_report(trace: &PathBuf, plan: Option<&str>) -> (Report, String) {
    let spec = JobSpec::Replay {
        trace_hex: to_hex(&std::fs::read(trace).unwrap()),
        plan: plan.map(|p| FaultPlan::load(p).unwrap()),
    };
    let payload = execute(&spec, &scratch("unused-ckpt.json"), 0)
        .result
        .expect("replay job succeeds");
    let report = Report {
        events: between(&payload, "\"events\":", ",").parse().unwrap(),
        digest: between(&payload, "\"digest\":\"", "\"").to_owned(),
        complete: between(&payload, "\"complete\":", ",") == "true",
    };
    (report, payload)
}

#[test]
fn cli_and_daemon_agree_on_every_trace() {
    let plan = scratch("plan.json");
    let plan_arg = plan.to_str().unwrap();
    let (code, _) = gnoc(&[
        "faults",
        "gen",
        "--seed",
        "1",
        "--dead-frac",
        "0.02",
        "--out",
        plan_arg,
    ]);
    assert_eq!(code, 0);

    let mesh = scratch("mesh.trc");
    let fabric = scratch("fabric.trc");
    let campaign = scratch("campaign.trc");
    let recordings: [(&PathBuf, &[&str], Option<&str>); 3] = [
        (
            &mesh,
            &[
                "mesh",
                "--seed",
                "5",
                "--transfers",
                "300",
                "--faults",
                plan_arg,
            ],
            Some(plan_arg),
        ),
        (
            &fabric,
            &[
                "fabric",
                "--devices",
                "4",
                "--topology",
                "ring",
                "--seed",
                "9",
                "--transfers",
                "200",
            ],
            None,
        ),
        (
            &campaign,
            &[
                "campaign",
                "v100",
                "--seed",
                "2",
                "--lines",
                "1",
                "--samples",
                "1",
            ],
            None,
        ),
    ];
    for (path, target, _) in &recordings {
        let args = [
            &["trace", "record"][..],
            target,
            &["--out", path.to_str().unwrap()],
        ]
        .concat();
        assert_eq!(gnoc(&args).0, 0, "gnoc {}", args.join(" "));
    }

    let cut = scratch("mesh-cut.trc");
    let bytes = std::fs::read(&mesh).unwrap();
    std::fs::write(&cut, &bytes[..bytes.len() - 200]).unwrap();

    let cases = recordings
        .iter()
        .map(|(path, _, plan)| (*path, *plan))
        .chain([(&cut, Some(plan_arg))]);
    for (path, plan) in cases {
        let (cli, line) = cli_report(path.to_str().unwrap(), plan);
        let (daemon, payload) = daemon_report(path, plan);
        assert_eq!(cli, daemon, "{}:\n{line}{payload}", path.display());
        let whole = path != &cut;
        assert_eq!(cli.complete, whole, "{line}");
        if whole {
            assert!(line.contains("matches the recording"), "{line}");
        }
    }
    for p in [&plan, &mesh, &fabric, &campaign, &cut] {
        let _ = std::fs::remove_file(p);
    }
}

/// A footer digest of 0 means "unknown" (`TraceFooter::stats_fnv`): both
/// paths call it unsealed, and neither claims a match or a divergence.
#[test]
fn zero_footer_digest_is_unsealed_on_both_paths() {
    let soak = MeshSoak::paper(ArbiterKind::RoundRobin, 3, 50, Default::default());
    let header = TraceHeader::mesh(6, 6, soak.seed, soak.transfers as u64, 0);
    let mut rm = soak.build(None).unwrap();
    rm.attach_trace_tap(TraceTap::in_memory(&header));
    assert!(soak.run(&mut rm));
    let tap = rm.take_trace_tap().unwrap();
    let path = scratch("unsealed.trc");
    std::fs::write(&path, tap.finish_bytes(0).unwrap()).unwrap();

    let (cli, line) = cli_report(path.to_str().unwrap(), None);
    assert!(line.contains("(recording sealed no digest)"), "{line}");
    let (daemon, payload) = daemon_report(&path, None);
    assert!(
        payload.contains("(recording sealed no digest)"),
        "{payload}"
    );
    assert!(!payload.contains("matches the recording"), "{payload}");
    assert_eq!(cli, daemon);
    assert_eq!(
        cli,
        Report {
            events: 50,
            digest: cli.digest.clone(),
            complete: true
        }
    );
    let _ = std::fs::remove_file(&path);
}
