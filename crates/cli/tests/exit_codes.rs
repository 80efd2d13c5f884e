//! Pins the documented exit-code scheme end to end through the real binary:
//! 0 = ok, 1 = check failed, 2 = invalid input, 3 = I/O error. Scripts (and
//! ci.sh) branch on these values, so a drift here is an interface break even
//! when the human-readable output looks fine.

use std::path::PathBuf;
use std::process::Command;

use gnoc_chaos::{ChaosConfig, OracleKind, Reproducer, REPRODUCER_VERSION};
use gnoc_core::faults::{Direction, LinkFault, LinkFaultKind};
use gnoc_core::trace::{TraceEvent, TraceHeader, TraceTap};
use gnoc_core::FaultPlan;

const EXIT_OK: i32 = 0;
const EXIT_CHECK_FAILED: i32 = 1;
const EXIT_INVALID_INPUT: i32 = 2;
const EXIT_IO: i32 = 3;

/// Runs the `gnoc` binary with `args` and returns its exit code.
fn gnoc(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(args)
        .output()
        .expect("spawn gnoc")
        .status
        .code()
        .expect("gnoc terminated by signal")
}

/// A per-test scratch path that won't collide across parallel test binaries.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gnoc-exit-{}-{name}", std::process::id()))
}

#[test]
fn faults_check_distinguishes_all_four_exit_codes() {
    // A plan that is valid on the default 6x6 mesh but references router 12,
    // which a 2x2 mesh does not have — so the same file exercises both the
    // pass and the check-failed paths.
    let mut plan = FaultPlan::none();
    plan.links.push(LinkFault {
        router: 12,
        dir: Direction::East,
        kind: LinkFaultKind::Dead,
        onset: 0,
    });
    let plan_path = scratch("plan.json");
    plan.save(&plan_path).unwrap();
    let plan_arg = plan_path.to_str().unwrap();

    assert_eq!(gnoc(&["faults", "check", plan_arg]), EXIT_OK);
    assert_eq!(
        gnoc(&["faults", "check", plan_arg, "--width", "2", "--height", "2"]),
        EXIT_CHECK_FAILED
    );

    let bad_path = scratch("malformed.json");
    std::fs::write(&bad_path, "this is not a fault plan").unwrap();
    assert_eq!(
        gnoc(&["faults", "check", bad_path.to_str().unwrap()]),
        EXIT_INVALID_INPUT
    );

    let missing = scratch("does-not-exist.json");
    let _ = std::fs::remove_file(&missing);
    assert_eq!(
        gnoc(&["faults", "check", missing.to_str().unwrap()]),
        EXIT_IO
    );

    let _ = std::fs::remove_file(&plan_path);
    let _ = std::fs::remove_file(&bad_path);
}

#[test]
fn chaos_replay_distinguishes_exit_codes() {
    // A reproducer whose recorded oracle does not fire on its (benign) plan:
    // replay reports "no longer reproduces" and exits 0. Genuine
    // still-reproducing failures only exist behind the bug-hooks feature, so
    // the 1-exit is pinned by `faults check` above instead.
    let repro = Reproducer {
        version: REPRODUCER_VERSION,
        oracle: OracleKind::Delivery,
        seed: 0,
        detail: "recorded detail".to_owned(),
        config: ChaosConfig::default(),
        plan: FaultPlan::none(),
        command: String::new(),
        trace: None,
        traffic_trace: None,
    };
    let repro_path = scratch("repro.json");
    repro.save(&repro_path).unwrap();
    assert_eq!(
        gnoc(&["chaos", "replay", "--repro", repro_path.to_str().unwrap()]),
        EXIT_OK
    );

    let bad_path = scratch("repro-malformed.json");
    std::fs::write(&bad_path, "{]").unwrap();
    assert_eq!(
        gnoc(&["chaos", "replay", "--repro", bad_path.to_str().unwrap()]),
        EXIT_INVALID_INPUT
    );

    let missing = scratch("repro-missing.json");
    let _ = std::fs::remove_file(&missing);
    assert_eq!(
        gnoc(&["chaos", "replay", "--repro", missing.to_str().unwrap()]),
        EXIT_IO
    );

    let _ = std::fs::remove_file(&repro_path);
    let _ = std::fs::remove_file(&bad_path);
}

#[test]
fn usage_errors_and_flag_contradictions_exit_invalid_input() {
    assert_eq!(gnoc(&["no-such-command"]), EXIT_INVALID_INPUT);
    // --self-heal is meaningless without a plan to heal around.
    assert_eq!(gnoc(&["mesh", "--self-heal"]), EXIT_INVALID_INPUT);
}

#[test]
fn trace_subcommands_pin_all_four_exit_codes() {
    let trc = scratch("trace.trc");
    let trc_arg = trc.to_str().unwrap();
    let plan_path = scratch("trace-plan.json");
    FaultPlan::none().save(&plan_path).unwrap();
    let plan_arg = plan_path.to_str().unwrap();

    // 0: a recording, its replay, validate, and info all succeed.
    assert_eq!(
        gnoc(&[
            "trace",
            "record",
            "mesh",
            "--seed",
            "4",
            "--transfers",
            "60",
            "--out",
            trc_arg,
            "--faults",
            plan_arg,
        ]),
        EXIT_OK
    );
    assert_eq!(
        gnoc(&["trace", "replay", trc_arg, "--faults", plan_arg]),
        EXIT_OK
    );
    assert_eq!(gnoc(&["trace", "validate", trc_arg]), EXIT_OK);
    assert_eq!(gnoc(&["trace", "info", trc_arg]), EXIT_OK);

    let bytes = std::fs::read(&trc).unwrap();

    // 0 with a warning: a truncated tail salvages its complete prefix.
    let cut = scratch("trace-cut.trc");
    std::fs::write(&cut, &bytes[..bytes.len() - 40]).unwrap();
    let cut_arg = cut.to_str().unwrap();
    assert_eq!(gnoc(&["trace", "validate", cut_arg]), EXIT_OK);
    assert_eq!(
        gnoc(&["trace", "replay", cut_arg, "--faults", plan_arg]),
        EXIT_OK
    );

    // 1: a flipped byte is corruption, not truncation.
    let mut damaged = bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    let bad = scratch("trace-bad.trc");
    std::fs::write(&bad, &damaged).unwrap();
    let bad_arg = bad.to_str().unwrap();
    assert_eq!(gnoc(&["trace", "validate", bad_arg]), EXIT_CHECK_FAILED);
    assert_eq!(
        gnoc(&["trace", "replay", bad_arg, "--faults", plan_arg]),
        EXIT_CHECK_FAILED
    );

    // 1: a structurally valid trace whose sealed digest does not match what
    // the replay recomputes is a divergent replay.
    let lying = scratch("trace-lying.trc");
    let header = TraceHeader::mesh(6, 6, 4, 2, 0);
    let mut tap = TraceTap::to_file(&lying, &header).unwrap();
    for (src, dst) in [(0, 7), (3, 11)] {
        tap.record(&TraceEvent {
            cycle: 0,
            src_dev: 0,
            src,
            dst_dev: 0,
            dst,
            flits: 1,
            class: 0,
        });
    }
    tap.finish_file(0xdead_beef).unwrap();
    assert_eq!(
        gnoc(&["trace", "replay", lying.to_str().unwrap()]),
        EXIT_CHECK_FAILED
    );

    // 2: replaying against the wrong fault plan is refused up front.
    assert_eq!(gnoc(&["trace", "replay", trc_arg]), EXIT_INVALID_INPUT);
    // 2: record without a destination is a usage error.
    assert_eq!(gnoc(&["trace", "record", "mesh"]), EXIT_INVALID_INPUT);
    // 2: a bumped schema version cannot be replayed, only re-recorded.
    let mut bumped = bytes.clone();
    let next = (gnoc_core::trace::TRACE_SCHEMA + 1).to_le_bytes();
    bumped[8..12].copy_from_slice(&next);
    let drifted = scratch("trace-drifted.trc");
    std::fs::write(&drifted, &bumped).unwrap();
    assert_eq!(
        gnoc(&["trace", "validate", drifted.to_str().unwrap()]),
        EXIT_INVALID_INPUT
    );

    // 3: a missing trace file is an I/O error.
    let missing = scratch("trace-missing.trc");
    let _ = std::fs::remove_file(&missing);
    assert_eq!(
        gnoc(&["trace", "replay", missing.to_str().unwrap()]),
        EXIT_IO
    );

    for p in [&trc, &cut, &bad, &lying, &drifted, &plan_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// A mesh past `MAX_NODES` (or whose size overflows) is invalid input,
/// rejected before anything is sized by it — from a flag or from a trace
/// header alike.
#[test]
fn oversized_meshes_exit_invalid_input() {
    for args in [
        &["fabric", "--devices", "2"][..],
        &["profile", "--devices", "2"],
        &["chaos", "run", "--seeds", "0..1"],
        &["health"],
    ] {
        for (w, h) in [("70000", "70000"), ("65", "64")] {
            let args = [args, &["--width", w, "--height", h]].concat();
            assert_eq!(gnoc(&args), EXIT_INVALID_INPUT, "gnoc {}", args.join(" "));
        }
    }

    // A structurally valid trace whose header claims a 70000×70000 die.
    for (name, header) in [
        ("mesh", TraceHeader::mesh(70_000, 70_000, 1, 1, 0)),
        (
            "fabric",
            TraceHeader::fabric(2, "ring", 70_000, 70_000, 1, 1, 0),
        ),
    ] {
        let mut tap = TraceTap::in_memory(&header);
        tap.record(&TraceEvent {
            cycle: 0,
            src_dev: 0,
            src: 0,
            dst_dev: 0,
            dst: 1,
            flits: 1,
            class: 0,
        });
        let path = scratch(&format!("huge-{name}.trc"));
        std::fs::write(&path, tap.finish_bytes(0).unwrap()).unwrap();
        let arg = path.to_str().unwrap();
        assert_eq!(gnoc(&["trace", "validate", arg]), EXIT_OK, "{name}");
        assert_eq!(
            gnoc(&["trace", "replay", arg]),
            EXIT_INVALID_INPUT,
            "{name}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn health_subcommand_runs_clean_without_faults() {
    assert_eq!(
        gnoc(&["health", "--cycles", "2000", "--device", "none"]),
        EXIT_OK
    );
}

#[test]
fn serve_and_submit_distinguish_exit_codes() {
    // Serve parse errors (no mode, both modes) are invalid input.
    assert_eq!(gnoc(&["serve", "--state", "s"]), EXIT_INVALID_INPUT);
    assert_eq!(gnoc(&["submit", "mesh"]), EXIT_INVALID_INPUT);

    // An unreachable state directory is an I/O error.
    assert_eq!(
        gnoc(&[
            "serve",
            "--state",
            "/proc/no-such-dir/state",
            "--socket",
            scratch("nope.sock").to_str().unwrap(),
        ]),
        EXIT_IO
    );

    // Submitting to a socket no daemon listens on is an I/O error.
    assert_eq!(
        gnoc(&[
            "submit",
            "health",
            "--socket",
            scratch("absent.sock").to_str().unwrap(),
        ]),
        EXIT_IO
    );

    // A batch file that does not exist is an I/O error (before any
    // connection is attempted).
    assert_eq!(
        gnoc(&[
            "batch",
            scratch("absent.jsonl").to_str().unwrap(),
            "--socket",
            scratch("absent.sock").to_str().unwrap(),
        ]),
        EXIT_IO
    );
}

#[test]
fn daemon_round_trip_pins_ok_rejected_and_invalid_codes() {
    let dir = scratch("serve-rt");
    let _ = std::fs::remove_dir_all(&dir);
    let sock = dir.join("d.sock");
    std::fs::create_dir_all(&dir).unwrap();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args([
            "serve",
            "--state",
            dir.join("state").to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
        ])
        .spawn()
        .expect("spawn daemon");
    // Wait for the socket to appear.
    let sock_arg = sock.to_str().unwrap();
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // A good job is exit 0; a malformed request is invalid input (the
    // daemon rejects it with an `invalid:` reason and stays up).
    assert_eq!(
        gnoc(&["submit", "mesh", "--transfers", "20", "--socket", sock_arg]),
        EXIT_OK
    );
    assert_eq!(
        gnoc(&["submit", "--socket", sock_arg, "--json", "{\"schema\":9}"]),
        EXIT_INVALID_INPUT
    );
    assert_eq!(
        gnoc(&[
            "submit",
            "--socket",
            sock_arg,
            "--json",
            "{\"schema\":1,\"op\":\"campaign\",\"device\":\"rtx5090\"}",
        ]),
        EXIT_INVALID_INPUT
    );
    assert_eq!(gnoc(&["submit", "health", "--socket", sock_arg]), EXIT_OK);
    assert_eq!(gnoc(&["submit", "shutdown", "--socket", sock_arg]), EXIT_OK);
    let status = daemon.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(EXIT_OK), "drained daemon exits 0");
}
