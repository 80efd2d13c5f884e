//! End-to-end daemon robustness through the real binary: a SIGKILL mid-job
//! must lose nothing (journal replay + checkpoint resume, byte-identical
//! result), a SIGTERM must drain gracefully, and a job whose input sizes an
//! impossible mesh fails as a job, live or recovered from the journal.

use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::trace::{to_hex, TraceEvent, TraceHeader, TraceTap};
use gnoc_serve::{Admission, Engine, JobSpec, ServeConfig};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gnoc-serve-e2e-{}-{name}", std::process::id()))
}

fn spawn_daemon(state: &Path, sock: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args([
            "serve",
            "--state",
            state.to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon")
}

fn wait_for_socket(sock: &Path) {
    for _ in 0..400 {
        if sock.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon socket {} never appeared", sock.display());
}

/// Polls `health` until the daemon answers (the socket file existing is
/// not enough — the listener may not be accepting yet).
fn wait_for_health(sock_arg: &str) {
    for _ in 0..400 {
        let (code, _) = submit(&["submit", "health", "--socket", sock_arg]);
        if code == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon at {sock_arg} never answered health");
}

fn submit(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(args)
        .output()
        .expect("spawn submit");
    (
        out.status.code().expect("submit exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

const CAMPAIGN: [&str; 7] = [
    "submit",
    "campaign",
    "v100",
    "--lines",
    "2",
    "--samples",
    "2",
];

#[test]
fn sigkill_mid_job_resumes_bit_identically_and_then_caches() {
    let dir = scratch("kill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");
    let sock = dir.join("d.sock");
    let sock_arg = sock.to_str().unwrap();

    // Daemon with a per-row delay so the kill reliably lands mid-campaign.
    let mut daemon = spawn_daemon(&state, &sock, &["--row-delay-ms", "25"]);
    wait_for_socket(&sock);

    // Fire the campaign from a child process we never wait to finish.
    let mut victim = Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(CAMPAIGN)
        .args(["--socket", sock_arg])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim submit");

    // Give the job time to start and checkpoint a few rows, then SIGKILL
    // the daemon mid-row. 80 rows x 25ms = 2s of runway.
    std::thread::sleep(Duration::from_millis(700));
    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();
    let _ = victim.kill();
    let _ = victim.wait();
    let ckpt_dir = state.join("ckpt");
    let had_checkpoint = std::fs::read_dir(&ckpt_dir)
        .map(|rd| rd.filter_map(Result::ok).count() > 0)
        .unwrap_or(false);
    assert!(
        had_checkpoint,
        "kill landed before any checkpoint was written"
    );

    // Restart without the row delay: the journal replays, the campaign
    // resumes from its checkpoint, and the same request (now attached to
    // the recovered job, or served from cache once it finishes) completes.
    // The SIGKILL left a stale socket file behind; removing it here lets
    // wait_for_socket observe daemon2's fresh bind rather than the corpse
    // (the daemon itself also reclaims stale sockets).
    let _ = std::fs::remove_file(&sock);
    let daemon2 = spawn_daemon(&state, &sock, &[]);
    wait_for_socket(&sock);
    wait_for_health(sock_arg);
    let resumed_payload = dir.join("resumed.json");
    let (code, _) = submit(
        &[
            &CAMPAIGN[..],
            &[
                "--socket",
                sock_arg,
                "--payload-out",
                resumed_payload.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(code, 0, "resumed job completed");

    // Resubmitting is now a pure cache hit with the same bytes.
    let cached_payload = dir.join("cached.json");
    let (code, stdout) = submit(
        &[
            &CAMPAIGN[..],
            &[
                "--socket",
                sock_arg,
                "--payload-out",
                cached_payload.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("\"cached\":true"),
        "expected a cache hit: {stdout}"
    );
    let (code, _) = submit(&["submit", "shutdown", "--socket", sock_arg]);
    assert_eq!(code, 0);
    let out = daemon2.wait_with_output().expect("daemon2 exit");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("recovered 1 unfinished job(s) from the journal"),
        "daemon2 stdout: {stdout}"
    );

    // Reference: the identical request served by a never-killed daemon.
    let ref_dir = scratch("kill-ref");
    let _ = std::fs::remove_dir_all(&ref_dir);
    std::fs::create_dir_all(&ref_dir).unwrap();
    let ref_sock = ref_dir.join("d.sock");
    let mut ref_daemon = spawn_daemon(&ref_dir.join("state"), &ref_sock, &[]);
    wait_for_socket(&ref_sock);
    let ref_payload = ref_dir.join("payload.json");
    let (code, _) = submit(
        &[
            &CAMPAIGN[..],
            &[
                "--socket",
                ref_sock.to_str().unwrap(),
                "--payload-out",
                ref_payload.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(code, 0);
    let (code, _) = submit(&["submit", "shutdown", "--socket", ref_sock.to_str().unwrap()]);
    assert_eq!(code, 0);
    let _ = ref_daemon.wait();

    let resumed = std::fs::read(&resumed_payload).unwrap();
    let cached = std::fs::read(&cached_payload).unwrap();
    let fresh = std::fs::read(&ref_payload).unwrap();
    assert_eq!(
        resumed, fresh,
        "resumed payload differs from uninterrupted run"
    );
    assert_eq!(
        cached, fresh,
        "cached payload differs from uninterrupted run"
    );
}

#[test]
fn sigterm_drains_gracefully_and_removes_the_socket() {
    let dir = scratch("term");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&dir.join("state"), &sock, &[]);
    wait_for_socket(&sock);

    // Do some work so the drain has something to have finished.
    let (code, _) = submit(&[
        "submit",
        "mesh",
        "--transfers",
        "20",
        "--socket",
        sock.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);

    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = daemon.wait_with_output().expect("daemon exit");
    assert_eq!(out.status.code(), Some(0), "SIGTERM drain exits 0");
    assert!(!sock.exists(), "socket file is removed on clean exit");
}

/// A replay job whose trace header claims a 70000×70000 die: before mesh
/// sizes were bounded, building that mesh aborted the daemon, and because
/// the job is journaled before it runs, every restart aborted again.
#[test]
fn oversized_replay_job_fails_without_killing_the_daemon() {
    let dir = scratch("huge");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut tap = TraceTap::in_memory(&TraceHeader::mesh(70_000, 70_000, 1, 1, 0));
    tap.record(&TraceEvent {
        cycle: 0,
        src_dev: 0,
        src: 0,
        dst_dev: 0,
        dst: 1,
        flits: 1,
        class: 0,
    });
    let trace_hex = to_hex(&tap.finish_bytes(0).unwrap());

    // Live: the job fails with a reason, and the daemon keeps answering.
    let live = dir.join("live");
    let sock = dir.join("live.sock");
    let sock_arg = sock.to_str().unwrap();
    let daemon = spawn_daemon(&live, &sock, &[]);
    wait_for_socket(&sock);
    wait_for_health(sock_arg);
    let json = format!("{{\"schema\":1,\"op\":\"replay\",\"trace\":\"{trace_hex}\"}}");
    let out = Command::new(env!("CARGO_BIN_EXE_gnoc"))
        .args(["submit", "--socket", sock_arg, "--json", &json])
        .output()
        .expect("spawn submit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a failed job exits 1: {stderr}");
    assert!(
        stderr.contains("job failed") && stderr.contains("mesh too large"),
        "expected a failed-job envelope: {stderr}"
    );
    let (code, _) = submit(&["submit", "health", "--socket", sock_arg]);
    assert_eq!(code, 0, "the daemon still answers after the failed job");
    let (code, _) = submit(&["submit", "shutdown", "--socket", sock_arg]);
    assert_eq!(code, 0);
    let out = daemon.wait_with_output().expect("daemon exit");
    assert_eq!(out.status.code(), Some(0));

    // Recovered: a journal that still owes the job (admitted, never run).
    let owed = dir.join("owed");
    {
        let engine = Engine::open_idle(ServeConfig::new(&owed), TelemetryHandle::disabled())
            .expect("open state dir");
        let spec = JobSpec::Replay {
            trace_hex,
            plan: None,
        };
        assert!(matches!(
            engine.handle().admit(1, &spec),
            Admission::Enqueued { .. }
        ));
    }
    let sock = dir.join("owed.sock");
    let sock_arg = sock.to_str().unwrap();
    let daemon = spawn_daemon(&owed, &sock, &[]);
    wait_for_socket(&sock);
    wait_for_health(sock_arg);
    let (code, _) = submit(&["submit", "shutdown", "--socket", sock_arg]);
    assert_eq!(code, 0);
    let out = daemon.wait_with_output().expect("daemon exit");
    assert_eq!(out.status.code(), Some(0), "the restart did not abort");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("recovered 1 unfinished job(s) from the journal"),
        "daemon stdout: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the `gnoc` binary, asserts it exits 0, and returns its stdout.
fn gnoc_ok(args: &[&str]) -> String {
    let (code, stdout) = submit(args);
    assert_eq!(code, 0, "gnoc {}", args.join(" "));
    stdout
}

/// The number right after `label` in `text`, e.g. `"42"` from `"x 42 y"`.
fn number_after<'a>(text: &'a str, label: &str) -> &'a str {
    let start = text
        .find(label)
        .unwrap_or_else(|| panic!("{label:?} in {text}"))
        + label.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    &rest[..end]
}

/// A serve soak job, run by `run::execute` as the daemon runs it, submits
/// the same transfers as the equivalent one-shot run: a `mesh` job matches
/// `gnoc trace record mesh`, and a `fabric` job matches `gnoc fabric`, on
/// the same seed and transfer count (and devices and topology). Delivered,
/// lost and mean latency must agree.
#[test]
fn serve_soak_jobs_match_the_one_shot_cli() {
    use gnoc_serve::run::execute;
    let dir = scratch("parity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ckpt.json");
    let job = |spec: JobSpec| -> serde::Value {
        let payload = execute(&spec, &ckpt, 0).result.expect("soak job runs");
        serde_json::from_str(&payload).expect("payload is JSON")
    };
    let num = |v: &serde::Value, key: &str| v.field(key).ok().and_then(serde::Value::as_f64);

    for (seed, transfers) in [(1u64, 200usize), (5, 800)] {
        let payload = job(JobSpec::Mesh {
            seed,
            transfers,
            plan: None,
        });
        let (trc, stats_path) = (dir.join("mesh.trc"), dir.join("mesh-stats.json"));
        gnoc_ok(&[
            "trace",
            "record",
            "mesh",
            "--seed",
            &seed.to_string(),
            "--transfers",
            &transfers.to_string(),
            "--out",
            trc.to_str().unwrap(),
            "--stats",
            stats_path.to_str().unwrap(),
        ]);
        let line: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
        let stats = line.field("stats").expect("stats object");
        let stat = |key| num(stats, key).expect("numeric stat");
        let delivered = stat("delivered");
        let lost = stat("lost_unroutable") + stat("lost_retries_exhausted") + stat("lost_watchdog");
        let mean = stat("latency_sum") / delivered;
        let what = format!("mesh seed {seed}");
        assert_eq!(num(&payload, "delivered"), Some(delivered), "{what}");
        assert_eq!(num(&payload, "lost"), Some(lost), "{what}");
        assert_eq!(
            format!("{:.6}", num(&payload, "mean_latency").unwrap()),
            format!("{mean:.6}"),
            "{what}"
        );
    }

    for (devices, topology, seed, transfers) in
        [(2u32, "ring", 1u64, 256usize), (4, "fully", 9, 400)]
    {
        let payload = job(JobSpec::Fabric {
            devices,
            topology: topology.to_owned(),
            seed,
            transfers,
        });
        let stdout = gnoc_ok(&[
            "fabric",
            "--devices",
            &devices.to_string(),
            "--topology",
            topology,
            "--seed",
            &seed.to_string(),
            "--transfers",
            &transfers.to_string(),
            "--cycles",
            "2000000",
        ]);
        // "transfers: N submitted (C cross-device), D delivered, L lost"
        let cli = |label| number_after(&stdout, label).parse::<f64>().ok();
        let what = format!("{devices}x{topology} seed {seed}");
        assert_eq!(num(&payload, "delivered"), cli("cross-device),"), "{what}");
        assert_eq!(num(&payload, "lost"), cli("delivered,"), "{what}");
        assert_eq!(
            format!("{:.1}", num(&payload, "mean_latency").unwrap()),
            number_after(&stdout, "latency:   mean"),
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
