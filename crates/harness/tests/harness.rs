//! Batch-harness integration tests: fault isolation (panic, fuel timeout),
//! corpus-scale runs across every packer profile, report structure, and the
//! hardware-gated scaling check.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_droidbench::samples::{Patch, TamperSpec};
use dexlego_harness::{
    all_packers, run_batch, work_list, CorpusSpec, HarnessConfig, JobSpec, JobStatus,
};

const PHASES: [&str; 7] = [
    "collect",
    "serialize",
    "tree_merge",
    "dexgen",
    "canonicalize",
    "verify",
    "validate",
];

/// An app whose `onCreate` triggers a tampering native with an
/// out-of-range patch — the native's slice write panics mid-job.
fn panic_bomb_job(name: &str) -> JobSpec {
    let entry = "Lbomb/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.superclass("Landroid/app/Activity;");
        c.native_method("boom", &["I"], "V");
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 2, |m| {
            let this = m.this_reg();
            m.asm.const4(0, 0);
            m.invoke(
                Opcode::InvokeVirtual,
                entry,
                "boom",
                &["I"],
                "V",
                &[this, 0],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let mut job = JobSpec::new(name, pb.build().expect("bomb assembles"), entry);
    job.tampers = vec![TamperSpec {
        native_class: entry.to_owned(),
        native_name: "boom".to_owned(),
        target: (
            entry.to_owned(),
            "onCreate".to_owned(),
            "(Landroid/os/Bundle;)V".to_owned(),
        ),
        // Far beyond onCreate's code length: the patch write panics.
        patches: vec![Patch {
            when_arg: 0,
            at: 100_000,
            units: vec![0, 0],
        }],
    }];
    job
}

/// An app whose `onCreate` never terminates; only the fuel budget stops it.
fn runaway_job(name: &str, fuel: u64) -> JobSpec {
    let entry = "Lspin/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.superclass("Landroid/app/Activity;");
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 2, |m| {
            m.asm.const4(0, 0);
            let top = m.asm.new_label();
            m.asm.bind(top);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.goto(top);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let mut job = JobSpec::new(name, pb.build().expect("spinner assembles"), entry);
    job.fuel = fuel;
    job
}

/// A well-behaved plain job.
fn good_job(name: &str) -> JobSpec {
    let app = dexlego_droidbench::appgen::generate(
        &dexlego_droidbench::appgen::AppSpec::plain_profile("good/app", 150),
    );
    let mut job = JobSpec::new(name, app.dex, &app.entry);
    job.check_conformance = true;
    job
}

#[test]
fn panicking_job_is_isolated() {
    let report = run_batch(
        vec![good_job("ok-1"), panic_bomb_job("bomb"), good_job("ok-2")],
        &HarnessConfig::with_workers(2),
    );
    assert_eq!(report.jobs.len(), 3);
    // Submission order is preserved even though completion order varies.
    assert_eq!(report.jobs[0].name, "ok-1");
    assert_eq!(report.jobs[1].name, "bomb");
    assert_eq!(report.jobs[2].name, "ok-2");
    assert_eq!(report.jobs[0].status, JobStatus::Ok);
    assert_eq!(report.jobs[2].status, JobStatus::Ok);
    match &report.jobs[1].status {
        JobStatus::Panicked(msg) => {
            assert!(msg.contains("out of"), "unexpected panic message: {msg}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(!report.ok());
    assert_eq!(report.failed().len(), 1);
}

#[test]
fn runaway_job_times_out_without_aborting_the_run() {
    let report = run_batch(
        vec![
            good_job("ok-1"),
            runaway_job("spinner", 10_000),
            good_job("ok-2"),
        ],
        &HarnessConfig::with_workers(2),
    );
    assert_eq!(report.jobs[1].status, JobStatus::Timeout);
    assert_eq!(report.jobs[0].status, JobStatus::Ok);
    assert_eq!(report.jobs[2].status, JobStatus::Ok);
    // The spinner really did burn (roughly) its budget before stopping.
    assert!(
        report.jobs[1].insns >= 9_000,
        "spinner interpreted only {} instructions",
        report.jobs[1].insns
    );
    assert!(report.jobs[1].insns <= 20_000);
}

#[test]
fn ample_fuel_lets_the_same_shape_of_job_succeed() {
    // The timeout is a property of the budget, not of the app-driving path:
    // a terminating app with the default budget goes through the same
    // driver and completes.
    let report = run_batch(vec![good_job("plain")], &HarnessConfig::with_workers(1));
    assert!(report.ok(), "{}", report.summary());
    assert!(report.jobs[0].insns > 0);
    assert!(report.jobs[0].counter("methods_collected") > 0);
}

#[test]
fn corpus_runs_clean_across_every_packer_profile() {
    let spec = CorpusSpec {
        apps: 2,
        base_insns: 120,
        packers: all_packers(),
        ..CorpusSpec::default()
    };
    let jobs = work_list(&spec);
    assert_eq!(jobs.len(), 14);
    let report = run_batch(jobs, &HarnessConfig::with_workers(3));
    assert!(report.ok(), "{}", report.summary());

    for job in &report.jobs {
        // Every job carries complete per-phase timings, in pipeline order.
        let recorded: Vec<&str> = job.phases_us.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(recorded, PHASES, "{}: phases {recorded:?}", job.name);
        assert!(
            job.counter("methods_collected") > 0,
            "{}: empty collection",
            job.name
        );
        assert!(job.counter("insns_collected") > 0, "{}", job.name);
        assert!(job.counter("dump_size") > 0, "{}", job.name);
    }
    // Packed jobs are labelled with their profile, plain ones are not.
    assert!(report.jobs.iter().any(|j| j.packer == Some("360")));
    assert!(report.jobs.iter().any(|j| j.packer.is_none()));

    // The aggregate JSON document carries every job with its timings.
    let json = report.to_json();
    assert!(json.contains("\"ok\": true"), "{json}");
    assert!(json.contains("\"corpus000@plain\""), "{json}");
    assert!(json.contains("\"corpus001@Advanced"), "{json}");
    assert_eq!(json.matches("\"phases_us\"").count(), 14);
    assert_eq!(json.matches("\"tree_merge\"").count(), 14);
}

#[test]
#[ignore = "hardware-gated scaling check: needs >=4 CPUs, run with --ignored"]
fn four_workers_are_at_least_twice_as_fast_as_one() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cpus < 4 {
        eprintln!("skipping scaling check: only {cpus} CPU(s) available");
        return;
    }
    let spec = CorpusSpec {
        apps: 8,
        base_insns: 2_000,
        ..CorpusSpec::default()
    };
    let serial = run_batch(work_list(&spec), &HarnessConfig::with_workers(1));
    let parallel = run_batch(work_list(&spec), &HarnessConfig::with_workers(4));
    assert!(serial.ok() && parallel.ok());
    assert!(
        parallel.wall_us * 2 <= serial.wall_us,
        "4 workers took {} us, 1 worker took {} us (speedup {:.2}x < 2x)",
        parallel.wall_us,
        serial.wall_us,
        serial.wall_us as f64 / parallel.wall_us as f64
    );
}
