//! The pipeline surfaces [`validate_reveal`] findings in
//! [`RevealOutcome::validation`] instead of requiring a separate call:
//! a clean reveal reports no findings, while a deliberately truncated
//! collection (dropped class record, emptied method trees) reassembles into
//! a DEX that is *missing* collected code — and the pipeline says so.
//!
//! [`validate_reveal`]: dexlego_core::pipeline::validate_reveal
//! [`RevealOutcome::validation`]: dexlego_core::pipeline::RevealOutcome

use dexlego_core::pipeline::{reassemble_collection, reveal};
use dexlego_core::CollectionFiles;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_runtime::Runtime;

const MAIN: &str = "Lval/Main;";
const HELPER: &str = "Lval/Helper;";

fn build_app() -> dexlego_dex::DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class(HELPER, |c| {
        c.static_method("triple", &["I"], "I", 2, |m| {
            let n = m.param_reg(0);
            m.asm.binop_lit8(Opcode::MulIntLit8, 0, n, 3);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.class(MAIN, |c| {
        c.static_method("run", &[], "I", 2, |m| {
            m.asm.const4(0, 5);
            m.invoke(Opcode::InvokeStatic, HELPER, "triple", &["I"], "I", &[0]);
            let mut mr = dexlego_dalvik::Insn::of(Opcode::MoveResult);
            mr.a = 1;
            m.asm.push(mr);
            m.asm.ret(Opcode::Return, 1);
        });
    });
    pb.build().expect("assembles")
}

/// Reveals the small two-class app and returns its collection files.
fn collect() -> CollectionFiles {
    let mut rt = Runtime::new();
    let dex = build_app();
    let outcome = reveal(&mut rt, |rt, obs| {
        if rt.load_dex_observed(&dex, "app", obs).is_err() {
            return;
        }
        let _ = rt.call_static(obs, MAIN, "run", "()I", &[]);
    })
    .expect("reveal succeeds");
    assert!(
        outcome.validation.is_empty(),
        "clean reveal must validate: {:?}",
        outcome.validation
    );
    outcome.files
}

#[test]
fn clean_collection_reports_no_findings_and_phase_timings() {
    let mut rt = Runtime::new();
    let dex = build_app();
    let outcome = reveal(&mut rt, |rt, obs| {
        if rt.load_dex_observed(&dex, "app", obs).is_err() {
            return;
        }
        let _ = rt.call_static(obs, MAIN, "run", "()I", &[]);
    })
    .expect("reveal succeeds");
    assert!(outcome.validation.is_empty());
    // Every pipeline phase shows up in the metrics, in execution order.
    let names: Vec<&str> = outcome.metrics.phases().iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names,
        [
            "collect",
            "serialize",
            "tree_merge",
            "dexgen",
            "canonicalize",
            "verify",
            "validate"
        ]
    );
    assert!(outcome.metrics.counter("methods_collected").unwrap() >= 2);
    assert!(outcome.metrics.counter("insns_collected").unwrap() > 0);
    assert_eq!(
        outcome.metrics.counter("dump_size"),
        Some(outcome.dump_size as u64)
    );
}

#[test]
fn truncated_class_file_is_flagged_by_the_pipeline() {
    let mut files = collect();
    // Truncate the class-data file: drop the helper class record. Its
    // collected method can no longer be emitted, so the reassembled DEX is
    // missing code that was observed executing.
    let before = files.classes.len();
    files.classes.retain(|c| c.descriptor != HELPER);
    assert_eq!(
        files.classes.len(),
        before - 1,
        "helper class was collected"
    );
    let outcome = reassemble_collection(files).expect("reassembly still succeeds");
    assert!(
        outcome
            .validation
            .iter()
            .any(|p| p.contains(HELPER) && p.contains("class missing from output")),
        "truncated class must be reported: {:?}",
        outcome.validation
    );
}

#[test]
fn truncated_method_trees_are_flagged_by_the_pipeline() {
    let mut files = collect();
    // Truncate the bytecode file: empty one collected method's trees. The
    // reassembler skips bodiless records, so the method vanishes from the
    // output while remaining in the collection.
    let record = files
        .methods
        .iter_mut()
        .find(|m| m.key.class == HELPER)
        .expect("helper method collected");
    record.trees.clear();
    let outcome = reassemble_collection(files).expect("reassembly still succeeds");
    assert!(
        outcome
            .validation
            .iter()
            .any(|p| p.contains("triple") && p.contains("method missing from output")),
        "truncated method must be reported: {:?}",
        outcome.validation
    );
}
