//! The end-to-end DexLego pipeline of Figure 1: execute the target
//! application under JIT collection (optionally with force execution), then
//! reassemble the collected files into a new DEX offline.

use dexlego_dalvik::canon::canonicalize;
use dexlego_dex::DexFile;
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::Runtime;

use crate::collect::JitCollector;
use crate::files::CollectionFiles;
use crate::force::{iterative_force, ForceStats};
use crate::metrics::PipelineMetrics;
use crate::reassemble::reassemble_with_metrics;
use crate::Result;

/// The result of revealing an application.
#[derive(Debug)]
pub struct RevealOutcome {
    /// The collection files produced by JIT collection.
    pub files: CollectionFiles,
    /// The reassembled DEX (canonicalised, verified, ready to serialise).
    pub dex: DexFile,
    /// Size in bytes of the serialised collection files ("dump file size",
    /// Table VI).
    pub dump_size: usize,
    /// Warning-severity verifier lints over the reassembled DEX
    /// (error-severity diagnostics abort the pipeline instead).
    pub lints: Vec<dexlego_verifier::Diagnostic>,
    /// [`validate_reveal`] findings over the outcome (empty = every
    /// collected method and instruction made it into the reassembled DEX).
    /// Computed as part of the pipeline so callers cannot forget the check.
    pub validation: Vec<String>,
    /// Per-phase timings and counters recorded while producing this
    /// outcome. Every counter here reaches the job report, the store
    /// payload and the service's `stats` as-is.
    pub metrics: PipelineMetrics,
}

/// Runs `drive` under JIT collection and reassembles the result.
///
/// `drive` receives the runtime and the collecting observer and should
/// execute the application however the experiment requires (launch an
/// activity, run a fuzzer, replay events). Execution errors inside the
/// driver should be swallowed by the driver itself — a crashed app still
/// yields a valid partial collection, as in the paper.
///
/// # Errors
///
/// Propagates reassembly failures.
///
/// # Example
///
/// ```
/// use dexlego_core::pipeline::reveal;
/// use dexlego_runtime::Runtime;
///
/// let mut rt = Runtime::new();
/// let outcome = reveal(&mut rt, |_rt, _obs| {
///     // drive the app here
/// }).unwrap();
/// assert_eq!(outcome.files.methods.len(), 0);
/// ```
pub fn reveal<F>(rt: &mut Runtime, mut drive: F) -> Result<RevealOutcome>
where
    F: FnMut(&mut Runtime, &mut dyn RuntimeObserver),
{
    let mut collector = JitCollector::new();
    let mut metrics = PipelineMetrics::new();
    metrics.time("collect", || drive(rt, &mut collector));
    finish(rt, collector, None, metrics)
}

/// Like [`reveal`], but additionally runs the iterative force-execution
/// module (Figure 4) to improve coverage, collecting throughout.
///
/// # Errors
///
/// Propagates reassembly failures.
pub fn reveal_with_force<F>(
    rt: &mut Runtime,
    mut drive: F,
    max_iterations: usize,
) -> Result<(RevealOutcome, ForceStats)>
where
    F: FnMut(&mut Runtime, &mut dyn RuntimeObserver),
{
    let mut collector = JitCollector::new();
    let mut metrics = PipelineMetrics::new();
    let (_coverage, stats) = metrics.time("collect", || {
        iterative_force(rt, &mut drive, &mut collector, max_iterations)
    });
    let outcome = finish(rt, collector, Some(stats), metrics)?;
    Ok((outcome, stats))
}

/// Validates a reveal result mechanically (the automated form of the
/// paper's RQ1 manual check): every collected instruction's opcode appears
/// in the reassembled body of its method (original or a variant), and
/// every collected method is present.
///
/// The pipeline runs this itself and surfaces the findings in
/// [`RevealOutcome::validation`]; calling it directly is only needed to
/// cross-validate a collection against some *other* DEX.
///
/// Returns the list of violations (empty = validated).
pub fn validate_reveal(files: &CollectionFiles, dex: &DexFile) -> Vec<String> {
    use std::collections::HashMap;
    let mut problems = Vec::new();
    for record in &files.methods {
        // Gather the reassembled opcode multiset across the method and its
        // variants.
        let Some(class) = dex.find_class(&record.key.class) else {
            problems.push(format!("{}: class missing from output", record.key));
            continue;
        };
        let mut reassembled: HashMap<u8, usize> = HashMap::new();
        let mut found_method = false;
        if let Some(data) = &class.class_data {
            for method in data.methods() {
                let Ok(sig) = dex.method_signature(method.method_idx) else {
                    continue;
                };
                let base = format!("{}->{}", record.key.class, record.key.name);
                if !(sig.starts_with(&format!("{base}(")) || sig.contains(&format!("{}$v", base))) {
                    continue;
                }
                found_method = true;
                if let Some(code) = &method.code {
                    if let Ok(decoded) = dexlego_dalvik::decode_method(&code.insns) {
                        for (_, d) in decoded {
                            if let dexlego_dalvik::Decoded::Insn(insn) = d {
                                *reassembled.entry(insn.op as u8).or_default() += 1;
                            }
                        }
                    }
                }
            }
        }
        if !found_method {
            problems.push(format!("{}: method missing from output", record.key));
            continue;
        }
        // Collected opcodes (union over trees; variants cover per-tree).
        for tree in &record.trees {
            for node in tree.nodes() {
                for ins in &node.il {
                    let op = (ins.units[0] & 0xff) as u8;
                    if !reassembled.contains_key(&op)
                        && dexlego_dalvik::Opcode::from_u8(op).is_some()
                    {
                        problems.push(format!(
                            "{}: collected opcode {:#04x} at pc {} missing from output",
                            record.key, op, ins.dex_pc
                        ));
                    }
                }
            }
        }
    }
    problems
}

/// Reassembles already-collected files into a full [`RevealOutcome`] — the
/// offline half of the pipeline, shared by [`reveal`], the batch harness
/// (which collects on worker threads and reassembles from the files), and
/// tests that tamper with a collection before reassembly.
///
/// # Errors
///
/// Propagates reassembly failures and verifier rejections, exactly like
/// [`reveal`].
pub fn reassemble_collection(files: CollectionFiles) -> Result<RevealOutcome> {
    finish_files(files, PipelineMetrics::new())
}

fn finish(
    _rt: &mut Runtime,
    collector: JitCollector,
    _stats: Option<ForceStats>,
    metrics: PipelineMetrics,
) -> Result<RevealOutcome> {
    finish_files(collector.into_files(), metrics)
}

fn finish_files(files: CollectionFiles, mut metrics: PipelineMetrics) -> Result<RevealOutcome> {
    metrics.count("methods_collected", files.methods.len() as u64);
    metrics.count("insns_collected", files.total_insns() as u64);
    let dump_size = metrics.time("serialize", || files.to_bytes().len());
    metrics.count("dump_size", dump_size as u64);
    // `reassemble_with_metrics` records the `tree_merge` and `dexgen`
    // phases itself.
    let dex = reassemble_with_metrics(&files, &mut metrics)?;
    let dex = metrics
        .time("canonicalize", || canonicalize(&dex))
        .map_err(crate::DexLegoError::Dalvik)?;
    // Verification gate: the canonicalised DEX is the artifact handed to
    // static analysis, so it is the one that must satisfy the verifier.
    // This is the pipeline's single verification pass — the result is
    // gated here (error-severity diagnostics abort) and its typed IR and
    // cache counters ride along in the outcome instead of anyone
    // re-verifying the same bytes.
    let typed = metrics.time("verify", || {
        dexlego_verifier::verify_dex_typed(&dex, &dexlego_verifier::VerifyOptions::default())
    });
    metrics.count("verify_cache_hits", typed.cache_hits);
    metrics.count("verify_cache_misses", typed.cache_misses);
    let typed_methods = typed.methods.len();
    let typed_insns = typed.insn_count() as u64;
    let (_typed, lints) = crate::reassemble::gate_verified(typed)?;
    let validation = metrics.time("validate", || validate_reveal(&files, &dex));
    metrics.count("verifier_lints", lints.len() as u64);
    metrics.count("typed_methods", typed_methods as u64);
    metrics.count("typed_insns", typed_insns);
    Ok(RevealOutcome {
        files,
        dex,
        dump_size,
        lints,
        validation,
        metrics,
    })
}
