//! Assembling the collection files into a complete DEX file
//! (paper §IV-B "Merging Instruction Arrays" and §IV-C).

use std::collections::HashMap;

use dexlego_dalvik::{Insn, MethodAssembler, Opcode};
use dexlego_dex::file::{EncodedField, EncodedMethod};
use dexlego_dex::value::EncodedValue;
use dexlego_dex::{AccessFlags, ClassDef, CodeItem, DexFile};

use crate::files::{CollectedValue, CollectionFiles, MethodRecord};
use crate::metrics::PipelineMetrics;
use crate::reassemble::tree_merge::{merge_tree, MergeInput};
use crate::{DexLegoError, Result, INSTRUMENT_CLASS};

/// Allocator for the instrument class's guard fields.
///
/// Each synthetic branch gets its own static boolean field
/// (`Lcom/dexlego/Modification;->mN:Z`), named after the paper's
/// `com_test_Main_advancedLeak_0` scheme but compacted.
#[derive(Debug, Default)]
pub struct GuardAlloc {
    count: u32,
}

impl GuardAlloc {
    /// Interns the next guard field into `dex` and returns its field index.
    pub fn next_field(&mut self, dex: &mut DexFile) -> u32 {
        let name = format!("m{}", self.count);
        self.count += 1;
        dex.intern_field(INSTRUMENT_CLASS, "Z", &name)
    }

    /// Emits the instrument class definition holding every allocated guard
    /// field, initialised with deterministic pseudo-random booleans (the
    /// paper initialises them "with random values"; determinism keeps the
    /// reassembled DEX reproducible).
    pub fn emit_instrument_class(&self, dex: &mut DexFile) {
        let class_idx = dex.intern_type(INSTRUMENT_CLASS);
        let mut def = ClassDef::new(class_idx);
        def.access = AccessFlags::PUBLIC | AccessFlags::FINAL | AccessFlags::SYNTHETIC;
        def.superclass = Some(dex.intern_type("Ljava/lang/Object;"));
        let mut fields: Vec<EncodedField> = (0..self.count)
            .map(|i| {
                let name = format!("m{i}");
                EncodedField {
                    field_idx: dex.intern_field(INSTRUMENT_CLASS, "Z", &name),
                    access: AccessFlags::PUBLIC | AccessFlags::STATIC,
                }
            })
            .collect();
        fields.sort_by_key(|f| f.field_idx);
        // xorshift-style deterministic "random" initial values.
        let mut state = 0x9e37_79b9u32;
        let values: Vec<EncodedValue> = fields
            .iter()
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                EncodedValue::Boolean(state & 1 == 1)
            })
            .collect();
        let data = def.class_data.as_mut().expect("fresh class data");
        data.static_fields = fields;
        def.static_values = values;
        dex.add_class(def);
    }
}

/// Reassembles collection files into a DEX model (unsorted pools; pass the
/// result through [`dexlego_dalvik::canon::canonicalize`] before writing
/// bytes).
///
/// # Errors
///
/// Returns [`DexLegoError::Reassembly`] for inconsistent collection data
/// and propagates assembly failures.
///
/// # Example
///
/// ```
/// use dexlego_core::{files::CollectionFiles, reassemble::reassemble};
/// let dex = reassemble(&CollectionFiles::default()).unwrap();
/// // Even an empty collection yields a valid model with the instrument class.
/// assert!(dex.find_class("Lcom/dexlego/Modification;").is_some());
/// ```
pub fn reassemble(files: &CollectionFiles) -> Result<DexFile> {
    reassemble_with_metrics(files, &mut PipelineMetrics::new())
}

/// [`reassemble`] with instrumentation: records the time spent merging
/// collection trees (`tree_merge`) separately from the rest of DEX
/// assembly (`dexgen`) into `metrics`.
///
/// # Errors
///
/// Same failure modes as [`reassemble`].
pub fn reassemble_with_metrics(
    files: &CollectionFiles,
    metrics: &mut PipelineMetrics,
) -> Result<DexFile> {
    let total_start = std::time::Instant::now();
    let mut merge_time = std::time::Duration::ZERO;
    let mut dex = DexFile::new();
    let mut guards = GuardAlloc::default();

    // Latest definition wins for shadowed (re-defined) classes: a packer's
    // shell class is replaced by the unpacked original.
    let mut chosen: HashMap<&str, usize> = HashMap::new();
    for (i, class) in files.classes.iter().enumerate() {
        chosen.insert(&class.descriptor, i);
    }
    let mut chosen_order: Vec<usize> = chosen.values().copied().collect();
    chosen_order.sort_unstable();

    // Reflection sites by caller method.
    let mut reflection: HashMap<&crate::files::MethodKey, HashMap<u32, Vec<_>>> = HashMap::new();
    for site in &files.reflection_sites {
        reflection
            .entry(&site.caller)
            .or_default()
            .insert(site.dex_pc, site.targets.clone());
    }
    let empty_reflection: HashMap<u32, Vec<crate::files::ReflectionTarget>> = HashMap::new();

    for class_i in chosen_order {
        let class = &files.classes[class_i];
        let class_idx = dex.intern_type(&class.descriptor);
        let mut def = ClassDef::new(class_idx);
        def.access = AccessFlags(class.access);
        def.superclass = class.superclass.as_ref().map(|s| dex.intern_type(s));
        def.interfaces = class
            .interfaces
            .iter()
            .map(|i| dex.intern_type(i))
            .collect();

        // Fields + static values (positional over the sorted static list).
        let mut statics: Vec<(EncodedField, Option<EncodedValue>)> = Vec::new();
        let mut instance_fields: Vec<EncodedField> = Vec::new();
        for field in &class.fields {
            let idx = dex.intern_field(&class.descriptor, &field.type_desc, &field.name);
            let encoded = EncodedField {
                field_idx: idx,
                access: AccessFlags(field.access),
            };
            if field.is_static {
                let value = field.static_value.as_ref().map(|v| match v {
                    CollectedValue::Bool(b) => EncodedValue::Boolean(*b),
                    CollectedValue::Int(i) => EncodedValue::Int(*i),
                    CollectedValue::Long(l) => EncodedValue::Long(*l),
                    CollectedValue::Float(f) => EncodedValue::Float(*f),
                    CollectedValue::Double(d) => EncodedValue::Double(*d),
                    CollectedValue::Str(s) => EncodedValue::String(dex.intern_string(s)),
                    CollectedValue::Null => EncodedValue::Null,
                });
                statics.push((encoded, value));
            } else {
                instance_fields.push(encoded);
            }
        }
        statics.sort_by_key(|(f, _)| f.field_idx);
        instance_fields.sort_by_key(|f| f.field_idx);
        let last_value = statics.iter().rposition(|(_, v)| v.is_some());
        let mut static_values = Vec::new();
        for (i, (encoded, value)) in statics.iter().enumerate() {
            if last_value.is_some_and(|last| i <= last) {
                static_values.push(value.clone().unwrap_or_else(|| {
                    let tidx = dex.field_ids()[encoded.field_idx as usize].type_;
                    let desc = dex
                        .type_descriptor(tidx)
                        .unwrap_or("Ljava/lang/Object;")
                        .to_owned();
                    EncodedValue::default_for_type(&desc)
                }));
            }
        }
        def.static_values = static_values;
        {
            let data = def.class_data.as_mut().expect("fresh class data");
            data.static_fields = statics.into_iter().map(|(f, _)| f).collect();
            data.instance_fields = instance_fields;
        }

        // Methods of this class from the chosen source.
        let mut encoded_methods: Vec<(bool, EncodedMethod)> = Vec::new();
        for record in files.methods.iter().filter(|m| {
            m.key.class == class.descriptor
                && files
                    .pools
                    .get(m.pool as usize)
                    .is_some_and(|p| p.source == class.source)
        }) {
            let pool = files
                .pools
                .get(record.pool as usize)
                .ok_or_else(|| DexLegoError::Reassembly("method pool out of range".into()))?;
            let method_reflection = reflection.get(&record.key).unwrap_or(&empty_reflection);

            // Merge each unique tree, dedup resulting arrays.
            let mut bodies: Vec<CodeItem> = Vec::new();
            for tree in &record.trees {
                let merge_start = std::time::Instant::now();
                let body = merge_tree(
                    &mut dex,
                    &mut guards,
                    &MergeInput {
                        record,
                        tree,
                        pool,
                        reflection: method_reflection,
                    },
                )?;
                merge_time += merge_start.elapsed();
                if !bodies.iter().any(|b| b.insns == body.insns) {
                    bodies.push(body);
                }
            }
            if bodies.is_empty() {
                continue;
            }
            let is_direct = record.access & 0x8 != 0 // static
                || record.access & 0x2 != 0 // private
                || record.key.name.starts_with('<');
            if bodies.len() == 1 {
                let method_idx = intern_record_method(&mut dex, record, None)?;
                encoded_methods.push((
                    is_direct,
                    EncodedMethod {
                        method_idx,
                        access: AccessFlags(record.access),
                        code: Some(bodies.remove(0)),
                    },
                ));
            } else {
                // Method variants plus a guarded dispatcher (paper §IV-B,
                // "Merging Instructions Arrays").
                let variant_indices: Vec<u32> = bodies
                    .iter()
                    .enumerate()
                    .map(|(k, _)| intern_record_method(&mut dex, record, Some(k)))
                    .collect::<Result<_>>()?;
                for (k, body) in bodies.into_iter().enumerate() {
                    encoded_methods.push((
                        is_direct,
                        EncodedMethod {
                            method_idx: variant_indices[k],
                            access: AccessFlags(record.access) | AccessFlags::SYNTHETIC,
                            code: Some(body),
                        },
                    ));
                }
                let dispatcher = build_dispatcher(&mut dex, &mut guards, record, &variant_indices)?;
                let method_idx = intern_record_method(&mut dex, record, None)?;
                encoded_methods.push((
                    is_direct,
                    EncodedMethod {
                        method_idx,
                        access: AccessFlags(record.access),
                        code: Some(dispatcher),
                    },
                ));
            }
        }
        {
            let data = def.class_data.as_mut().expect("fresh class data");
            for (is_direct, method) in encoded_methods {
                if is_direct {
                    data.direct_methods.push(method);
                } else {
                    data.virtual_methods.push(method);
                }
            }
            data.direct_methods.sort_by_key(|m| m.method_idx);
            data.virtual_methods.sort_by_key(|m| m.method_idx);
        }
        dex.add_class(def);
    }

    guards.emit_instrument_class(&mut dex);
    let merge_us = merge_time.as_micros() as u64;
    metrics.record_phase_us("tree_merge", merge_us);
    metrics.record_phase_us(
        "dexgen",
        (total_start.elapsed().as_micros() as u64).saturating_sub(merge_us),
    );
    Ok(dex)
}

/// Reassembles and runs the bytecode verifier over every emitted method
/// body, gating on error-severity diagnostics.
///
/// Returns the DEX together with the remaining warning-severity lints
/// (`L####` rules — unreachable code, self-moves, dead stores) so callers
/// can surface them without failing the pipeline.
///
/// # Errors
///
/// In addition to [`reassemble`]'s failure modes, returns
/// [`DexLegoError::Verification`] when any method carries a `V####`
/// diagnostic — a reassembly that would not load under ART's verifier.
pub fn reassemble_verified(
    files: &CollectionFiles,
) -> Result<(DexFile, Vec<dexlego_verifier::Diagnostic>)> {
    let dex = reassemble(files)?;
    let typed =
        dexlego_verifier::verify_dex_typed(&dex, &dexlego_verifier::VerifyOptions::default());
    let (_typed, warnings) = gate_verified(typed)?;
    Ok((dex, warnings))
}

/// Gates an already-computed verification result: error-severity
/// diagnostics (`V####`) abort, warning-severity lints are split out and
/// returned alongside the (now diagnostics-free) typed result.
///
/// This is the single choke point for the pipeline's verification gate —
/// callers verify once with [`dexlego_verifier::verify_dex_typed`] and
/// hand the result here instead of re-running the verifier over the same
/// bytes.
///
/// # Errors
///
/// Returns [`DexLegoError::Verification`] carrying every error-severity
/// diagnostic when the DEX would not load under ART's verifier.
pub fn gate_verified(
    mut typed: dexlego_verifier::TypedDex,
) -> Result<(
    dexlego_verifier::TypedDex,
    Vec<dexlego_verifier::Diagnostic>,
)> {
    let diags = std::mem::take(&mut typed.diagnostics);
    let (errors, warnings): (Vec<_>, Vec<_>) = diags
        .into_iter()
        .partition(dexlego_verifier::Diagnostic::is_error);
    if !errors.is_empty() {
        return Err(DexLegoError::Verification(errors));
    }
    Ok((typed, warnings))
}

fn intern_record_method(
    dex: &mut DexFile,
    record: &MethodRecord,
    variant: Option<usize>,
) -> Result<u32> {
    let name = match variant {
        None => record.key.name.clone(),
        Some(k) => format!("{}$v{k}", record.key.name),
    };
    let param_refs: Vec<&str> = record.params.iter().map(String::as_str).collect();
    Ok(dex.intern_method(&record.key.class, &name, &record.return_type, &param_refs))
}

/// Builds the dispatcher body: guarded selection among method variants,
/// forwarding all arguments.
fn build_dispatcher(
    dex: &mut DexFile,
    guards: &mut GuardAlloc,
    record: &MethodRecord,
    variants: &[u32],
) -> Result<CodeItem> {
    let ins = u32::from(record.ins);
    // v0..v1 scratch (wide-capable), parameters at v2...
    let registers = (ins + 2) as u16;
    let arg_regs: Vec<u32> = (2..2 + ins).collect();
    let is_static = record.access & 0x8 != 0;
    let invoke_op = if is_static {
        Opcode::InvokeStatic
    } else {
        Opcode::InvokeVirtual
    };

    let mut asm = MethodAssembler::new();
    let labels: Vec<_> = variants.iter().skip(1).map(|_| asm.new_label()).collect();
    for &label in &labels {
        let field = guards.next_field(dex);
        let mut sget = Insn::of(Opcode::SgetBoolean);
        sget.a = 0;
        sget.idx = field;
        asm.push(sget);
        asm.if_z(Opcode::IfNez, 0, label);
    }
    let emit_call = |asm: &mut MethodAssembler, idx: u32| {
        asm.invoke(invoke_op, idx, &arg_regs);
        match record.return_type.as_str() {
            "V" => {
                asm.ret(Opcode::ReturnVoid, 0);
            }
            "J" | "D" => {
                let mut mr = Insn::of(Opcode::MoveResultWide);
                mr.a = 0;
                asm.push(mr);
                asm.ret(Opcode::ReturnWide, 0);
            }
            s if s.starts_with('L') || s.starts_with('[') => {
                let mut mr = Insn::of(Opcode::MoveResultObject);
                mr.a = 0;
                asm.push(mr);
                asm.ret(Opcode::ReturnObject, 0);
            }
            _ => {
                let mut mr = Insn::of(Opcode::MoveResult);
                mr.a = 0;
                asm.push(mr);
                asm.ret(Opcode::Return, 0);
            }
        }
    };
    emit_call(&mut asm, variants[0]);
    for (label, &variant) in labels.iter().zip(variants.iter().skip(1)) {
        asm.bind(*label);
        emit_call(&mut asm, variant);
    }
    let insns = asm.assemble().map_err(DexLegoError::Dalvik)?;
    Ok(CodeItem {
        registers_size: registers,
        ins_size: record.ins,
        outs_size: registers,
        insns,
        tries: Vec::new(),
        handlers: Vec::new(),
    })
}
