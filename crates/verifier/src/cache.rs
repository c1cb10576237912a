//! Process-level digest-keyed verification cache.
//!
//! One entry holds the whole result of one `verify_dex`-level call — the
//! assembled diagnostics, the identity-stamped method IRs and the interned
//! [`ClassHierarchy`] — keyed by one SHA-1 digest, built in one buffer
//! walk, of everything that can influence it:
//!
//! * [`VERIFIER_VERSION`] — bumped whenever verification semantics change,
//!   so a new build never replays results from an older rule set;
//! * the constant pools and class-definition links (superclass,
//!   interfaces, access). Equal pools intern equal `TypeId`s, so cached IR
//!   and pool-index-dependent diagnostics are valid verbatim;
//! * an options fingerprint (lint enablement, suppressed rules, whether
//!   IR was requested);
//! * every method body in class-definition order: pool index,
//!   staticness, frame configuration, raw code units, try/catch tables.
//!
//! The map is process-global behind a mutex with bounded FIFO eviction.
//! The workload it serves — the pipeline gate plus several taint tools
//! re-verifying the same revealed DEX — pays one digest and one lookup per
//! re-verification, and a hit shares the IR and hierarchy without cloning
//! them. A hit is byte-identical to a fresh run (asserted by the cache
//! tests). DESIGN.md §16 records why there is no per-method layer.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use dexlego_dex::checksum::sha1;
use dexlego_dex::code::CodeItem;
use dexlego_dex::DexFile;

use crate::{TypedDex, VerifyOptions};

/// Version stamp folded into every cache key. Bump the suffix whenever
/// verification semantics change (new rules, lattice changes, message
/// edits), so stale results can never replay across versions.
pub const VERIFIER_VERSION: &str =
    concat!("dexlego-verifier-", env!("CARGO_PKG_VERSION"), "+vfy.2");

/// Whole-DEX entries kept before FIFO eviction.
const CAPACITY: usize = 128;

struct Store {
    map: HashMap<[u8; 20], Arc<TypedDex>>,
    order: VecDeque<[u8; 20]>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(Store {
            map: HashMap::new(),
            order: VecDeque::new(),
        })
    })
}

pub(crate) fn lookup(key: &[u8; 20]) -> Option<Arc<TypedDex>> {
    store()
        .lock()
        .expect("verify cache lock")
        .map
        .get(key)
        .cloned()
}

/// Stores a fresh result; its `cache_misses` is the body count a hit
/// reports as `cache_hits`.
pub(crate) fn insert(key: [u8; 20], typed: TypedDex) {
    let mut s = store().lock().expect("verify cache lock");
    if s.map.contains_key(&key) {
        return;
    }
    while s.map.len() >= CAPACITY {
        let Some(old) = s.order.pop_front() else {
            break;
        };
        s.map.remove(&old);
    }
    s.map.insert(key, Arc::new(typed));
    s.order.push_back(key);
}

/// Empties the cache (benches and tests).
pub(crate) fn clear() {
    let mut s = store().lock().expect("verify cache lock");
    s.map.clear();
    s.order.clear();
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// The part of [`VerifyOptions`] (plus `want_ir`) that selects between
/// distinct result spaces.
pub(crate) fn options_fingerprint(options: &VerifyOptions, want_ir: bool) -> String {
    let mut allowed: Vec<&str> = options.allowed.iter().map(String::as_str).collect();
    allowed.sort_unstable();
    format!(
        "eo={}|ir={}|allow={}",
        options.errors_only,
        want_ir,
        allowed.join(",")
    )
}

/// Cache key for one `verify_dex`-level call: `(method_idx, is_static,
/// code)` for every body, in class-definition order.
pub(crate) fn key<'a>(
    dex: &DexFile,
    options_fp: &str,
    bodies: impl Iterator<Item = (u32, bool, &'a CodeItem)>,
) -> [u8; 20] {
    key_for_version(VERIFIER_VERSION, dex, options_fp, bodies)
}

fn key_for_version<'a>(
    version: &str,
    dex: &DexFile,
    options_fp: &str,
    bodies: impl Iterator<Item = (u32, bool, &'a CodeItem)>,
) -> [u8; 20] {
    let mut buf = Vec::with_capacity(8192);
    put_str(&mut buf, version);
    put_pools(&mut buf, dex);
    put_str(&mut buf, options_fp);
    for (method_idx, is_static, code) in bodies {
        put_u32(&mut buf, method_idx);
        buf.push(u8::from(is_static));
        put_code(&mut buf, code);
    }
    sha1(&buf)
}

/// Serialises everything pool- and hierarchy-shaped that verification can
/// observe: strings, type ids, prototypes, field and method ids, and
/// class-definition links.
fn put_pools(buf: &mut Vec<u8>, dex: &DexFile) {
    put_u32(buf, dex.strings().len() as u32);
    for s in dex.strings() {
        put_str(buf, s);
    }
    put_u32(buf, dex.type_ids().len() as u32);
    for &t in dex.type_ids() {
        put_u32(buf, t);
    }
    put_u32(buf, dex.protos().len() as u32);
    for p in dex.protos() {
        put_u32(buf, p.shorty);
        put_u32(buf, p.return_type);
        put_u32(buf, p.parameters.len() as u32);
        for &param in &p.parameters {
            put_u32(buf, param);
        }
    }
    put_u32(buf, dex.field_ids().len() as u32);
    for f in dex.field_ids() {
        put_u32(buf, f.class);
        put_u32(buf, f.type_);
        put_u32(buf, f.name);
    }
    put_u32(buf, dex.method_ids().len() as u32);
    for m in dex.method_ids() {
        put_u32(buf, m.class);
        put_u32(buf, m.proto);
        put_u32(buf, m.name);
    }
    put_u32(buf, dex.class_defs().len() as u32);
    for c in dex.class_defs() {
        put_u32(buf, c.class_idx);
        put_u32(buf, c.access.bits());
        put_u32(buf, c.superclass.map_or(u32::MAX, |s| s));
        put_u32(buf, c.interfaces.len() as u32);
        for &i in &c.interfaces {
            put_u32(buf, i);
        }
    }
}

/// Serialises everything verification reads out of one method body.
fn put_code(buf: &mut Vec<u8>, code: &CodeItem) {
    put_u32(buf, u32::from(code.registers_size));
    put_u32(buf, u32::from(code.ins_size));
    put_u32(buf, code.insns.len() as u32);
    for &unit in &code.insns {
        buf.extend_from_slice(&unit.to_le_bytes());
    }
    put_u32(buf, code.tries.len() as u32);
    for t in &code.tries {
        put_u32(buf, t.start_addr);
        put_u32(buf, u32::from(t.insn_count));
        put_u32(buf, t.handler_index as u32);
    }
    put_u32(buf, code.handlers.len() as u32);
    for h in &code.handlers {
        put_u32(buf, h.catches.len() as u32);
        for c in &h.catches {
            put_u32(buf, c.type_idx);
            put_u32(buf, c.addr);
        }
        put_u32(buf, h.catch_all_addr.map_or(u32::MAX, |a| a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_code() -> CodeItem {
        CodeItem::new(2, 0, 0, vec![0x0112, 0x000e])
    }

    fn key_of(dex: &DexFile, fp: &str, idx: u32, is_static: bool, code: &CodeItem) -> [u8; 20] {
        key(dex, fp, std::iter::once((idx, is_static, code)))
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let mut dex = DexFile::new();
        dex.intern_type("La;");
        let code = sample_code();
        let fp = options_fingerprint(&VerifyOptions::default(), true);
        let k1 = key_of(&dex, &fp, 3, true, &code);
        assert_eq!(k1, key_of(&dex, &fp, 3, true, &code), "deterministic");

        let mut changed = sample_code();
        changed.insns[0] = 0x0212;
        assert_ne!(k1, key_of(&dex, &fp, 3, true, &changed), "code");
        assert_ne!(k1, key_of(&dex, &fp, 3, false, &code), "staticness");
        assert_ne!(k1, key_of(&dex, &fp, 4, true, &code), "method index");
        let eo = options_fingerprint(&VerifyOptions::errors_only(), true);
        assert_ne!(k1, key_of(&dex, &eo, 3, true, &code), "options");
        let no_ir = options_fingerprint(&VerifyOptions::default(), false);
        assert_ne!(k1, key_of(&dex, &no_ir, 3, true, &code), "want_ir");
        assert_ne!(
            k1,
            key(&dex, &fp, [(3, true, &code), (3, true, &code)].into_iter()),
            "body count"
        );
        let body = std::iter::once((3, true, &code));
        assert_ne!(
            k1,
            key_for_version("dexlego-verifier-0+vfy.0", &dex, &fp, body),
            "version"
        );

        let mut grown = dex.clone();
        grown.intern_type("Lb;");
        assert_ne!(k1, key_of(&grown, &fp, 3, true, &code), "pools");
    }

    #[test]
    fn eviction_is_bounded() {
        clear();
        for i in 0..(CAPACITY + 10) {
            let mut key = [0u8; 20];
            key[..8].copy_from_slice(&(i as u64).to_le_bytes());
            insert(key, TypedDex::default());
        }
        assert!(store().lock().expect("verify cache lock").map.len() <= CAPACITY);
        clear();
    }
}
