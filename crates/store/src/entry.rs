//! The cached extraction result and its binary codec.
//!
//! The payload format is a simple length-prefixed binary encoding (the
//! workspace is dependency-free, so there is no serde): little-endian
//! integers, `u32` length prefixes, UTF-8 strings. A leading format tag
//! (`RES5`) versions the payload independently of the on-disk container
//! that wraps it (see [`crate::store`]). Work counters travel in a
//! self-describing name/value section, so a new counter does not change
//! the format; the fixed-field tags before it (`RES1`–`RES4`) decode as a
//! miss.

/// Everything the pipeline produced for one (DEX, profile, parameters)
/// input: the revealed DEX plus the report fields a cache hit must be able
/// to reconstruct without re-running extraction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedResult {
    /// Serialised revealed DEX (the artifact handed to static analysis).
    pub dex_bytes: Vec<u8>,
    /// Wall time of the original extraction, microseconds.
    pub wall_us: u64,
    /// Instructions interpreted while driving the app.
    pub insns: u64,
    /// The job report's work counters, as (name, value) in recording order.
    pub counters: Vec<(String, u64)>,
    /// `validate_reveal` findings (empty = validated).
    pub validation: Vec<String>,
    /// Per-phase pipeline timings in microseconds, execution order.
    pub phases_us: Vec<(String, u64)>,
}

const PAYLOAD_TAG: &[u8; 4] = b"RES5";

/// Smallest encoding of one (name, value) pair: an empty name's length
/// prefix plus the value.
const MIN_PAIR_BYTES: usize = 4 + 8;

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len());
    out.extend_from_slice(v);
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(String, u64)]) {
    put_u32(out, pairs.len());
    for (name, v) in pairs {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|_| "invalid UTF-8 in payload".to_owned())
    }

    /// A count of items at least `min_bytes` long each, rejected if that
    /// many could not fit in what is left — so the count is safe to
    /// preallocate.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.data.len() - self.pos {
            return Err(format!("count {n} overruns payload at offset {}", self.pos));
        }
        Ok(n)
    }

    fn pairs(&mut self) -> Result<Vec<(String, u64)>, String> {
        let n = self.count(MIN_PAIR_BYTES)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            pairs.push((name, self.u64()?));
        }
        Ok(pairs)
    }
}

/// Serialises a result into the versioned payload format.
pub fn encode(r: &CachedResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(r.dex_bytes.len() + 128);
    out.extend_from_slice(PAYLOAD_TAG);
    put_bytes(&mut out, &r.dex_bytes);
    out.extend_from_slice(&r.wall_us.to_le_bytes());
    out.extend_from_slice(&r.insns.to_le_bytes());
    put_pairs(&mut out, &r.counters);
    put_u32(&mut out, r.validation.len());
    for finding in &r.validation {
        put_bytes(&mut out, finding.as_bytes());
    }
    put_pairs(&mut out, &r.phases_us);
    out
}

/// Deserialises a payload produced by [`encode`].
///
/// # Errors
///
/// Any structural violation (wrong tag, truncation, a count larger than
/// the bytes left, bad UTF-8, trailing bytes) is an error; the store treats
/// a decode error like a checksum mismatch and quarantines the entry.
pub fn decode(data: &[u8]) -> Result<CachedResult, String> {
    let mut c = Cursor { data, pos: 0 };
    if c.take(4)? != PAYLOAD_TAG {
        return Err("unknown payload format tag".to_owned());
    }
    let dex_bytes = c.bytes()?;
    let wall_us = c.u64()?;
    let insns = c.u64()?;
    let counters = c.pairs()?;
    let n_validation = c.count(4)?;
    let mut validation = Vec::with_capacity(n_validation);
    for _ in 0..n_validation {
        validation.push(c.string()?);
    }
    let phases_us = c.pairs()?;
    if c.pos != data.len() {
        return Err(format!("{} trailing bytes in payload", data.len() - c.pos));
    }
    Ok(CachedResult {
        dex_bytes,
        wall_us,
        insns,
        counters,
        validation,
        phases_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CachedResult {
        let pairs = |list: &[(&str, u64)]| -> Vec<(String, u64)> {
            list.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
        };
        CachedResult {
            dex_bytes: vec![0x64, 0x65, 0x78, 0x0a, 0x00, 0xff],
            wall_us: 1234,
            insns: 5678,
            counters: pairs(&[
                ("frames", 9),
                ("quickens", 21),
                ("dequickens", 2),
                ("superinsn_hits", 333),
                ("methods_collected", 3),
                ("insns_collected", 400),
                ("dump_size", 2048),
                ("verifier_lints", 1),
                ("typed_methods", 4),
                ("typed_insns", 77),
                ("verify_cache_hits", 12),
                ("verify_cache_misses", 4),
            ]),
            validation: vec!["m1: missing".to_owned(), "m2: odd".to_owned()],
            phases_us: pairs(&[("collect", 42), ("verify", 7)]),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample();
        assert_eq!(decode(&encode(&r)).unwrap(), r);
        let empty = CachedResult::default();
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn rejects_truncation_and_bad_tag() {
        let full = encode(&sample());
        for cut in [0, 3, 4, 10, full.len() - 1] {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        assert!(decode(&bad).is_err());
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());

        // A payload written under the previous fixed-field format is a
        // miss, not a misread.
        let mut res4 = full.clone();
        res4[..4].copy_from_slice(b"RES4");
        assert!(decode(&res4).is_err());

        // A counter-section count far beyond the bytes left is refused
        // before anything is allocated for it.
        let empty = encode(&CachedResult::default());
        let at = 4 + 4 + 8 + 8; // tag, empty dex, wall_us, insns
        let mut huge = empty.clone();
        huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&huge).unwrap_err().contains("overruns"));
        // One pair more than the remaining bytes can hold, likewise.
        let left = empty.len() - at - 4;
        let mut over = empty;
        over[at..at + 4].copy_from_slice(&((left / MIN_PAIR_BYTES + 1) as u32).to_le_bytes());
        assert!(decode(&over).unwrap_err().contains("overruns"));
    }
}
