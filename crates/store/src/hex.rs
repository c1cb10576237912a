//! Lowercase hex encoding, shared by store keys and the service wire
//! protocol (DEX payloads travel as hex strings inside JSON).
//!
//! Both directions are table-driven and write into a buffer sized up
//! front: a store hit hex-encodes the whole revealed DEX, so this is on
//! every warm reply.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const BAD: u8 = 0xff;

/// Hex digit → nibble for every byte value (either case); [`BAD`] for
/// everything else, including every non-ASCII byte.
const NIBBLE: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Encodes `bytes` as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = DIGITS[usize::from(b >> 4)];
        pair[1] = DIGITS[usize::from(b & 0x0f)];
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes a hex string (either case). `None` on odd length or non-hex
/// characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = vec![0u8; s.len() / 2];
    // Valid nibbles fit in the low four bits, so one OR over every table
    // entry flags a bad digit anywhere without a branch per pair.
    let mut seen = 0u8;
    for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        let hi = NIBBLE[usize::from(pair[0])];
        let lo = NIBBLE[usize::from(pair[1])];
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    (seen & 0xf0 == 0).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        let h = to_hex(&data);
        assert_eq!(h, "00017f80ff");
        assert_eq!(from_hex(&h).unwrap(), data);
        assert_eq!(from_hex("00017F80FF").unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }
}
