//! Property tests of the table-driven hex codec against the per-byte
//! encoder and `char::to_digit` decoder it replaced, kept here only as
//! references.

use dexlego_store::hex::{from_hex, to_hex};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

fn reference_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn reference_from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// Mostly hex digits of either case, with the near misses mixed in:
/// letters just past `f`, punctuation either side of the digit ranges,
/// and multibyte characters.
fn hexish() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        select("0123456789abcdefABCDEF".chars().collect::<Vec<char>>()),
        select(vec![
            'g', 'G', '/', ':', '@', '`', ' ', '\0', 'é', '€', '😀'
        ]),
    ];
    vec(ch, 0..24).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn to_hex_matches_the_per_byte_encoder(bytes in vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(to_hex(&bytes), reference_to_hex(&bytes));
    }

    #[test]
    fn from_hex_inverts_to_hex_in_either_case(bytes in vec(any::<u8>(), 0..256)) {
        let hex = to_hex(&bytes);
        prop_assert_eq!(from_hex(&hex), Some(bytes.clone()));
        prop_assert_eq!(from_hex(&hex.to_uppercase()), Some(bytes));
    }

    #[test]
    fn from_hex_accepts_exactly_what_the_old_decoder_did(s in hexish()) {
        prop_assert_eq!(from_hex(&s), reference_from_hex(&s));
    }

    #[test]
    fn from_hex_rejects_odd_length(bytes in vec(any::<u8>(), 0..64), digit in 0usize..16) {
        let mut hex = to_hex(&bytes);
        hex.push(char::from(b"0123456789abcdef"[digit]));
        prop_assert_eq!(from_hex(&hex), None);
    }

    #[test]
    fn from_hex_rejects_one_bad_character(
        bytes in vec(any::<u8>(), 2..64),
        at in 0usize..128,
        bad in select(vec!["g", "G", "/", ":", "@", "`", "z", " ", "é", "€"]),
    ) {
        let hex = to_hex(&bytes);
        // Replace `bad.len()` digits so the length stays even and only
        // the character itself can cause the rejection.
        let at = at % (hex.len() - bad.len() + 1);
        let forged = format!("{}{bad}{}", &hex[..at], &hex[at + bad.len()..]);
        prop_assert_eq!(forged.len(), hex.len());
        prop_assert_eq!(from_hex(&forged), None);
    }
}
