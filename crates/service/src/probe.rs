//! Hostile-input probes for smoke runs and tests against a live daemon or
//! router.

use dexlego_dex::{checksum, DEX_MAGIC, ENDIAN_CONSTANT, HEADER_SIZE};

/// A 112-byte DEX header with a valid magic, endian tag, adler32 and
/// SHA-1 that claims four billion strings. Sent as an `extract`, it must
/// get an error reply and leave the receiving process answering; a reader
/// that sized a table from the count would try to allocate ~100 GB.
pub fn forged_string_count_dex() -> Vec<u8> {
    let mut bytes = vec![0u8; HEADER_SIZE as usize];
    bytes[..8].copy_from_slice(&DEX_MAGIC);
    bytes[32..36].copy_from_slice(&HEADER_SIZE.to_le_bytes()); // file_size
    bytes[36..40].copy_from_slice(&HEADER_SIZE.to_le_bytes()); // header_size
    bytes[40..44].copy_from_slice(&ENDIAN_CONSTANT.to_le_bytes());
    bytes[56..60].copy_from_slice(&u32::MAX.to_le_bytes()); // string_ids_size
    bytes[60..64].copy_from_slice(&HEADER_SIZE.to_le_bytes()); // string_ids_off
    let signature = checksum::sha1(&bytes[32..]);
    bytes[12..32].copy_from_slice(&signature);
    let sum = checksum::adler32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&sum.to_le_bytes());
    bytes
}
