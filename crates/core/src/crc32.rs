//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte streams.
//!
//! Used by the TUCK v2 container ([`crate::tucker_io`]) for per-section
//! integrity checks and by the serving layer to fingerprint query results.
//! Table-driven, one table lookup per byte; the table is built at compile
//! time so the dependency-free constraint of this workspace holds.

use tucker_tensor::codec::{write_scalars, IoScalar};

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// Incremental CRC-32 hasher.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final digest (the hasher can keep absorbing; this is a snapshot).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Digest and reset to the fresh state — section-boundary helper.
    pub fn take(&mut self) -> u32 {
        let out = self.finish();
        self.state = 0xFFFF_FFFF;
        out
    }
}

/// The hasher as a byte sink, so anything that can write a section can
/// checksum it without buffering it.
impl std::io::Write for Crc32 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One-shot convenience.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// CRC-32 of a scalar run's bytes exactly as [`write_scalars`] lays them
/// out on disk.
pub fn scalars_crc<T: IoScalar>(data: &[T]) -> u32 {
    let mut h = Crc32::new();
    write_scalars(&mut h, data).expect("hashing cannot fail");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"split across several update calls";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn scalar_run_digest_is_the_digest_of_its_disk_bytes() {
        let data: Vec<f32> = (0..5000).map(|i| i as f32 * 0.5 - 7.0).collect();
        let mut bytes = Vec::new();
        write_scalars(&mut bytes, &data).unwrap();
        assert_eq!(scalars_crc(&data), crc32(&bytes));
        assert_eq!(scalars_crc::<f64>(&[]), 0);
    }

    #[test]
    fn take_resets() {
        let mut h = Crc32::new();
        h.update(b"123456789");
        assert_eq!(h.take(), 0xCBF4_3926);
        h.update(b"123456789");
        assert_eq!(h.take(), 0xCBF4_3926);
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut a = b"sensitive payload bytes".to_vec();
        let base = crc32(&a);
        for i in 0..a.len() {
            a[i] ^= 0x10;
            assert_ne!(crc32(&a), base, "flip at byte {i} undetected");
            a[i] ^= 0x10;
        }
    }
}
