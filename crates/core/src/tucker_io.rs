//! Tucker decomposition file I/O ("TUCK" format): a core tensor plus one
//! factor matrix per mode, self-describing, little-endian.
//!
//! Version 2 adds per-section CRC-32 checksums so that a store opened for
//! query serving ([`tucker-serve`]'s `TuckerStore`) can reject a corrupted
//! file with a typed error naming the damaged section instead of silently
//! serving garbage. Version 3 additionally records a **generation number**
//! — the streaming/incremental-update counter bumped by every `tucker
//! update` hot-swap publish — in the checksummed header. Version-1 files
//! (no checksums) and version-2 files (no generation; read as generation 0)
//! remain readable.
//!
//! ```text
//! magic      4 bytes  b"TUCK"
//! version    u32      2 or 3 (1 accepted for reading)
//! scalar     u32      4 or 8
//! nmodes     u32
//! per mode:  rows u64, cols u64 (factor shapes; cols = core dims)
//! v3 only:   generation u64
//! v2+ only:  header crc32, one crc32 per factor, core crc32
//! factors    column-major scalars, mode order
//! core       scalars, first-mode-fastest
//! ```
//!
//! The header checksum covers every byte from the magic through the shape
//! table (and, in v3, the generation word); each payload checksum covers
//! that section's scalar bytes exactly as they appear on disk.

use crate::crc32::{crc32, scalars_crc, Crc32};
use crate::tucker::TuckerTensor;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use tucker_linalg::Matrix;
use tucker_tensor::codec::{
    atomic_write, checked_len, write_scalars, write_u32, write_u64, write_usizes, IoScalar, Source,
};
use tucker_tensor::Tensor;

const MAGIC: &[u8; 4] = b"TUCK";
/// Default (checksummed, generation-free) container version.
pub const VERSION: u32 = 2;
/// Legacy checksum-free container version, still readable.
pub const VERSION_V1: u32 = 1;
/// Generation-stamped container version written by the streaming update
/// path ([`write_tucker_atomic`]).
pub const VERSION_GEN: u32 = 3;

/// A region of a TUCK file protected by its own checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Magic, version, scalar tag, and the shape table.
    Header,
    /// Factor matrix of the given mode.
    Factor(usize),
    /// The core tensor payload.
    Core,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Header => write!(f, "header"),
            Section::Factor(n) => write!(f, "factor[{n}]"),
            Section::Core => write!(f, "core"),
        }
    }
}

/// Typed error for TUCK container I/O.
#[derive(Debug)]
pub enum TuckerIoError {
    /// Underlying filesystem/stream error (includes truncation).
    Io(io::Error),
    /// The file is not a TUCK container or its header is malformed.
    Format(String),
    /// The container version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file stores a different scalar width than requested.
    PrecisionMismatch {
        /// Scalar byte width recorded in the file.
        file: u32,
        /// Scalar byte width the caller asked for.
        requested: u32,
    },
    /// A section's stored CRC-32 does not match its bytes.
    ChecksumMismatch {
        /// Which section is damaged.
        section: Section,
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum computed from the bytes actually read.
        computed: u32,
    },
}

impl fmt::Display for TuckerIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuckerIoError::Io(e) => write!(f, "tucker file I/O error: {e}"),
            TuckerIoError::Format(msg) => write!(f, "bad TUCK file: {msg}"),
            TuckerIoError::UnsupportedVersion(v) => {
                write!(f, "unsupported TUCK version {v} (this reader understands 1 through 3)")
            }
            TuckerIoError::PrecisionMismatch { file, requested } => write!(
                f,
                "file stores {file}-byte scalars but {requested}-byte scalars were requested"
            ),
            TuckerIoError::ChecksumMismatch { section, stored, computed } => write!(
                f,
                "checksum mismatch in {section} section: stored {stored:#010x}, computed {computed:#010x} — file is corrupted"
            ),
        }
    }
}

impl std::error::Error for TuckerIoError {}

impl From<io::Error> for TuckerIoError {
    fn from(e: io::Error) -> Self {
        TuckerIoError::Io(e)
    }
}

/// Result alias for this module.
pub type IoResult<T> = std::result::Result<T, TuckerIoError>;

/// Cheap-to-read description of a TUCK file (no payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuckerHeader {
    /// Container version (1, 2, or 3).
    pub version: u32,
    /// Scalar byte width (4 or 8).
    pub scalar: u32,
    /// Per-mode factor shapes `(rows, cols)`; `cols` are the core dims.
    pub shapes: Vec<(usize, usize)>,
    /// Streaming-update generation (v3); 0 for v1/v2 files.
    pub generation: u64,
}

impl TuckerHeader {
    /// Original tensor dimensions (factor row counts).
    pub fn dims(&self) -> Vec<usize> {
        self.shapes.iter().map(|&(r, _)| r).collect()
    }

    /// Multilinear ranks (factor column counts = core dims).
    pub fn ranks(&self) -> Vec<usize> {
        self.shapes.iter().map(|&(_, c)| c).collect()
    }
}

/// A Tucker decomposition read at whichever precision the file stores.
#[derive(Clone, Debug)]
pub enum AnyTucker {
    /// Single-precision contents.
    F32(TuckerTensor<f32>),
    /// Double-precision contents.
    F64(TuckerTensor<f64>),
}

/// Serialized header bytes (magic through shape table, plus the v3
/// generation word) for `tk`.
fn header_bytes<T: IoScalar>(
    tk: &TuckerTensor<T>,
    version: u32,
    generation: u64,
) -> io::Result<Vec<u8>> {
    let mut h = Vec::with_capacity(24 + 16 * tk.factors.len());
    h.extend_from_slice(MAGIC);
    write_u32(&mut h, version)?;
    write_u32(&mut h, T::TAG)?;
    write_u32(&mut h, tk.factors.len() as u32)?;
    for u in &tk.factors {
        write_usizes(&mut h, &[u.rows(), u.cols()])?;
    }
    if version >= VERSION_GEN {
        write_u64(&mut h, generation)?;
    }
    Ok(h)
}

/// The payload sections in file order: each factor, then the core.
fn sections<T: IoScalar>(tk: &TuckerTensor<T>) -> impl Iterator<Item = &[T]> {
    tk.factors.iter().map(|u| u.data()).chain([tk.core.data()])
}

/// Write the checksummed layout at `version` with the given generation
/// (ignored below v3) to an open sink.
fn write_checksummed<T: IoScalar>(
    w: &mut impl Write,
    tk: &TuckerTensor<T>,
    version: u32,
    generation: u64,
) -> IoResult<()> {
    let header = header_bytes(tk, version, generation)?;
    w.write_all(&header)?;
    write_u32(w, crc32(&header))?;
    sections(tk).try_for_each(|s| write_u32(w, scalars_crc(s)))?;
    sections(tk).try_for_each(|s| write_scalars(w, s))?;
    w.flush()?;
    Ok(())
}

/// Write a Tucker decomposition in the default (v2, checksummed) format.
pub fn write_tucker<T: IoScalar>(path: impl AsRef<Path>, tk: &TuckerTensor<T>) -> IoResult<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_checksummed(&mut w, tk, VERSION, 0)
}

/// Atomically publish a generation-stamped store ([`atomic_write`]): a
/// reader (or a serving tier re-opening the store) sees either the complete
/// old file or the complete new one, never a torn write — the hot-swap
/// publish primitive.
pub fn write_tucker_atomic<T: IoScalar>(
    path: impl AsRef<Path>,
    tk: &TuckerTensor<T>,
    generation: u64,
) -> IoResult<()> {
    atomic_write(path.as_ref(), |w| write_checksummed(w, tk, VERSION_GEN, generation))
}

/// A file whose delivered bytes run through a CRC-32 hasher, which each
/// section boundary takes the digest of and resets.
type Reader = Source<BufReader<File>, Crc32>;

fn check(section: Section, stored: u32, computed: u32) -> IoResult<()> {
    if stored == computed {
        Ok(())
    } else {
        Err(TuckerIoError::ChecksumMismatch { section, stored, computed })
    }
}

/// Open `path` and parse its header (magic through shape table and v3
/// generation word). In a v2+ file the header checksum is verified and
/// returned, leaving the source at the payload checksum table; in a v1
/// file it is left at the payload.
fn open(path: impl AsRef<Path>) -> IoResult<(Reader, TuckerHeader, Option<u32>)> {
    let mut r = Source::open(path)?.tap(Crc32::new());
    if &r.array()? != MAGIC {
        return Err(TuckerIoError::Format("not a TUCK file".into()));
    }
    let version = r.u32()?;
    if !(VERSION_V1..=VERSION_GEN).contains(&version) {
        return Err(TuckerIoError::UnsupportedVersion(version));
    }
    let scalar = r.u32()?;
    if scalar != 4 && scalar != 8 {
        return Err(TuckerIoError::Format(format!("unknown scalar width {scalar}")));
    }
    let nmodes = r.u32()? as usize;
    if nmodes > 16 {
        return Err(TuckerIoError::Format(format!("implausible mode count {nmodes}")));
    }
    let shapes = r.usizes(2 * nmodes)?.chunks(2).map(|s| (s[0], s[1])).collect();
    let generation = if version >= VERSION_GEN { r.u64()? } else { 0 };
    let stored = if version >= VERSION {
        let computed = r.tap_mut().take();
        let stored = r.u32()?;
        check(Section::Header, stored, computed)?;
        Some(stored)
    } else {
        None
    };
    Ok((r, TuckerHeader { version, scalar, shapes, generation }, stored))
}

/// Read only the header — version, precision, and shapes — without touching
/// the payload. In a v2 file the header checksum is verified.
pub fn read_tucker_header(path: impl AsRef<Path>) -> IoResult<TuckerHeader> {
    Ok(open(path)?.1)
}

/// Stored per-section CRC-32 table of a checksummed (v2+) TUCK file, in
/// file order: header, one per factor, core. Returns `None` for v1 files,
/// which carry no checksums. The header checksum is verified on the way in
/// (a damaged shape table would misreport the table length); payload
/// checksums are returned as stored, unverified — use [`read_tucker`] to
/// verify them against the payload bytes.
pub fn read_tucker_checksums(path: impl AsRef<Path>) -> IoResult<Option<Vec<u32>>> {
    let (mut r, header, stored) = open(path)?;
    let Some(stored) = stored else { return Ok(None) };
    let mut table = vec![stored];
    for _ in 0..header.shapes.len() + 1 {
        table.push(r.u32()?);
    }
    Ok(Some(table))
}

/// Read one payload section of `dims` and verify it against its stored
/// checksum, if the file has one.
fn read_section<T: IoScalar>(
    r: &mut Reader,
    dims: &[usize],
    section: Section,
    stored: Option<u32>,
) -> IoResult<Vec<T>> {
    let data = r.scalars(checked_len(dims)?)?;
    let computed = r.tap_mut().take();
    if let Some(stored) = stored {
        check(section, stored, computed)?;
    }
    Ok(data)
}

/// Read a Tucker decomposition stored at precision `T`, verifying every
/// section checksum when the file is v2.
pub fn read_tucker<T: IoScalar>(path: impl AsRef<Path>) -> IoResult<TuckerTensor<T>> {
    let (mut r, header, stored) = open(path)?;
    if header.scalar != T::TAG {
        return Err(TuckerIoError::PrecisionMismatch { file: header.scalar, requested: T::TAG });
    }
    // v2: the checksum table sits between header and payload, and is not
    // part of any section digest.
    let mut table = vec![None; header.shapes.len() + 1];
    if stored.is_some() {
        for slot in &mut table {
            *slot = Some(r.u32()?);
        }
        r.tap_mut().take();
    }
    let mut factors = Vec::with_capacity(header.shapes.len());
    for (n, &(rows, cols)) in header.shapes.iter().enumerate() {
        let data = read_section(&mut r, &[rows, cols], Section::Factor(n), table[n])?;
        factors.push(Matrix::from_col_major(rows, cols, data));
    }
    let core_dims = header.ranks();
    let data = read_section(&mut r, &core_dims, Section::Core, table[header.shapes.len()])?;
    Ok(TuckerTensor { core: Tensor::from_data(&core_dims, data), factors })
}

/// Read a Tucker decomposition at whichever precision the file stores,
/// dispatching on the header's scalar tag (the CLI's `decompress`/`info`
/// pattern, deduplicated).
pub fn read_tucker_any(path: impl AsRef<Path>) -> IoResult<AnyTucker> {
    let header = read_tucker_header(&path)?;
    match header.scalar {
        4 => Ok(AnyTucker::F32(read_tucker::<f32>(path)?)),
        _ => Ok(AnyTucker::F64(read_tucker::<f64>(path)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SthosvdConfig;
    use crate::sthosvd::sthosvd;

    /// A generation-stamped (v3) store written in place, without the
    /// temp-file-and-rename of [`write_tucker_atomic`].
    fn write_tucker_generation<T: IoScalar>(
        path: impl AsRef<Path>,
        tk: &TuckerTensor<T>,
        generation: u64,
    ) -> IoResult<()> {
        let mut w = BufWriter::new(File::create(path)?);
        write_checksummed(&mut w, tk, VERSION_GEN, generation)
    }

    /// The legacy v1 (checksum-free) layout, which no writer produces any
    /// more but every reader must still accept.
    fn write_tucker_v1<T: IoScalar>(path: impl AsRef<Path>, tk: &TuckerTensor<T>) -> IoResult<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&header_bytes(tk, VERSION_V1, 0)?)?;
        sections(tk).try_for_each(|s| write_scalars(&mut w, s))?;
        w.flush()?;
        Ok(())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tucker_tkio_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> (Tensor<f64>, TuckerTensor<f64>) {
        let x = Tensor::from_fn(&[8, 7, 6], |i| {
            10f64.powf(-(i[0] as f64)) * ((i[1] * 6 + i[2]) as f64 * 0.31).sin()
        });
        let tk = sthosvd(&x, &SthosvdConfig::with_tolerance(1e-3)).unwrap();
        (x, tk)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (x, tk) = sample();
        let p = tmp("a.tkr");
        write_tucker(&p, &tk).unwrap();
        let back: TuckerTensor<f64> = read_tucker(&p).unwrap();
        assert_eq!(back.ranks(), tk.ranks());
        assert_eq!(back.core, tk.core);
        for (a, b) in back.factors.iter().zip(&tk.factors) {
            assert_eq!(a, b);
        }
        // Reconstruction identical ⇒ error identical.
        assert_eq!(back.relative_error(&x), tk.relative_error(&x));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let p = tmp("b.tkr");
        std::fs::write(&p, b"TNSRxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(read_tucker::<f64>(&p), Err(TuckerIoError::Format(_))));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn single_precision_roundtrip() {
        let (_, tk64) = sample();
        let tk = TuckerTensor::<f32> {
            core: tk64.core.cast(),
            factors: tk64
                .factors
                .iter()
                .map(|u| Matrix::from_fn(u.rows(), u.cols(), |i, j| u[(i, j)] as f32))
                .collect(),
        };
        let p = tmp("c.tkr");
        write_tucker(&p, &tk).unwrap();
        let back: TuckerTensor<f32> = read_tucker(&p).unwrap();
        assert_eq!(back.core, tk.core);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn v1_files_still_readable() {
        let (_, tk) = sample();
        let p = tmp("v1.tkr");
        write_tucker_v1(&p, &tk).unwrap();
        let header = read_tucker_header(&p).unwrap();
        assert_eq!(header.version, VERSION_V1);
        let back: TuckerTensor<f64> = read_tucker(&p).unwrap();
        assert_eq!(back.core, tk.core);
        assert_eq!(back.factors, tk.factors);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn header_reports_dims_ranks_and_precision() {
        let (x, tk) = sample();
        let p = tmp("h.tkr");
        write_tucker(&p, &tk).unwrap();
        let h = read_tucker_header(&p).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.scalar, 8);
        assert_eq!(h.dims(), x.dims());
        assert_eq!(h.ranks(), tk.ranks());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn read_any_dispatches_on_stored_precision() {
        let (_, tk) = sample();
        let p = tmp("any.tkr");
        write_tucker(&p, &tk).unwrap();
        match read_tucker_any(&p).unwrap() {
            AnyTucker::F64(back) => assert_eq!(back.core, tk.core),
            AnyTucker::F32(_) => panic!("double file decoded as single"),
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn precision_mismatch_is_typed() {
        let (_, tk) = sample();
        let p = tmp("pm.tkr");
        write_tucker(&p, &tk).unwrap();
        match read_tucker::<f32>(&p) {
            Err(TuckerIoError::PrecisionMismatch { file: 8, requested: 4 }) => {}
            other => panic!("want PrecisionMismatch, got {other:?}"),
        }
        std::fs::remove_file(p).ok();
    }

    /// Byte offsets of each section in a v2 file for `tk`.
    fn layout<T: IoScalar>(tk: &TuckerTensor<T>) -> Vec<(Section, usize, usize)> {
        let header_len = 16 + 16 * tk.factors.len();
        let table_len = 4 * (tk.factors.len() + 2);
        let mut off = header_len + table_len;
        let mut out = vec![(Section::Header, 0, header_len)];
        for (n, u) in tk.factors.iter().enumerate() {
            let len = u.data().len() * T::TAG as usize;
            out.push((Section::Factor(n), off, len));
            off += len;
        }
        out.push((Section::Core, off, tk.core.len() * T::TAG as usize));
        out
    }

    #[test]
    fn corruption_in_every_section_is_rejected_and_named() {
        let (_, tk) = sample();
        let p = tmp("corrupt.tkr");
        write_tucker(&p, &tk).unwrap();
        let pristine = std::fs::read(&p).unwrap();
        for (section, off, len) in layout(&tk) {
            assert!(len > 0, "empty section {section}");
            let mut bytes = pristine.clone();
            // Flip one bit in the middle of the section.
            bytes[off + len / 2] ^= 0x04;
            std::fs::write(&p, &bytes).unwrap();
            match read_tucker::<f64>(&p) {
                Err(TuckerIoError::ChecksumMismatch { section: got, stored, computed }) => {
                    assert_eq!(got, section, "corruption attributed to the wrong section");
                    assert_ne!(stored, computed);
                    // The rendered error names the section for the operator.
                    let msg = TuckerIoError::ChecksumMismatch { section: got, stored, computed }
                        .to_string();
                    assert!(msg.contains(&section.to_string()), "{msg}");
                }
                // A header bit-flip may instead land in a validated field
                // (magic/version/width), which is also a typed rejection.
                Err(TuckerIoError::Format(_)) | Err(TuckerIoError::UnsupportedVersion(_))
                    if section == Section::Header => {}
                other => panic!("flip in {section}: want typed rejection, got {other:?}"),
            }
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn corrupted_checksum_table_entry_is_rejected() {
        let (_, tk) = sample();
        let p = tmp("table.tkr");
        write_tucker(&p, &tk).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // First factor's table slot: header + header-crc.
        let slot = 16 + 16 * tk.factors.len() + 4;
        bytes[slot] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        match read_tucker::<f64>(&p) {
            Err(TuckerIoError::ChecksumMismatch { section: Section::Factor(0), .. }) => {}
            other => panic!("want Factor(0) mismatch, got {other:?}"),
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn generation_round_trips_in_v3_and_defaults_to_zero() {
        let (_, tk) = sample();
        let p2 = tmp("g2.tkr");
        write_tucker(&p2, &tk).unwrap();
        assert_eq!(read_tucker_header(&p2).unwrap().generation, 0);
        let p3 = tmp("g3.tkr");
        write_tucker_generation(&p3, &tk, 42).unwrap();
        let h = read_tucker_header(&p3).unwrap();
        assert_eq!(h.version, VERSION_GEN);
        assert_eq!(h.generation, 42);
        // The payload survives the extra header word.
        let back: TuckerTensor<f64> = read_tucker(&p3).unwrap();
        assert_eq!(back.core, tk.core);
        assert_eq!(back.factors, tk.factors);
        std::fs::remove_file(p2).ok();
        std::fs::remove_file(p3).ok();
    }

    #[test]
    fn v3_generation_word_is_covered_by_the_header_checksum() {
        let (_, tk) = sample();
        let p = tmp("gcrc.tkr");
        write_tucker_generation(&p, &tk, 7).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a bit inside the generation word (last 8 header bytes).
        let gen_off = 16 + 16 * tk.factors.len() + 3;
        bytes[gen_off] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_tucker_header(&p),
            Err(TuckerIoError::ChecksumMismatch { section: Section::Header, .. })
        ));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn atomic_publish_replaces_the_store_and_leaves_no_temp() {
        let (_, tk) = sample();
        let p = tmp("atomic.tkr");
        write_tucker(&p, &tk).unwrap();
        write_tucker_atomic(&p, &tk, 3).unwrap();
        let h = read_tucker_header(&p).unwrap();
        assert_eq!((h.version, h.generation), (VERSION_GEN, 3));
        let back: TuckerTensor<f64> = read_tucker(&p).unwrap();
        assert_eq!(back.core, tk.core);
        // No temp siblings left behind.
        let dir = p.parent().unwrap();
        let stem = p.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn checksum_table_reader_matches_the_file() {
        let (_, tk) = sample();
        let p = tmp("tbl.tkr");
        write_tucker_generation(&p, &tk, 1).unwrap();
        let table = read_tucker_checksums(&p).unwrap().expect("v3 has checksums");
        assert_eq!(table.len(), tk.factors.len() + 2);
        for (n, u) in tk.factors.iter().enumerate() {
            assert_eq!(table[n + 1], scalars_crc(u.data()));
        }
        assert_eq!(*table.last().unwrap(), scalars_crc(tk.core.data()));
        // v1 files have none.
        let p1 = tmp("tbl1.tkr");
        write_tucker_v1(&p1, &tk).unwrap();
        assert_eq!(read_tucker_checksums(&p1).unwrap(), None);
        std::fs::remove_file(p).ok();
        std::fs::remove_file(p1).ok();
    }

    #[test]
    fn truncated_payload_is_io_error_not_panic() {
        let (_, tk) = sample();
        let p = tmp("trunc.tkr");
        write_tucker(&p, &tk).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(read_tucker::<f64>(&p), Err(TuckerIoError::Io(_))));
        std::fs::remove_file(p).ok();
    }
}
