//! Tensor file I/O: a minimal self-describing binary format.
//!
//! TuckerMPI ships substantial parallel-I/O machinery for its terabyte
//! inputs; at reproduction scale a simple single-file format suffices, but
//! a real format matters for the CLI tool and for interchange between runs.
//!
//! Layout (all little-endian):
//! ```text
//! magic   4 bytes  b"TNSR"
//! version u32      1
//! scalar  u32      4 (f32) or 8 (f64)
//! ndims   u32
//! dims    ndims x u64
//! data    product(dims) scalars, first-mode-fastest
//! ```

use crate::codec::{checked_len, write_scalars, write_u32, write_usizes, Source};
use crate::dense::Tensor;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

pub use crate::codec::IoScalar;

const MAGIC: &[u8; 4] = b"TNSR";
const VERSION: u32 = 1;

/// Scalar width stored in a tensor file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredPrecision {
    /// 4-byte floats.
    Single,
    /// 8-byte floats.
    Double,
}

impl StoredPrecision {
    /// Bytes per stored scalar.
    pub fn bytes(self) -> u32 {
        match self {
            StoredPrecision::Single => 4,
            StoredPrecision::Double => 8,
        }
    }
}

/// Header of a tensor file (cheap to read without the payload).
#[derive(Clone, Debug, PartialEq)]
pub struct TensorHeader {
    /// Stored precision.
    pub precision: StoredPrecision,
    /// Dimensions.
    pub dims: Vec<usize>,
    /// Bytes the file holds after the header — equal to
    /// [`TensorHeader::payload_bytes`] in an intact file.
    pub held_bytes: u64,
}

impl TensorHeader {
    /// Payload bytes the header declares: element count × scalar width.
    pub fn payload_bytes(&self) -> io::Result<u64> {
        Ok(checked_len(&[checked_len(&self.dims)?, self.precision.bytes() as usize])? as u64)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Write a tensor.
pub fn write_tensor<T: IoScalar>(path: impl AsRef<Path>, x: &Tensor<T>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, T::TAG)?;
    write_u32(&mut w, x.ndims() as u32)?;
    write_usizes(&mut w, x.dims())?;
    write_scalars(&mut w, x.data())?;
    w.flush()
}

type FileSource = Source<BufReader<File>>;

/// Open `path` and parse its header, leaving the source at the payload.
fn open(path: impl AsRef<Path>) -> io::Result<(FileSource, TensorHeader)> {
    let mut r = Source::open(path)?;
    if &r.array()? != MAGIC {
        return Err(bad("not a TNSR file"));
    }
    if r.u32()? != VERSION {
        return Err(bad("unsupported TNSR version"));
    }
    let precision = match r.u32()? {
        4 => StoredPrecision::Single,
        8 => StoredPrecision::Double,
        _ => return Err(bad("unknown scalar width")),
    };
    let ndims = r.u32()? as usize;
    if ndims > 16 {
        return Err(bad("implausible mode count"));
    }
    let dims = r.usizes(ndims)?;
    let held_bytes = r.left();
    Ok((r, TensorHeader { precision, dims, held_bytes }))
}

/// Read only the header.
pub fn read_tensor_header(path: impl AsRef<Path>) -> io::Result<TensorHeader> {
    Ok(open(path)?.1)
}

/// Read a tensor stored at precision `T` (errors if the file's width
/// differs — use [`read_tensor_header`] to dispatch).
pub fn read_tensor<T: IoScalar>(path: impl AsRef<Path>) -> io::Result<Tensor<T>> {
    let mut chunks = TensorChunks::<T>::open(path)?;
    let data = chunks.reader.scalars(chunks.remaining)?;
    Ok(Tensor::from_data(&chunks.header.dims, data))
}

/// Streaming tensor reader: the payload is consumed in bounded chunks in
/// layout order (first mode fastest) instead of being materialized at once.
/// `tucker error` uses this to compare tensors blockwise, and the serve
/// smoke-checks use it to verify query outputs against large references.
pub struct TensorChunks<T: IoScalar> {
    reader: FileSource,
    header: TensorHeader,
    remaining: usize,
    _scalar: std::marker::PhantomData<T>,
}

impl<T: IoScalar> TensorChunks<T> {
    /// Open a tensor file for streaming at precision `T` (errors if the
    /// stored width differs — dispatch with [`read_tensor_header`] first).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let (reader, header) = open(path)?;
        if header.precision.bytes() != T::TAG {
            return Err(bad("file precision does not match the requested scalar type"));
        }
        let remaining = checked_len(&header.dims)?;
        Ok(TensorChunks { reader, header, remaining, _scalar: std::marker::PhantomData })
    }

    /// The file's header.
    pub fn header(&self) -> &TensorHeader {
        &self.header
    }

    /// Elements not yet consumed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Read up to `max_elems` elements into `buf` (replacing its contents), in layout
    /// order. Returns the number read; 0 means the payload is exhausted.
    /// A short file surfaces as an I/O error, never a silent short chunk.
    pub fn next_chunk(&mut self, max_elems: usize, buf: &mut Vec<T>) -> io::Result<usize> {
        let n = max_elems.min(self.remaining);
        *buf = self.reader.scalars(n)?;
        self.remaining -= n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tucker_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_f64() {
        let x = Tensor::<f64>::from_fn(&[3, 4, 2], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64 + 0.5);
        let p = tmp("a.tns");
        write_tensor(&p, &x).unwrap();
        let y: Tensor<f64> = read_tensor(&p).unwrap();
        assert_eq!(x, y);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn roundtrip_f32() {
        let x = Tensor::<f32>::from_fn(&[5, 2], |i| (i[0] as f32) - 0.25 * i[1] as f32);
        let p = tmp("b.tns");
        write_tensor(&p, &x).unwrap();
        let hdr = read_tensor_header(&p).unwrap();
        assert_eq!(hdr.precision, StoredPrecision::Single);
        assert_eq!(hdr.dims, vec![5, 2]);
        let y: Tensor<f32> = read_tensor(&p).unwrap();
        assert_eq!(x, y);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn precision_mismatch_rejected() {
        let x = Tensor::<f32>::zeros(&[2, 2]);
        let p = tmp("c.tns");
        write_tensor(&p, &x).unwrap();
        assert!(read_tensor::<f64>(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn garbage_rejected() {
        let p = tmp("d.tns");
        std::fs::write(&p, b"not a tensor at all").unwrap();
        assert!(read_tensor::<f64>(&p).is_err());
        assert!(read_tensor_header(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn chunked_read_reassembles_exactly() {
        let x = Tensor::<f64>::from_fn(&[6, 5, 4], |i| (i[0] * 20 + i[1] * 4 + i[2]) as f64 * 0.125);
        let p = tmp("chunks.tns");
        write_tensor(&p, &x).unwrap();
        let mut chunks = TensorChunks::<f64>::open(&p).unwrap();
        assert_eq!(chunks.header().dims, x.dims());
        assert_eq!(chunks.remaining(), x.len());
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while chunks.next_chunk(17, &mut buf).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, x.data());
        assert_eq!(chunks.remaining(), 0);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn chunked_read_rejects_truncation_and_mismatch() {
        let x = Tensor::<f32>::from_fn(&[8, 8], |i| i[0] as f32 - i[1] as f32);
        let p = tmp("chunks_bad.tns");
        write_tensor(&p, &x).unwrap();
        assert!(TensorChunks::<f64>::open(&p).is_err(), "precision mismatch");
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        let mut chunks = TensorChunks::<f32>::open(&p).unwrap();
        let mut buf = Vec::new();
        let mut r = Ok(0);
        while matches!(r, Ok(n) if n > 0 || chunks.remaining() > 0) {
            r = chunks.next_chunk(16, &mut buf);
            if r.is_err() {
                break;
            }
        }
        assert!(r.is_err(), "truncated payload must error, not end quietly");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn scalar_tensor_roundtrip() {
        let x = Tensor::<f64>::from_fn(&[], |_| 42.0);
        let p = tmp("e.tns");
        write_tensor(&p, &x).unwrap();
        let y: Tensor<f64> = read_tensor(&p).unwrap();
        assert_eq!(y.len(), 1);
        assert_eq!(y.data()[0], 42.0);
        std::fs::remove_file(p).ok();
    }
}
