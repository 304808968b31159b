//! The one little-endian codec under the TNSR, TUCK and TKCP formats
//! (DESIGN.md §19): how a length word and a scalar run are laid out, how
//! much a length read from a file may allocate, and how a file is published
//! atomically are decided here and nowhere else.
//!
//! Reading goes through a [`Source`], a byte stream that knows how many
//! bytes it still holds. Every count that came out of a file is checked
//! against that number *before* anything is allocated for it, so no byte
//! sequence on disk can make a reader allocate more than the file's own
//! length (plus the fixed stack chunk below) — it gets a typed
//! [`io::Error`] instead.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Element I/O for the two supported scalar types.
pub trait IoScalar: tucker_linalg::Scalar {
    /// Byte width tag stored in the header.
    const TAG: u32;
    /// Encode `run` into `out`, which is exactly `run.len() × TAG` bytes.
    fn encode(run: &[Self], out: &mut [u8]);
    /// Append the `bytes.len() / TAG` scalars encoded in `bytes` to `out`.
    fn decode(bytes: &[u8], out: &mut Vec<Self>);
}

// The width is a literal in each impl so that both loops compile to copies.
macro_rules! io_scalar {
    ($t:ty, $width:literal) => {
        impl IoScalar for $t {
            const TAG: u32 = $width;
            fn encode(run: &[Self], out: &mut [u8]) {
                let (words, rest) = out.as_chunks_mut::<$width>();
                assert!(words.len() == run.len() && rest.is_empty(), "encode: buffer size");
                for (word, v) in words.iter_mut().zip(run) {
                    *word = v.to_le_bytes();
                }
            }
            fn decode(bytes: &[u8], out: &mut Vec<Self>) {
                out.extend(bytes.as_chunks::<$width>().0.iter().map(|&w| <$t>::from_le_bytes(w)));
            }
        }
    };
}
io_scalar!(f32, 4);
io_scalar!(f64, 8);

/// Scalars converted per pass through the stack buffer.
const CHUNK: usize = 2048;
/// The stack buffer: `CHUNK` scalars of the widest type.
const CHUNK_BYTES: usize = CHUNK * 8;

/// Write a little-endian `u32` word.
pub fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a little-endian `u64` word.
pub fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write each size as a `u64` word.
pub fn write_usizes(w: &mut impl Write, v: &[usize]) -> io::Result<()> {
    v.iter().try_for_each(|&x| write_u64(w, x as u64))
}

/// Write a scalar run as it appears on disk: `TAG` little-endian bytes per
/// element, no length prefix.
pub fn write_scalars<T: IoScalar>(w: &mut impl Write, data: &[T]) -> io::Result<()> {
    let width = T::TAG as usize;
    let mut buf = [0u8; CHUNK_BYTES];
    for run in data.chunks(CHUNK) {
        let bytes = &mut buf[..run.len() * width];
        T::encode(run, bytes);
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Element count of a shape read from a header; a product that overflows
/// is an error, never a wrapped (small) count. A zero extent does not
/// excuse the others: their product (every stride) must fit too.
pub fn checked_len(dims: &[usize]) -> io::Result<usize> {
    let strides = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d.max(1)));
    let strides = strides.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "dimension product overflows")
    })?;
    Ok(if dims.contains(&0) { 0 } else { strides })
}

/// A byte stream that knows how many bytes it still holds, and copies
/// every byte it delivers into a tap (a checksum; nothing by default).
pub struct Source<R, W = io::Sink> {
    inner: R,
    left: u64,
    tap: W,
}

impl Source<BufReader<File>> {
    /// Open a file; the budget is its length.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        Ok(Source { inner: BufReader::new(file), left, tap: io::sink() })
    }
}

impl<'a> Source<&'a [u8]> {
    /// Read from bytes already in memory.
    pub fn from_slice(bytes: &'a [u8]) -> Self {
        Source { inner: bytes, left: bytes.len() as u64, tap: io::sink() }
    }
}

impl<R: Read, W: Write> Source<R, W> {
    /// Copy everything delivered from here on into `tap`.
    pub fn tap<V: Write>(self, tap: V) -> Source<R, V> {
        Source { inner: self.inner, left: self.left, tap }
    }

    /// The tap.
    pub fn tap_mut(&mut self) -> &mut W {
        &mut self.tap
    }

    /// Bytes not yet consumed.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// The next `N` bytes, verbatim (magics, flag bytes).
    pub fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.inner.read_exact(&mut b)?;
        self.tap.write_all(&b)?;
        self.left = self.left.saturating_sub(N as u64);
        Ok(b)
    }

    /// A little-endian `u32` word.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64` word.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` word holding a size or an index.
    pub fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "size word exceeds usize"))
    }

    /// `count` size words.
    pub fn usizes(&mut self, count: usize) -> io::Result<Vec<usize>> {
        self.claim(count, 8)?;
        (0..count).map(|_| self.usize()).collect()
    }

    /// Bytes `count` items of `width` occupy — refused, before the caller
    /// allocates for them, unless the source still holds that many.
    fn claim(&self, count: usize, width: usize) -> io::Result<usize> {
        count.checked_mul(width).filter(|&bytes| bytes as u64 <= self.left).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "payload longer than the file")
        })
    }

    /// Read a run of `count` scalars.
    pub fn scalars<T: IoScalar>(&mut self, count: usize) -> io::Result<Vec<T>> {
        let width = T::TAG as usize;
        let total = self.claim(count, width)?;
        let mut out = Vec::with_capacity(count);
        let mut buf = [0u8; CHUNK_BYTES];
        while out.len() < count {
            let bytes = &mut buf[..(count - out.len()).min(CHUNK) * width];
            self.inner.read_exact(bytes)?;
            self.tap.write_all(bytes)?;
            T::decode(bytes, &mut out);
        }
        self.left -= total as u64;
        Ok(out)
    }
}

/// Publish a file atomically: fill a sibling temporary, flush and sync it,
/// then `rename(2)` it over `path`. A reader sees the complete old file or
/// the complete new one, never a torn write; on any error the temporary is
/// removed and `path` is untouched.
pub fn atomic_write<E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let publish = || -> Result<(), E> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        fill(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        Ok(fs::rename(&tmp, path)?)
    };
    publish().inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out one byte per `read` call.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn roundtrip<T: IoScalar + PartialEq + std::fmt::Debug>(make: impl Fn(usize) -> T) {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let data: Vec<T> = (0..len).map(&make).collect();
            let mut bytes = Vec::new();
            write_scalars(&mut bytes, &data).unwrap();
            assert_eq!(bytes.len(), len * T::TAG as usize);
            let mut src = Source::from_slice(&bytes);
            assert_eq!(src.scalars::<T>(len).unwrap(), data, "len {len}");
            assert_eq!(src.left(), 0);
            let mut slow = Source { inner: Trickle(&bytes), left: bytes.len() as u64, tap: Vec::new() };
            assert_eq!(slow.scalars::<T>(len).unwrap(), data, "len {len}, one byte per read");
            assert_eq!(*slow.tap_mut(), bytes, "the tap sees what was delivered");
        }
    }

    #[test]
    fn scalar_runs_roundtrip_across_chunk_edges() {
        roundtrip(|i| i as f64 * 0.37 - 5.0);
        roundtrip(|i| i as f32 * 0.37 - 5.0);
    }

    #[test]
    fn scalar_bytes_are_little_endian_ieee() {
        let mut bytes = Vec::new();
        write_scalars(&mut bytes, &[1.0f64, -2.5]).unwrap();
        write_scalars(&mut bytes, &[1.0f32]).unwrap();
        write_u32(&mut bytes, 0x0403_0201).unwrap();
        write_u64(&mut bytes, 0x0807_0605_0403_0201).unwrap();
        let want: &[u8] = &[
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0x04, 0xC0, 0, 0, 0x80, 0x3F, 1, 2, 3,
            4, 1, 2, 3, 4, 5, 6, 7, 8,
        ];
        assert_eq!(bytes, want);
        let mut src = Source::from_slice(&bytes);
        assert_eq!(src.scalars::<f64>(2).unwrap(), [1.0, -2.5]);
        assert_eq!(src.scalars::<f32>(1).unwrap(), [1.0]);
        assert_eq!(src.u32().unwrap(), 0x0403_0201);
        assert_eq!(src.usize().unwrap(), 0x0807_0605_0403_0201);
        assert!(src.u32().is_err(), "exhausted");
    }

    #[test]
    fn counts_beyond_the_source_are_refused_before_allocating() {
        let bytes = [0u8; 20];
        for count in [3, 1 << 40, usize::MAX / 8 + 1, usize::MAX] {
            let mut src = Source::from_slice(&bytes);
            let e = src.scalars::<f64>(count).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{count}");
            assert!(src.usizes(count).is_err(), "{count}");
            assert_eq!(src.left(), 20, "a refused read consumes nothing");
        }
        let mut src = Source::from_slice(&bytes);
        assert_eq!(src.scalars::<f64>(2).unwrap(), [0.0, 0.0]);
        assert!(src.scalars::<f32>(2).is_err(), "4 bytes left");
        assert_eq!(src.scalars::<f32>(1).unwrap(), [0.0]);
    }

    #[test]
    fn element_counts_are_checked() {
        assert_eq!(checked_len(&[]).unwrap(), 1);
        assert_eq!(checked_len(&[3, 0, 5]).unwrap(), 0);
        assert_eq!(checked_len(&[3, 4, 5]).unwrap(), 60);
        assert!(checked_len(&[1 << 40, 1 << 40]).is_err());
        assert!(checked_len(&[usize::MAX, 2]).is_err());
        assert!(checked_len(&[0, 1 << 40, 1 << 40]).is_err(), "strides overflow");
    }

    fn temps_in(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect()
    }

    #[test]
    fn atomic_write_publishes_or_leaves_nothing_behind() {
        let dir = std::env::temp_dir().join(format!("tucker_codec_atomic_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("file.bin");
        atomic_write(&p, |w| w.write_all(b"first")).unwrap();
        atomic_write(&p, |w| w.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second");
        assert!(temps_in(&dir).is_empty());
        // A failing closure: the target keeps its old bytes.
        let e = atomic_write(&p, |w| {
            w.write_all(b"torn")?;
            Err(io::Error::other("disk on fire"))
        });
        assert_eq!(e.unwrap_err().to_string(), "disk on fire");
        assert_eq!(fs::read(&p).unwrap(), b"second");
        assert!(temps_in(&dir).is_empty());
        // A failing rename: the target is a non-empty directory.
        let d = dir.join("sub");
        fs::create_dir_all(d.join("x")).unwrap();
        assert!(atomic_write(&d, |w| w.write_all(b"x")).is_err());
        assert!(d.join("x").is_dir());
        assert!(temps_in(&dir).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
