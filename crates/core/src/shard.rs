//! Mode-0 sharding of a Tucker decomposition for distributed serving.
//!
//! A TUCK store answers hyperslab queries through the chain
//! `G ×_0 U_0[rows] ×_1 U_1[rows] ···`. Every output element depends on
//! exactly **one** row of `U_0` — the mode-0 contraction is row-separable —
//! so splitting `U_0` into contiguous row blocks (the paper's §3.4 block
//! distribution, [`block_range`]) yields shards that each answer queries
//! over their own mode-0 slice *bit-identically* to the whole store: the
//! core and the remaining factors are carried unchanged, and no k-loop is
//! reordered. A router concatenating per-shard answers along mode 0
//! therefore reproduces the unsharded answer byte for byte.
//!
//! [`shard_tucker`] performs the in-memory split; [`write_shards`] writes
//! one checksummed TUCK v2 file per shard plus a tiny `manifest.txt`
//! ([`ShardManifest`]) recording the layout, so a serving tier can reopen
//! the set without re-deriving the partition.

use crate::tucker::TuckerTensor;
use crate::tucker_io::{read_tucker, write_tucker, TuckerIoError};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use tucker_dtensor::block_range;
use tucker_linalg::{Matrix, Scalar};
use tucker_tensor::io::IoScalar;

/// Layout of a sharded store: how many mode-0 row blocks, over how many
/// rows. Ranges follow the front-loaded ⌈I₀/S⌉ rule of [`block_range`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of shards.
    pub shards: usize,
    /// Global tensor dimensions `I_n` (shard 0..S split `dims[0]`).
    pub dims: Vec<usize>,
    /// Stored multilinear ranks `R_n` (identical in every shard).
    pub ranks: Vec<usize>,
    /// Bytes of one stored scalar (4 or 8).
    pub scalar: u32,
}

impl ShardManifest {
    /// Mode-0 row range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        block_range(self.dims[0], self.shards, s)
    }

    /// File name of shard `s` inside the shard directory.
    pub fn file_name(s: usize) -> String {
        format!("shard{s:04}.tkr")
    }
}

/// Split a decomposition into `shards` mode-0 row blocks. Shard `s` keeps
/// the full core and factors `U_1..U_{N-1}`, and rows
/// `block_range(I_0, shards, s)` of `U_0`. Panics if `shards` is zero or
/// exceeds `I_0` (an empty shard could never answer a query).
pub fn shard_tucker<T: Scalar>(tk: &TuckerTensor<T>, shards: usize) -> Vec<TuckerTensor<T>> {
    let dims = tk.original_dims();
    assert!(!dims.is_empty(), "shard_tucker: tensor has no modes");
    assert!(
        shards >= 1 && shards <= dims[0],
        "shard_tucker: {shards} shards over {} mode-0 rows",
        dims[0]
    );
    let u0 = &tk.factors[0];
    (0..shards)
        .map(|s| {
            let r = block_range(dims[0], shards, s);
            let rows = r.len();
            let u0s = Matrix::from_fn(rows, u0.cols(), |i, j| u0[(r.start + i, j)]);
            let mut factors = Vec::with_capacity(tk.factors.len());
            factors.push(u0s);
            factors.extend(tk.factors[1..].iter().cloned());
            TuckerTensor { core: tk.core.clone(), factors }
        })
        .collect()
}

/// Write `shards` TUCK v2 files plus `manifest.txt` into `dir` (created if
/// missing). Returns the shard file paths in shard order.
pub fn write_shards<T: IoScalar>(
    dir: impl AsRef<Path>,
    tk: &TuckerTensor<T>,
    shards: usize,
) -> Result<Vec<PathBuf>, TuckerIoError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let parts = shard_tucker(tk, shards);
    let mut paths = Vec::with_capacity(parts.len());
    for (s, part) in parts.iter().enumerate() {
        let path = dir.join(ShardManifest::file_name(s));
        write_tucker(&path, part)?;
        paths.push(path);
    }
    let manifest = ShardManifest {
        shards,
        dims: tk.original_dims(),
        ranks: tk.ranks(),
        scalar: T::TAG,
    };
    let join = |v: &[usize]| {
        v.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
    };
    let mut f = std::fs::File::create(dir.join("manifest.txt"))?;
    writeln!(f, "TKSM v1")?;
    writeln!(f, "shards {}", manifest.shards)?;
    writeln!(f, "dims {}", join(&manifest.dims))?;
    writeln!(f, "ranks {}", join(&manifest.ranks))?;
    writeln!(f, "scalar {}", manifest.scalar)?;
    Ok(paths)
}

/// Read the manifest written by [`write_shards`].
pub fn read_shard_manifest(dir: impl AsRef<Path>) -> Result<ShardManifest, TuckerIoError> {
    let path = dir.as_ref().join("manifest.txt");
    let text = std::fs::read_to_string(&path)?;
    let bad = |why: &str| TuckerIoError::Format(format!("{}: {why}", path.display()));
    let mut lines = text.lines();
    if lines.next() != Some("TKSM v1") {
        return Err(bad("not a TKSM v1 manifest"));
    }
    // Every value is an `x`-separated list of numbers (of one, for the
    // counts); 17 are enough to trip the 16-mode cap below.
    let mut fields = std::collections::BTreeMap::new();
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let (key, val) =
            line.split_once(' ').ok_or_else(|| bad(&format!("malformed line `{line}`")))?;
        if !["shards", "dims", "ranks", "scalar"].contains(&key) {
            return Err(bad(&format!("unknown key `{key}`")));
        }
        let list: Result<Vec<usize>, _> = val.split('x').take(17).map(str::parse).collect();
        fields.insert(key, list.map_err(|_| bad(&format!("bad number in `{line}`")))?);
    }
    let list = |key: &str| fields.get(key).cloned().ok_or_else(|| bad(&format!("missing `{key}`")));
    let one = |key: &str| match list(key)?[..] {
        [v] => Ok(v),
        _ => Err(bad(&format!("`{key}` takes one number"))),
    };
    let m = ShardManifest {
        shards: one("shards")?,
        dims: list("dims")?,
        ranks: list("ranks")?,
        scalar: match one("scalar")? {
            4 => 4,
            8 => 8,
            _ => return Err(bad("`scalar` must be 4 or 8")),
        },
    };
    if m.dims.is_empty() || m.shards == 0 || m.shards > m.dims[0] {
        return Err(bad("inconsistent shard layout"));
    }
    // The same caps the binary headers enforce.
    if m.dims.len() != m.ranks.len() || m.dims.len() > 16 {
        return Err(bad("`dims` and `ranks` must list the same (at most 16) modes"));
    }
    Ok(m)
}

/// Open every shard of a directory written by [`write_shards`], verifying
/// each file's section checksums. Returns the manifest and the shards in
/// shard order.
pub fn read_shards<T: IoScalar>(
    dir: impl AsRef<Path>,
) -> Result<(ShardManifest, Vec<TuckerTensor<T>>), TuckerIoError> {
    let dir = dir.as_ref();
    let manifest = read_shard_manifest(dir)?;
    // The count is a text field: it sizes nothing until the files back it.
    let last = ShardManifest::file_name(manifest.shards - 1);
    if !dir.join(&last).is_file() {
        return Err(TuckerIoError::Format(format!(
            "{}: manifest lists {} shards but {last} is missing",
            dir.display(),
            manifest.shards
        )));
    }
    let mut parts = Vec::new();
    for s in 0..manifest.shards {
        let tk = read_tucker::<T>(dir.join(ShardManifest::file_name(s)))?;
        let want = manifest.range(s).len();
        if tk.original_dims().first().copied() != Some(want) {
            return Err(TuckerIoError::Format(format!(
                "shard {s}: {} mode-0 rows, manifest says {want}",
                tk.original_dims().first().copied().unwrap_or(0)
            )));
        }
        parts.push(tk);
    }
    Ok((manifest, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_tensor::{hyperslab, Tensor};

    fn sample() -> TuckerTensor<f64> {
        let ranks = [3usize, 4, 2];
        let dims = [10usize, 6, 5];
        let core =
            Tensor::from_fn(&ranks, |i| ((i[0] * 9 + i[1] * 3 + i[2]) as f64 * 0.43).sin());
        let factors = dims
            .iter()
            .zip(&ranks)
            .enumerate()
            .map(|(n, (&d, &r))| {
                Matrix::from_fn(d, r, |i, j| ((i * r + j + n + 1) as f64 * 0.17).cos())
            })
            .collect();
        TuckerTensor { core, factors }
    }

    #[test]
    fn shards_reconstruct_their_row_blocks_bitwise() {
        let tk = sample();
        let full = tk.reconstruct();
        for shards in [1usize, 3, 4] {
            let parts = shard_tucker(&tk, shards);
            assert_eq!(parts.len(), shards);
            for (s, part) in parts.iter().enumerate() {
                let r = block_range(10, shards, s);
                let mut sel = vec![(r.start, 1, r.len())];
                sel.extend([(0, 1, 6), (0, 1, 5)]);
                let want = hyperslab(&full, &sel);
                let got = part.reconstruct();
                assert_eq!(got.dims(), want.dims());
                assert_eq!(got.data(), want.data(), "shard {s}/{shards} must be bit-identical");
            }
        }
    }

    #[test]
    fn write_read_roundtrip_with_manifest() {
        let tk = sample();
        let dir = std::env::temp_dir().join(format!("tksm-test-{}", std::process::id()));
        let paths = write_shards(&dir, &tk, 3).unwrap();
        assert_eq!(paths.len(), 3);
        let (m, parts) = read_shards::<f64>(&dir).unwrap();
        assert_eq!(
            m,
            ShardManifest { shards: 3, dims: vec![10, 6, 5], ranks: vec![3, 4, 2], scalar: 8 }
        );
        assert_eq!(m.range(0), 0..4);
        assert_eq!(m.range(2), 7..10);
        let direct = shard_tucker(&tk, 3);
        for (got, want) in parts.iter().zip(&direct) {
            assert_eq!(got.core.data(), want.core.data());
            for (a, b) in got.factors.iter().zip(&want.factors) {
                assert_eq!(a.data(), b.data());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("tksm-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "TKSM v1\nshards 4\ndims 2x6\nranks 1x1\nscalar 8\n")
            .unwrap();
        // 4 shards over 2 rows is inconsistent.
        assert!(read_shard_manifest(&dir).is_err());
        std::fs::write(dir.join("manifest.txt"), "nope").unwrap();
        assert!(read_shard_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_fields_are_validated_before_they_size_anything() {
        let dir = std::env::temp_dir().join(format!("tksm-hostile-{}", std::process::id()));
        write_shards(&dir, &sample(), 2).unwrap();
        let good = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert_eq!(good, "TKSM v1\nshards 2\ndims 10x6x5\nranks 3x4x2\nscalar 8\n");
        let long = vec!["2"; 17].join("x");
        for (from, to, why) in [
            // An 80-byte manifest that used to abort on a 72 PB allocation.
            ("shards 2\ndims 10x", "shards 1000000000000000\ndims 1000000000000000x", "missing"),
            ("shards 2", "shards 3", "missing"),
            ("ranks 3x4x2", "ranks 3x4", "same"),
            ("dims 10x6x5\nranks 3x4x2", &format!("dims {long}\nranks {long}"), "16"),
            ("scalar 8", "scalar 16", "scalar"),
        ] {
            std::fs::write(dir.join("manifest.txt"), good.replace(from, to)).unwrap();
            match read_shards::<f64>(&dir) {
                Err(TuckerIoError::Format(msg)) => assert!(msg.contains(why), "{to}: {msg}"),
                other => panic!("{to}: want Format, got {:?}", other.map(|(m, _)| m)),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn too_many_shards_panics() {
        shard_tucker(&sample(), 11);
    }
}
