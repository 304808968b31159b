//! Checkpoint/restart for the parallel ST-HOSVD.
//!
//! After each mode's truncation ([`HosvdState::step`]) every rank serializes its
//! share of the in-flight [`HosvdState`] — the partially truncated tensor
//! block, the replicated factors and singular value profiles, the mode-order
//! cursor and the bit-exact input norm — to a per-rank file in a checkpoint
//! directory. A two-phase commit makes the step durable: ranks write and
//! atomically rename their files, synchronize on a barrier, and only then
//! does rank 0 atomically publish a commit marker. A crash at any point
//! leaves either a fully committed step or none; a torn step is invisible to
//! resume.
//!
//! Resume ([`sthosvd_parallel_checkpointed`] with
//! [`CheckpointOptions::resume`]) scans for the newest commit marker,
//! reloads every rank's state and continues from the next mode. Because the
//! serialized state restores `‖X‖` and the partially truncated tensor
//! bit-exactly (scalars travel as raw IEEE-754 little-endian bytes), a
//! resumed run produces output **bit-identical** to an uninterrupted one.
//!
//! Layout of `step{k}.rank{r}.tkcp` (all little-endian):
//! ```text
//! magic    4 bytes  b"TKCP"
//! version  u32      1
//! scalar   u32      4 (f32) or 8 (f64)
//! rank     u64      writer's world rank
//! nranks   u64      world size
//! nmodes   u64
//! done     u64      == k, modes already truncated
//! order    nmodes x u64
//! norm_x   scalar
//! tails_sq u64 len + scalars         (processing order, len == done)
//! sigmas   nmodes x (u64 len + scalars)
//! factors  nmodes x (u8 present [+ u64 rows, u64 cols, col-major data])
//! y        global dims, grid dims, coords, local dims (each nmodes x u64)
//!          + local data (first-mode-fastest)
//! ```
//! The rank rule is *not* stored: it is a pure function of the config and
//! `norm_x` ([`RankRule::new`]), recomputed on load.

use crate::config::SthosvdConfig;
use crate::mode_loop::RankRule;
use crate::parallel::{DistBackend, HosvdState, ParallelOutput};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use tucker_dtensor::{block_range, DistTensor};
use tucker_linalg::{LinalgError, Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::codec::{
    atomic_write, checked_len, write_scalars, write_u32, write_usizes, IoScalar, Source,
};
use tucker_tensor::Tensor;

const MAGIC: &[u8; 4] = b"TKCP";
/// Current TKCP format: v2 = the v1 payload plus a CRC-32 trailer over all
/// preceding bytes, so a bit-flipped checkpoint is rejected at resume with a
/// typed [`CheckpointError::Corrupt`] instead of resuming from corrupt
/// factors. v1 files (no trailer) remain readable.
const VERSION: u32 = 2;
const VERSION_V1: u32 = 1;

/// Where (and whether) to checkpoint a parallel ST-HOSVD run.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory holding the per-rank step files and commit markers.
    pub dir: PathBuf,
    /// Resume from the newest committed step instead of starting fresh.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint into `dir`, starting fresh.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions { dir: dir.into(), resume: false }
    }

    /// Set the resume flag.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }
}

/// Errors from the checkpointed driver: I/O, a damaged/mismatched
/// checkpoint, or the algorithm itself.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// A checkpoint file exists but cannot be used: wrong magic/version/
    /// precision, or it disagrees with the current run's shape or config.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What went wrong.
        reason: String,
    },
    /// The underlying ST-HOSVD failed (including detected numerical faults).
    Algorithm(LinalgError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "unusable checkpoint {}: {reason}", path.display())
            }
            CheckpointError::Algorithm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<LinalgError> for CheckpointError {
    fn from(e: LinalgError) -> Self {
        CheckpointError::Algorithm(e)
    }
}

fn rank_file(dir: &Path, step: usize, rank: usize) -> PathBuf {
    dir.join(format!("step{step}.rank{rank}.tkcp"))
}

fn commit_file(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("step{step}.commit"))
}

/// A length word, then the run.
fn write_scalar_vec<T: IoScalar>(w: &mut impl Write, v: &[T]) -> io::Result<()> {
    write_usizes(w, &[v.len()])?;
    write_scalars(w, v)
}

fn read_scalar_vec<T: IoScalar>(r: &mut Source<&[u8]>) -> io::Result<Vec<T>> {
    let n = r.usize()?;
    r.scalars(n)
}

/// Serialize one rank's state. `rank`/`nranks` are recorded so a resume with
/// a different world (or a misrouted file) is rejected instead of silently
/// producing garbage.
fn write_state<T: IoScalar>(
    w: &mut impl Write,
    state: &HosvdState<T>,
    rank: usize,
    nranks: usize,
) -> io::Result<()> {
    let nmodes = state.order.len();
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, T::TAG)?;
    write_usizes(w, &[rank, nranks, nmodes, state.done])?;
    write_usizes(w, &state.order)?;
    write_scalars(w, &[state.norm_x])?;
    write_scalar_vec(w, &state.tails_sq)?;
    for sigma in &state.singular_values {
        write_scalar_vec(w, sigma)?;
    }
    for factor in &state.factors {
        match factor {
            None => w.write_all(&[0u8])?,
            Some(u) => {
                w.write_all(&[1u8])?;
                write_usizes(w, &[u.rows(), u.cols()])?;
                write_scalars(w, u.data())?;
            }
        }
    }
    let y = state.y.as_ref().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "no mode processed yet: nothing to checkpoint")
    })?;
    write_usizes(w, y.global_dims())?;
    write_usizes(w, y.grid().dims())?;
    write_usizes(w, y.coords())?;
    write_usizes(w, y.local().dims())?;
    write_scalars(w, y.local().data())
}

fn bad(path: &Path, reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt { path: path.to_path_buf(), reason: reason.into() }
}

/// Deserialize one rank's state, validating it against the live run: the
/// input tensor `x` supplies grid/coords (which the file must agree with)
/// and `cfg` supplies the mode order and the rank rule. Every shape word is
/// checked against `x` before anything is sized from it (v1 files carry no
/// CRC, so the words may be arbitrary), and every run against the bytes the
/// file still holds ([`Source`]).
fn read_state<T: Scalar + IoScalar>(
    r: &mut Source<&[u8]>,
    path: &Path,
    expect_step: usize,
    rank: usize,
    nranks: usize,
    x: &DistTensor<T>,
    cfg: &SthosvdConfig,
) -> Result<HosvdState<T>, CheckpointError> {
    let ensure = |ok: bool, reason: &str| if ok { Ok(()) } else { Err(bad(path, reason)) };
    ensure(&r.array()? == MAGIC, "not a TKCP checkpoint file")?;
    let version = r.u32()?;
    ensure(version == VERSION || version == VERSION_V1, "unsupported checkpoint version")?;
    ensure(r.u32()? == T::TAG, "checkpoint precision differs from the run's scalar type")?;
    ensure(r.usize()? == rank, "checkpoint was written by a different rank")?;
    ensure(r.usize()? == nranks, "checkpoint was written by a different world size")?;
    let nmodes = r.usize()?;
    ensure(nmodes == x.global_dims().len(), "checkpoint mode count differs from the input tensor")?;
    let done = r.usize()?;
    ensure(
        done == expect_step,
        &format!("file records step {done}, commit marker says {expect_step}"),
    )?;
    let order = r.usizes(nmodes)?;
    ensure(
        order == cfg.mode_order.resolve(nmodes),
        "checkpoint mode order differs from the current config",
    )?;
    let norm_x = r.scalars::<T>(1)?[0];
    let tails_sq: Vec<T> = read_scalar_vec(r)?;
    ensure(tails_sq.len() == done, "tail count does not match the completed step count")?;
    let mut singular_values = Vec::with_capacity(nmodes);
    for _ in 0..nmodes {
        singular_values.push(read_scalar_vec(r)?);
    }
    let mut factors: Vec<Option<Matrix<T>>> = Vec::with_capacity(nmodes);
    for &i_n in x.global_dims() {
        factors.push(match r.array::<1>()?[0] {
            0 => None,
            1 => {
                let (rows, cols) = (r.usize()?, r.usize()?);
                ensure(
                    rows == i_n && cols <= rows,
                    &format!("factor shape {rows}x{cols} for a mode of {i_n}"),
                )?;
                let data = r.scalars(checked_len(&[rows, cols])?)?;
                Some(Matrix::from_col_major(rows, cols, data))
            }
            b => return Err(bad(path, format!("bad factor presence byte {b}"))),
        });
    }
    let global_dims = r.usizes(nmodes)?;
    let grid_dims = r.usizes(nmodes)?;
    let coords = r.usizes(nmodes)?;
    ensure(grid_dims == x.grid().dims(), "checkpoint grid differs from the current run")?;
    ensure(coords == x.coords(), "checkpoint coordinates differ from this rank's")?;
    let local_dims = r.usizes(nmodes)?;
    // Modes only shrink, and a rank's block is a function of the global
    // dims: the local element count is at most the input block's.
    let fits = (0..nmodes).all(|n| {
        global_dims[n] <= x.global_dims()[n]
            && local_dims[n] == block_range(global_dims[n], grid_dims[n], coords[n]).len()
    });
    ensure(fits, "working tensor shape does not fit the input tensor")?;
    let data = r.scalars(checked_len(&local_dims)?)?;
    Ok(HosvdState {
        order,
        done,
        norm_x,
        rule: RankRule::new(&cfg.truncation, norm_x, nmodes)?,
        y: Some(x.with_local(global_dims, Tensor::from_data(&local_dims, data))),
        factors,
        singular_values,
        tails_sq,
    })
}

/// Serialize one rank's state into the on-disk v2 byte layout: the payload
/// of [`write_state`] followed by a little-endian CRC-32 of every preceding
/// byte (magic and header included).
fn encode_state<T: IoScalar>(
    state: &HosvdState<T>,
    rank: usize,
    nranks: usize,
) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    write_state(&mut bytes, state, rank, nranks)?;
    let crc = crate::crc32::crc32(&bytes);
    write_u32(&mut bytes, crc)?;
    Ok(bytes)
}

/// Parse checkpoint file bytes: verify the v2 CRC-32 trailer (v1 files have
/// none and skip the check), then deserialize and validate the payload.
fn decode_state<T: Scalar + IoScalar>(
    bytes: &[u8],
    path: &Path,
    expect_step: usize,
    rank: usize,
    nranks: usize,
    x: &DistTensor<T>,
    cfg: &SthosvdConfig,
) -> Result<HosvdState<T>, CheckpointError> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(bad(path, "not a TKCP checkpoint file"));
    }
    let version = Source::from_slice(&bytes[4..]).u32()?;
    let payload = if version >= VERSION {
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = Source::from_slice(trailer).u32()?;
        let computed = crate::crc32::crc32(body);
        if stored != computed {
            return Err(bad(
                path,
                format!(
                    "payload CRC-32 mismatch (stored {stored:#010x}, computed {computed:#010x}) \
                     — the checkpoint is bit-damaged; refusing to resume from it"
                ),
            ));
        }
        body
    } else {
        bytes
    };
    read_state(&mut Source::from_slice(payload), path, expect_step, rank, nranks, x, cfg)
}

/// Persist a just-completed step with two-phase commit: every rank
/// atomically writes its file, a barrier confirms all files are in place,
/// then rank 0 atomically publishes the commit marker (and a final barrier
/// keeps any rank from racing into the next mode before the step is
/// durable).
pub fn save_step<T: Scalar + IoScalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dir: &Path,
    state: &HosvdState<T>,
) -> Result<(), CheckpointError> {
    fs::create_dir_all(dir)?;
    let rank = ctx.rank();
    let nranks = world.size();
    let bytes = encode_state(state, rank, nranks)?;
    atomic_write(&rank_file(dir, state.done, rank), |w| w.write_all(&bytes))?;
    world.barrier(ctx);
    if rank == 0 {
        atomic_write(&commit_file(dir, state.done), |w| writeln!(w, "{}", state.done))?;
    }
    world.barrier(ctx);
    Ok(())
}

/// Newest committed step in `dir` (`None` if the directory is absent or has
/// no commit marker). Torn steps — rank files without a marker — are
/// ignored, which is exactly the crash-recovery contract.
pub fn latest_step(dir: &Path) -> io::Result<Option<usize>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut newest = None;
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(step) = name.strip_prefix("step").and_then(|s| s.strip_suffix(".commit")) {
            if let Ok(step) = step.parse::<usize>() {
                newest = newest.max(Some(step));
            }
        }
    }
    Ok(newest)
}

/// Load this rank's state for committed step `step`.
pub fn load_step<T: Scalar + IoScalar>(
    dir: &Path,
    step: usize,
    rank: usize,
    nranks: usize,
    x: &DistTensor<T>,
    cfg: &SthosvdConfig,
) -> Result<HosvdState<T>, CheckpointError> {
    let path = rank_file(dir, step, rank);
    let bytes = fs::read(&path)?;
    decode_state(&bytes, &path, step, rank, nranks, x, cfg)
}

/// Parallel ST-HOSVD with a checkpoint after every mode; the fault-tolerant
/// entry point behind `tucker simulate --checkpoint-dir`.
///
/// With `opts.resume` the newest committed step is reloaded and the run
/// continues from the next mode — producing output bit-identical to an
/// uninterrupted run, because the state round-trips through the checkpoint
/// at full precision. Without committed steps (or without `resume`) it
/// behaves exactly like [`crate::sthosvd_parallel`] plus the checkpoint
/// writes: the barriers cost modeled time but never perturb the data.
pub fn sthosvd_parallel_checkpointed<T: Scalar + IoScalar>(
    ctx: &mut Ctx,
    x: &DistTensor<T>,
    cfg: &SthosvdConfig,
    opts: &CheckpointOptions,
) -> Result<ParallelOutput<T>, CheckpointError> {
    // Before the directory scan: a resumed run never passes through
    // `init`'s validation.
    cfg.validate()?;
    let mut world = Comm::world(ctx);
    // All ranks scan the same (static) directory and reach the same verdict;
    // a barrier afterwards keeps the decision aligned with any rank that
    // errored out during the scan.
    let resume_from = if opts.resume { latest_step(&opts.dir)? } else { None };
    let mut state = match resume_from {
        Some(step) => load_step(&opts.dir, step, ctx.rank(), world.size(), x, cfg)?,
        None => HosvdState::init(&mut DistBackend { ctx, world: &mut world }, x, cfg)?,
    };
    while !state.is_complete() {
        state.step(&mut DistBackend { ctx, world: &mut world }, x, cfg)?;
        save_step(ctx, &mut world, &opts.dir, &state)?;
    }
    Ok(state.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SthosvdConfig;
    use tucker_dtensor::ProcessorGrid;
    use tucker_tensor::codec::write_u64;

    /// The working tensor of a state that has taken a step.
    fn local(state: &HosvdState<f64>) -> &DistTensor<f64> {
        state.y.as_ref().unwrap()
    }

    fn demo_state(rank: usize) -> (HosvdState<f64>, DistTensor<f64>) {
        let grid = ProcessorGrid::new(&[2, 1, 1]);
        let x = DistTensor::from_fn(&[4, 3, 2], &grid, rank, |g| {
            (g[0] * 100 + g[1] * 10 + g[2]) as f64 + 0.25
        });
        // A state mid-run: mode 0 truncated to rank 2.
        let y = DistTensor::from_fn(&[2, 3, 2], &grid, rank, |g| (g[0] + g[1] + g[2]) as f64 * 0.5);
        let state = HosvdState {
            order: vec![0, 1, 2],
            done: 1,
            norm_x: 123.456789,
            rule: RankRule::new(&crate::config::Truncation::None, 123.456789, 3).unwrap(),
            y: Some(y),
            factors: vec![Some(Matrix::from_col_major(4, 2, (0..8).map(|i| i as f64 * 0.3).collect())), None, None],
            singular_values: vec![vec![3.0, 1.0, 0.5, 0.1], Vec::new(), Vec::new()],
            tails_sq: vec![0.26],
        };
        (state, x)
    }

    #[test]
    fn state_roundtrips_bit_exactly() {
        let (state, x) = demo_state(1);
        let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        let mut bytes = Vec::new();
        write_state(&mut bytes, &state, 1, 2).unwrap();
        let got = read_state::<f64>(&mut Source::from_slice(&bytes), Path::new("<mem>"), 1, 1, 2, &x, &cfg)
            .unwrap();
        assert_eq!(got.order, state.order);
        assert_eq!(got.done, 1);
        assert_eq!(got.norm_x.to_bits(), state.norm_x.to_bits());
        assert_eq!(got.tails_sq, state.tails_sq);
        assert_eq!(got.singular_values, state.singular_values);
        assert_eq!(got.factors[0].as_ref().unwrap().data(), state.factors[0].as_ref().unwrap().data());
        assert!(got.factors[1].is_none() && got.factors[2].is_none());
        assert_eq!(local(&got).global_dims(), local(&state).global_dims());
        assert_eq!(local(&got).local().data(), local(&state).local().data());
    }

    #[test]
    fn mismatches_are_rejected_with_reasons() {
        let (state, x) = demo_state(0);
        let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        let mut bytes = Vec::new();
        write_state(&mut bytes, &state, 0, 2).unwrap();
        let p = Path::new("<mem>");

        // Wrong rank.
        let e = read_state::<f64>(&mut Source::from_slice(&bytes), p, 1, 1, 2, &x, &cfg).unwrap_err();
        assert!(e.to_string().contains("different rank"), "{e}");
        // Wrong world size.
        let e = read_state::<f64>(&mut Source::from_slice(&bytes), p, 1, 0, 4, &x, &cfg).unwrap_err();
        assert!(e.to_string().contains("world size"), "{e}");
        // Wrong precision.
        let grid = ProcessorGrid::new(&[2, 1, 1]);
        let x32 = DistTensor::<f32>::from_fn(&[4, 3, 2], &grid, 0, |_| 0.0);
        let e = read_state::<f32>(&mut Source::from_slice(&bytes), p, 1, 0, 2, &x32, &cfg).unwrap_err();
        assert!(e.to_string().contains("precision"), "{e}");
        // Wrong step.
        let e = read_state::<f64>(&mut Source::from_slice(&bytes), p, 2, 0, 2, &x, &cfg).unwrap_err();
        assert!(e.to_string().contains("commit marker"), "{e}");
        // Wrong mode order in the config.
        let cfg2 = cfg.clone().order(crate::config::ModeOrder::Backward);
        let e = read_state::<f64>(&mut Source::from_slice(&bytes), p, 1, 0, 2, &x, &cfg2).unwrap_err();
        assert!(e.to_string().contains("mode order"), "{e}");
        // Truncated file.
        let e = read_state::<f64>(&mut Source::from_slice(&bytes[..bytes.len() / 2]), p, 1, 0, 2, &x, &cfg)
            .unwrap_err();
        assert!(matches!(e, CheckpointError::Io(_)), "{e}");
        // Not a checkpoint at all.
        let e = read_state::<f64>(&mut Source::from_slice(b"garbage data"), p, 1, 0, 2, &x, &cfg).unwrap_err();
        assert!(e.to_string().contains("not a TKCP"), "{e}");
    }

    #[test]
    fn v2_crc_roundtrips_and_rejects_bit_flips() {
        let (state, x) = demo_state(1);
        let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        let bytes = encode_state(&state, 1, 2).unwrap();
        let p = Path::new("<mem>");
        // Clean bytes decode bit-exactly.
        let got = decode_state::<f64>(&bytes, p, 1, 1, 2, &x, &cfg).unwrap();
        assert_eq!(got.norm_x.to_bits(), state.norm_x.to_bits());
        assert_eq!(local(&got).local().data(), local(&state).local().data());
        // Any single flipped bit anywhere in the file is caught by the CRC
        // with a typed Corrupt naming the mismatch (sampled positions).
        for pos in [8usize, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x10;
            let e = decode_state::<f64>(&damaged, p, 1, 1, 2, &x, &cfg).unwrap_err();
            match e {
                CheckpointError::Corrupt { reason, .. } => {
                    assert!(reason.contains("CRC-32 mismatch"), "byte {pos}: {reason}")
                }
                other => panic!("byte {pos}: expected Corrupt, got {other}"),
            }
        }
    }

    #[test]
    fn v1_checkpoints_without_trailer_remain_readable() {
        let (state, x) = demo_state(1);
        let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        let v2 = encode_state(&state, 1, 2).unwrap();
        // A v1 file is the same payload, version field 1, no CRC trailer.
        let mut v1 = v2[..v2.len() - 4].to_vec();
        write_u32(&mut &mut v1[4..8], VERSION_V1).unwrap();
        let got = decode_state::<f64>(&v1, Path::new("<mem>"), 1, 1, 2, &x, &cfg).unwrap();
        assert_eq!(got.norm_x.to_bits(), state.norm_x.to_bits());
        assert_eq!(local(&got).local().data(), local(&state).local().data());
        // Future versions stay rejected (with a valid trailer, so the
        // version check is what fires, not the CRC).
        let mut v9 = v2[..v2.len() - 4].to_vec();
        write_u32(&mut &mut v9[4..8], 9).unwrap();
        let crc = crate::crc32::crc32(&v9);
        write_u32(&mut v9, crc).unwrap();
        let e = decode_state::<f64>(&v9, Path::new("<mem>"), 1, 1, 2, &x, &cfg).unwrap_err();
        assert!(e.to_string().contains("unsupported checkpoint version"), "{e}");
    }

    /// v1 files carry no CRC, so their shape words reach the reader
    /// unchecked: each must be validated against the live run before
    /// anything is sized from it.
    #[test]
    fn hostile_v1_shape_words_are_rejected_before_allocating() {
        let p = Path::new("<mem>");
        let cfg = SthosvdConfig::with_ranks(vec![2]);
        let grid = ProcessorGrid::new(&[1]);
        let x = DistTensor::from_fn(&[4], &grid, 0, |g| g[0] as f64);
        // A hand-built 100-byte v1 file for this one-mode run at step 0,
        // ending in one factor's shape words and 7 bytes of "data".
        let file = |rows: u64, cols: u64| {
            let mut b = Vec::new();
            b.extend_from_slice(MAGIC);
            write_u32(&mut b, VERSION_V1).unwrap();
            write_u32(&mut b, 8).unwrap();
            // rank, nranks, nmodes, done, order[0]
            write_usizes(&mut b, &[0, 1, 1, 0, 0]).unwrap();
            write_scalars(&mut b, &[2.5f64]).unwrap(); // norm_x
            write_usizes(&mut b, &[0, 0]).unwrap(); // no tails, no singular values
            b.push(1); // factor 0 present
            write_u64(&mut b, rows).unwrap();
            write_u64(&mut b, cols).unwrap();
            b.extend_from_slice(&[0xAB; 7]);
            assert_eq!(b.len(), 100);
            b
        };
        // Terabyte-sized and overflowing products, and a shape that merely
        // disagrees with the input tensor: all typed, none allocated.
        for (rows, cols) in [(1 << 20, 1 << 20), (1 << 32, 1 << 32), (u64::MAX, 2), (4, 5), (3, 2)] {
            let e = decode_state::<f64>(&file(rows, cols), p, 0, 0, 1, &x, &cfg).unwrap_err();
            match e {
                CheckpointError::Corrupt { reason, .. } => {
                    assert!(reason.contains("factor shape"), "{rows}x{cols}: {reason}")
                }
                other => panic!("{rows}x{cols}: expected Corrupt, got {other}"),
            }
        }
        // A plausible shape whose payload the file does not hold is a
        // truncated file, again without allocating for it.
        let e = decode_state::<f64>(&file(4, 2), p, 0, 0, 1, &x, &cfg).unwrap_err();
        assert!(matches!(e, CheckpointError::Io(_)), "{e}");

        // The working tensor's dims get the same treatment: patch each of
        // the three global and three local dim words of a real v1 file.
        let (state, x) = demo_state(1);
        let cfg = SthosvdConfig::with_ranks(vec![2, 2, 2]);
        let mut v1 = Vec::new();
        write_state(&mut v1, &state, 1, 2).unwrap();
        write_u32(&mut &mut v1[4..8], VERSION_V1).unwrap();
        assert!(decode_state::<f64>(&v1, p, 1, 1, 2, &x, &cfg).is_ok());
        let y_data = local(&state).local().len() * 8;
        for word in (0..3).chain(9..12) {
            let at = v1.len() - y_data - (12 - word) * 8;
            for hostile in [1u64 << 40, u64::MAX] {
                let mut damaged = v1.clone();
                write_u64(&mut &mut damaged[at..at + 8], hostile).unwrap();
                let e = decode_state::<f64>(&damaged, p, 1, 1, 2, &x, &cfg).unwrap_err();
                assert!(e.to_string().contains("does not fit the input tensor"), "word {word}: {e}");
            }
        }
    }

    #[test]
    fn latest_step_scans_commit_markers_only() {
        let dir = std::env::temp_dir().join(format!("tkcp_scan_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_step(&dir).unwrap(), None);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_step(&dir).unwrap(), None);
        // Rank files without a commit marker are torn steps: invisible.
        fs::write(dir.join("step2.rank0.tkcp"), b"x").unwrap();
        assert_eq!(latest_step(&dir).unwrap(), None);
        fs::write(dir.join("step1.commit"), b"1\n").unwrap();
        fs::write(dir.join("step0.commit"), b"0\n").unwrap();
        assert_eq!(latest_step(&dir).unwrap(), Some(1));
        // Stray tmp files from a crash mid-publish are ignored too.
        fs::write(dir.join("step3.tmp"), b"x").unwrap();
        assert_eq!(latest_step(&dir).unwrap(), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
