//! The on-disk formats, from the outside (DESIGN.md §19).
//!
//! **Layout goldens.** Each format's bytes are assembled here from its
//! doc-comment layout alone and must equal what the repo's writer produces —
//! the pin a deliberate format change moves on purpose.
//!
//! **Hostile input.** Those bytes are then damaged — bit flips,
//! truncations, splices, header words overwritten with 2^k or `u64::MAX`,
//! with the checksums re-sealed half the time (a CRC is not a MAC) — and
//! every reader must return `Ok` with the shape the bytes declare or a
//! typed `Err`: never a panic (this is a debug build, overflow checks on),
//! and never a single allocation above the file's length + 64 KiB, which
//! the counting allocator below observes. This binary exists so that it can
//! install one.
//!
//! **No copy of the input.** The same allocator watches a decomposition:
//! the mode loop borrows its input until the first truncation (DESIGN.md
//! §18), so no single allocation reaches the tensor's own size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tucker_rs::core::checkpoint::{load_step, save_step};
use tucker_rs::core::crc32::crc32;
use tucker_rs::core::tucker_io::{
    read_tucker, read_tucker_any, read_tucker_checksums, read_tucker_header, write_tucker,
    write_tucker_atomic, AnyTucker,
};
use tucker_rs::core::{
    read_shards, sthosvd, sthosvd_parallel, write_shards, DistBackend, HosvdState, SthosvdConfig,
    SvdMethod, TuckerTensor,
};
use tucker_rs::dtensor::{DistTensor, ProcessorGrid};
use tucker_rs::linalg::Matrix;
use tucker_rs::mpisim::{Comm, Simulator};
use tucker_rs::tensor::io::{
    read_tensor, read_tensor_header, write_tensor, IoScalar, TensorChunks,
};
use tucker_rs::tensor::Tensor;

/// Mutations per format.
const SEEDS: u64 = 500;
/// What a reader may allocate in one piece beyond the file's own length.
const SLACK: usize = 64 * 1024;

thread_local! {
    /// Largest single allocation this thread requested since the last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only touches a `const`-initialised,
// destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------- fixtures

/// The test's own scalar encoding (the library's lives in `tensor::codec`).
trait Le: IoScalar {
    fn le(self) -> Vec<u8>;
}
impl Le for f32 {
    fn le(self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}
impl Le for f64 {
    fn le(self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}

fn u32s(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn u64s(words: &[usize]) -> Vec<u8> {
    words.iter().flat_map(|&w| (w as u64).to_le_bytes()).collect()
}

fn run<T: Le>(data: &[T]) -> Vec<u8> {
    data.iter().flat_map(|&v| v.le()).collect()
}

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tucker_hostile_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sample_tensor<T: Le>() -> Tensor<T> {
    Tensor::from_fn(&[5, 3, 4], |i| T::from_f64((i[0] * 12 + i[1] * 4 + i[2]) as f64 * 0.37 - 3.0))
}

fn sample_tucker<T: Le>() -> TuckerTensor<T> {
    let (dims, ranks) = ([7usize, 5, 6], [3usize, 2, 4]);
    let core = Tensor::from_fn(&ranks, |i| T::from_f64((i[0] * 8 + i[1] * 4 + i[2]) as f64 * 0.21 - 1.0));
    let factors = dims
        .iter()
        .zip(&ranks)
        .map(|(&d, &r)| Matrix::from_fn(d, r, |i, j| T::from_f64((i * r + j) as f64 * 0.13 - 0.5)))
        .collect();
    TuckerTensor { core, factors }
}

/// TNSR v1 as `tensor/src/io.rs` documents it.
fn tnsr_bytes<T: Le>(x: &Tensor<T>) -> Vec<u8> {
    let mut b = b"TNSR".to_vec();
    b.extend(u32s(&[1, T::TAG, x.ndims() as u32]));
    b.extend(u64s(x.dims()));
    b.extend(run(x.data()));
    b
}

fn tuck_header_len(nmodes: usize, version: u32) -> usize {
    16 + 16 * nmodes + if version >= 3 { 8 } else { 0 }
}

/// TUCK v1–v3 as `core/src/tucker_io.rs` documents them.
fn tuck_bytes<T: Le>(tk: &TuckerTensor<T>, version: u32, generation: u64) -> Vec<u8> {
    let mut b = b"TUCK".to_vec();
    b.extend(u32s(&[version, T::TAG, tk.factors.len() as u32]));
    for u in &tk.factors {
        b.extend(u64s(&[u.rows(), u.cols()]));
    }
    if version >= 3 {
        b.extend(generation.to_le_bytes());
    }
    if version >= 2 {
        let mut table = vec![crc32(&b)];
        table.extend(tk.factors.iter().map(|u| crc32(&run(u.data()))));
        table.push(crc32(&run(tk.core.data())));
        b.extend(u32s(&table));
    }
    for u in &tk.factors {
        b.extend(run(u.data()));
    }
    b.extend(run(tk.core.data()));
    b
}

const CK_DIMS: [usize; 3] = [4, 3, 2];

fn ck_config() -> SthosvdConfig {
    SthosvdConfig::with_ranks(vec![2, 2, 2])
}

fn ck_input() -> DistTensor<f64> {
    let x = Tensor::from_fn(&CK_DIMS, |i| ((i[0] * 6 + i[1] * 2 + i[2]) as f64 * 0.7).sin());
    DistTensor::scatter_from(&x, &ProcessorGrid::new(&[1, 1, 1]), 0)
}

/// Run one mode of a 1-rank ST-HOSVD, checkpoint it into `dir` with the
/// repo's writer, and return the state that was saved.
fn checkpoint_fixture(dir: &Path) -> HosvdState<f64> {
    let mut out = Simulator::new(1).run(|ctx| {
        let (x, cfg) = (ck_input(), ck_config());
        let mut world = Comm::world(ctx);
        let mut state =
            HosvdState::init(&mut DistBackend { ctx, world: &mut world }, &x, &cfg).unwrap();
        state.step(&mut DistBackend { ctx, world: &mut world }, &x, &cfg).unwrap();
        save_step(ctx, &mut world, dir, &state).unwrap();
        state
    });
    out.results.pop().unwrap()
}

/// TKCP v1/v2 as `core/src/checkpoint.rs` documents them (rank 0 of 1).
fn tkcp_bytes(s: &HosvdState<f64>, version: u32) -> Vec<u8> {
    let mut b = b"TKCP".to_vec();
    b.extend(u32s(&[version, 8]));
    b.extend(u64s(&[0, 1, s.order.len(), s.done]));
    b.extend(u64s(&s.order));
    b.extend(s.norm_x.le());
    b.extend(u64s(&[s.tails_sq.len()]));
    b.extend(run(&s.tails_sq));
    for sigma in &s.singular_values {
        b.extend(u64s(&[sigma.len()]));
        b.extend(run(sigma));
    }
    for factor in &s.factors {
        match factor {
            None => b.push(0),
            Some(u) => {
                b.push(1);
                b.extend(u64s(&[u.rows(), u.cols()]));
                b.extend(run(u.data()));
            }
        }
    }
    let y = s.y.as_ref().unwrap();
    b.extend(u64s(y.global_dims()));
    b.extend(u64s(y.grid().dims()));
    b.extend(u64s(y.coords()));
    b.extend(u64s(y.local().dims()));
    b.extend(run(y.local().data()));
    if version >= 2 {
        b.extend(crc32(&b).to_le_bytes());
    }
    b
}

// ----------------------------------------------------------------- goldens

fn tnsr_golden<T: Le>(name: &str) {
    let dir = scratch(name);
    let p = dir.join("x.tns");
    let x = sample_tensor::<T>();
    write_tensor(&p, &x).unwrap();
    assert_eq!(std::fs::read(&p).unwrap(), tnsr_bytes(&x));
    std::fs::remove_dir_all(dir).unwrap();
}

fn tuck_golden<T: Le>(name: &str) {
    let dir = scratch(name);
    let p = dir.join("s.tkr");
    let tk = sample_tucker::<T>();
    write_tucker(&p, &tk).unwrap();
    assert_eq!(std::fs::read(&p).unwrap(), tuck_bytes(&tk, 2, 0), "v2");
    write_tucker_atomic(&p, &tk, 41).unwrap();
    assert_eq!(std::fs::read(&p).unwrap(), tuck_bytes(&tk, 3, 41), "v3");
    // v1 has no writer any more; the reader must still take the documented bytes.
    std::fs::write(&p, tuck_bytes(&tk, 1, 0)).unwrap();
    let back = read_tucker::<T>(&p).unwrap();
    assert_eq!((back.core, back.factors), (tk.core, tk.factors), "v1");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn written_bytes_match_the_documented_layouts() {
    tnsr_golden::<f32>("golden_tnsr32");
    tnsr_golden::<f64>("golden_tnsr64");
    tuck_golden::<f32>("golden_tuck32");
    tuck_golden::<f64>("golden_tuck64");
    let dir = scratch("golden_tkcp");
    let state = checkpoint_fixture(&dir);
    assert_eq!(std::fs::read(dir.join("step1.rank0.tkcp")).unwrap(), tkcp_bytes(&state, 2));
    assert_eq!(std::fs::read(dir.join("step1.commit")).unwrap(), b"1\n");
    std::fs::remove_dir_all(dir).unwrap();
}

// --------------------------------------------------------------- mutations

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn big(&mut self) -> u64 {
        if self.below(4) == 0 {
            u64::MAX
        } else {
            1 << self.below(64)
        }
    }
}

/// One seeded mutation of `pristine`. `header_len` bounds the aligned-word
/// overwrite; `text` files get a decimal field replaced instead.
fn mutate(rng: &mut SplitMix64, pristine: &[u8], header_len: usize, text: bool) -> Vec<u8> {
    let mut b = pristine.to_vec();
    match rng.below(4) {
        0 => {
            let at = rng.below(b.len());
            b[at] ^= 1 << rng.below(8);
        }
        1 => b.truncate(rng.below(b.len() + 1)),
        2 => {
            // Splice: a run from elsewhere in the file overwrites, is
            // inserted at, or is cut out of a random position.
            let n = 1 + rng.below(16.min(b.len()));
            let src = rng.below(b.len() - n + 1);
            let dst = rng.below(b.len() - n + 1);
            let piece = b[src..src + n].to_vec();
            match rng.below(3) {
                0 => b[dst..dst + n].copy_from_slice(&piece),
                1 => {
                    b.splice(dst..dst, piece);
                }
                _ => {
                    b.drain(dst..dst + n);
                }
            }
        }
        _ if text => {
            // Replace one decimal field with a huge one.
            let s = String::from_utf8(b).unwrap();
            let starts: Vec<usize> = s
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && (i == 0 || !s.as_bytes()[i - 1].is_ascii_digit())
                })
                .map(|(i, _)| i)
                .collect();
            let at = starts[rng.below(starts.len())];
            let end = at + s[at..].bytes().take_while(u8::is_ascii_digit).count();
            b = format!("{}{}{}", &s[..at], rng.big(), &s[end..]).into_bytes();
        }
        _ => {
            let at = 4 * rng.below(header_len / 4);
            let word = rng.big().to_le_bytes();
            let width = if rng.below(2) == 0 { 4 } else { 8 }.min(b.len() - at);
            b[at..at + width].copy_from_slice(&word[..width]);
        }
    }
    b
}

/// Damage `pristine` `SEEDS` times, re-seal every other result, store it at
/// `path` and hand it to `read` — which returns whether its main reader
/// accepted the file. Panics and oversized allocations fail the test with
/// the seed that caused them.
fn fuzz(
    name: &str,
    pristine: &[u8],
    header_len: usize,
    reseal: impl Fn(&mut Vec<u8>),
    path: &Path,
    read: impl Fn() -> bool,
) {
    let text = std::str::from_utf8(pristine).is_ok();
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = SplitMix64(seed ^ crc32(name.as_bytes()) as u64);
        let mut bytes = mutate(&mut rng, pristine, header_len, text);
        if rng.below(2) == 0 {
            reseal(&mut bytes);
        }
        std::fs::write(path, &bytes).unwrap();
        PEAK.with(|p| p.set(0));
        let outcome = catch_unwind(AssertUnwindSafe(&read));
        let peak = PEAK.with(Cell::get);
        match outcome {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("{name}: seed {seed} made a reader panic"),
        }
        assert!(
            peak <= bytes.len() + SLACK,
            "{name}: seed {seed}: one allocation of {peak} bytes for a {}-byte file",
            bytes.len()
        );
    }
    assert!(refused > 0, "{name}: no mutation was ever refused");
    eprintln!("{name}: {accepted} accepted, {refused} refused");
}

fn no_reseal(_: &mut Vec<u8>) {}

/// Overwrite the checksum that follows `covered` bytes, if the file is
/// long enough to have one there.
fn reseal_at(bytes: &mut [u8], covered: usize) {
    if bytes.len() >= covered + 4 {
        let crc = crc32(&bytes[..covered]);
        bytes[covered..covered + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

// ----------------------------------------------------------------- readers

/// Every TNSR reader on `p`; true if the whole-tensor read succeeded.
fn read_tnsr<T: IoScalar>(p: &Path) -> bool {
    let header = read_tensor_header(p);
    let full = read_tensor::<T>(p);
    let mut streamed = None;
    if let Ok(mut chunks) = TensorChunks::<T>::open(p) {
        let (mut buf, mut total) = (Vec::new(), 0);
        streamed = loop {
            match chunks.next_chunk(37, &mut buf) {
                Ok(0) => break Some(total),
                Ok(n) => total += n,
                Err(_) => break None,
            }
        };
    }
    let Ok(x) = &full else { return false };
    let header = header.expect("a readable tensor has a readable header");
    assert_eq!(x.dims(), header.dims);
    assert_eq!(x.len(), header.dims.iter().product::<usize>());
    assert_eq!(streamed, Some(x.len()), "the streaming reader sees the same payload");
    true
}

/// Every TUCK reader on `p`; true if the store was accepted.
fn read_tuck(p: &Path) -> bool {
    let header = read_tucker_header(p);
    let _ = read_tucker_checksums(p);
    let _ = read_tucker::<f32>(p);
    let _ = read_tucker::<f64>(p);
    let (dims, ranks, core_dims) = match read_tucker_any(p) {
        Ok(AnyTucker::F32(tk)) => (tk.original_dims(), tk.ranks(), tk.core.dims().to_vec()),
        Ok(AnyTucker::F64(tk)) => (tk.original_dims(), tk.ranks(), tk.core.dims().to_vec()),
        Err(_) => return false,
    };
    let header = header.expect("a readable store has a readable header");
    assert_eq!((dims, &ranks), (header.dims(), &header.ranks()));
    assert_eq!(core_dims, ranks);
    true
}

fn fuzz_tnsr<T: Le>(name: &str) {
    let dir = scratch(name);
    let p = dir.join("x.tns");
    let x = sample_tensor::<T>();
    fuzz(name, &tnsr_bytes(&x), 16 + 8 * x.ndims(), no_reseal, &p, || read_tnsr::<T>(&p));
    std::fs::remove_dir_all(dir).unwrap();
}

fn fuzz_tuck(name: &str, version: u32) {
    let dir = scratch(name);
    let p = dir.join("s.tkr");
    let header_len = tuck_header_len(3, version);
    let reseal = |b: &mut Vec<u8>| {
        if version >= 2 {
            reseal_at(b, header_len)
        }
    };
    // f32 and f64 alternate by version so both widths meet every reader.
    let pristine = if version == 2 {
        tuck_bytes(&sample_tucker::<f32>(), version, 9)
    } else {
        tuck_bytes(&sample_tucker::<f64>(), version, 9)
    };
    fuzz(name, &pristine, header_len, reseal, &p, || read_tuck(&p));
    std::fs::remove_dir_all(dir).unwrap();
}

fn fuzz_tkcp(name: &str, version: u32) {
    let dir = scratch(name);
    let state = checkpoint_fixture(&dir);
    let p = dir.join("step1.rank0.tkcp");
    let (x, cfg) = (ck_input(), ck_config());
    let reseal = |b: &mut Vec<u8>| {
        if version >= 2 && b.len() >= 4 {
            let body = b.len() - 4;
            reseal_at(b, body)
        }
    };
    fuzz(name, &tkcp_bytes(&state, version), 12 + 8 * 7, reseal, &p, || {
        let Ok(s) = load_step(&dir, 1, 0, 1, &x, &cfg) else { return false };
        assert_eq!((s.done, s.factors.len(), s.tails_sq.len()), (1, 3, 1));
        assert_eq!(s.y.unwrap().local().dims().len(), 3);
        true
    });
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn mutated_tnsr_f32_never_panics_or_overallocates() {
    fuzz_tnsr::<f32>("tnsr_f32");
}

#[test]
fn mutated_tnsr_f64_never_panics_or_overallocates() {
    fuzz_tnsr::<f64>("tnsr_f64");
}

#[test]
fn mutated_tuck_v1_never_panics_or_overallocates() {
    fuzz_tuck("tuck_v1", 1);
}

#[test]
fn mutated_tuck_v2_never_panics_or_overallocates() {
    fuzz_tuck("tuck_v2", 2);
}

#[test]
fn mutated_tuck_v3_never_panics_or_overallocates() {
    fuzz_tuck("tuck_v3", 3);
}

#[test]
fn mutated_tkcp_v1_never_panics_or_overallocates() {
    fuzz_tkcp("tkcp_v1", 1);
}

#[test]
fn mutated_tkcp_v2_never_panics_or_overallocates() {
    fuzz_tkcp("tkcp_v2", 2);
}

#[test]
fn mutated_manifest_never_panics_or_overallocates() {
    let dir = scratch("manifest");
    write_shards(&dir, &sample_tucker::<f64>(), 2).unwrap();
    let p = dir.join("manifest.txt");
    let pristine = std::fs::read(&p).unwrap();
    fuzz("manifest", &pristine, pristine.len(), no_reseal, &p, || {
        let Ok((m, parts)) = read_shards::<f64>(&dir) else { return false };
        assert_eq!(parts.len(), m.shards);
        assert_eq!(m.dims.len(), m.ranks.len());
        true
    });
    std::fs::remove_dir_all(dir).unwrap();
}

// -------------------------------------------- the four crafted regressions

/// Store `bytes` and run `read` under the allocation bound.
fn crafted(name: &str, file: &str, bytes: &[u8], read: impl Fn(&Path)) {
    let dir = scratch(name);
    let p = dir.join(file);
    std::fs::write(&p, bytes).unwrap();
    PEAK.with(|p| p.set(0));
    read(&p);
    let peak = PEAK.with(Cell::get);
    assert!(peak <= bytes.len() + SLACK, "{name}: one allocation of {peak} bytes");
    std::fs::remove_dir_all(dir).unwrap();
}

/// 28 bytes declaring one dim of 2^60: `compress` used to die on
/// `Vec::with_capacity` (exit 101).
#[test]
fn tnsr_declaring_2_pow_60_elements_is_refused() {
    let mut b = b"TNSR".to_vec();
    b.extend(u32s(&[1, 8, 1]));
    b.extend(u64s(&[1 << 60]));
    b.extend([0; 4]);
    assert_eq!(b.len(), 28);
    crafted("crafted_2p60", "x.tns", &b, |p| {
        let e = read_tensor::<f64>(p).unwrap_err();
        assert_eq!(e.to_string(), "payload longer than the file");
        assert_eq!(read_tensor_header(p).unwrap().held_bytes, 4);
        let mut chunks = TensorChunks::<f64>::open(p).unwrap();
        assert!(chunks.next_chunk(1 << 16, &mut Vec::new()).is_err());
    });
}

/// 2^40 × 2^40 wraps to 0 elements: `info` used to print "0 elements".
#[test]
fn tnsr_whose_dimension_product_wraps_is_refused() {
    let mut b = b"TNSR".to_vec();
    b.extend(u32s(&[1, 8, 2]));
    b.extend(u64s(&[1 << 40, 1 << 40]));
    crafted("crafted_wrap", "x.tns", &b, |p| {
        assert_eq!(read_tensor::<f64>(p).unwrap_err().to_string(), "dimension product overflows");
        assert!(TensorChunks::<f64>::open(p).is_err());
        assert!(read_tensor_header(p).unwrap().payload_bytes().is_err());
    });
}

/// A 40-byte v1 header with a 2^36 × 4 factor: `info`/`decompress` used to
/// abort on a 549 GB allocation (exit 134); re-sealed v2/v3 were no better.
#[test]
fn tuck_with_a_giant_factor_is_refused() {
    for version in 1..=3 {
        let mut b = b"TUCK".to_vec();
        b.extend(u32s(&[version, 8, 1]));
        b.extend(u64s(&[1 << 36, 4]));
        if version >= 3 {
            b.extend(u64s(&[0]));
        }
        if version >= 2 {
            b.extend(crc32(&b).to_le_bytes());
        }
        b.extend([0; 8]);
        crafted("crafted_factor", "s.tkr", &b, |p| {
            assert_eq!(read_tucker_header(p).unwrap().shapes, [(1 << 36, 4)]);
            let e = read_tucker::<f64>(p).unwrap_err().to_string();
            assert!(e.contains("payload longer than the file"), "v{version}: {e}");
            assert!(read_tucker_any(p).is_err());
        });
    }
}

/// An 80-byte manifest with 10^15 shards: `read_shards` used to abort on a
/// 72 PB `Vec::with_capacity`.
#[test]
fn manifest_with_a_giant_shard_count_is_refused() {
    let text = "TKSM v1\nshards 1000000000000000\ndims 1000000000000000x6\nranks 3x2\nscalar 8\n";
    crafted("crafted_manifest", "manifest.txt", text.as_bytes(), |p| {
        let e = read_shards::<f64>(p.parent().unwrap()).map(|(m, _)| m).unwrap_err();
        assert!(e.to_string().contains("shard999999999999999.tkr is missing"), "{e}");
    });
}

// ------------------------------------------------------ no copy of the input

/// Largest single allocation `f` makes on this thread.
fn peak_of<R>(f: impl FnOnce() -> R) -> usize {
    PEAK.with(|p| p.set(0));
    f();
    PEAK.with(|p| p.get())
}

/// Truncating every mode to half its extent, the largest thing a
/// decomposition allocates is the first truncated tensor (half the input);
/// pack scratch and LQ panels are smaller still. An allocation of the
/// input's size is a copy of the input.
#[test]
fn sthosvd_never_allocates_the_size_of_its_input() {
    let x = Tensor::<f64>::from_fn(&[64, 64, 64], |i| ((i[0] * 5 + i[1] * 3 + i[2]) as f64 * 0.3).sin());
    let input_bytes = std::mem::size_of_val(x.data());
    for method in [SvdMethod::Gram, SvdMethod::Qr] {
        let cfg = SthosvdConfig::with_ranks(vec![32, 32, 32]).method(method);
        let dense = peak_of(|| sthosvd(&x, &cfg).unwrap());
        assert!(dense < input_bytes, "{method:?}, dense: {dense} of {input_bytes} bytes at once");
        let one_rank = Simulator::new(1).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[1, 1, 1]), 0);
            peak_of(|| sthosvd_parallel(ctx, &dt, &cfg).unwrap())
        });
        let grid = one_rank.results[0];
        assert!(grid < input_bytes, "{method:?}, 1x1x1 grid: {grid} of {input_bytes} bytes at once");
    }
}
