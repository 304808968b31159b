//! `stream_append`: writes beside reads. Episodes of 48 `StreamState::append`
//! calls on a tensor growing along its time mode, each followed by what a
//! reader then waits for: publish, open, `swap_store`, one query.
//!
//! Each slab is built with a chosen share of its energy outside the
//! subspaces the stream has seen, so that all three update paths run in
//! fixed, counted proportions: 38 Fast, 9 Refresh, 1 Full per episode.

use super::{
    over_budget, probe_query, time_reps, timed_setup, tucker_digest, write_trace, RunOpts,
};
use crate::gen::{digest, Fingerprint, SplitMix64, Zipf};
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, median_or_zero, percentile};
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tucker_core::{sthosvd, SthosvdConfig, TuckerTensor};
use tucker_linalg::{svd_left, Matrix};
use tucker_serve::{Engine, EngineConfig, Query, TuckerStore};
use tucker_stream::{append_dense, CooTensor, StreamConfig, StreamState, UpdatePath};
use tucker_tensor::{hyperslab, ttm, Tensor};

/// Slabs per episode, and the drift each is built with.
const SLABS: usize = 48;
const FAST_DRIFT: f64 = 0.01;
const REFRESH_DRIFT: f64 = 0.2;
const FULL_DRIFT: f64 = 0.8;
const FULL_AT: usize = 40;
/// Appends between two samples of the host's pace (about 25 ms of work).
const PACE_EVERY: usize = 8;

/// The path slab `k` must take under `StreamConfig`'s default thresholds
/// (Fast up to drift 0.05, Full above 0.5).
pub fn scheduled_path(k: usize) -> UpdatePath {
    if k == FULL_AT {
        UpdatePath::Full
    } else if k % 5 == 3 {
        UpdatePath::Refresh
    } else {
        UpdatePath::Fast
    }
}

fn scheduled_drift(k: usize) -> f64 {
    match scheduled_path(k) {
        UpdatePath::Full => FULL_DRIFT,
        UpdatePath::Refresh => REFRESH_DRIFT,
        _ => FAST_DRIFT,
    }
}

struct Shape {
    /// Rows of the initial tensor and of each slab (the issue's 16-row
    /// slabs were halved: the Full path costs an SVD of side T).
    t0: usize,
    slab_rows: usize,
    side: usize,
    rank: usize,
}

fn shape(opts: &RunOpts) -> Shape {
    Shape {
        t0: opts.scaled(128, 32),
        slab_rows: opts.scaled(8, 2),
        side: opts.scaled(64, 32),
        rank: opts.scaled(12, 3),
    }
}

/// A seeded orthonormal basis of Rⁿ (modified Gram–Schmidt, applied twice).
fn orthonormal_basis(n: usize, rng: &mut SplitMix64) -> Matrix<f64> {
    let mut q = Matrix::from_fn(n, n, |_, _| rng.centered());
    for j in 0..n {
        for _ in 0..2 {
            for k in 0..j {
                let dot: f64 = (0..n).map(|i| q[(i, j)] * q[(i, k)]).sum();
                for i in 0..n {
                    q[(i, j)] -= dot * q[(i, k)];
                }
            }
        }
        let norm = (0..n).map(|i| q[(i, j)] * q[(i, j)]).sum::<f64>().sqrt();
        for i in 0..n {
            q[(i, j)] /= norm;
        }
    }
    q
}

fn columns(q: &Matrix<f64>, from: usize, count: usize) -> Matrix<f64> {
    Matrix::from_fn(q.rows(), count, |i, j| q[(i, from + j)])
}

/// Generates rows of the stream: a fixed rank-`r` part inside the span of
/// the first `r` basis vectors of modes 1 and 2, plus, per slab, a part in
/// basis vectors no earlier slab used.
struct Source {
    shape: Shape,
    q1: Matrix<f64>,
    q2: Matrix<f64>,
    /// `r` temporal components, `r × r × r`: row t is a random mix of them.
    components: Tensor<f64>,
    rng: SplitMix64,
}

impl Source {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = SplitMix64::stream(seed, "stream source");
        let (q1, q2) = (
            orthonormal_basis(shape.side, &mut rng),
            orthonormal_basis(shape.side, &mut rng),
        );
        let r = shape.rank;
        // Component k has weight 1/(1 + k/4): a decaying but well-separated spectrum.
        let components =
            Tensor::from_fn(&[r, r, r], |i| rng.centered() / (1.0 + i[0] as f64 / 4.0));
        Source {
            shape,
            q1,
            q2,
            components,
            rng,
        }
    }

    /// `rows` rows of unit-norm-per-slab data lying in the span of
    /// `u1 ⊗ u2`, from a random `rows × u1.cols() × u2.cols()` core.
    fn rows_in(
        &mut self,
        rows: usize,
        core: Tensor<f64>,
        u1: &Matrix<f64>,
        u2: &Matrix<f64>,
    ) -> Tensor<f64> {
        debug_assert_eq!(core.dims()[0], rows);
        let mut y = ttm(&ttm(&core, 1, u1.as_ref(), false), 2, u2.as_ref(), false);
        let norm = y.norm();
        for v in y.data_mut() {
            *v /= norm;
        }
        y
    }

    /// `rows` rows with share `drift` of their energy outside the stream's
    /// subspace, in mode-1 directions starting at basis vector `fresh`.
    fn slab(&mut self, rows: usize, drift: f64, fresh: usize) -> Tensor<f64> {
        let r = self.shape.rank;
        let mix = Matrix::from_fn(rows, r, |_, _| self.rng.centered());
        let inside_core = ttm(&self.components, 0, mix.as_ref(), false);
        let (u1, u2) = (columns(&self.q1, 0, r), columns(&self.q2, 0, r));
        let inside = self.rows_in(rows, inside_core, &u1, &u2);
        // Two directions orthogonal to everything mode 1 has seen so far.
        let outside_core = Tensor::from_fn(&[rows, 2, r], |_| self.rng.centered());
        let v1 = columns(&self.q1, fresh, 2);
        let outside = self.rows_in(rows, outside_core, &v1, &u2);
        // Unit energy per row, so old and new rows weigh the same.
        let amplitude = (rows as f64).sqrt();
        let (a, b) = ((1.0 - drift * drift).sqrt() * amplitude, drift * amplitude);
        let data = inside
            .data()
            .iter()
            .zip(outside.data())
            .map(|(&x, &y)| a * x + b * y)
            .collect();
        Tensor::from_data(inside.dims(), data)
    }
}

/// What a reader waits for after a writer has a new decomposition in
/// memory: write the store, open it, swap it into a live engine, get the
/// first answer.
struct Publisher {
    path: PathBuf,
    engine: Option<Engine<f64>>,
}

impl Publisher {
    fn new(path: PathBuf) -> Self {
        Publisher { path, engine: None }
    }

    fn path(&self) -> &Path {
        &self.path
    }

    /// One cycle for the stream's current state. Returns the seconds from
    /// before the publish to the first answer, and the answer's digest.
    fn cycle(&mut self, state: &StreamState<f64>, q: &Query) -> Result<(f64, u64), String> {
        let t = Instant::now();
        state
            .publish(&self.path)
            .map_err(|e| format!("publish: {e}"))?;
        let store = TuckerStore::<f64>::open(&self.path)
            .map_err(|e| format!("open published store: {e}"))?;
        match &mut self.engine {
            Some(engine) => engine.swap_store(store),
            None => self.engine = Some(Engine::new(store, EngineConfig::default())),
        }
        let engine = self.engine.as_mut().expect("engine set above");
        let out = engine
            .execute(q)
            .map_err(|e| format!("query after swap: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        Ok((secs, digest(out.tensor.data())))
    }

    /// Generation the engine is serving now.
    fn serving_generation(&self) -> Option<u64> {
        self.engine.as_ref().map(|e| e.store().generation())
    }
}

struct Setup {
    initial: Tensor<f64>,
    slabs: Vec<Tensor<f64>>,
    full: Tensor<f64>,
    /// Error of a from-scratch `sthosvd` of the whole stream at the same ranks.
    scratch_error: f64,
    cfg: StreamConfig,
}

fn setup(opts: &RunOpts, fp: &mut Fingerprint) -> Result<Setup, String> {
    let sh = shape(opts);
    let (t0, rows, r) = (sh.t0, sh.slab_rows, sh.rank);
    let mut source = Source::new(sh, opts.seed);
    // The initial tensor drifts like a Fast slab, in its own two directions.
    let initial = source.slab(t0, FAST_DRIFT, r);
    let mut full = initial.clone();
    let mut slabs = Vec::with_capacity(SLABS);
    let mut fresh = r;
    for k in 0..SLABS {
        // Fast slabs share the initial tensor's outside directions; every
        // Refresh and the Full slab get two of their own.
        let from = if scheduled_path(k) == UpdatePath::Fast {
            r
        } else {
            fresh += 2;
            fresh
        };
        let slab = source.slab(rows, scheduled_drift(k), from);
        full = append_dense(&full, &slab, 0);
        slabs.push(slab);
    }
    fp.add(full.data());
    fp.add(
        &(0..SLABS)
            .map(|k| scheduled_drift(k).to_bits())
            .collect::<Vec<u64>>(),
    );
    let svd = SthosvdConfig::with_ranks(vec![r, r, r]);
    let scratch = sthosvd(&full, &svd).map_err(|e| format!("from-scratch sthosvd: {e}"))?;
    let scratch_error = scratch.relative_error(&full);
    Ok(Setup {
        initial,
        slabs,
        full,
        scratch_error,
        cfg: StreamConfig::new(0, svd),
    })
}

/// Digest of `q`'s answer cut out of a full reconstruction: what an engine
/// under `OrderPolicy::Exact` must return bit for bit.
fn expected_digest(tk: &TuckerTensor<f64>, q: &Query) -> u64 {
    let dims = tk.original_dims();
    digest(hyperslab(&tk.reconstruct(), &q.normalized(&dims)).data())
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    append_s: Vec<f64>,
    /// The path each append took; `None` where it returned an error.
    paths: Vec<Option<UpdatePath>>,
    swap_s: Vec<f64>,
    failed: u64,
    final_digest: u64,
    error: f64,
    file_bytes: u64,
}

/// One episode: a fresh stream from the initial tensor, then every slab
/// appended and published. Oracles: no append returns an error, each takes
/// its scheduled path, the reader serves the generation just published, and
/// the last answer has the bits of the final reconstruction.
fn episode(s: &Setup, publisher: &mut Publisher, rec: &mut Recorder) -> Result<Episode, String> {
    let mut e = Episode::default();
    let q = probe_query(s.initial.dims());
    let mut state = StreamState::from_initial(&s.initial, s.cfg.clone())
        .map_err(|e| format!("from_initial: {e}"))?;
    let mut last_answer = 0;
    for (k, slab) in s.slabs.iter().enumerate() {
        rec.set_op(k as u64);
        if k % PACE_EVERY == 0 {
            host::pace_sample();
        }
        let t = Instant::now();
        let report = rec.span("stream.append", |_| state.append(slab));
        e.append_s.push(t.elapsed().as_secs_f64());
        let path = report.ok().map(|r| r.path);
        e.failed += u64::from(path != Some(scheduled_path(k)));
        e.paths.push(path);
        let (secs, answer) = rec.span("stream.publish_cycle", |_| publisher.cycle(&state, &q))?;
        e.swap_s.push(secs);
        e.failed += u64::from(publisher.serving_generation() != Some(state.generation()));
        last_answer = answer;
    }
    e.failed += u64::from(last_answer != expected_digest(state.tucker(), &q));
    e.final_digest = tucker_digest(state.tucker());
    e.error = state.tucker().relative_error(&s.full);
    e.file_bytes = std::fs::metadata(publisher.path())
        .map_err(|e| format!("stat store: {e}"))?
        .len();
    Ok(e)
}

fn count(paths: &[Option<UpdatePath>], p: UpdatePath) -> usize {
    paths.iter().filter(|&&x| x == Some(p)).count()
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fp = Fingerprint::default();
    let (s, setup_s) = timed_setup(opts, || {
        fp = Fingerprint::default();
        setup(opts, &mut fp)
    })?;
    out.set("setup_s", setup_s);
    out.exact
        .insert("fingerprint".into(), format!("{:016x}", fp.value()));
    let mut publisher = Publisher::new(opts.file("tkr"));
    let mut off = Recorder::new(false, Instant::now(), 0);

    // Warm-up: 1 untimed episode; it is also the reference for the bits.
    let first = episode(&s, &mut publisher, &mut off)?;
    if opts.trace {
        return traced(opts, out, &s, &first, publisher);
    }

    // Whole episodes until the time is up; at least 3, so that the 90th
    // percentile of the appends has ten samples beyond it.
    let budget = if opts.smoke { 0.0 } else { opts.seconds };
    let start = Instant::now();
    let (mut append_s, mut swap_s, mut paths) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut episodes) = (0, 0u64);
    while episodes < 3 || start.elapsed().as_secs_f64() < budget {
        let e = episode(&s, &mut publisher, &mut off)?;
        failed += e.failed + u64::from(e.final_digest != first.final_digest);
        append_s.extend(e.append_s);
        swap_s.extend(e.swap_s);
        paths.extend(e.paths);
        episodes += 1;
    }
    // Per episode: 48 appends, 48 swaps, the last answer and the final bits.
    out.check(episodes * (2 * SLABS as u64 + 2), failed, "appends succeed on their scheduled path; swaps serve the published generation; bits repeat");
    for (p, name) in [
        (UpdatePath::Fast, "fast"),
        (UpdatePath::Refresh, "refresh"),
        (UpdatePath::Full, "full"),
    ] {
        out.exact.insert(
            format!("stream.{name}_n per episode"),
            format!("{}", count(&paths, p) as f64 / episodes as f64),
        );
    }
    let sum = out.timing(
        "append (StreamState::append, all paths)",
        &append_s,
        1e3,
        "ms",
    );
    out.set("op_p50_ms", sum.median * 1e3);
    out.set("op_tail_ms", percentile(&append_s, 0.9) * 1e3);
    let rows = append_s.len() * shape(opts).slab_rows;
    out.set("ops_per_s", rows as f64 / append_s.iter().sum::<f64>());
    out.timing(
        "swap (publish, open, swap_store, first answer)",
        &swap_s,
        1e3,
        "ms",
    );
    // The stream may be at most 10% worse than compressing everything at once.
    let err = first.error / (1.1 * s.scratch_error);
    out.notes.push(format!(
        "final error {:.6} streamed, {:.6} from scratch",
        first.error, s.scratch_error
    ));
    out.set("error_over_tol", err);
    out.check(
        1,
        u64::from(over_budget(err)),
        "streamed error within 1.1x of a from-scratch sthosvd",
    );
    out.set(
        "compression_ratio",
        (s.full.len() * 8) as f64 / first.file_bytes as f64,
    );
    out.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

fn traced(
    opts: &RunOpts,
    mut out: Outcome,
    s: &Setup,
    first: &Episode,
    mut publisher: Publisher,
) -> Result<Outcome, String> {
    let sh = shape(opts);
    let epoch = Instant::now();
    let plain = episode(s, &mut publisher, &mut Recorder::new(false, epoch, 0))?;
    let mut rec = Recorder::new(true, epoch, 0);
    let e = episode(s, &mut publisher, &mut rec)?;
    let same = plain.final_digest == first.final_digest && e.final_digest == first.final_digest;
    out.check(
        2 * (2 * SLABS as u64 + 2) + 1,
        plain.failed + e.failed + u64::from(!same),
        "both episodes pass their oracles and end in the same bits",
    );
    out.set("bench.replay_bit_identical", f64::from(same));
    let (plain_total, traced_total): (f64, f64) =
        (plain.append_s.iter().sum(), e.append_s.iter().sum());
    out.set("bench.replay_over_e2e", traced_total / plain_total);
    out.set(
        "bench.trace_overhead_frac",
        traced_total / plain_total - 1.0,
    );
    out.timing("append (traced episode)", &e.append_s, 1e3, "ms");
    out.set("stream.swap_p50_ms", median(&e.swap_s) * 1e3);
    write_trace(opts, &mut out, &rec.into_spans(), "stream.append")?;

    let by_path = |p: UpdatePath| -> Vec<f64> {
        e.paths
            .iter()
            .zip(&e.append_s)
            .filter(|(&x, _)| x == Some(p))
            .map(|(_, &t)| t)
            .collect()
    };
    for (p, time, n) in [
        (UpdatePath::Fast, "stream.fast_p50_ms", "stream.fast_n"),
        (
            UpdatePath::Refresh,
            "stream.refresh_p50_ms",
            "stream.refresh_n",
        ),
        (UpdatePath::Full, "stream.full_p50_ms", "stream.full_n"),
    ] {
        out.set(time, median_or_zero(&by_path(p)) * 1e3);
        out.set(n, count(&e.paths, p) as f64);
        out.exact.insert(n.into(), count(&e.paths, p).to_string());
    }

    // The pieces of the publish cycle, on the final state of a stream.
    let mut state = StreamState::from_initial(&s.initial, s.cfg.clone())
        .map_err(|e| format!("from_initial: {e}"))?;
    for slab in &s.slabs {
        state.append(slab).map_err(|e| format!("append: {e}"))?;
    }
    let path = opts.file("pieces.tkr");
    out.set(
        "stream.publish_ms",
        median(&time_reps(opts.reps(10), || {
            state.publish(&path).expect("store is writable")
        })) * 1e3,
    );
    let open = || TuckerStore::<f64>::open(&path).expect("store published above");
    out.set(
        "serve.store_open_ms",
        median(&time_reps(opts.reps(10), open)) * 1e3,
    );
    let mut engine = Engine::new(open(), EngineConfig::default());
    let q = probe_query(s.initial.dims());
    let (mut swap_s, mut first_s) = (Vec::new(), Vec::new());
    for _ in 0..opts.reps(10) {
        let fresh = open();
        let t = Instant::now();
        engine.swap_store(fresh);
        swap_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        engine
            .execute(&q)
            .map_err(|e| format!("query after swap: {e}"))?;
        first_s.push(t.elapsed().as_secs_f64());
    }
    out.set("serve.swap_us", median(&swap_s) * 1e6);
    out.set("serve.first_query_us", median(&first_s) * 1e6);

    // Against recomputing from scratch at the final size.
    let recompute_s = median(&time_reps(opts.reps(2), || {
        state.recompute().expect("history is kept")
    }));
    out.set("stream.recompute_ms", recompute_s * 1e3);
    out.set(
        "stream.speedup_vs_recompute",
        recompute_s / (traced_total / SLABS as f64),
    );
    out.set("stream.err_vs_recompute", e.error / s.scratch_error);

    // Row extension only, on a stream of its own (it ends the other paths).
    let mut extended = StreamState::from_initial(&s.initial, s.cfg.clone())
        .map_err(|e| format!("from_initial: {e}"))?;
    let extend_s: Result<Vec<f64>, String> = s.slabs[..opts.reps(10)]
        .iter()
        .map(|slab| {
            let t = Instant::now();
            extended
                .append_extend(slab)
                .map_err(|e| format!("append_extend: {e}"))?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect();
    out.set("stream.extend_p50_ms", median(&extend_s?) * 1e3);

    // The Fast path's kernel alone: SVD of the core's time unfolding with
    // the projected slab stacked under it.
    let mut rng = SplitMix64::stream(opts.seed, "stacked svd");
    let stacked = Matrix::from_fn(sh.rank + sh.slab_rows, sh.rank * sh.rank, |_, _| {
        rng.centered()
    });
    out.set(
        "linalg.svd_stacked_ms",
        median(&time_reps(opts.reps(50), || {
            svd_left(stacked.as_ref()).expect("SVD of a random matrix")
        })) * 1e3,
    );

    // Sparse ingestion: a seeded Zipf event slab into COO, and its Gram.
    let dims = [sh.side, sh.side, sh.side];
    let n_events = if opts.smoke { 5_000 } else { 200_000 };
    let zipf: Vec<Zipf> = dims.iter().map(|&d| Zipf::new(d, 1.0)).collect();
    let events: Vec<(Vec<usize>, f64)> = (0..n_events)
        .map(|_| {
            (
                zipf.iter().map(|z| z.sample(&mut rng)).collect(),
                rng.centered(),
            )
        })
        .collect();
    let ingest = || {
        CooTensor::<f64>::from_events(&dims, events.iter().cloned()).expect("events are in range")
    };
    out.set(
        "stream.coo_ingest_meps",
        n_events as f64 / median(&time_reps(opts.reps(3), ingest)) / 1e6,
    );
    let coo = ingest();
    out.exact
        .insert("stream.coo_nnz".into(), coo.nnz().to_string());
    out.set(
        "stream.coo_gram_ms",
        median(&time_reps(opts.reps(3), || coo.mode_gram(1))) * 1e3,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_38_fast_9_refresh_1_full() {
        let paths: Vec<Option<UpdatePath>> = (0..SLABS).map(|k| Some(scheduled_path(k))).collect();
        assert_eq!(
            (
                count(&paths, UpdatePath::Fast),
                count(&paths, UpdatePath::Refresh),
                count(&paths, UpdatePath::Full)
            ),
            (38, 9, 1)
        );
        assert_eq!(scheduled_path(FULL_AT), UpdatePath::Full);
        // Two fresh directions for each of the 10 other slabs, after the
        // rank and the Fast slabs' own two, fit the basis at both sizes.
        for smoke in [false, true] {
            let sh = shape(&RunOpts {
                smoke,
                ..smoke_opts("unused")
            });
            assert!(sh.rank + 2 + 2 * 10 <= sh.side, "smoke {smoke}");
        }
    }

    fn smoke_opts(dir: &str) -> RunOpts {
        RunOpts::for_test("stream_append", dir)
    }

    #[test]
    fn episode_follows_the_schedule_and_a_wrong_schedule_is_caught() {
        let opts = smoke_opts("unit_stream");
        std::fs::create_dir_all(&opts.out_dir).unwrap();
        let mut s = setup(&opts, &mut Fingerprint::default()).unwrap();
        let mut publisher = Publisher::new(opts.file("tkr"));
        let mut off = Recorder::new(false, Instant::now(), 0);
        let e = episode(&s, &mut publisher, &mut off).unwrap();
        assert_eq!(e.failed, 0);
        assert_eq!(
            (
                count(&e.paths, UpdatePath::Fast),
                count(&e.paths, UpdatePath::Refresh),
                count(&e.paths, UpdatePath::Full)
            ),
            (38, 9, 1)
        );
        assert!(
            e.error <= 1.1 * s.scratch_error,
            "{} vs {}",
            e.error,
            s.scratch_error
        );
        // Swap a Refresh slab with a Fast one: the stream no longer takes the
        // scheduled paths, and the oracle counts both appends as failed.
        s.slabs.swap(3, 4);
        let wrong = episode(&s, &mut publisher, &mut off).unwrap();
        assert!(wrong.failed >= 2, "{}", wrong.failed);
        assert_ne!(wrong.final_digest, e.final_digest);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn basis_is_orthonormal_and_seeded() {
        let q = orthonormal_basis(16, &mut SplitMix64::stream(7, "t"));
        assert!(q.orthonormality_error() < 1e-12);
        let again = orthonormal_basis(16, &mut SplitMix64::stream(7, "t"));
        assert_eq!(q.data(), again.data());
    }

    #[test]
    fn slabs_have_the_drift_they_are_built_with() {
        let mut src = Source::new(shape(&smoke_opts("unused")), 7);
        let r = src.shape.rank;
        let (u1, u2) = (columns(&src.q1, 0, r), columns(&src.q2, 0, r));
        for drift in [FAST_DRIFT, REFRESH_DRIFT, FULL_DRIFT] {
            let slab = src.slab(4, drift, r + 2);
            let inside = ttm(&ttm(&slab, 1, u1.as_ref(), true), 2, u2.as_ref(), true);
            let outside = (slab.norm().powi(2) - inside.norm().powi(2))
                .max(0.0)
                .sqrt()
                / slab.norm();
            assert!((outside - drift).abs() < 1e-9, "{outside} vs {drift}");
        }
    }
}
