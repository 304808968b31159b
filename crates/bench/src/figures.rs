//! The paper's figures and tables, one function per `figs` entry.
//!
//! Every number here is virtual time (the α-β-γ model) or deterministic
//! arithmetic, so each entry rewrites its `results/*.csv` byte for byte on
//! any host; `scripts/ci.sh` diffs a fresh `figs all` against the committed
//! files. The synthetic scaling runs (Figs. 2–4) share [`simulate_noise`];
//! the dataset compression tables (Figs. 8–10 and the two §5 extensions)
//! are rows of [`compression_figs`].

use crate::args::Opts;
use crate::grids::{strong_scaling_grids, table1_grid, weak_scaling_grids};
use crate::variants::{run_variant, CompressionRow, Precision, Variant};
use crate::{write_csv, Table};
use tucker_core::model::{predict, ModeCost, ModelConfig, ModelOutput};
use tucker_core::{
    check_model, sthosvd_parallel, CheckConfig, ModeOrder, SthosvdConfig, SvdMethod, Truncation,
};
use tucker_data::{fig1_matrix, hash_noise, hcci_surrogate, sp_surrogate, video_surrogate};
use tucker_dtensor::{DistTensor, ProcessorGrid};
use tucker_linalg::randomized::RandomizedSvdConfig;
use tucker_linalg::{gram_svd, qr_svd, Matrix, Scalar};
use tucker_mpisim::{Breakdown, CostModel, SimOutput, Simulator};
use tucker_tensor::Tensor;

/// What an entry returns: `Err` fails the `figs` run (exit status 1).
pub type EntryResult = Result<(), String>;

/// Print the table and write it to `results/<name>.csv`.
fn save(name: &str, table: &Table) -> EntryResult {
    println!("{}", table.render());
    let path = write_csv(name, &table.to_csv()).map_err(|e| format!("{name}.csv: {e}"))?;
    println!("CSV written to {path}\n");
    Ok(())
}

/// Fixed-rank parallel ST-HOSVD of the `d × … × d` hash-noise tensor (one
/// mode per grid dimension, generated block by block — no global tensor
/// exists) on `sim`: the synthetic run behind Figs. 2–4, the reduction-tree
/// ablation and the metrics-overhead pair.
pub fn noise_sim<T: Scalar>(
    sim: Simulator,
    seed: u64,
    d: usize,
    grid: &[usize],
    cfg: &SthosvdConfig,
) -> SimOutput<()> {
    let dims = vec![d; grid.len()];
    let grid = ProcessorGrid::new(grid);
    sim.run(|ctx| {
        let dt = DistTensor::from_fn(&dims, &grid, ctx.rank(), |g| {
            let lin = g.iter().rev().fold(0, |acc, &i| acc * d + i);
            T::from_f64(hash_noise(seed, lin))
        });
        sthosvd_parallel(ctx, &dt, cfg).expect("fixed-rank ST-HOSVD of a dense block");
    })
}

/// [`noise_sim`] on the Andes-model machine with the `--threads` topology,
/// exporting `--trace` / `--metrics` artifacts (and the cost-model
/// conformance report) under `label`.
fn simulate_noise<T: Scalar>(
    opts: &Opts,
    label: &str,
    seed: u64,
    d: usize,
    grid: &[usize],
    cfg: &SthosvdConfig,
) -> Breakdown {
    let p = grid.iter().product();
    let mut sim = opts.sink.apply(opts.tracer.apply(Simulator::new(p).with_cost(CostModel::andes())));
    if let Some(t) = opts.threads {
        sim = sim.with_threads(t);
    }
    let out = noise_sim::<T>(sim, seed, d, grid, cfg);
    opts.tracer.export(label, &out.traces);
    if opts.sink.enabled() {
        // Fixed-rank run: the retained ranks are the configured ones, so
        // the conformance check needs no output plumbing.
        let Truncation::Ranks(ranks) = &cfg.truncation else { panic!("{label}: fixed ranks only") };
        let report = check_model(
            &CheckConfig {
                dims: vec![d; grid.len()],
                ranks: ranks.clone(),
                grid: grid.to_vec(),
                order: cfg.mode_order.resolve(grid.len()),
                method: cfg.method,
                tree: cfg.tree,
                bytes: T::BYTES,
                randomized: cfg.randomized,
                tolerance: 0.05,
            },
            &out.stats,
        );
        if !report.pass {
            eprintln!("model check FAILED for {label}:\n{}", report.table());
        }
        opts.sink.export(label, &out.metrics, Some(&report));
    }
    let b = out.breakdown();
    if opts.tracer.enabled() {
        println!("{}", b.critical_path_report());
    }
    b
}

/// [`simulate_noise`] in the variant's working precision.
fn simulate_variant(
    opts: &Opts,
    label: &str,
    seed: u64,
    d: usize,
    grid: &[usize],
    cfg: &SthosvdConfig,
    v: Variant,
) -> Breakdown {
    let cfg = cfg.clone().method(v.method);
    match v.precision {
        Precision::Single => simulate_noise::<f32>(opts, label, seed, d, grid, &cfg),
        Precision::Double => simulate_noise::<f64>(opts, label, seed, d, grid, &cfg),
    }
}

/// The paper's pairing (§4.3–4.4): Gram runs forward on the back-loaded
/// grid, QR backward on the front-loaded one.
fn paper_layout<G>(method: SvdMethod, (qr, gram): (G, G)) -> (G, ModeOrder) {
    match method {
        SvdMethod::Gram => (gram, ModeOrder::Forward),
        _ => (qr, ModeOrder::Backward),
    }
}

/// §3.5 closed-form prediction for a cubical `d⁴ → r⁴` run.
fn modeled(d: usize, r: usize, grid: &[usize], order: &ModeOrder, v: Variant) -> ModelOutput {
    predict(&ModelConfig {
        dims: vec![d; 4],
        ranks: vec![r; 4],
        grid: grid.to_vec(),
        order: order.resolve(4),
        method: v.method,
        bytes: v.precision.bytes(),
        cost: CostModel::andes(),
    })
}

/// **Figure 1**: computed singular values of QR-SVD and Gram-SVD, single
/// and double, on the paper's 80×80 matrix with geometric decay 10⁰…10⁻¹⁸.
/// Every variant tracks the truth down to its floor — Gram single √ε_s ≈
/// 1e-4, QR single ε_s ≈ 1e-7, Gram double √ε_d ≈ 1e-8, QR double ε_d ≈
/// 1e-16 — then flattens into noise (§3.2).
pub fn fig1(_: &Opts) -> EntryResult {
    fn series<T: Scalar>(qr: bool) -> Vec<f64> {
        let a: Matrix<T> = fig1_matrix::<T>(2021);
        let svd = if qr { qr_svd(a.as_ref()) } else { gram_svd(a.as_ref()) };
        let (_, s) = svd.expect("SVD of the Fig. 1 matrix");
        s.iter().map(|v| v.to_f64()).collect()
    }
    let truth: Vec<f64> = tucker_data::geometric_profile(80, 0.0, -18.0);
    let columns = [
        ("QR double", series::<f64>(true)),
        ("QR single", series::<f32>(true)),
        ("Gram double", series::<f64>(false)),
        ("Gram single", series::<f32>(false)),
    ];
    let mut t = Table::new(&["i", "true", "QR double", "QR single", "Gram double", "Gram single"]);
    for i in 0..80 {
        let mut row = vec![i.to_string(), format!("{:.3e}", truth[i])];
        row.extend(columns.iter().map(|(_, s)| format!("{:.3e}", s[i])));
        t.row(row);
    }
    println!("Figure 1: computed singular values (80x80, geometric decay 1e0..1e-18)\n");
    println!("first singular value lost (relative error > 1):");
    for (name, s) in &columns {
        match truth.iter().zip(s).position(|(t, g)| (g - t).abs() / t > 1.0) {
            Some(i) => println!("  {name:11}: sigma ~ {:.2e}", truth[i]),
            None => println!("  {name:11}: accurate over the whole range"),
        }
    }
    println!("paper floors: Gram single ~1e-4, QR single ~1e-7, Gram double ~1e-8, QR double ~1e-16\n");
    save("fig1_svd_accuracy", &t)
}

/// **Figure 2**: time breakdown of QR-SVD ST-HOSVD across mode orderings and
/// processor grids (back- to front-loaded) — measured at 32⁴ → 3⁴ on 16
/// simulated ranks, modeled at the paper's 300⁴ → 30⁴. More than half the
/// time is the first processed mode's LQ, and the fastest grid per ordering
/// puts a 1 on that mode (§4.2.4).
pub fn fig2(opts: &Opts) -> EntryResult {
    let grids: [[usize; 4]; 5] =
        [[1, 1, 2, 8], [1, 2, 2, 4], [2, 2, 2, 2], [4, 2, 2, 1], [8, 2, 1, 1]];
    let orders = [("forward", ModeOrder::Forward, 0), ("backward", ModeOrder::Backward, 3)];
    let qr_double = Variant { method: SvdMethod::Qr, precision: Precision::Double };
    println!("--- measured (16 simulated ranks): 32^4 -> 3^4; modeled: 300^4 -> 30^4 ---\n");
    let mut measured =
        Table::new(&["order", "grid", "total_s", "first_LQ_s", "LQ_s", "SVD_s", "TTM_s"]);
    let mut model =
        Table::new(&["order", "grid", "total_s", "redist_s", "factor_s", "svd_s", "ttm_s"]);
    for (label, order, first_mode) in orders {
        for grid in grids {
            let grid_cell = format!("{grid:?}").replace(',', "x");
            let tag = grid.map(|d| d.to_string()).join("x");
            let cfg = SthosvdConfig::with_ranks(vec![3; 4]).order(order.clone());
            let b =
                simulate_variant(opts, &format!("fig2_{label}_{tag}"), 7, 32, &grid, &cfg, qr_double);
            let g = |k: &str| b.phases.get(k).map_or(0.0, |p| p.modeled);
            let first_lq = format!("LQ#{first_mode}");
            let mut row = vec![label.to_string(), grid_cell.clone(), format!("{:.5}", b.modeled_time)];
            row.extend([&first_lq, "LQ", "SVD", "TTM"].map(|phase| format!("{:.5}", g(phase))));
            measured.row(row);

            let m = modeled(300, 30, &grid, &order, qr_double);
            let sum = |f: fn(&ModeCost) -> f64| -> f64 { m.per_mode.iter().map(f).sum() };
            model.row(vec![
                label.to_string(),
                grid_cell,
                format!("{:.4}", m.total),
                format!("{:.4}", sum(|c| c.redistribute)),
                format!("{:.4}", sum(|c| c.factor)),
                format!("{:.4}", sum(|c| c.small_svd)),
                format!("{:.4}", sum(|c| c.ttm)),
            ]);
        }
    }
    save("fig2_measured", &measured)?;
    save("fig2_modeled", &model)
}

/// **Figure 3**: weak scaling of the four variants — measured at `(24k)⁴ →
/// (3k)⁴` on `k⁴` simulated ranks (local data fixed), modeled at the paper's
/// `(250k)⁴ → (25k)⁴` on `32k⁴` cores. Times grow with k, Gram single < QR
/// single < Gram double < QR double, GFLOPS/core roughly flat (§4.3).
pub fn fig3(opts: &Opts) -> EntryResult {
    println!("--- measured: (24k)^4 -> (3k)^4 on k^4 ranks; modeled: (250k)^4 -> (25k)^4 ---\n");
    let mut table = Table::new(&["k", "ranks", "variant", "modeled_s", "GFLOPS/rank", "flops_total"]);
    for k in [1usize, 2] {
        for v in Variant::all() {
            let (grid, order) = paper_layout(v.method, ([k * k, k, k, 1], [1, k, k, k * k]));
            let cfg = SthosvdConfig::with_ranks(vec![3 * k; 4]).order(order);
            let label = format!("fig3_{}_k{k}", v.label().replace(' ', "_"));
            let b = simulate_variant(opts, &label, 11, 24 * k, &grid, &cfg, v);
            table.row(vec![
                k.to_string(),
                k.pow(4).to_string(),
                v.label(),
                format!("{:.5}", b.modeled_time),
                format!("{:.3}", b.gflops_per_rank(k.pow(4))),
                format!("{:.3e}", b.total_flops),
            ]);
        }
    }
    save("fig3_weak_measured", &table)?;

    let mut mt = Table::new(&["k", "cores", "variant", "modeled_s", "GFLOPS/core"]);
    for k in [1usize, 2, 3, 4] {
        for v in Variant::all() {
            let (grid, order) = paper_layout(v.method, weak_scaling_grids(k));
            let m = modeled(250 * k, 25 * k, &grid, &order, v);
            mt.row(vec![
                k.to_string(),
                (32 * k.pow(4)).to_string(),
                v.label(),
                format!("{:.4}", m.total),
                format!("{:.3}", m.gflops_per_rank()),
            ]);
        }
    }
    save("fig3_weak_modeled", &mt)
}

/// **Figure 4 / Table 1**: strong scaling of the four variants — measured at
/// `32⁴ → 4⁴` on 1–16 simulated ranks with scaled grids, modeled at the
/// paper's `256⁴ → 32⁴` on the Table 1 grids, 32–2048 cores. Times fall with
/// rank count; QR single stays ~30% ahead of Gram double (§4.4).
pub fn fig4(opts: &Opts) -> EntryResult {
    println!("--- measured: 32^4 -> 4^4 on 1..16 ranks; modeled: 256^4 -> 32^4, Table 1 grids ---\n");
    let labels = Variant::all().map(|v| v.label());
    let table_of = |first| {
        let mut headers = vec![first];
        headers.extend(labels.iter().map(String::as_str));
        Table::new(&headers)
    };
    let mut table = table_of("ranks");
    for p in [1usize, 2, 4, 8, 16] {
        let mut row = vec![p.to_string()];
        for v in Variant::all() {
            let (grid, order) = paper_layout(v.method, strong_scaling_grids(p));
            let cfg = SthosvdConfig::with_ranks(vec![4; 4]).order(order);
            let tag = if v.method == SvdMethod::Gram { "gram" } else { "qr" };
            let label = format!("fig4_{tag}_b{}_p{p}", v.precision.bytes());
            let b = simulate_variant(opts, &label, 13, 32, &grid, &cfg, v);
            row.push(format!("{:.5}", b.modeled_time));
        }
        table.row(row);
    }
    save("fig4_strong_measured", &table)?;

    let mut mt = table_of("cores");
    for cores in [32usize, 64, 128, 256, 512, 1024, 2048] {
        let grids = table1_grid(cores).expect("Table 1 core count");
        let mut row = vec![cores.to_string()];
        for v in Variant::all() {
            let (grid, order) = paper_layout(v.method, grids);
            row.push(format!("{:.5}", modeled(256, 32, &grid, &order, v).total));
        }
        mt.row(row);
    }
    save("fig4_strong_modeled", &mt)
}

/// **Figures 5–7**: per-mode singular values (σ₁ = 1) of the HCCI, SP and
/// Video surrogates from an untruncated ST-HOSVD under all four variants.
/// The combustion spectra span many orders and each variant flattens at its
/// floor except QR double; the video spectrum drops two orders then
/// flattens.
pub fn fig5to7(_: &Opts) -> EntryResult {
    let datasets: [(&str, &str, Tensor<f64>, &[usize]); 3] = [
        ("HCCI (Fig. 5)", "hcci", hcci_surrogate(&[40, 40, 33, 40], 101), &[2, 2, 1, 1]),
        ("SP (Fig. 6)", "sp", sp_surrogate(&[24, 24, 24, 11, 16], 102), &[2, 2, 1, 1, 1]),
        ("Video (Fig. 7)", "video", video_surrogate(&[36, 48, 3, 44], 103), &[2, 2, 1, 1]),
    ];
    let cfg = SthosvdConfig::no_truncation();
    for (name, slug, x64, grid) in &datasets {
        println!("=== {name} surrogate, dims {:?} ===", x64.dims());
        let rows = Variant::all().map(|v| run_variant(x64, grid, &cfg, v));
        for (n, &len) in x64.dims().iter().enumerate() {
            let mut t = Table::new(&["i", "Gram single", "QR single", "Gram double", "QR double"]);
            for i in 0..len {
                let mut row = vec![i.to_string()];
                row.extend(rows.iter().map(|r| format!("{:.3e}", r.singular_values[n][i])));
                t.row(row);
            }
            println!("mode {n} normalized singular values:");
            save(&format!("fig5to7_{slug}_mode{n}"), &t)?;
        }
    }
    Ok(())
}

/// One dataset of a compression table (a seeded surrogate, generated when
/// the entry runs) and the truncations swept on it.
struct Dataset {
    label: &'static str,
    surrogate: fn(&[usize], u64) -> Tensor<f64>,
    dims: &'static [usize],
    seed: u64,
    truncs: Vec<Truncation>,
}

/// One compared method: a variant, its label in the table, and the power
/// iterations of the randomized range finder (ignored by the other methods).
struct Run {
    label: String,
    variant: Variant,
    power: usize,
}

/// What a column formatter sees of one run.
struct Cell<'a> {
    dataset: &'a str,
    trunc: &'a Truncation,
    run: &'a Run,
    row: &'a CompressionRow,
}

impl Cell<'_> {
    /// Modeled seconds of the slowest rank in phase `a`, else `b`.
    fn phase(&self, a: &str, b: &str) -> f64 {
        self.row.phases.get(a).or_else(|| self.row.phases.get(b)).copied().unwrap_or(0.0)
    }
}

type Col = (&'static str, fn(&Cell) -> String);

const TOLERANCE: Col = ("tolerance", |c| match c.trunc {
    Truncation::Tolerance(tol) => format!("{tol:.0e}"),
    other => format!("{other:?}"),
});
const VARIANT: Col = ("variant", |c| c.run.label.clone());
const COMPRESSION_SCI: Col = ("compression", |c| format!("{:.2e}", c.row.compression));
const COMPRESSION_X: Col = ("compression", |c| format!("{:.1}", c.row.compression));
const ERROR_SCI: Col = ("error", |c| format!("{:.2e}", c.row.error));
const MODELED: Col = ("modeled_s", |c| format!("{:.4}", c.row.modeled_time));
const PHASES: [Col; 3] = [
    ("LQ/Gram_s", |c| format!("{:.4}", c.phase("LQ", "Gram"))),
    ("SVD/EVD_s", |c| format!("{:.4}", c.phase("SVD", "EVD"))),
    ("TTM_s", |c| format!("{:.4}", c.phase("TTM", "TTM"))),
];

/// A dataset compression table: every `run` on every `(dataset, truncation)`
/// through [`run_variant`] — 8 simulated ranks on a `4 × 2 × 1 × …` grid,
/// backward ordering — one CSV row each, formatted by `cols`.
pub struct CompressionFig {
    /// Entry name.
    pub name: &'static str,
    /// One-line description for `figs list`.
    pub about: &'static str,
    csv: &'static str,
    datasets: Vec<Dataset>,
    runs: Vec<Run>,
    cols: Vec<Col>,
}

/// The paper's four variants under their own labels.
fn paper_runs() -> Vec<Run> {
    Variant::all().map(|variant| Run { label: variant.label(), variant, power: 0 }).into()
}

fn tolerances(tols: &[f64]) -> Vec<Truncation> {
    tols.iter().map(|&t| Truncation::Tolerance(t)).collect()
}

/// The compression tables: Figs. 8–10 (Tabs. 2–3) and the two §5
/// future-work extensions.
pub fn compression_figs() -> Vec<CompressionFig> {
    let table2 = [
        vec![
            TOLERANCE,
            VARIANT,
            COMPRESSION_SCI,
            ERROR_SCI,
            ("est_error", |c| format!("{:.2e}", c.row.estimated_error)),
            ("ranks", |c| format!("{:?}", c.row.ranks)),
            MODELED,
        ],
        PHASES.to_vec(),
    ]
    .concat();
    let mixed = Variant { method: SvdMethod::GramMixed, precision: Precision::Single };
    let double = |method, power, label: String| Run {
        label,
        variant: Variant { method, precision: Precision::Double },
        power,
    };
    vec![
        CompressionFig {
            name: "fig8",
            about: "Fig. 8 / Tab. 2: HCCI surrogate at tol 1e-2..1e-8, four variants",
            csv: "fig8_table2_hcci",
            datasets: vec![Dataset {
                label: "HCCI",
                surrogate: hcci_surrogate,
                dims: &[60, 60, 33, 60],
                seed: 101,
                truncs: tolerances(&[1e-2, 1e-4, 1e-6, 1e-8]),
            }],
            runs: paper_runs(),
            cols: table2.clone(),
        },
        CompressionFig {
            name: "fig9",
            about: "Fig. 9 / Tab. 3: SP surrogate at tol 1e-2..1e-8, four variants",
            csv: "fig9_table3_sp",
            datasets: vec![Dataset {
                label: "SP",
                surrogate: sp_surrogate,
                dims: &[36, 36, 36, 11, 20],
                seed: 102,
                truncs: tolerances(&[1e-2, 1e-4, 1e-6, 1e-8]),
            }],
            runs: paper_runs(),
            cols: table2,
        },
        CompressionFig {
            name: "fig10",
            about: "Fig. 10: Video surrogate to fixed ranks (the paper's rank fractions)",
            csv: "fig10_video",
            datasets: vec![Dataset {
                label: "Video",
                surrogate: video_surrogate,
                dims: &[54, 96, 3, 110],
                seed: 103,
                truncs: vec![Truncation::Ranks(vec![10, 10, 3, 10])],
            }],
            runs: paper_runs(),
            cols: [
                vec![VARIANT, COMPRESSION_X, ("error", |c| format!("{:.4}", c.row.error)), MODELED],
                PHASES.to_vec(),
            ]
            .concat(),
        },
        CompressionFig {
            name: "ext_mixed",
            about: "§5 extension: Gram-SVD on f32 data with the Gram matrix and EVD in f64",
            csv: "ext_mixed_precision",
            datasets: vec![Dataset {
                label: "HCCI",
                surrogate: hcci_surrogate,
                dims: &[48, 48, 33, 48],
                seed: 101,
                truncs: tolerances(&[1e-2, 1e-4, 1e-6]),
            }],
            runs: paper_runs()
                .into_iter()
                .chain([Run { label: mixed.label(), variant: mixed, power: 0 }])
                .collect(),
            cols: vec![TOLERANCE, VARIANT, COMPRESSION_SCI, ERROR_SCI, MODELED],
        },
        CompressionFig {
            name: "ext_randomized",
            about: "§5 extension: randomized range finder (q = 0,1,2) vs Gram and QR, fixed ranks",
            csv: "ext_randomized",
            datasets: vec![
                Dataset {
                    label: "HCCI-like",
                    surrogate: hcci_surrogate,
                    dims: &[40, 40, 20, 40],
                    seed: 21,
                    truncs: vec![Truncation::Ranks(vec![6, 6, 4, 6])],
                },
                Dataset {
                    label: "Video-like",
                    surrogate: video_surrogate,
                    dims: &[40, 64, 3, 50],
                    seed: 22,
                    truncs: vec![Truncation::Ranks(vec![8, 8, 3, 8])],
                },
            ],
            runs: [SvdMethod::Gram, SvdMethod::Qr]
                .into_iter()
                .map(|m| double(m, 0, m.label().into()))
                .chain((0..3).map(|q| double(SvdMethod::Randomized, q, format!("Randomized q={q}"))))
                .collect(),
            cols: vec![
                ("dataset", |c| c.dataset.to_string()),
                ("method", |c| c.run.label.clone()),
                ("error", |c| format!("{:.4e}", c.row.error)),
                MODELED,
                COMPRESSION_X,
            ],
        },
    ]
}

impl CompressionFig {
    /// Run every row and write the CSV.
    pub fn run(&self) -> EntryResult {
        let headers: Vec<&str> = self.cols.iter().map(|c| c.0).collect();
        let mut table = Table::new(&headers);
        for ds in &self.datasets {
            let mut grid = vec![1; ds.dims.len()];
            grid[..2].copy_from_slice(&[4, 2]);
            println!("{} surrogate {:?}, grid {grid:?}, backward order", ds.label, ds.dims);
            let x64 = (ds.surrogate)(ds.dims, ds.seed);
            for trunc in &ds.truncs {
                for run in &self.runs {
                    let cfg = SthosvdConfig {
                        truncation: trunc.clone(),
                        mode_order: ModeOrder::Backward,
                        randomized: RandomizedSvdConfig {
                            power_iterations: run.power,
                            ..Default::default()
                        },
                        ..SthosvdConfig::no_truncation()
                    };
                    let row = run_variant(&x64, &grid, &cfg, run.variant);
                    let cell = Cell { dataset: ds.label, trunc, run, row: &row };
                    table.row(self.cols.iter().map(|c| (c.1)(&cell)).collect());
                }
            }
        }
        save(self.csv, &table)
    }
}
