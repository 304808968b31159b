//! `figs <name>… | all | list [--trace DIR] [--metrics DIR] [--threads N|auto] [--quick]`
//!
//! The one front end onto the paper's experiments. `all` runs the
//! deterministic entries — the ones that write `results/*.csv`; the
//! wall-clock entries (`ablations`, `overhead_*`) run only when named and
//! print their table without touching `results/`. Entries run in the order
//! `list` prints them.

use tucker_bench::figures::{self, EntryResult};
use tucker_bench::{args, overhead, Opts};

struct Entry {
    name: &'static str,
    about: &'static str,
    /// Deterministic (writes `results/*.csv`), so part of `all`.
    in_all: bool,
    run: Box<dyn Fn(&Opts) -> EntryResult>,
}

fn entries() -> Vec<Entry> {
    let entry = |name, in_all, run: fn(&Opts) -> EntryResult, about| Entry {
        name,
        about,
        in_all,
        run: Box::new(run),
    };
    let mut all = vec![
        entry("fig1", true, figures::fig1, "Fig. 1: singular-value accuracy floors"),
        entry("fig2", true, figures::fig2, "Fig. 2: QR time over mode orders and grids (*)"),
        entry("fig3", true, figures::fig3, "Fig. 3: weak scaling, measured + modeled (*)"),
        entry("fig4", true, figures::fig4, "Fig. 4 / Tab. 1: strong scaling, measured + modeled (*)"),
        entry("fig5to7", true, figures::fig5to7, "Figs. 5-7: per-mode singular values"),
    ];
    all.extend(figures::compression_figs().into_iter().map(|fig| Entry {
        name: fig.name,
        about: fig.about,
        in_all: true,
        run: Box::new(move |_| fig.run()),
    }));
    all.extend([
        entry("ablations", false, overhead::ablations, "DESIGN.md §5: butterfly vs binomial TSQR"),
        entry("overhead_metrics", false, overhead::overhead_metrics, "mpisim metrics off vs on, < 2% (**)"),
        entry("overhead_obs", false, overhead::overhead_obs, "serve ObsConfig::full off vs on, < 2% (**)"),
    ]);
    all
}

fn list(entries: &[Entry]) -> String {
    let mut out = String::from(
        "usage: figs <name>... | all | list [--trace DIR] [--metrics DIR] [--threads N|auto] [--quick]\n",
    );
    for e in entries {
        let wall = if e.in_all { "" } else { "wall clock, not in `all`: " };
        out.push_str(&format!("  {:17}{wall}{}\n", e.name, e.about));
    }
    out.push_str("(*) honours --trace, --metrics, --threads   (**) --quick: CI size, budget not enforced\n");
    out
}

fn main() {
    let entries = entries();
    let known: Vec<&str> = entries.iter().map(|e| e.name).collect();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = args::parse(&argv, &known).unwrap_or_else(|e| {
        eprintln!("figs: {e}\n{}", list(&entries));
        std::process::exit(2);
    });
    if parsed.names.iter().any(|n| n == "list") {
        print!("{}", list(&entries));
        return;
    }
    for e in &entries {
        if !parsed.names.iter().any(|n| n == e.name || (n == "all" && e.in_all)) {
            continue;
        }
        println!("=== figs {} ===", e.name);
        if let Err(err) = (e.run)(&parsed.opts) {
            eprintln!("figs {}: {err}", e.name);
            std::process::exit(1);
        }
    }
}
