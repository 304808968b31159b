//! The `tucker` binary refuses what no command reads: a method it does not
//! have, a retired option, a misspelt option and a misspelt flag each exit
//! non-zero with a message that names them, and nothing is written.

use std::path::PathBuf;
use std::process::Command;

fn tucker(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tucker")).args(args).output().unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_methods_and_options_fail_naming_them() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tucker_rejected_options_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tns = dir.join("x.tns").display().to_string();
    let tkr = dir.join("x.tkr").display().to_string();
    let (ok, err) = tucker(&["generate", &tns, "--kind", "random", "--dims", "6x6x6"]);
    assert!(ok, "{err}");
    for (extra, name) in [
        (&["--svd", "sketched-gram"][..], "sketched-gram"),
        (&["--svd", "gram", "--sketch-rows", "5"][..], "--sketch-rows"),
        (&["--tool", "9"][..], "--tool"),
        (&["--tol", "1e-2", "--f23"][..], "--f23"),
    ] {
        let args = [&["compress", tns.as_str(), tkr.as_str()][..], extra].concat();
        let (ok, err) = tucker(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(err.contains(name), "{args:?}: {err}");
        assert!(!std::path::Path::new(&tkr).exists(), "{args:?} wrote a store");
    }
    std::fs::remove_dir_all(dir).ok();
}
