//! Records the compiler version and the repository commit for the host
//! record. Neither is required: outside a git checkout the commit reads
//! `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        output(&rustc, &["--version"])
    );

    // Asked only where the repository root has a `.git`, so that a copy of
    // the sources inside some other repository does not report its commit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let commit = if git.exists() {
        let root = root.to_string_lossy();
        output("git", &["-C", &root, "rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    for watched in ["HEAD", "refs", "packed-refs"] {
        let path = git.join(watched);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}

/// The trimmed standard output of `program args`, or `unknown`.
fn output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}
