//! Embeds build provenance: the compiler version and, when the sources
//! are a git checkout, the commit they were built from.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    // Ask git only inside the repository's own checkout, so git never
    // searches the directories above an exported source tree.
    let in_git = std::path::Path::new("../.git").exists();
    let rev = in_git.then(|| capture("git", &["rev-parse", "HEAD"])).flatten();
    let rev = rev.unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-embed the revision when the checkout moves (absent outside git).
    for head in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
