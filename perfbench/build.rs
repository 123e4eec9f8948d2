//! Stamps the rustc version, build profile and git revision into the
//! benchmark's host block. The revision is read from the checkout's own
//! `.git` directory, so a checkout without one reports "unknown".

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        git_rev(Path::new("../.git"))
    );
}

/// The commit `HEAD` names, following one symbolic ref through loose or
/// packed refs.
fn git_rev(git: &Path) -> String {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".to_string();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(reference);
    if let Ok(rev) = std::fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .unwrap_or("unknown")
        .to_string()
}
