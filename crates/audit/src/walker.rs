//! A hand-rolled workspace file walker (std-only, no `walkdir`).
//!
//! Collects every `.rs` source the audit owns: the umbrella crate's `src/`,
//! `tests/`, and `examples/`, plus each member crate's `src/` tree.  Two
//! subtrees are deliberately outside the audit's jurisdiction:
//!
//! * `crates/shims/` — offline stand-ins for third-party dependencies
//!   (`proptest`); they model external code, not ours.
//! * `crates/audit/tests/fixtures/` — the rule fixtures *are* deliberate
//!   violations; scanning them would make the pass fail on its own tests.

use std::path::{Path, PathBuf};

/// Directories under the workspace root that are walked for `.rs` files.
const ROOTS: [&str; 4] = ["src", "tests", "examples", "crates"];

/// Path prefixes (workspace-relative, `/`-separated) excluded from the walk.
const EXCLUDED_PREFIXES: [&str; 3] = ["crates/shims/", "crates/audit/tests/fixtures/", "target/"];

/// Collect the workspace-relative paths of every auditable `.rs` file under
/// `workspace_root`, sorted for stable output.
pub fn collect_sources(workspace_root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for root in ROOTS {
        let dir = workspace_root.join(root);
        if dir.is_dir() {
            walk(workspace_root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(workspace_root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    // Sort entries so traversal (and any I/O error ordering) is deterministic.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(workspace_root, &path);
        if EXCLUDED_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || format!("{rel}/").starts_with(p))
        {
            continue;
        }
        if path.is_dir() {
            walk(workspace_root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path.
pub fn rel_path(workspace_root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(workspace_root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Find the workspace root by walking up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
