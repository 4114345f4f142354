//! Shared golden-fixture harness for the integration tests.
//!
//! A **golden fixture** pins the quantitative outcome of an executed workload
//! — iteration counts, bitwise pressure checksums, well totals — as a small
//! JSON file under `tests/golden/`.  Tests build a [`Golden`] record of what
//! they observed and call [`Golden::check`]:
//!
//! * normally the record's canonical JSON must match the pinned file
//!   byte-for-byte (a mismatch panics with both versions and re-bless
//!   instructions);
//! * with **`MFFV_BLESS=1`** in the environment the file is (re)written
//!   instead — the `--bless` path used to create or intentionally update
//!   fixtures after a reviewed numerical change:
//!
//! ```text
//! MFFV_BLESS=1 cargo test --test table_reproduction --test golden_differential
//! ```
//!
//! Checksums hash the IEEE bit patterns (see [`values_checksum`] for the
//! hash), so a fixture pins the *exact* floating-point trajectory: any
//! silent numerical drift across the hundreds of chained solves of a
//! transient run fails the comparison, while every platform computing
//! correct IEEE arithmetic (Rust never reassociates floats, and `mul_add`
//! has exact fused semantics everywhere) reproduces it.

#![allow(dead_code)]

use mffv_mesh::CellField;
use std::path::PathBuf;

/// [`values_checksum`] over the IEEE bit patterns of a field — the bitwise
/// fingerprint golden fixtures pin.
pub fn field_checksum(field: &CellField<f64>) -> String {
    fields_checksum(std::iter::once(field))
}

/// [`values_checksum`] chained over several fields in order — fingerprints
/// a whole pressure *trajectory*.
pub fn fields_checksum<'a>(fields: impl IntoIterator<Item = &'a CellField<f64>>) -> String {
    values_checksum(
        fields
            .into_iter()
            .flat_map(|field| field.as_slice().iter().copied()),
    )
}

/// A 64-bit checksum of the IEEE bit patterns of a sequence of values: each
/// value's eight little-endian bytes are xored in and multiplied by
/// `0x1000_0000_01b3` (17 592 186 044 851), starting from FNV-1a's offset
/// basis.  It is FNV-1a's shape with another multiplier: FNV-1a's 64-bit
/// prime, which `mffv_mesh::Fnv1a` uses, is `0x100_0000_01b3`
/// (1 099 511 628 211).  Every checksum under `tests/golden/` was blessed
/// with this multiplier, so changing it rewrites all of them.
pub fn values_checksum(values: impl IntoIterator<Item = f64>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// [`values_checksum`] over every step's mass ledger, in step order: its
/// accumulation rate, boundary inflow, transient-equation residual and well
/// rates.
pub fn step_ledger_checksum(report: &mffv::TransientReport) -> String {
    values_checksum(report.steps.iter().flat_map(|step| {
        [
            step.accumulation_rate,
            step.boundary_inflow,
            step.report.final_residual_max,
        ]
        .into_iter()
        .chain(step.well_rates.iter().copied())
    }))
}

/// One golden record: ordered `key: value` pairs serialised as a flat JSON
/// object.  Keys keep insertion order so fixtures read like the test wrote
/// them.
pub struct Golden {
    name: String,
    entries: Vec<(String, String)>,
}

impl Golden {
    /// A record that pins (or checks) `tests/golden/<name>.json`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Record a string value (checksums, backend names).
    pub fn str(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.entries
            .push((key.to_string(), format!("\"{}\"", value.as_ref())));
        self
    }

    /// Record an integer value (iteration counts, step counts).
    pub fn int(mut self, key: &str, value: usize) -> Self {
        self.entries.push((key.to_string(), value.to_string()));
        self
    }

    /// Record a float value with full round-trip precision.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.entries.push((key.to_string(), format!("{value:?}")));
        self
    }

    /// The canonical JSON serialisation (stable across runs and platforms).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            out.push_str(&format!("  \"{key}\": {value}"));
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Path of the pinned fixture.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{}.json", self.name))
    }

    /// Compare against the pinned fixture, or (re)write it when `MFFV_BLESS`
    /// is set.  Panics with a full diff and re-bless instructions on any
    /// mismatch or missing fixture.
    pub fn check(&self) {
        let path = self.path();
        let actual = self.to_json();
        if std::env::var_os("MFFV_BLESS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap())
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            std::fs::write(&path, &actual)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
            eprintln!("blessed golden fixture {}", path.display());
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); generate it with\n  \
                 MFFV_BLESS=1 cargo test\nand commit the file",
                path.display()
            )
        });
        assert!(
            expected == actual,
            "golden fixture {} does not match the observed run.\n\
             -- pinned --\n{expected}\n-- observed --\n{actual}\n\
             If the numerical change is intended and reviewed, re-bless with\n  \
             MFFV_BLESS=1 cargo test\nand commit the updated fixture.",
            path.display()
        );
    }
}
