//! Virtual-time fingerprints: each cell's simulated statistics, pinned in
//! `fingerprints.txt` beside this package's manifest.
//!
//! A change that only speeds up the simulator must leave every pinned line
//! identical; the benchmark reports how many cells differ
//! (`core.fingerprint_mismatches`) and how many had a pin to compare with
//! (`core.fingerprint_pinned`). Re-record after a deliberate change to
//! simulated behaviour with `--record-fingerprints`.

use std::collections::BTreeMap;

/// The committed pins, compiled in so a run reads no file.
const PINNED: &str = include_str!("../fingerprints.txt");

/// One cell's deterministic statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// `<workload>/<cell>[/seed=<n>]`.
    pub key: String,
    /// Named values, in a fixed order per workload.
    pub fields: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    /// The fields as `name=value` pairs separated by spaces.
    pub fn values(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Pinned values by cell key.
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

/// The pins compiled into this build.
pub fn pinned() -> BTreeMap<String, String> {
    parse(PINNED)
}

/// Compare `fps` with `pins`: `(pinned, mismatches)`, with a description
/// of each mismatch.
pub fn compare(pins: &BTreeMap<String, String>, fps: &[Fingerprint]) -> (u64, Vec<String>) {
    let mut pinned = 0;
    let mut mismatches = Vec::new();
    for fp in fps {
        if let Some(want) = pins.get(&fp.key) {
            pinned += 1;
            let got = fp.values();
            if *want != got {
                mismatches.push(format!("{}: pinned {want}, got {got}", fp.key));
            }
        }
    }
    (pinned, mismatches)
}

/// Merge `fps` into the committed file, replacing lines with the same key.
pub fn record(fps: &[Fingerprint]) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt");
    let text = std::fs::read_to_string(path)?;
    let header: String = text
        .lines()
        .take_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut pins = parse(&text);
    for fp in fps {
        pins.insert(fp.key.clone(), fp.values());
    }
    let body: String = pins.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(path, header + &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_counts_pins_and_mismatches() {
        let pins = parse("# header\nw/a x=1 y=2\nw/b x=3\n");
        let fps = [
            Fingerprint {
                key: "w/a".into(),
                fields: vec![("x", 1), ("y", 2)],
            },
            Fingerprint {
                key: "w/b".into(),
                fields: vec![("x", 4)],
            },
            Fingerprint {
                key: "w/c".into(),
                fields: vec![("x", 5)],
            },
        ];
        let (pinned, bad) = compare(&pins, &fps);
        assert_eq!(pinned, 2);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("w/b"));
    }
}
