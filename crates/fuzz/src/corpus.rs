//! The regression corpus: shrunk mismatch triggers persisted as
//! self-contained files, replayed green by the corpus test on every run.
//!
//! File format — `#` header lines, a blank line, then plain QL text:
//!
//! ```text
//! # qlsmith regression
//! # seed: 0xe155eed
//! # note: MIN over signed zeros picked the scan-order winner
//!
//! QUERY
//! $C1 := SLICE (<http://qlsmith.example/ds>, <http://qlsmith.example/dim/cat>);
//! ```
//!
//! Everything the replay needs is in the file: the fixture cube is
//! deterministic, so the QL text alone reproduces the original execution;
//! the seed is kept for provenance (which campaign found it).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic first line of every corpus file.
pub const HEADER: &str = "# qlsmith regression";

/// One parsed corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The campaign seed that found the trigger, if recorded.
    pub seed: Option<u64>,
    /// Free-text provenance note.
    pub note: Option<String>,
    /// The QL program text to replay.
    pub ql_text: String,
}

/// Writes one corpus file.
pub fn write_corpus_file(path: &Path, seed: u64, note: &str, ql_text: &str) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("# seed: 0x{seed:x}\n"));
    if !note.is_empty() {
        out.push_str(&format!("# note: {note}\n"));
    }
    out.push('\n');
    out.push_str(ql_text);
    if !ql_text.ends_with('\n') {
        out.push('\n');
    }
    fs::write(path, out)
}

/// Reads one corpus file.
pub fn read_corpus_file(path: &Path) -> io::Result<CorpusEntry> {
    let text = fs::read_to_string(path)?;
    let mut seed = None;
    let mut note = None;
    let mut body = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(value) = rest.strip_prefix("seed:") {
                let value = value.trim();
                seed = if let Some(hex) = value.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    value.parse().ok()
                };
            } else if let Some(value) = rest.strip_prefix("note:") {
                note = Some(value.trim().to_string());
            }
        } else {
            body.push(line);
        }
    }
    // Trim leading/trailing blank lines of the body, keep inner structure.
    while body.first().is_some_and(|l| l.trim().is_empty()) {
        body.remove(0);
    }
    while body.last().is_some_and(|l| l.trim().is_empty()) {
        body.pop();
    }
    let mut ql_text = body.join("\n");
    ql_text.push('\n');
    Ok(CorpusEntry {
        seed,
        note,
        ql_text,
    })
}

/// Reads every `*.ql` file of a corpus directory, sorted by file name so
/// replay order is stable.
pub fn corpus_programs(dir: &Path) -> io::Result<Vec<(PathBuf, CorpusEntry)>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ql"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let entry = read_corpus_file(&path)?;
        out.push((path, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_files_round_trip() {
        let dir = std::env::temp_dir().join("qlsmith-corpus-roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0001.ql");
        let ql = "QUERY\n$C1 := SLICE (<http://qlsmith.example/ds>, <http://qlsmith.example/dim/cat>);\n";
        write_corpus_file(&path, 0xE15_5EED, "unit-test entry", ql).unwrap();
        let entry = read_corpus_file(&path).unwrap();
        assert_eq!(entry.seed, Some(0xE15_5EED));
        assert_eq!(entry.note.as_deref(), Some("unit-test entry"));
        assert_eq!(entry.ql_text, ql);

        let listed = corpus_programs(&dir).unwrap();
        assert!(listed.iter().any(|(p, _)| p == &path));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn header_lines_never_leak_into_the_program() {
        let dir = std::env::temp_dir().join("qlsmith-corpus-headers");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("headers.ql");
        write_corpus_file(
            &path,
            1,
            "",
            "QUERY\n$C1 := DICE (<http://x/ds>, (<http://x/m> > 0));\n",
        )
        .unwrap();
        let entry = read_corpus_file(&path).unwrap();
        assert!(!entry.ql_text.contains('#'));
        assert!(entry.ql_text.starts_with("QUERY"));
        assert_eq!(entry.note, None, "empty notes are omitted");
        fs::remove_file(&path).ok();
    }
}
