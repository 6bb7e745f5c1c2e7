//! The CLI must answer bad graph inputs with a clean one-line diagnostic
//! and exit code 2 — never a panic, never exit 1 (which means "the
//! algorithm or certificate failed", a different situation scripts must
//! distinguish). Exercised over every file in `tests/corpus/malformed/`
//! plus the missing-path and unreadable-path cases, for each subcommand
//! that reads a graph. A reader that closes the output pipe early is not an
//! error either.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn msf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msf"))
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/malformed")
}

/// Run `msf <sub> <path>` and return (exit code, stderr).
fn run(sub: &str, path: &str) -> (i32, String) {
    let out = msf()
        .arg(sub)
        .arg(path)
        .output()
        .expect("spawn the msf binary");
    let code = out.status.code().unwrap_or_else(|| {
        panic!(
            "msf {sub} {path} died without an exit code (signal — a panic or abort): {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_clean_exit2(sub: &str, path: &str) {
    let (code, stderr) = run(sub, path);
    assert_eq!(
        code, 2,
        "msf {sub} {path}: want exit 2, got {code}; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "msf {sub} {path} panicked:\n{stderr}"
    );
    // A clean diagnostic: at least one non-empty line mentioning the path
    // or the parse problem, not a backtrace.
    assert!(
        !stderr.trim().is_empty(),
        "msf {sub} {path}: exit 2 with no diagnostic"
    );
    assert!(
        !stderr.contains("RUST_BACKTRACE"),
        "msf {sub} {path} printed a backtrace:\n{stderr}"
    );
}

#[test]
fn every_malformed_corpus_file_is_a_clean_exit_2() {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "gr"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "malformed corpus shrank: {} files",
        entries.len()
    );
    for path in &entries {
        let p = path.to_str().expect("utf-8 path");
        for sub in ["compute", "certify", "info"] {
            assert_clean_exit2(sub, p);
        }
    }
}

#[test]
fn missing_path_is_a_clean_exit_2() {
    for sub in ["compute", "certify", "info"] {
        assert_clean_exit2(sub, "/definitely/not/here.gr");
    }
}

#[test]
fn unreadable_path_is_a_clean_exit_2() {
    // A directory is unreadable-as-a-graph on every platform and for every
    // uid (chmod 0 is a no-op under root, which CI containers run as).
    let dir = std::env::temp_dir().join(format!("msf-cli-unreadable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for sub in ["compute", "certify", "info"] {
        assert_clean_exit2(sub, dir.to_str().expect("utf-8 path"));
    }
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn diagnostics_name_the_offending_path() {
    let path = corpus_dir().join("truncated.gr");
    let p = path.to_str().expect("utf-8 path");
    let (code, stderr) = run("compute", p);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("truncated.gr"),
        "the diagnostic should name the file:\n{stderr}"
    );
}

/// `msf info g.gr | head -3`: the reader may close the pipe before `info`
/// has written, and `info` must then end quietly with exit 0, not panic.
#[test]
fn info_into_a_closed_pipe_exits_0_quietly() {
    let graph = corpus_dir().join("../tie-square.gr");
    // A reader that exits without reading. Once it is reaped the pipe has
    // no reader left, so the first write of `msf info` fails with EPIPE.
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn a reader");
    let pipe = reader.stdin.take().expect("the reader's stdin pipe");
    reader.wait().expect("the reader exits");
    let out = msf()
        .arg("info")
        .arg(&graph)
        .stdout(pipe)
        .output()
        .expect("spawn the msf binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "msf info into a closed pipe: {:?}; stderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.is_empty(),
        "msf info into a closed pipe wrote:\n{stderr}"
    );
}

/// A `.msfb` file whose bytes were damaged after it was written fails its
/// checksum: every subcommand that reads it must say so and exit 2, `info`
/// included.
#[test]
fn corrupt_msfb_is_a_clean_exit_2() {
    let dir = std::env::temp_dir().join(format!("msf-cli-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("g.msfb");
    let p = path.to_str().expect("utf-8 path");
    let generated = msf()
        .args([
            "generate", "random", "500", "2000", "--seed", "7", "--out", p,
        ])
        .output()
        .expect("spawn the msf binary");
    assert!(
        generated.status.success(),
        "msf generate failed: {generated:?}"
    );
    for sub in ["compute", "certify", "info"] {
        assert_eq!(run(sub, p).0, 0, "msf {sub} on the intact file");
    }
    let mut bytes = std::fs::read(&path).expect("read the .msfb file");
    assert!(bytes.len() > 204, "file of {} bytes", bytes.len());
    for b in &mut bytes[200..204] {
        *b = !*b;
    }
    std::fs::write(&path, &bytes).expect("write the damaged file");
    for sub in ["compute", "certify", "info"] {
        assert_clean_exit2(sub, p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
