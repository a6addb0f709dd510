//! `abc-campaign` treats a flag it does not know, or a flag value it
//! cannot parse, as malformed input: exit 2 with a message naming the
//! flag — never a silent fallback to a default. Every case here fails
//! while parsing arguments, before any campaign runs or store loads. The
//! last case checks that a reader closing stdout early is not an error.

use std::process::Command;

fn rejects(args: &[&str], names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_abc-campaign"))
        .args(args)
        .output()
        .expect("abc-campaign runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} must name {names}: {stderr}"
    );
}

#[test]
fn unknown_flags_and_unparsable_values_exit_2() {
    rejects(&["run", "tiny", "--chunk", "8"], "--chunk");
    rejects(&["run", "tiny", "--job", "4"], "--job");
    rejects(&["run", "tiny", "--jobs"], "--jobs needs a value");
    rejects(&["run", "tiny", "--jobs", "four"], "--jobs");
    rejects(&["diff", "a", "b", "--util-drop", "5%"], "--util-drop");
    rejects(&["diff", "a", "b", "--delay-rise", "-1"], "--delay-rise");
    rejects(&["diff", "a", "b", "--tput-drop", "lots"], "--tput-drop");
}

/// A reader that stops early (`export … | head -3`) closes the pipe
/// before the output ends: the command stops quietly with exit 0. The
/// read end is closed before the child starts, so every write it makes
/// meets the closed pipe.
#[test]
fn export_into_a_closed_pipe_exits_0_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/campaign-tiny-baseline.jsonl"
    );
    for extra in [&[][..], &["--csv"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_abc-campaign"))
            .args(["export", baseline])
            .args(extra)
            .stdout(writer.try_clone().expect("clone the write end"))
            .output()
            .expect("abc-campaign runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}
