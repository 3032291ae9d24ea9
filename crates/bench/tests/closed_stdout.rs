//! A reader that closes the figure runner's stdout after one line (`figure
//! NAME | head -1`) ends the run quietly: exit 0 and nothing on stderr, for
//! every figure of the table.

use mrts_bench::figures::FIGURES;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn every_figure_ends_quietly_when_stdout_closes() {
    for figure in &FIGURES {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_figure"));
        cmd.arg(figure.name);
        if figure.quick {
            cmd.arg("--quick");
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("figure starts");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("one line");
        // The reader is dropped here: the pipe is closed.
        assert!(line.starts_with("====="), "{}: {line}", figure.name);
        let status = child.wait().expect("figure exits");
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        assert_eq!(status.code(), Some(0), "{}: {stderr}", figure.name);
        assert!(stderr.is_empty(), "{}: {stderr}", figure.name);
    }
}
