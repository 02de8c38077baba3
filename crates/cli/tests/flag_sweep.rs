//! Every numeric flag `pgrid help` lists, run through the binary with
//! values at and past the edges of its type: zero, negative, NaN,
//! infinity, 1e300 and `u64::MAX`. Whatever the value, `pgrid` must
//! answer with exit status 0 (accepted), 1 (a bad invocation, or a run
//! that broke a rule) or 2 (a population no grid can be built from) —
//! never a panic and never a hang — and a bad invocation, which prints
//! nothing on stdout, names the flag. Companion flags keep an accepted
//! run small.

mod common;

use common::{run, VALUES};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Each command, its numeric flags, and the companion flags that keep
/// an accepted run small (`DIR` is a scratch directory; a companion is
/// left out while its own flag is swept).
const SWEEPS: &str = "
simulate        | nodes jobs dims interarrival ratio seed sf | --nodes 20 --jobs 50
churn           | nodes dims gap duration loss graceful seed | --nodes 20
chaos           | seed budget nodes                          | --quick --nodes 20 --budget 5 --out DIR
scenarios       | seed                                       | --quick --out DIR
detector        | seed                                       | --quick --out DIR
fuzz            | seed seeds budget                          | --quick --seeds 1 --budget 5 --out DIR
trace gen-nodes | count dims seed                            | --count 20
trace gen-jobs  | count dims ratio interarrival seed         | --count 50
trace replay    | seed                                       | --nodes DIR/nodes.trace --jobs DIR/jobs.trace
";

/// The rows of [`SWEEPS`], each column split into words.
fn sweeps() -> Vec<[Vec<String>; 3]> {
    SWEEPS
        .trim()
        .lines()
        .map(|row| {
            let mut cols = row.split('|').map(words);
            [(); 3].map(|_| cols.next().expect("three columns"))
        })
        .collect()
}

/// Command (with its subcommand) → the flags its usage lines in
/// `pgrid help` give a value that is not a word list, a `DIR`, a
/// `FILE` or a `NAME`.
fn numeric_flags_in_help(help: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut found: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut command = None;
    for line in help.lines() {
        let words: Vec<&str> = line
            .split_whitespace()
            .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
            .collect();
        let tokens = match words.first() {
            Some(&"pgrid") => {
                let sub = usize::from(words[1] == "trace");
                command = Some(words[1..=1 + sub].join(" "));
                &words[2 + sub..]
            }
            Some(w) if w.starts_with("--") => &words[..],
            _ => {
                command = None;
                continue;
            }
        };
        let Some(command) = &command else { continue };
        for pair in tokens.windows(2) {
            let (Some(flag), value) = (pair[0].strip_prefix("--"), pair[1]) else {
                continue;
            };
            if !value.starts_with("--")
                && !value.chars().any(|c| c.is_ascii_lowercase())
                && !["DIR", "FILE", "NAME"].contains(&value)
            {
                let flags = found.entry(command.clone()).or_default();
                flags.insert(flag.to_string());
            }
        }
    }
    found
}

fn words(text: &str) -> Vec<String> {
    text.split_whitespace().map(str::to_string).collect()
}

#[test]
fn every_numeric_flag_exits_0_1_or_2_without_a_panic_or_a_hang() {
    let dir = std::env::temp_dir().join(format!("pgrid_flag_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let with_dir = |text: &str| text.replace("DIR", &dir.display().to_string());

    // The table above covers exactly what `pgrid help` lists.
    let help = Command::new(env!("CARGO_BIN_EXE_pgrid"))
        .arg("help")
        .output()
        .expect("pgrid help");
    let listed = numeric_flags_in_help(&String::from_utf8(help.stdout).unwrap());
    let swept: BTreeMap<String, BTreeSet<String>> = sweeps()
        .into_iter()
        .map(|[command, flags, _]| (command.join(" "), flags.into_iter().collect()))
        .collect();
    assert_eq!(swept, listed, "the sweep and `pgrid help` disagree");

    // Traces for `trace replay` to read.
    for args in [
        "trace gen-nodes --count 20 --out DIR/nodes.trace",
        "trace gen-jobs --ratio 0 --out DIR/jobs.trace",
    ] {
        let args = words(&with_dir(args));
        let (status, _, stderr) = run(&args, &dir);
        assert_eq!(status.and_then(|s| s.code()), Some(0), "{args:?}: {stderr}");
    }

    let mut failures = Vec::new();
    for [command, flags, small] in sweeps() {
        for flag in flags {
            let flag = format!("--{flag}");
            // Companions as `--switch` or `--flag value` groups.
            let mut companions: Vec<Vec<String>> = Vec::new();
            for word in small.iter().map(|w| with_dir(w)) {
                match companions.last_mut() {
                    Some(group) if group.len() == 1 && !word.starts_with("--") => group.push(word),
                    _ => companions.push(vec![word]),
                }
            }
            companions.retain(|group| group[0] != flag);
            for value in VALUES {
                let mut args = command.clone();
                args.extend(companions.iter().flatten().cloned());
                args.extend([flag.clone(), value.to_string()]);
                let (status, stdout, stderr) = run(&args, &dir);
                let first = stderr.lines().find(|l| !l.is_empty()).unwrap_or("");
                let args = args.join(" ");
                match status.map(|s| s.code()) {
                    None => failures.push(format!("pgrid {args}: no exit in time")),
                    Some(Some(1)) if stdout.is_empty() && !first.contains(&flag[2..]) => {
                        failures.push(format!("pgrid {args}: the error names no {flag}: {first}"))
                    }
                    Some(Some(0..=2)) if !stderr.contains("panicked") => {}
                    Some(code) => failures.push(format!("pgrid {args}: exit {code:?}: {first}")),
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
