//! End-to-end runs of the paper binaries that drive the whole
//! (algorithm × platform) matrix — `fig4`, `fig5`, `table2` — on the
//! smallest profile with the `--quick` algorithm subset: each must exit 0
//! and print its header, its data rows and its summary. This is their only
//! execution in `scripts/check.sh`; the numbers are not asserted.

use std::process::{Command, Output};

fn run(bin: &str, profiles: &str) -> Output {
    Command::new(bin)
        .arg("--quick")
        .env("GRAPHITE_PROFILES", profiles)
        .output()
        .expect("binary spawns")
}

/// Runs `bin` on GPlus and returns its stdout lines.
fn gplus_lines(bin: &str) -> Vec<String> {
    let out = run(bin, "gplus");
    assert!(
        out.status.success(),
        "{bin}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The data rows of the matrix binaries: `GPlus <algo> ICM …`.
fn icm_rows(lines: &[String]) -> usize {
    lines
        .iter()
        .filter(|l| {
            let mut cols = l.split_whitespace();
            cols.next() == Some("GPlus") && cols.nth(1) == Some("ICM")
        })
        .count()
}

#[test]
fn fig4_prints_rows_and_both_correlations() {
    let lines = gplus_lines(env!("CARGO_BIN_EXE_fig4"));
    assert!(lines[0].starts_with("# Fig. 4"), "{}", lines[0]);
    assert_eq!(icm_rows(&lines), 4, "one ICM row per --quick algorithm");
    for stat in ["R^2 (compute calls", "R^2 (messages"] {
        assert!(lines.iter().any(|l| l.starts_with(stat)), "missing {stat}");
    }
}

#[test]
fn fig5_prints_a_row_per_cell() {
    let lines = gplus_lines(env!("CARGO_BIN_EXE_fig5"));
    assert!(lines[0].starts_with("# Fig. 5"), "{}", lines[0]);
    assert_eq!(icm_rows(&lines), 4, "one ICM row per --quick algorithm");
}

#[test]
fn table2_prints_a_ratio_for_the_selected_dataset() {
    let lines = gplus_lines(env!("CARGO_BIN_EXE_table2"));
    assert!(lines[0].starts_with("# Table 2"), "{}", lines[0]);
    let row = lines
        .iter()
        .find(|l| l.starts_with("TI") && l.contains("MSB"))
        .expect("a TI/MSB row");
    let cells: Vec<&str> = row.split_whitespace().skip(2).collect();
    assert!(
        cells[0].ends_with('x'),
        "GPlus ran, so it has a ratio: {row}"
    );
    assert!(
        cells[1..].iter().all(|c| *c == "-"),
        "only GPlus ran: {row}"
    );
}

/// A mistyped `GRAPHITE_PROFILES` is an error naming the valid profiles,
/// not an empty table with exit status 0.
#[test]
fn an_unknown_profile_name_is_rejected() {
    for bin in [
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_table2"),
    ] {
        let out = run(bin, "gplus,gpls");
        assert!(!out.status.success(), "{bin} accepted a typo");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("`gpls`"), "{err}");
        for name in ["GPlus", "USRN", "Reddit", "MAG", "Twitter", "WebUK"] {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }
}
