//! The bench binaries print tables that get diffed and pasted, so an
//! argument they do not understand must stop the run instead of
//! silently running the default.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary")
        .status
        .code()
}

#[test]
fn retired_matrix_mode_is_rejected() {
    assert_eq!(
        exit_code(env!("CARGO_BIN_EXE_matcher_ablation"), &["--matrix"]),
        Some(2)
    );
}

#[test]
fn unknown_flag_is_rejected() {
    assert_eq!(exit_code(env!("CARGO_BIN_EXE_fig7"), &["--bogus"]), Some(2));
}
