//! End-to-end pipeline over the `hero` binary at smoke scale:
//! `train --save` → `artifact inspect` → `analyze --artifact` →
//! `preflight --artifact --stamp` → `quantize --artifact --save`, plus
//! CLI-level checkpoint/resume byte equality, report naming for loaded
//! models and the flag parser's rejections. This is the same sequence
//! verify.sh drives in CI; keeping it as a test means a broken pipeline
//! fails `cargo test`, not just the nightly script.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hero() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hero"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hero_cli_{}_{name}", std::process::id()))
}

/// Asserts the command failed before doing any work and returns stderr.
fn rejected(out: Output, what: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{what} unexpectedly succeeded");
    assert!(
        !stdout.contains("trained:"),
        "{what} trained before failing:\n{stdout}"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn ok(out: Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Common smoke-scale flags: tiny synthetic C10 slice, 2 epochs of SGD.
const SMOKE: [&str; 12] = [
    "--preset", "c10", "--model", "resnet", "--method", "sgd", "--scale", "0.05", "--epochs", "2",
    "--seed", "7",
];

#[test]
fn train_preflight_quantize_pipeline_over_artifacts() {
    let model = tmp("model.ha");
    let stamped = tmp("stamped.ha");
    let quantized = tmp("quantized.ha");
    let out_dir = tmp("preflight_dir");

    let out = hero()
        .args(["train"])
        .args(SMOKE)
        .args([
            "--save",
            model.to_str().unwrap(),
            "--git-rev",
            "pipeline-test",
        ])
        .output()
        .expect("spawn hero train");
    ok(out, "train --save");

    let out = hero()
        .args(["artifact", "inspect", "--path", model.to_str().unwrap()])
        .output()
        .expect("spawn hero artifact inspect");
    let text = ok(out, "artifact inspect");
    assert!(
        text.contains("format = \"hero-artifact\""),
        "inspect:\n{text}"
    );
    assert!(text.contains("provenance.git_rev = \"pipeline-test\""));
    assert!(text.contains("train.method.kind = \"sgd\""));

    let out = hero()
        .args(["analyze", "--preset", "c10", "--scale", "0.05"])
        .args(["--artifact", model.to_str().unwrap()])
        .output()
        .expect("spawn hero analyze");
    let text = ok(out, "analyze --artifact");
    assert!(text.contains("theorem 3"), "analyze:\n{text}");
    assert!(!text.contains("trained:"), "analyze retrained:\n{text}");

    let out = hero()
        .args(["preflight", "--preset", "c10", "--scale", "0.05"])
        .args(["--artifact", model.to_str().unwrap()])
        .args(["--stamp", stamped.to_str().unwrap()])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("spawn hero preflight");
    ok(out, "preflight --artifact");
    let out = hero()
        .args(["artifact", "inspect", "--path", stamped.to_str().unwrap()])
        .output()
        .expect("spawn hero artifact inspect");
    let text = ok(out, "inspect stamped artifact");
    assert!(
        text.contains("provenance.preflight_hash"),
        "stamp missing:\n{text}"
    );

    let out = hero()
        .args(["quantize", "--preset", "c10", "--scale", "0.05"])
        .args(["--artifact", model.to_str().unwrap()])
        .args(["--bits", "4,8", "--save"])
        .arg(&quantized)
        .args(["--save-bits", "4"])
        .output()
        .expect("spawn hero quantize");
    ok(out, "quantize --artifact --save");
    let out = hero()
        .args(["artifact", "inspect", "--path", quantized.to_str().unwrap()])
        .output()
        .expect("spawn hero artifact inspect");
    let text = ok(out, "inspect quantized artifact");
    assert!(
        text.contains("quantization ("),
        "quant section missing:\n{text}"
    );
    assert!(text.contains("bits=4"));

    for p in [&model, &stamped, &quantized] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn cli_checkpoint_resume_is_byte_identical() {
    let straight = tmp("straight.ha");
    let ckpt = tmp("ckpt.ha");
    let resumed = tmp("resumed.ha");

    // Uninterrupted 4-epoch run with a mid-run checkpoint after epoch 2.
    let out = hero()
        .args(["train"])
        .args(["--preset", "c10", "--model", "resnet", "--method", "sgd"])
        .args(["--scale", "0.05", "--epochs", "4", "--seed", "7"])
        .args(["--save", straight.to_str().unwrap()])
        .args([
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2",
        ])
        .output()
        .expect("spawn hero train");
    ok(out, "train with checkpoint");

    // Resume the checkpoint: epochs 3..4 rerun from the saved state.
    let out = hero()
        .args(["train", "--preset", "c10", "--scale", "0.05"])
        .args(["--resume", ckpt.to_str().unwrap()])
        .args(["--save", resumed.to_str().unwrap()])
        .output()
        .expect("spawn hero train --resume");
    ok(out, "train --resume");

    let a = std::fs::read(&straight).expect("straight artifact");
    let b = std::fs::read(&resumed).expect("resumed artifact");
    assert_eq!(a, b, "resumed artifact diverged from the uninterrupted run");

    for p in [&straight, &ckpt, &resumed] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn preflight_names_reports_after_the_loaded_model() {
    let model = tmp("vgg.ha");
    let out_dir = tmp("vgg_preflight_dir");
    let mut smoke = SMOKE;
    smoke[3] = "vgg";
    let out = hero()
        .args(["train"])
        .args(smoke)
        .args(["--save", model.to_str().unwrap()])
        .output()
        .expect("spawn hero train");
    ok(out, "train vgg --save");

    let out = hero()
        .args(["preflight", "--preset", "c10", "--scale", "0.05"])
        .args(["--artifact", model.to_str().unwrap()])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .output()
        .expect("spawn hero preflight");
    ok(out, "preflight --artifact vgg");
    let names: Vec<String> = std::fs::read_dir(&out_dir)
        .expect("preflight out dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(
        names.iter().any(|n| n == "vgg19bn_cifar_10.txt"),
        "no VGG report in {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("resnet20_")),
        "ResNet-named report written for a VGG artifact: {names:?}"
    );

    std::fs::remove_file(&model).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn impossible_flag_combinations_fail_before_training() {
    let out = hero()
        .args(["quantize"])
        .args(SMOKE)
        .args(["--save", tmp("never.ha").to_str().unwrap()])
        .output()
        .expect("spawn hero quantize");
    let err = rejected(out, "quantize --save without --artifact");
    assert!(err.contains("--save needs --artifact"), "stderr:\n{err}");

    let out = hero()
        .args(["quantize"])
        .args(SMOKE)
        .args(["--save-bits", "4"])
        .output()
        .expect("spawn hero quantize");
    let err = rejected(out, "quantize --save-bits without --artifact");
    assert!(
        err.contains("--save-bits needs --artifact"),
        "stderr:\n{err}"
    );

    let out = hero()
        .args(["preflight", "--preset", "c10", "--scale", "0.05"])
        .args(["--stamp", tmp("never_stamped.ha").to_str().unwrap()])
        .args(["--out-dir", tmp("never_dir").to_str().unwrap()])
        .output()
        .expect("spawn hero preflight");
    let err = rejected(out, "preflight --stamp without --artifact");
    assert!(err.contains("--stamp needs --artifact"), "stderr:\n{err}");
    assert!(!tmp("never_dir").exists(), "preflight wrote reports first");
}

#[test]
fn parser_rejects_unknown_and_repeated_flags() {
    let out = hero()
        .args(["train", "--epoch", "1"])
        .output()
        .expect("spawn hero train");
    let err = rejected(out, "train --epoch");
    assert!(err.contains("`--epoch`"), "typo not named:\n{err}");

    let out = hero()
        .args(["train", "--seed", "1", "--seed", "2"])
        .output()
        .expect("spawn hero train");
    let err = rejected(out, "repeated --seed");
    assert!(
        err.contains("`--seed` given more than once"),
        "stderr:\n{err}"
    );

    let out = hero()
        .args(["repro", "nope"])
        .output()
        .expect("spawn hero repro");
    let err = rejected(out, "repro nope");
    let first_line = err.lines().next().unwrap_or_default();
    for target in [
        "table1", "table2", "table3", "fig1", "fig2", "fig3", "c10-row",
    ] {
        assert!(first_line.contains(target), "{target} not listed:\n{err}");
    }
}
