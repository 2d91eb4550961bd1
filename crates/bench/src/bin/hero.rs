//! `hero` — command-line front end for the HERO reproduction: training,
//! post-training quantization, curvature and static analysis, the
//! spectrum observatory, model artifacts (`.ha`, DESIGN.md §16) and the
//! paper's tables and figures (`hero repro`). `hero help` lists every
//! command and flag; the parser and that text both come from [`COMMANDS`].

use hero_artifact::{Artifact, MetaValue, QuantEntry};
use hero_bench::{banner, emit_artifact};
use hero_core::experiment::{
    fig1_bits, model_config, quant_sweep, run_fig2, run_fig3, run_table1, run_table1_cached,
    run_table2, run_table3, table1_matrix, MethodKind, Scale,
};
use hero_core::report::{
    render_fig1_panel, render_fig2, render_fig3, render_table1, render_table2, render_table3,
};
use hero_core::{
    attach_quant, golden_recipe, load_artifact, network_from_artifact, record_from_artifact,
    resume_from_artifact, save_artifact, train, train_to_artifact, ModelSpec, NoiseConfig, RunMeta,
    TrainConfig, TrainRecord,
};
use hero_data::{Dataset, Preset};
use hero_hessian::{
    hessian_norm_probe, lanczos_spectrum, layer_traces_at, slq_density_at, spearman_rank_checked,
    BoundInputs, GradOracle, SlqConfig,
};
use hero_nn::models::ModelKind;
use hero_nn::{evaluate_accuracy, Network};
use hero_optim::BatchOracle;
use hero_quant::{
    allocate_bits, network_sensitivities, quantize_params, quantize_params_mixed, quantize_tensor,
    QuantScheme,
};
use hero_tensor::rng::StdRng;
use hero_tensor::{global_norm_l1, global_norm_l2};
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("error: unknown command `{name}`\n\n{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprint!("error: {e}\n\n{}", cmd.usage());
            return ExitCode::FAILURE;
        }
    };
    // `repro` targets keep their historical trace run names.
    let run = match (cmd.name, opts.operand) {
        ("repro", target) => format!("repro_{}", target.replace('-', "_")),
        (name, "") => format!("hero_{name}"),
        (name, sub) => format!("hero_{name}-{sub}"),
    };
    hero_obs::init_from_env(&run);
    let result = (cmd.run)(&opts);
    hero_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- command table ----------------------------------------------------------

/// One `hero` command: its flags, usage text and entry point.
struct Command {
    name: &'static str,
    /// Words one of which must follow the command name (`repro fig1`);
    /// empty when the command takes flags only.
    operands: &'static [&'static str],
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Opts) -> Result<(), String>,
}

/// One command-line flag: `--name VALUE`, or a bare `--name` switch.
struct Flag {
    name: &'static str,
    /// Placeholder for the value in the usage text; `None` for a switch.
    value: Option<&'static str>,
    /// Value the command sees when the flag is absent.
    default: Option<&'static str>,
    /// A flag this one is rejected without.
    needs: Option<&'static str>,
    help: &'static str,
}

type S = &'static str;

/// A flag taking a value, with no default.
const fn opt(name: S, value: S, help: S) -> Flag {
    Flag {
        name,
        value: Some(value),
        default: None,
        needs: None,
        help,
    }
}

/// A flag taking a value, with a default.
const fn val(name: S, value: S, default: S, help: S) -> Flag {
    Flag {
        default: Some(default),
        ..opt(name, value, help)
    }
}

impl Flag {
    const fn needs(self, other: S) -> Flag {
        Flag {
            needs: Some(other),
            ..self
        }
    }
}

const PRESET: Flag = val("preset", "c10|c100|in50", "c10", "dataset preset");
const MODEL: Flag = val("model", "resnet|mobilenet|vgg", "resnet", "architecture");
const METHOD: Flag = val("method", "hero|sam|gradl1|sgd", "hero", "training method");
const SEED: Flag = val("seed", "N", "42", "RNG seed");
const ARTIFACT: Flag = opt("artifact", "FILE.ha", "use this saved model");
const TRAIN_EPOCHS: Flag = val("epochs", "N", "20", "training epochs");
const TRAIN_SCALE: Flag = val("scale", "F", "0.5", "dataset size multiplier");
const PROBE_EPOCHS: Flag = val("epochs", "N", "3", "training epochs per model");
const PROBE_SCALE: Flag = val("scale", "F", "0.25", "dataset size multiplier");

const REPRO_TARGETS: &[&str] = &[
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "c10-row",
];

static COMMANDS: &[Command] = &[
    Command {
        name: "train",
        operands: &[],
        about: "Train a model; --save writes weights, BN state, config and history as one \
                byte-reproducible artifact. --resume needs the checkpoint's --preset/--scale.",
        flags: &[
            PRESET,
            MODEL,
            METHOD,
            TRAIN_EPOCHS,
            TRAIN_SCALE,
            SEED,
            opt("save", "FILE.ha", "write the trained model artifact"),
            val("git-rev", "REV", "unknown", "artifact provenance.git_rev"),
            opt("checkpoint", "FILE.ha", "write resumable checkpoints"),
            val("checkpoint-every", "N", "1", "epochs between checkpoints"),
            opt("resume", "FILE.ha", "continue a checkpoint bit-exactly"),
            opt("golden-recipe", "FILE.ha", "train the golden recipe"),
        ],
        run: cmd_train,
    },
    Command {
        name: "quantize",
        operands: &[],
        about: "Post-training quantization sweep over a saved or freshly trained model.",
        flags: &[
            PRESET,
            MODEL,
            METHOD,
            TRAIN_EPOCHS,
            TRAIN_SCALE,
            SEED,
            ARTIFACT,
            val("bits", "LIST", "3,4,6,8", "uniform bit widths to evaluate"),
            opt("mixed", "AVG_BITS", "also evaluate mixed precision"),
            val("sens", "static|proxy", "static", "sensitivity for --mixed"),
            opt("save", "FILE.ha", "write the quantized artifact").needs("artifact"),
            opt("save-bits", "N", "--save width (default: first --bits)").needs("artifact"),
        ],
        run: cmd_quantize,
    },
    Command {
        name: "analyze",
        operands: &[],
        about: "Curvature at a saved or freshly trained model: ‖Hz‖, Lanczos \
                λ_max/λ_min and the Theorem 3 robustness bounds.",
        flags: &[
            PRESET,
            MODEL,
            METHOD,
            TRAIN_EPOCHS,
            TRAIN_SCALE,
            SEED,
            ARTIFACT,
        ],
        run: cmd_analyze,
    },
    Command {
        name: "preflight",
        operands: &[],
        about: "Static analyzer suite over the model's tape, without training; writes \
                <model>_<preset>.{txt,dot} to --out-dir.",
        flags: &[
            PRESET,
            MODEL,
            TRAIN_SCALE,
            SEED,
            ARTIFACT,
            opt("stamp", "FILE.ha", "copy --artifact with the report hash").needs("artifact"),
            val("bits", "LIST", "3,4,8", "quantization widths to check"),
            opt("noise-bits", "N", "certify uniform N-bit noise"),
            opt("mixed", "AVG_BITS", "certify a mixed allocation"),
            opt("budget", "F", "loss-error budget for the noise domain"),
            val("out-dir", "DIR", "results/analyze", "report directory"),
        ],
        run: cmd_preflight,
    },
    Command {
        name: "noise-crosscheck",
        operands: &[],
        about: "Check certified quantization-noise bounds against measured fake-quant \
                loss shifts; exits nonzero on any violation.",
        flags: &[
            PRESET,
            val("models", "LIST", "resnet,mobilenet,vgg", "models to check"),
            val("bits", "LIST", "2,4,8", "bit-width grid"),
            val("trials", "N", "2", "fake-quant trials per cell"),
            PROBE_EPOCHS,
            PROBE_SCALE,
            SEED,
            val("avg", "AVG_BITS", "4", "mixed-vs-uniform average bits"),
            val("min-overlap", "F", "0", "fail below this ranking overlap"),
            val(
                "out",
                "FILE",
                "results/analyze/noise_crosscheck.json",
                "JSON report",
            ),
            opt("tightness", "FILE", "interval-vs-zonotope JSON"),
        ],
        run: cmd_noise_crosscheck,
    },
    Command {
        name: "spectrum",
        operands: &[],
        about: "Hessian observatory: SLQ density and per-layer traces of each trained model, \
                ranked against the static sensitivity matrix. Writes --out, by default \
                results/SPECTRUM_<model>_<preset>.json.",
        flags: &[
            PRESET,
            MODEL,
            val("methods", "LIST", "sgd,hero", "training methods to compare"),
            PROBE_EPOCHS,
            PROBE_SCALE,
            SEED,
            ARTIFACT,
            val("steps", "N", "10", "Lanczos steps per probe"),
            val("probes", "N", "4", "random probes"),
            val("bits", "N", "4", "width of the static sensitivity matrix"),
            val("spectrum-every", "N", "1", "probe every N epochs"),
            opt("out", "FILE", "JSON report"),
        ],
        run: cmd_spectrum,
    },
    Command {
        name: "artifact",
        operands: &["inspect"],
        about: "Print the header, meta, tensors, quantization and resume state of an artifact.",
        flags: &[opt("path", "FILE.ha", "artifact to read")],
        run: cmd_artifact_inspect,
    },
    Command {
        name: "repro",
        operands: REPRO_TARGETS,
        about: "Regenerate a table or figure of the paper (see EXPERIMENTS.md).",
        flags: &[
            Flag {
                value: None,
                ..opt(
                    "fast",
                    "",
                    "smoke-test scale instead of the full reproduction",
                )
            },
            opt("artifact-dir", "DIR", "c10-row model-artifact cache"),
        ],
        run: cmd_repro,
    },
];

impl Command {
    fn usage(&self) -> String {
        let mut s = format!("hero {}", self.name);
        if !self.operands.is_empty() {
            let _ = write!(s, " <{}>", self.operands.join("|"));
        }
        let _ = writeln!(s, "\n    {}", self.about);
        for f in self.flags {
            let lhs = match f.value {
                Some(value) => format!("--{} {value}", f.name),
                None => format!("--{}", f.name),
            };
            let _ = write!(s, "      {lhs:<30} {}", f.help);
            if let Some(d) = f.default {
                let _ = write!(s, " [default: {d}]");
            }
            if let Some(n) = f.needs {
                let _ = write!(s, " (needs --{n})");
            }
            s.push('\n');
        }
        s
    }
}

fn usage() -> String {
    let mut s =
        String::from("hero — HERO (DAC 2022) reproduction CLI\n\nUSAGE: hero <command> [flags]\n");
    for cmd in COMMANDS {
        s.push('\n');
        s.push_str(&cmd.usage());
    }
    s
}

// --- parsing ----------------------------------------------------------------

/// A command line parsed against one command's flag table.
struct Opts {
    cmd: &'static Command,
    /// The chosen operand, or `""` for commands without one.
    operand: &'static str,
    /// Raw values by flag position; a given switch holds `""`.
    values: Vec<Option<String>>,
}

/// Parses `args` (everything after the command name): the operand if the
/// command takes one, then flags. Unknown, repeated and value-less flags
/// are rejected, as is a flag given without the flag it needs.
fn parse(cmd: &'static Command, args: &[String]) -> Result<Opts, String> {
    let mut args = args.iter();
    let mut operand = "";
    if !cmd.operands.is_empty() {
        let word = args.next().map_or("", String::as_str);
        operand = cmd.operands.iter().find(|o| **o == word).ok_or_else(|| {
            format!(
                "`hero {}` takes one of {}, not `{word}`",
                cmd.name,
                cmd.operands.join(", ")
            )
        })?;
    }
    let mut values = vec![None; cmd.flags.len()];
    while let Some(arg) = args.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let i = cmd
            .flags
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| format!("`hero {}` has no flag `--{name}`", cmd.name))?;
        if values[i].is_some() {
            return Err(format!("`--{name}` given more than once"));
        }
        values[i] = Some(match cmd.flags[i].value {
            Some(_) => args
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone(),
            None => String::new(),
        });
    }
    let opts = Opts {
        cmd,
        operand,
        values,
    };
    for (flag, value) in cmd.flags.iter().zip(&opts.values) {
        if let (Some(_), Some(needed)) = (value, flag.needs) {
            if !opts.given(needed) {
                return Err(format!("--{} needs --{needed}", flag.name));
            }
        }
    }
    Ok(opts)
}

impl Opts {
    fn index(&self, name: &str) -> usize {
        self.cmd
            .flags
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("`hero {}` declares no --{name}", self.cmd.name))
    }

    /// Whether the flag was given on the command line.
    fn given(&self, name: &str) -> bool {
        self.values[self.index(name)].is_some()
    }

    /// The flag's value as given, else its default.
    fn get(&self, name: &str) -> Option<&str> {
        let i = self.index(name);
        self.values[i].as_deref().or(self.cmd.flags[i].default)
    }

    /// [`Opts::get`], parsed.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }

    /// [`Opts::parsed`] for a flag with a default.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// Maps a name flag (`--model resnet`) through `item`.
    fn one<T>(&self, name: &str, item: fn(&str) -> Result<T, String>) -> Result<T, String> {
        item(self.get(name).unwrap_or_default()).map_err(|e| format!("--{name}: {e}"))
    }

    /// Splits a comma-separated flag value and maps each item.
    fn list<T>(&self, name: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.get(name)
            .unwrap_or_default()
            .split(',')
            .map(|token| item(token.trim()).map_err(|e| format!("--{name}: {e}")))
            .collect()
    }
}

fn parse_preset(name: &str) -> Result<Preset, String> {
    match name {
        "c10" => Ok(Preset::C10),
        "c100" => Ok(Preset::C100),
        "in50" => Ok(Preset::In50),
        other => Err(format!("unknown preset `{other}`")),
    }
}

fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name {
        "resnet" => Ok(ModelKind::Resnet),
        "mobilenet" => Ok(ModelKind::Mobilenet),
        "vgg" => Ok(ModelKind::Vgg),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn parse_method(name: &str) -> Result<MethodKind, String> {
    match name {
        "hero" => Ok(MethodKind::Hero),
        "sam" | "first-order" => Ok(MethodKind::FirstOrder),
        "gradl1" => Ok(MethodKind::GradL1),
        "sgd" => Ok(MethodKind::Sgd),
        other => Err(format!("unknown method `{other}`")),
    }
}

fn parse_bits(token: &str) -> Result<u8, String> {
    token.parse().map_err(|_| format!("cannot parse `{token}`"))
}

fn err(e: impl Display) -> String {
    e.to_string()
}

// --- shared model plumbing --------------------------------------------------

/// The `--preset` datasets at `--scale`.
fn datasets(opts: &Opts) -> Result<(Preset, Dataset, Dataset), String> {
    let preset = opts.one("preset", parse_preset)?;
    let (train_set, test_set) = preset.load(opts.num("scale")?);
    Ok((preset, train_set, test_set))
}

/// Loads a model artifact and rebuilds its network.
fn open_artifact(path: &str) -> Result<(Network, Artifact), String> {
    let art = load_artifact(path).map_err(err)?;
    let net = network_from_artifact(&art).map_err(err)?;
    hero_obs::Event::new("artifact_loaded")
        .str("path", path)
        .human(format!("loaded artifact {path}"))
        .emit();
    Ok((net, art))
}

/// Paper name of the architecture stored in an artifact.
fn artifact_model_name(art: &Artifact) -> &'static str {
    art.meta_str("model.kind")
        .and_then(|kind| parse_model(kind).ok())
        .map_or("MLP", ModelKind::paper_name)
}

/// Report-file stem for a model on a preset, e.g. `vgg19bn_cifar_10`.
fn report_stem(model: &str, preset: Preset) -> String {
    format!("{model}_{}", preset.paper_name())
        .to_lowercase()
        .replace(['/', ' ', '-'], "_")
}

/// Trains a fresh `--model` with `--method` for `--epochs` through the
/// artifact pipeline; every command that trains one model goes through
/// here. With `checkpoint`, a resumable checkpoint is written there every
/// `every` epochs.
fn train_fresh(
    opts: &Opts,
    preset: Preset,
    train_set: &Dataset,
    test_set: &Dataset,
    git_rev: &str,
    every: usize,
    checkpoint: Option<&Path>,
) -> Result<(Network, Artifact), String> {
    let model = opts.one("model", parse_model)?;
    let method = opts.one("method", parse_method)?;
    let seed: u64 = opts.num("seed")?;
    let epochs: usize = opts.num("epochs")?;
    hero_obs::Event::new("train_start")
        .str("model", model.paper_name())
        .str("method", method.paper_name())
        .str("preset", preset.paper_name())
        .u64("epochs", epochs as u64)
        .human(format!(
            "training {} with {} for {epochs} epochs on {} ...",
            model.paper_name(),
            method.paper_name(),
            preset.paper_name()
        ))
        .emit();
    let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
    let meta = RunMeta {
        model: ModelSpec::Kind(model),
        model_cfg: model_config(preset),
        config: TrainConfig::new(method.tuned(), epochs).with_seed(seed),
        git_rev: git_rev.to_string(),
        preflight_hash: None,
    };
    let (rec, art) =
        train_to_artifact(&mut net, train_set, test_set, &meta, every, checkpoint).map_err(err)?;
    report_trained("trained", &rec);
    Ok((net, art))
}

fn report_trained(what: &str, rec: &TrainRecord) {
    hero_obs::Event::new("train_result")
        .f64("train_acc", f64::from(rec.final_train_acc))
        .f64("test_acc", f64::from(rec.final_test_acc))
        .human(format!(
            "{what}: train acc {:.2}%, test acc {:.2}%",
            100.0 * rec.final_train_acc,
            100.0 * rec.final_test_acc
        ))
        .emit();
}

/// `--artifact` if given, else a freshly trained model.
fn obtain_model(
    opts: &Opts,
    preset: Preset,
    train_set: &Dataset,
    test_set: &Dataset,
) -> Result<(Network, Artifact), String> {
    match opts.get("artifact") {
        Some(path) => open_artifact(path),
        None => train_fresh(opts, preset, train_set, test_set, "unknown", 0, None),
    }
}

/// The first `n ≤ 64` training samples, the probe batch of the static
/// analyses.
fn probe_batch(
    train_set: &Dataset,
    what: &str,
) -> Result<(hero_tensor::Tensor, Vec<usize>), String> {
    let n = train_set.len().min(64);
    if n == 0 {
        return Err(format!("{what} needs at least one training sample"));
    }
    let images = train_set.images.narrow(0, n).map_err(err)?;
    Ok((images, train_set.labels[..n].to_vec()))
}

// --- commands ---------------------------------------------------------------

fn cmd_train(opts: &Opts) -> Result<(), String> {
    // The fixed golden-recipe run: shared with the byte-pin regression
    // test and verify.sh, so the three can never disagree on the recipe.
    if let Some(out) = opts.get("golden-recipe") {
        let (train_set, test_set, mut net, meta) = golden_recipe();
        let (rec, art) =
            train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).map_err(err)?;
        save_artifact(&art, out).map_err(err)?;
        println!(
            "golden artifact ({} scalars, train acc {:.2}%, test acc {:.2}%) written to {out}",
            art.num_scalars(),
            100.0 * rec.final_train_acc,
            100.0 * rec.final_test_acc
        );
        return Ok(());
    }

    let (preset, train_set, test_set) = datasets(opts)?;
    let every: usize = opts.num("checkpoint-every")?;
    let checkpoint = opts.get("checkpoint").map(Path::new);
    // A resumed run takes model, config and trainer state from the
    // checkpoint; only the datasets come from --preset/--scale.
    let art = if let Some(resume) = opts.get("resume") {
        let ckpt = load_artifact(resume).map_err(err)?;
        let (rec, art, _) =
            resume_from_artifact(&ckpt, &train_set, &test_set, every, checkpoint).map_err(err)?;
        report_trained(&format!("resumed {resume}"), &rec);
        art
    } else {
        let git_rev = opts.get("git-rev").unwrap_or_default();
        train_fresh(
            opts, preset, &train_set, &test_set, git_rev, every, checkpoint,
        )?
        .1
    };
    if let Some(out) = opts.get("save") {
        save_artifact(&art, out).map_err(err)?;
        println!("artifact written to {out}");
    }
    Ok(())
}

fn cmd_quantize(opts: &Opts) -> Result<(), String> {
    let bits = opts.list("bits", parse_bits)?;
    let (preset, train_set, test_set) = datasets(opts)?;
    let (mut net, mut art) = obtain_model(opts, preset, &train_set, &test_set)?;
    let full_params = net.params();
    let full_acc =
        evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).map_err(err)?;
    hero_obs::Event::new("quant_eval")
        .str("scheme", "full_precision")
        .f64("accuracy", f64::from(full_acc))
        .human(format!("full precision: test acc {:.2}%", 100.0 * full_acc))
        .emit();

    if let Some(avg) = opts.parsed::<f32>("mixed")? {
        let sens_source = opts.get("sens").unwrap_or_default();
        let (bits, sens) = match sens_source {
            // Certified static sensitivity: the analyzer's noise domain
            // bounds each layer's loss impact; the allocator spends the
            // budget against those certificates.
            "static" => {
                let (images, labels) = probe_batch(&train_set, "--sens static")?;
                let matrix =
                    hero_core::static_sensitivity_matrix(&mut net, &images, &labels, &[2, 4, 8])
                        .map_err(err)?;
                let bits = matrix.allocate(avg, 2, 8).map_err(err)?;
                (bits, matrix.to_layer_sensitivities())
            }
            // Gradient-free proxy: curvature 1, range/size allocation only.
            "proxy" => {
                let sens = network_sensitivities(&net);
                let bits = allocate_bits(&sens, avg, 2, 8).map_err(err)?;
                (bits, sens)
            }
            other => return Err(format!("--sens: `{other}` is not static|proxy")),
        };
        println!("mixed-precision allocation (avg {avg} bits, {sens_source} sensitivity):");
        for (s, b) in sens.iter().zip(&bits) {
            hero_obs::Event::new("bit_allocation")
                .str("tensor", &s.name)
                .str("sens", sens_source)
                .u64("bits", u64::from(*b))
                .u64("weights", s.numel as u64)
                .human(format!("  {:40} {} bits ({} weights)", s.name, b, s.numel))
                .emit();
        }
        let (qp, report) = quantize_params_mixed(&net, &bits).map_err(err)?;
        net.set_params(&qp).map_err(err)?;
        let acc =
            evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).map_err(err)?;
        hero_obs::Event::new("quant_eval")
            .str("scheme", "mixed")
            .f64("avg_bits", f64::from(avg))
            .f64("accuracy", f64::from(acc))
            .f64("worst_linf", f64::from(report.worst_linf))
            .human(format!(
                "mixed {avg}-bit: test acc {:.2}%  (‖δ‖∞ {:.4})",
                100.0 * acc,
                report.worst_linf
            ))
            .emit();
        net.set_params(&full_params).map_err(err)?;
    }

    for &b in &bits {
        let scheme = QuantScheme::symmetric(b).map_err(err)?;
        let (qp, report) = quantize_params(&net, &scheme).map_err(err)?;
        net.set_params(&qp).map_err(err)?;
        let acc =
            evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).map_err(err)?;
        hero_obs::Event::new("quant_eval")
            .str("scheme", "uniform")
            .u64("bits", u64::from(b))
            .f64("accuracy", f64::from(acc))
            .f64("worst_linf", f64::from(report.worst_linf))
            .f64("max_bin_width", f64::from(report.max_bin_width))
            .human(format!(
                "{b}-bit uniform: test acc {:.2}%  (‖δ‖∞ {:.4} ≤ Δ/2 {:.4})",
                100.0 * acc,
                report.worst_linf,
                report.max_bin_width / 2.0
            ))
            .emit();
        net.set_params(&full_params).map_err(err)?;
    }

    // Persist one quantization decision back into the artifact: the
    // quantized values replace the TENSORS section and the QUANT section
    // records the per-tensor bit width and grid. The RESUME section is
    // dropped — a quantized snapshot is a deployment artifact, not a
    // training state.
    if let Some(out) = opts.get("save") {
        let b = opts.parsed("save-bits")?.unwrap_or(bits[0]);
        let scheme = QuantScheme::symmetric(b).map_err(err)?;
        let infos = net.param_infos();
        let mut quantized = Vec::with_capacity(full_params.len());
        let mut entries = Vec::new();
        for (p, info) in full_params.iter().zip(&infos) {
            if info.kind.is_quantizable() {
                let q = quantize_tensor(p, &scheme).map_err(err)?;
                entries.push(QuantEntry {
                    name: info.name.clone(),
                    bits: b,
                    per_channel: false,
                    bin_widths: q.bin_widths.clone(),
                });
                quantized.push(q.values);
            } else {
                quantized.push(p.clone());
            }
        }
        attach_quant(&mut art, &quantized, entries);
        art.resume = None;
        save_artifact(&art, out).map_err(err)?;
        println!("quantized artifact ({b}-bit weights) written to {out}");
    }
    Ok(())
}

fn cmd_preflight(opts: &Opts) -> Result<(), String> {
    let bits = opts.list("bits", parse_bits)?;
    let (preset, train_set, _) = datasets(opts)?;
    let (mut net, mut loaded, model_name) = match opts.get("artifact") {
        Some(path) => {
            let (net, art) = open_artifact(path)?;
            let name = artifact_model_name(&art);
            (net, Some(art), name)
        }
        None => {
            let model = opts.one("model", parse_model)?;
            let seed: u64 = opts.num("seed")?;
            let net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
            (net, None, model.paper_name())
        }
    };
    let (images, labels) = probe_batch(&train_set, "preflight")?;
    let labels = &labels[..];

    // Quantization-noise configuration: `--noise-bits N` seeds every
    // weight uniformly; `--mixed AVG` first computes the certified static
    // sensitivity matrix, allocates per-layer widths against it, and
    // seeds the allocation. Either way the report (and dot overlay)
    // carries certified per-node error bounds.
    let budget: Option<f32> = opts.parsed("budget")?;
    let mut noise_cfg: Option<NoiseConfig> = None;
    if let Some(avg) = opts.parsed::<f32>("mixed")? {
        let mut grid = bits.clone();
        grid.sort_unstable();
        grid.dedup();
        let matrix =
            hero_core::static_sensitivity_matrix(&mut net, &images, labels, &grid).map_err(err)?;
        let max_b = grid.last().copied().unwrap_or(8);
        let alloc = matrix.allocate(avg, grid[0].min(2), max_b).map_err(err)?;
        println!("certified static sensitivity (err[layer][bits], avg {avg}-bit allocation):");
        for (l, layer) in matrix.layers.iter().enumerate() {
            let cells: Vec<String> = grid
                .iter()
                .zip(&layer.err)
                .map(|(b, e)| format!("{b}b:{e:.2e}"))
                .collect();
            println!(
                "  {:40} {:>2} bits  {}",
                layer.name,
                alloc[l],
                cells.join("  ")
            );
        }
        noise_cfg = Some(NoiseConfig::per_layer(alloc));
    } else if let Some(nb) = opts.parsed::<u8>("noise-bits")? {
        let matrix =
            hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[nb]).map_err(err)?;
        println!("certified per-layer loss-error bounds at {nb} bits:");
        for layer in &matrix.layers {
            println!("  {:40} err ≤ {:.3e}", layer.name, layer.err[0]);
        }
        noise_cfg = Some(NoiseConfig::uniform(nb));
    }
    if let (Some(cfg), Some(b)) = (noise_cfg.as_mut(), budget) {
        cfg.budget = Some(b);
    }

    let vopts = hero_analyze::VerifyOptions {
        quant_bits: bits,
        ..hero_analyze::VerifyOptions::default()
    };
    let (report, dot) = hero_core::preflight_report_with_noise(
        &mut net,
        &images,
        labels,
        &vopts,
        noise_cfg.as_ref(),
        true,
    )
    .map_err(err)?;

    let out_dir = PathBuf::from(opts.get("out-dir").unwrap_or_default());
    std::fs::create_dir_all(&out_dir).map_err(err)?;
    let stem = report_stem(model_name, preset);
    let txt_path = out_dir.join(format!("{stem}.txt"));
    std::fs::write(&txt_path, format!("{report}\n")).map_err(err)?;
    if let Some(dot) = dot {
        std::fs::write(out_dir.join(format!("{stem}.dot")), dot).map_err(err)?;
    }

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    // The report hash is the provenance fingerprint an artifact can carry
    // (`provenance.preflight_hash`); `--stamp FILE` writes it into the
    // loaded artifact so downstream consumers can tell which static
    // analysis the model passed.
    let hash = hero_core::preflight_hash(&report);
    println!(
        "preflight {}: {} nodes, {errors} errors, {warnings} warnings, report hash {hash:#018x} -> {}",
        net.name(),
        report.nodes,
        txt_path.display()
    );
    if let (Some(stamp), Some(art)) = (opts.get("stamp"), loaded.as_mut()) {
        art.set_meta("provenance.preflight_hash", MetaValue::U64(hash));
        save_artifact(art, stamp).map_err(err)?;
        println!("preflight hash stamped into {stamp}");
    }
    if errors > 0 || warnings > 0 {
        print!("{report}");
    }
    if errors > 0 {
        return Err(format!(
            "preflight found {errors} error-severity diagnostics for `{}`",
            net.name()
        ));
    }
    Ok(())
}

/// Adversarial validation of the static quantization-noise domain: for
/// each requested model, trains a quick SGD baseline, measures per-layer
/// fake-quant probe-loss shifts against the certified bounds
/// ([`hero_core::noise_crosscheck`]), compares a static-matrix mixed
/// allocation against uniform quantization at equal average bits, and
/// writes everything to one JSON artifact. Exits nonzero if any measured
/// error escapes its certified bound, if any zonotope-tightened cell is
/// wider than its interval-domain cell, or if the ranking overlap falls
/// under `--min-overlap` — a NaN overlap (degenerate ranking) counts as
/// a failure there, never as a silent pass. With `--tightness FILE` it
/// additionally writes the per-layer×bits domain-comparison artifact
/// (interval width, zonotope width, ratio) and fails if the raw
/// un-clamped sensitivity matrix is rank-constant on a multi-layer model.
fn cmd_noise_crosscheck(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.num("seed")?;
    let epochs: usize = opts.num("epochs")?;
    let trials: usize = opts.num("trials")?;
    let avg: f32 = opts.num("avg")?;
    let min_overlap: f32 = opts.num("min-overlap")?;
    let grid = opts.list("bits", parse_bits)?;
    let models = opts.list("models", parse_model)?;
    let out_path = PathBuf::from(opts.get("out").unwrap_or_default());
    let tightness_path = opts.get("tightness").map(PathBuf::from);

    let (preset, train_set, test_set) = datasets(opts)?;
    let (images, labels) = probe_batch(&train_set, "noise-crosscheck")?;
    let labels = &labels[..];

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"preset\": \"{}\",\n  \"bits\": {:?},\n  \"avg_bits\": {},\n  \"models\": [\n",
        preset.paper_name(),
        grid,
        jnum(avg)
    );
    let mut total_violations = 0usize;
    let mut worst_overlap = f32::INFINITY;
    // NaN never survives an `f32::min`, so a degenerate (constant or
    // single-layer) ranking would otherwise sail through the
    // `--min-overlap` gate unexamined. Track it explicitly instead.
    let mut saw_degenerate_ranking = false;
    let mut widened_cells = 0usize;
    let mut rank_constant_models: Vec<String> = Vec::new();
    let mut tightness_json = String::from("{\n  \"models\": [\n");
    let mut first_model = true;
    for model in models {
        let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
        let config = TrainConfig::new(MethodKind::Sgd.tuned(), epochs).with_seed(seed);
        let rec = train(&mut net, &train_set, &test_set, &config).map_err(err)?;
        let report = hero_core::noise_crosscheck(&mut net, &images, labels, &grid, trials, seed)
            .map_err(err)?;
        total_violations += report.violations;

        // Static-matrix mixed allocation vs uniform at equal average bits.
        // The crosscheck already certified the matrix; reuse it rather
        // than paying for a second relational pass per layer×bits.
        let matrix = &report.matrix;
        // A single-layer ranking is trivially perfect, not degenerate; on
        // multi-layer models an undefined rho means a constant side.
        if report.overlap.is_nan() || (report.rank_rho.is_none() && matrix.layers.len() >= 2) {
            saw_degenerate_ranking = true;
        }
        if !report.overlap.is_nan() {
            worst_overlap = worst_overlap.min(report.overlap);
        }
        let max_b = grid.last().copied().unwrap_or(8);
        let alloc = matrix.allocate(avg, grid[0].min(2), max_b).map_err(err)?;
        let full = net.params();
        let (qp, _) = quantize_params_mixed(&net, &alloc).map_err(err)?;
        net.set_params(&qp).map_err(err)?;
        let mixed_acc =
            evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).map_err(err)?;
        net.set_params(&full).map_err(err)?;
        let uniform_scheme = QuantScheme::symmetric(avg.round() as u8).map_err(err)?;
        let (qp, _) = quantize_params(&net, &uniform_scheme).map_err(err)?;
        net.set_params(&qp).map_err(err)?;
        let uniform_acc =
            evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).map_err(err)?;
        net.set_params(&full).map_err(err)?;

        // Domain-tightness audit: every zonotope-tightened cell must sit
        // inside its interval-domain cell, and the raw (un-clamped)
        // matrix must distinguish at least two layer ranks somewhere on
        // the grid for the ranking to mean anything.
        let mut model_widened = 0usize;
        let mut distinct_ranks = 0usize;
        for (k, _) in matrix.bits.iter().enumerate() {
            let mut col: Vec<f32> = Vec::new();
            for l in &matrix.layers {
                let zono = l.err[k];
                let interval = l.err_interval.get(k).copied().unwrap_or(zono);
                if zono > interval {
                    model_widened += 1;
                }
                col.push(zono);
            }
            col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col.dedup();
            distinct_ranks = distinct_ranks.max(col.len());
        }
        widened_cells += model_widened;
        if matrix.layers.len() >= 2 && distinct_ranks < 2 {
            rank_constant_models.push(model.paper_name().to_string());
        }
        if !first_model {
            tightness_json.push_str(",\n");
        }
        let _ = write!(
            tightness_json,
            "    {{\n      \"model\": \"{}\",\n      \"distinct_ranks\": {},\n      \
             \"widened_cells\": {},\n      \"cells\": [\n",
            model.paper_name(),
            distinct_ranks,
            model_widened
        );
        let total_cells: usize = matrix.layers.len() * matrix.bits.len();
        let mut cell_idx = 0usize;
        for l in &matrix.layers {
            for (k, &b) in matrix.bits.iter().enumerate() {
                let zono = l.err[k];
                let interval = l.err_interval.get(k).copied().unwrap_or(zono);
                let ratio = if interval > 0.0 { zono / interval } else { 1.0 };
                cell_idx += 1;
                let _ = write!(
                    tightness_json,
                    "        {{\"layer\": \"{}\", \"bits\": {}, \"interval\": {}, \
                     \"zonotope\": {}, \"ratio\": {}}}{}",
                    l.name.replace(['"', '\\'], "_"),
                    b,
                    jnum(interval),
                    jnum(zono),
                    jnum(ratio),
                    if cell_idx < total_cells { ",\n" } else { "\n" }
                );
            }
        }
        tightness_json.push_str("      ]\n    }");

        let rho_str = report
            .rank_rho
            .map_or_else(|| "undefined".to_string(), |r| format!("{r:.3}"));
        println!(
            "{}: {} cells, {} violations, overlap {:.2}, rank rho {}, \
             {} distinct ranks, mixed {:.2}% vs uniform {:.2}% \
             at avg {avg} bits (full {:.2}%)",
            model.paper_name(),
            report.cells.len(),
            report.violations,
            report.overlap,
            rho_str,
            distinct_ranks,
            100.0 * mixed_acc,
            100.0 * uniform_acc,
            100.0 * rec.final_test_acc
        );
        hero_obs::Event::new("noise_crosscheck")
            .str("model", model.paper_name())
            .u64("violations", report.violations as u64)
            .u64("distinct_ranks", distinct_ranks as u64)
            .u64("widened_cells", model_widened as u64)
            .f64("overlap", f64::from(report.overlap))
            .f64("rank_rho", f64::from(report.rank_rho.unwrap_or(f32::NAN)))
            .f64("mixed_acc", f64::from(mixed_acc))
            .f64("uniform_acc", f64::from(uniform_acc))
            .emit();

        if !first_model {
            json.push_str(",\n");
        }
        first_model = false;
        // Every float goes through `jnum`: a NaN overlap (degenerate
        // ranking) or a non-finite measured shift must land in the sink
        // as `null`, not as a bare `NaN` token no JSON parser accepts.
        let _ = write!(
            json,
            "    {{\n      \"model\": \"{}\",\n      \"violations\": {},\n      \
             \"overlap\": {},\n      \"rank_rho\": {},\n      \"ref_bits\": {},\n      \
             \"full_acc\": {},\n      \"mixed_acc\": {},\n      \
             \"uniform_acc\": {},\n      \"allocation\": {:?},\n      \"cells\": [\n",
            model.paper_name(),
            report.violations,
            jnum(report.overlap),
            report.rank_rho.map_or_else(|| "null".into(), jnum),
            report.ref_bits,
            jnum(rec.final_test_acc),
            jnum(mixed_acc),
            jnum(uniform_acc),
            alloc
        );
        for (i, c) in report.cells.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"layer\": \"{}\", \"bits\": {}, \"certified\": {}, \
                 \"empirical\": {}, \"violated\": {}}}{}",
                c.layer.replace(['"', '\\'], "_"),
                c.bits,
                jnum(c.certified),
                jnum(c.empirical),
                c.violated,
                if i + 1 < report.cells.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        json.push_str("      ]\n    }");
    }
    let _ = write!(
        json,
        "\n  ],\n  \"total_violations\": {total_violations},\n  \
         \"worst_overlap\": {}\n}}\n",
        jnum(if worst_overlap == f32::INFINITY {
            // No models ran; report a vacuous perfect overlap.
            1.0
        } else {
            worst_overlap
        })
    );
    write_creating_dirs(&out_path, &json)?;
    println!("noise crosscheck written to {}", out_path.display());
    if let Some(path) = &tightness_path {
        let _ = write!(
            tightness_json,
            "\n  ],\n  \"widened_cells\": {widened_cells},\n  \
             \"rank_constant_models\": {rank_constant_models:?}\n}}\n"
        );
        write_creating_dirs(path, &tightness_json)?;
        println!("domain-tightness artifact written to {}", path.display());
    }

    if total_violations > 0 {
        return Err(format!(
            "noise-domain soundness violated: {total_violations} measured errors \
             escaped their certified bounds (see {})",
            out_path.display()
        ));
    }
    if widened_cells > 0 {
        return Err(format!(
            "domain tightening regressed: {widened_cells} zonotope cells are wider \
             than their interval-domain cells"
        ));
    }
    if tightness_path.is_some() && !rank_constant_models.is_empty() {
        return Err(format!(
            "raw sensitivity matrix is rank-constant (every layer×bits cell ties) \
             on: {}",
            rank_constant_models.join(", ")
        ));
    }
    if min_overlap > 0.0 {
        if saw_degenerate_ranking {
            return Err(format!(
                "static-vs-empirical ranking is degenerate (NaN overlap or \
                 undefined Spearman rho) on at least one model; cannot certify \
                 the required {min_overlap:.2} overlap"
            ));
        }
        if worst_overlap < min_overlap {
            return Err(format!(
                "static-vs-empirical ranking overlap {worst_overlap:.2} below the \
                 required {min_overlap:.2}"
            ));
        }
    }
    Ok(())
}

/// Writes `contents` to `path`, creating its parent directories.
fn write_creating_dirs(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(path, contents).map_err(err)
}

/// Formats a float as a JSON number through the obs sink's canonical
/// encoder: non-finite values become `null` (NaN/inf literals are not
/// valid JSON and silently poison every downstream parser).
fn jnum(v: f32) -> String {
    hero_obs::json::num(f64::from(v))
}

/// The spectrum observatory (`hero spectrum`): for each requested method,
/// trains with per-epoch spectrum telemetry enabled, probes the final
/// weights deeply (SLQ density + per-layer Hutchinson traces), computes
/// the Spearman rank correlation between the empirical quantizable-layer
/// trace ranking and the certified static sensitivity ranking, prints an
/// ASCII density plot, and rolls everything into one JSON artifact.
fn cmd_spectrum(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.num("seed")?;
    let epochs: usize = opts.num("epochs")?;
    let steps: usize = opts.num("steps")?;
    let probes: usize = opts.num("probes")?;
    let bits: u8 = opts.num("bits")?;
    let every: usize = opts.num("spectrum-every")?;
    let methods = opts.list("methods", parse_method)?;
    let (preset, train_set, test_set) = datasets(opts)?;
    let (images, labels) = probe_batch(&train_set, "spectrum")?;
    let labels = &labels[..];

    // Either probe one saved model artifact (no retraining — the weights
    // and per-epoch spectrum trajectory both come from the file) or train
    // each requested method fresh.
    let mut runs: Vec<(String, Network, TrainRecord)> = Vec::new();
    let model_name = if let Some(path) = opts.get("artifact") {
        let (net, art) = open_artifact(path)?;
        let name = art.meta_str("train.method.kind").unwrap_or("artifact");
        let rec = record_from_artifact(&art).map_err(err)?;
        runs.push((name.to_string(), net, rec));
        artifact_model_name(&art)
    } else {
        let model = opts.one("model", parse_model)?;
        for method in methods {
            let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
            let config = TrainConfig::new(method.tuned(), epochs)
                .with_seed(seed)
                .with_spectrum_every(every);
            let rec = train(&mut net, &train_set, &test_set, &config).map_err(err)?;
            runs.push((method.paper_name().to_string(), net, rec));
        }
        model.paper_name()
    };
    let out_path = PathBuf::from(opts.get("out").map_or_else(
        || format!("results/SPECTRUM_{}.json", report_stem(model_name, preset)),
        str::to_string,
    ));

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"preset\": \"{}\",\n  \"model\": \"{model_name}\",\n  \"epochs\": {epochs},\n  \
         \"steps\": {steps},\n  \"probes\": {probes},\n  \"sens_bits\": {bits},\n  \
         \"methods\": [\n",
        preset.paper_name(),
    );
    let mut first_method = true;
    for (name, mut net, rec) in runs {
        // Deep final probe. Unlike the trainer's epoch probe this keeps the
        // full broadened density for plotting, so it calls the estimators
        // directly rather than going through `probe_spectrum`.
        let params = net.params();
        let infos = net.param_infos();
        let (density, traces) = {
            let mut oracle = BatchOracle::new(&mut net, &images, labels);
            let cfg = SlqConfig {
                steps,
                probes,
                seed,
                grid_points: 32,
                ..SlqConfig::default()
            };
            // One base gradient serves every finite-difference HVP below.
            let (_, base_grad) = oracle.grad(&params).map_err(err)?;
            let density = slq_density_at(&mut oracle, &params, &base_grad, cfg).map_err(err)?;
            let traces = layer_traces_at(
                &mut oracle,
                &params,
                &base_grad,
                probes,
                1e-3,
                seed ^ 0x7ACE,
            )
            .map_err(err)?;
            (density, traces)
        };
        // The oracle leaves its last-evaluated (perturbed) parameters
        // installed; restore before anything else touches the network.
        net.set_params(&params).map_err(err)?;

        // Empirical-vs-static sensitivity ranking over quantizable layers.
        // Both sides are per-weight curvature magnitudes: the measured
        // `|tr(H_ii)| / nᵢ` against the matrix's quadratic-model
        // projection (raw `err` cells can all clamp at the analyzer's
        // loss-interval ceiling, which would make the ranking constant).
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[bits])
            .map_err(err)?;
        let sens = matrix.to_layer_sensitivities();
        let mut empirical = Vec::new();
        let mut certified = Vec::new();
        for (info, trace) in infos.iter().zip(&traces) {
            if !info.kind.is_quantizable() {
                continue;
            }
            if let Some(s) = sens.iter().find(|s| s.name == info.name) {
                empirical.push((trace.mean / s.numel.max(1) as f32).abs());
                certified.push(s.curvature);
            }
        }
        // Checked Spearman: a constant or sub-2-layer ranking reports as
        // explicitly undefined instead of a NaN that comparisons ignore.
        let rho = spearman_rank_checked(&empirical, &certified);
        let rho_str = rho.map_or_else(|| "undefined".to_string(), |r| format!("{r:.3}"));
        let global_trace: f32 = traces.iter().map(|t| t.mean).sum();

        println!(
            "{} after {} epochs: λ_max {:.4} ± {:.4}, λ_min {:.4}, tr(H) {:.2}, \
             E[λ²] {:.4}, trace-vs-static Spearman ρ {} over {} layers",
            name,
            rec.epochs.len(),
            density.lambda_max.mean,
            density.lambda_max.ci95(),
            density.lambda_min.mean,
            global_trace,
            density.second_moment.mean,
            rho_str,
            empirical.len()
        );
        println!(
            "{} spectral density (SLQ, {} probes × {} steps, σ {:.3}):",
            name, probes, steps, density.sigma
        );
        let rows: Vec<(String, f64)> = density
            .grid
            .iter()
            .zip(&density.density)
            .map(|(&x, &d)| (format!("{x:>10.3}"), f64::from(d)))
            .collect();
        print!("{}", hero_obs::ascii_bars(&rows, 48));

        hero_obs::Event::new("spectrum_summary")
            .str("method", &name)
            .f64("lambda_max", f64::from(density.lambda_max.mean))
            .f64("lambda_min", f64::from(density.lambda_min.mean))
            .f64("trace", f64::from(global_trace))
            .f64("second_moment", f64::from(density.second_moment.mean))
            .f64("spearman", f64::from(rho.unwrap_or(f32::NAN)))
            .emit();

        if !first_method {
            json.push_str(",\n");
        }
        first_method = false;
        let _ = write!(
            json,
            "    {{\n      \"method\": \"{}\",\n      \"test_acc\": {},\n      \
             \"lambda_max\": {},\n      \"lambda_max_se\": {},\n      \
             \"lambda_min\": {},\n      \"mean_eigenvalue\": {},\n      \
             \"second_moment\": {},\n      \"trace\": {},\n      \
             \"spearman_trace_vs_static\": {},\n      \"sigma\": {},\n",
            name,
            jnum(rec.final_test_acc),
            jnum(density.lambda_max.mean),
            jnum(density.lambda_max.std_error),
            jnum(density.lambda_min.mean),
            jnum(density.mean_eigenvalue.mean),
            jnum(density.second_moment.mean),
            jnum(global_trace),
            rho.map_or_else(|| "null".into(), jnum),
            jnum(density.sigma)
        );
        let grid: Vec<String> = density.grid.iter().map(|&v| jnum(v)).collect();
        let dens: Vec<String> = density.density.iter().map(|&v| jnum(v)).collect();
        let _ = write!(
            json,
            "      \"grid\": [{}],\n      \"density\": [{}],\n      \"layers\": [\n",
            grid.join(", "),
            dens.join(", ")
        );
        for (i, (info, trace)) in infos.iter().zip(&traces).enumerate() {
            let _ = write!(
                json,
                "        {{\"layer\": \"{}\", \"quantizable\": {}, \"trace\": {}, \
                 \"trace_se\": {}}}{}",
                info.name.replace(['"', '\\'], "_"),
                info.kind.is_quantizable(),
                jnum(trace.mean),
                jnum(trace.std_error),
                if i + 1 < traces.len() { ",\n" } else { "\n" }
            );
        }
        json.push_str("      ],\n      \"trajectory\": [\n");
        for (i, p) in rec.spectra.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"epoch\": {}, \"lambda_max\": {}, \"trace\": {}, \
                 \"second_moment\": {}}}{}",
                p.epoch,
                jnum(p.lambda_max.mean),
                jnum(p.global_trace()),
                jnum(p.second_moment.mean),
                if i + 1 < rec.spectra.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        json.push_str("      ]\n    }");
    }
    json.push_str("\n  ]\n}\n");
    write_creating_dirs(&out_path, &json)?;
    println!("spectrum artifact written to {}", out_path.display());
    Ok(())
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let (preset, train_set, test_set) = datasets(opts)?;
    let (mut net, _) = obtain_model(opts, preset, &train_set, &test_set)?;
    let n = train_set.len().min(128);
    let images = train_set.images.narrow(0, n).map_err(err)?;
    let labels = train_set.labels[..n].to_vec();
    let params = net.params();
    let nonzeros: usize = params.iter().map(|p| p.norm_l0()).sum();
    let mut oracle = BatchOracle::new(&mut net, &images, &labels);
    let (loss, grads) = oracle.grad(&params).map_err(err)?;
    let (hz, _) = hessian_norm_probe(&mut oracle, &params, 1e-3).map_err(err)?;
    let spectrum = lanczos_spectrum(
        &mut oracle,
        &params,
        10,
        1e-3,
        &mut StdRng::seed_from_u64(0),
    )
    .map_err(err)?;
    let bounds = BoundInputs {
        grad_l2: global_norm_l2(&grads),
        grad_l1: global_norm_l1(&grads),
        eigenvalue: spectrum.lambda_max(),
        nonzeros,
        tolerance: 0.1,
    };
    let report = format!(
        "curvature analysis on {n} training samples:\n\
         \x20 loss                      {loss:.4}\n\
         \x20 ‖g‖₂ / ‖g‖₁               {:.4} / {:.4}\n\
         \x20 ‖Hz‖ (Fig. 2 probe)       {hz:.4}\n\
         \x20 λ_max / λ_min (Lanczos)   {:.4} / {:.4}\n\
         \x20 theorem 3 ‖δ*‖₂ bound     {:.5}\n\
         \x20 theorem 3 ‖δ*‖∞ bound     {:.6}\n\
         \x20 max safe bin width Δ      {:.6}",
        bounds.grad_l2,
        bounds.grad_l1,
        spectrum.lambda_max(),
        spectrum.lambda_min(),
        bounds.l2_bound(),
        bounds.linf_bound(),
        bounds.max_safe_bin_width()
    );
    hero_obs::Event::new("analysis")
        .u64("samples", n as u64)
        .f64("loss", f64::from(loss))
        .f64("grad_l2", f64::from(bounds.grad_l2))
        .f64("grad_l1", f64::from(bounds.grad_l1))
        .f64("hz_norm", f64::from(hz))
        .f64("lambda_max", f64::from(spectrum.lambda_max()))
        .f64("lambda_min", f64::from(spectrum.lambda_min()))
        .f64("l2_bound", f64::from(bounds.l2_bound()))
        .f64("linf_bound", f64::from(bounds.linf_bound()))
        .f64("max_safe_bin_width", f64::from(bounds.max_safe_bin_width()))
        .human(report)
        .emit();
    Ok(())
}

/// `hero artifact inspect --path FILE`: decodes an artifact (verifying
/// magic, version and checksum on the way in) and prints its meta,
/// tensor inventory, quantization decision and resume state.
fn cmd_artifact_inspect(opts: &Opts) -> Result<(), String> {
    let path = opts
        .get("path")
        .ok_or("artifact inspect needs --path FILE.ha")?;
    let art = load_artifact(path).map_err(err)?;
    print!("{}", art.describe());
    Ok(())
}

/// `hero repro <target>`: regenerates one table or figure of the paper at
/// the full reproduction scale, or the smoke scale with `--fast`.
fn cmd_repro(opts: &Opts) -> Result<(), String> {
    let fast = opts.given("fast");
    let scale = hero_bench::scale(fast);
    let cache = opts.get("artifact-dir").map(Path::new);
    if cache.is_some() && opts.operand != "c10-row" {
        return Err("--artifact-dir applies to `hero repro c10-row` only".into());
    }
    match opts.operand {
        "table1" => {
            banner("Table 1 (test accuracy)", scale);
            let (table, _) = run_table1(&table1_matrix(), scale).map_err(err)?;
            emit_artifact("table1", render_table1(&table));
        }
        "table2" => {
            banner("Table 2 (noisy-label training)", scale);
            for model in [ModelKind::Resnet, ModelKind::Mobilenet] {
                let table = run_table2(model, &[0.2, 0.4, 0.6, 0.8], scale).map_err(err)?;
                emit_artifact(
                    &format!("table2_{}", model.paper_name()),
                    render_table2(&table),
                );
            }
        }
        "table3" => {
            banner("Table 3 (Hessian-term ablation)", scale);
            let table = run_table3(scale).map_err(err)?;
            emit_artifact("table3", render_table3(&table));
        }
        "fig1" => {
            banner("Fig. 1 (post-training quantization sweeps)", scale);
            table1_with_fig1(&table1_matrix(), scale, "table1", None)?;
        }
        "fig2" => {
            banner("Fig. 2 (Hessian norm and generalization gap)", scale);
            let fig = run_fig2(scale).map_err(err)?;
            emit_artifact("fig2", render_fig2(&fig));
        }
        "fig3" => {
            banner("Fig. 3 (loss contours)", scale);
            let fig = run_fig3(scale, 1.0, if fast { 11 } else { 17 }).map_err(err)?;
            emit_artifact("fig3", render_fig3(&fig));
        }
        "c10-row" => {
            banner("Table 1 / Fig. 1, CIFAR-10 row", scale);
            let row =
                [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg].map(|m| (Preset::C10, m));
            table1_with_fig1(&row, scale, "table1_c10_row", cache)?;
        }
        other => unreachable!("`{other}` is not in REPRO_TARGETS"),
    }
    Ok(())
}

/// Trains Table 1 over `matrix`, then sweeps each cell's models across
/// the Fig. 1 bit widths. With `cache`, every cell is backed by the
/// model-artifact cache in that directory: a warm cache reproduces the
/// output from saved weights without retraining.
fn table1_with_fig1(
    matrix: &[(Preset, ModelKind)],
    scale: Scale,
    table_name: &str,
    cache: Option<&Path>,
) -> Result<(), String> {
    let (table, mut models) = match cache {
        Some(dir) => run_table1_cached(matrix, scale, dir),
        None => run_table1(matrix, scale),
    }
    .map_err(err)?;
    emit_artifact(table_name, render_table1(&table));
    let bits = fig1_bits();
    for ((preset, model), cell) in matrix.iter().zip(models.iter_mut()) {
        let (_, test_set) = preset.load(scale.data);
        let curves = cell
            .iter_mut()
            .map(|t| quant_sweep(t, &test_set, &bits))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        emit_artifact(
            &format!("fig1_{}_{}", preset.paper_name(), model.paper_name()),
            render_fig1_panel(preset.paper_name(), model.paper_name(), &curves),
        );
    }
    Ok(())
}
