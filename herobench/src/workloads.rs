//! The workloads, their correctness checks and the run report.
//!
//! Every workload is a closed loop with one client. The workload seed
//! drives model initialization, batch order, augmentation and probe
//! seeds; the datasets are the fixed synthetic C10 preset at scale 1.0
//! (200 train / 400 test images, 3×8×8, 10 classes).

use crate::layers::{self, Layers, OpTrace};
use crate::{host, stats};
use hero_artifact::QuantEntry;
use hero_core::experiment::{model_config, quant_sweep, MethodKind, TrainedModel};
use hero_core::{
    attach_quant, load_artifact, network_from_artifact, preflight_report_with_noise,
    probe_spectrum, record_from_artifact, save_artifact, static_sensitivity_matrix,
    train_resumable, train_to_artifact, ModelSpec, NoiseConfig, RunMeta, SpectrumOptions,
    TrainConfig, TrainRecord,
};
use hero_data::{Dataset, Preset};
use hero_hessian::Estimate;
use hero_nn::models::ModelKind;
use hero_nn::Network;
use hero_obs::json::{escape, num, JsonObj};
use hero_quant::{quantize_tensor, QuantScheme};
use hero_tensor::rng::StdRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Epochs of one training run in the `train-*` loops.
const TRAIN_EPOCHS: usize = 10;
/// Epochs of each model trained in the `posttrain-vgg` set-up.
const POSTTRAIN_EPOCHS: usize = 8;
/// Bit widths of the ptq op's sweep (the paper's Fig. 1 grid).
const SWEEP_BITS: [u8; 5] = [3, 4, 5, 6, 8];
/// Grid of the certified sensitivity matrix.
const SENS_BITS: [u8; 3] = [2, 4, 8];
/// Average bit budget of the mixed-precision allocation and of the
/// noise-seeded preflight.
const PTQ_BITS: u8 = 4;
/// Training images in the analysis probe batch.
const PROBE_BATCH: usize = 64;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Repeated training runs (`train_resumable`) of one model and method.
    Train(ModelKind, MethodKind),
    /// Visits to HERO- and SGD-trained VGG models, each running the
    /// spectrum op then the ptq op.
    Posttrain,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `HERO_THREADS` for the workload process (`None`: unset).
    pub hero_threads: Option<&'static str>,
    /// What it runs.
    pub kind: Kind,
    /// What one timed operation is.
    pub op: &'static str,
    /// Operations per second on the reference machine (2 cores, AVX2).
    /// It fixes the tail percentile for a given `--seconds`, so runs of
    /// the parent and of a change report the same percentile.
    pub nominal_ops_per_s: f64,
}

impl Workload {
    /// The reported tail percentile: the highest one that leaves ten
    /// samples beyond it when the program runs at 3/4 of the nominal
    /// rate. A workload with fewer than twenty expected operations in the
    /// window gets the median (see [`stats::tail_pct`]); the report says
    /// so.
    pub fn tail_pct(&self, seconds: f64) -> f64 {
        stats::tail_pct((0.75 * self.nominal_ops_per_s * seconds) as usize)
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-hero-resnet",
        hero_threads: None,
        kind: Kind::Train(ModelKind::Resnet, MethodKind::Hero),
        op: "epoch",
        nominal_ops_per_s: 5.9,
    },
    Workload {
        name: "train-sgd-mobilenet-sharded",
        // One shard worker: with both vCPUs busy the epoch time follows
        // the other tenants of a shared host (ten-seed spread up to 0.32).
        hero_threads: Some("1"),
        kind: Kind::Train(ModelKind::Mobilenet, MethodKind::Sgd),
        op: "epoch",
        nominal_ops_per_s: 2.1,
    },
    Workload {
        name: "posttrain-vgg",
        hero_threads: None,
        kind: Kind::Posttrain,
        op: "model visit (spectrum probe + ptq pipeline)",
        nominal_ops_per_s: 0.8,
    },
];

/// Parsed command line of a run.
#[derive(Debug)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// SplitMix64 finalizer: independent streams from one workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of every parameter: equal hashes mean
/// bitwise-equal weights.
fn weights_hash(net: &Network) -> u64 {
    let mut bytes = Vec::new();
    for p in net.params() {
        for v in p.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    hero_artifact::fnv1a64(&bytes)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

fn load_data(layers: &mut Layers) -> (Dataset, Dataset) {
    let ((train, test), gen_ms) = timed(|| Preset::C10.load(1.0));
    layers.sample("data.generate_s", gen_ms / 1e3);
    (train, test)
}

fn build(kind: ModelKind, seed: u64) -> Network {
    kind.build(model_config(Preset::C10), &mut StdRng::seed_from_u64(seed))
}

/// Attempted operations and the failures among them.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Records one operation with the checks it failed.
    fn op(&mut self, what: &str, failed: Vec<String>) {
        self.attempted += 1;
        if !failed.is_empty() {
            self.failures.push(format!("{what}: {}", failed.join("; ")));
        }
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Untraced durations of the timed operation (ms).
    op_ms: Vec<f64>,
    /// Work completed per second of operation time.
    throughput: f64,
    /// `throughput`'s unit of work.
    throughput_of: &'static str,
    checks: Checks,
    /// Calibration readings (ms), one before every set-up and every loop
    /// iteration.
    calib: Vec<f64>,
    /// Weights hash of the first model the run produced.
    weights_hash: u64,
    /// Post-training models: (method, full-precision and 4-bit test
    /// accuracy; NaN where not measured).
    models: Vec<(&'static str, f64, f64)>,
    layers: Layers,
}

// --- train-* -----------------------------------------------------------------

/// One training run, timed epoch by epoch from outside through the
/// trainer's checkpoint hook. The trainer builds a state snapshot for the
/// hook after every epoch (it clones the momentum buffers and the epoch
/// history), so that copy is part of each timed epoch.
struct TrainRun {
    epoch_ms: Vec<f64>,
    wall_ms: f64,
    record: TrainRecord,
    steps: usize,
    grad_evals: usize,
    /// Scratch-pool (hits, fresh allocations) at every epoch boundary;
    /// counted only while tracing.
    pool: Vec<(u64, u64)>,
    hash: u64,
    /// Trace-clock time (µs) of the call into the trainer.
    call_us: u64,
}

fn pool_counts() -> (u64, u64) {
    use hero_obs::counters::{POOL_FRESH_ALLOCS, POOL_HITS};
    (POOL_HITS.get(), POOL_FRESH_ALLOCS.get())
}

/// Trains a fresh model.
fn train_run(
    model: ModelKind,
    method: MethodKind,
    epochs: usize,
    seed: u64,
    data: &(Dataset, Dataset),
) -> Result<TrainRun, String> {
    let mut net = build(model, derive(seed, 1));
    let config =
        TrainConfig::new(method.tuned_for(Preset::C10, model), epochs).with_seed(derive(seed, 2));
    let mut epoch_ms = Vec::with_capacity(epochs);
    let mut pool = vec![pool_counts()];
    let call_us = hero_obs::span::now_us();
    let mut start = Instant::now();
    let mut hook = |_: &mut Network, _: &hero_core::TrainerState| {
        epoch_ms.push(ms(start.elapsed()));
        pool.push(pool_counts());
        start = Instant::now();
        Ok(())
    };
    let out = train_resumable(&mut net, &data.0, &data.1, &config, None, 1, &mut hook);
    epoch_ms.push(ms(start.elapsed()));
    pool.push(pool_counts());

    let (record, state) = out.map_err(|e| format!("train failed: {e}"))?;
    Ok(TrainRun {
        wall_ms: epoch_ms.iter().sum(),
        epoch_ms,
        record,
        steps: state.step,
        grad_evals: state.grad_evals,
        pool,
        hash: weights_hash(&net),
        call_us,
    })
}

fn train_checks(record: &TrainRecord, epochs: usize) -> Vec<String> {
    let mut bad = Vec::new();
    if record.epochs.len() != epochs {
        bad.push(format!(
            "{} of {epochs} epochs recorded",
            record.epochs.len()
        ));
    }
    for e in &record.epochs {
        if !e.train_loss.is_finite() {
            bad.push(format!("epoch {} loss is {}", e.epoch, e.train_loss));
        }
    }
    let chance = 1.0 / Preset::C10.classes() as f32;
    let acc = record.final_test_acc;
    if acc.is_nan() || acc <= chance {
        bad.push(format!(
            "final test accuracy {acc} is not above chance {chance}"
        ));
    }
    bad
}

fn train_workload(args: &Args, model: ModelKind, method: MethodKind) -> Result<Measured, String> {
    let mut m = Measured {
        throughput_of: "training samples",
        ..Measured::default()
    };
    // Set-up: data, model, GEMM workers and a one-epoch warm-up run that
    // fills the scratch pools. Every repetition uses the same seed, so
    // their weights must agree bit for bit.
    let mut data = None;
    let mut setup_hashes = Vec::new();
    for _ in 0..SETUP_REPS {
        m.calib.push(host::measure()?);
        let t = Instant::now();
        let d = load_data(&mut m.layers);
        let warm = train_run(model, method, 1, derive(args.seed, 0), &d)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        setup_hashes.push(warm.hash);
        data = Some(d);
    }
    let data = data.expect("at least one set-up ran");
    let agree = setup_hashes.windows(2).all(|w| w[0] == w[1]);
    m.checks.op(
        "set-up determinism",
        if agree {
            vec![]
        } else {
            vec![format!(
                "same-seed warm-up weights differ: {setup_hashes:x?}"
            )]
        },
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut samples, mut wall_ms) = (0.0, 0.0);
    let mut op = 0u64;
    while Instant::now() < deadline || (args.trace && op < 2) {
        let traced = args.trace && op % 2 == 1;
        m.calib.push(host::measure()?);
        if traced {
            layers::begin_op();
        }
        let run = train_run(
            model,
            method,
            TRAIN_EPOCHS,
            derive(args.seed, 100 + op),
            &data,
        );
        let trace = traced.then(layers::end_op);
        op += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                m.checks.op("train run", vec![e]);
                continue;
            }
        };
        m.checks
            .op("train run", train_checks(&run.record, TRAIN_EPOCHS));
        m.layers
            .sample("core.test_acc", f64::from(run.record.final_test_acc));
        if op == 1 {
            m.weights_hash = run.hash;
        }
        match &trace {
            Some(t) => {
                m.layers.traced_ms.extend(&run.epoch_ms);
                absorb_train(&mut m.layers, t, &run, &data);
            }
            None if args.trace => m.layers.untraced_ms.extend(&run.epoch_ms),
            None => {
                m.op_ms.extend(&run.epoch_ms);
                samples += (TRAIN_EPOCHS * data.0.len()) as f64;
                wall_ms += run.wall_ms;
            }
        }
    }
    m.throughput = samples / (wall_ms / 1e3);
    Ok(m)
}

fn absorb_train(layers: &mut Layers, trace: &OpTrace, run: &TrainRun, data: &(Dataset, Dataset)) {
    let epochs = run.epoch_ms.len();
    layers.absorb(trace, epochs as f64);
    layers.add("optim.steps", run.steps as f64);
    layers.add("optim.grad_evals", run.grad_evals as f64);
    layers.add(
        "nn.eval.images",
        (epochs * (data.0.len() + data.1.len())) as f64,
    );
    let rate = |(h0, f0): (u64, u64), (h1, f1): (u64, u64)| {
        let (h, f) = ((h1 - h0) as f64, (f1 - f0) as f64);
        if h + f > 0.0 {
            h / (h + f)
        } else {
            0.0
        }
    };
    let p = &run.pool;
    layers.sample("pool.hit_rate.first", rate(p[0], p[1]));
    layers.sample("pool.hit_rate.last", rate(p[epochs - 1], p[epochs]));
    layers.sample("pool.fresh.last", (p[epochs].1 - p[epochs - 1].1) as f64);
    // The trainer verifies the model's tape before its first epoch (and,
    // on the sharded path, spawns the shard workers): the time from the
    // call to the first epoch span.
    if let Some(first) = trace
        .events
        .iter()
        .filter(|e| e.name == "epoch")
        .map(|e| e.start_us)
        .min()
    {
        layers.add(
            "analyze.verify.ms",
            first.saturating_sub(run.call_us) as f64 / 1e3,
        );
    }
}

// --- posttrain-vgg -------------------------------------------------------------

/// A trained model of the post-training set-up.
struct Trained {
    method: MethodKind,
    net: Network,
    record: TrainRecord,
    artifact: PathBuf,
}

/// Trains one HERO and one SGD VGG model to artifacts per repetition;
/// the models of every repetition (each with its own seeds) are used.
fn posttrain_setup(
    args: &Args,
    work: &Path,
    m: &mut Measured,
) -> Result<(Dataset, Dataset, Vec<Trained>), String> {
    let mut out = None;
    let mut models = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        m.calib.push(host::measure()?);
        let t = Instant::now();
        let (train, test) = load_data(&mut m.layers);
        for (slot, method) in [MethodKind::Hero, MethodKind::Sgd].into_iter().enumerate() {
            let seed = derive(args.seed, 10 * rep + slot as u64);
            let mut net = build(ModelKind::Vgg, derive(seed, 1));
            let config = TrainConfig::new(
                method.tuned_for(Preset::C10, ModelKind::Vgg),
                POSTTRAIN_EPOCHS,
            )
            .with_seed(derive(seed, 2));
            let meta = RunMeta {
                model: ModelSpec::Kind(ModelKind::Vgg),
                model_cfg: model_config(Preset::C10),
                config,
                git_rev: "herobench".to_string(),
                preflight_hash: None,
            };
            let (record, art) = train_to_artifact(&mut net, &train, &test, &meta, 0, None)
                .map_err(|e| format!("set-up training failed: {e}"))?;
            let path = work.join(format!("model_{rep}_{slot}.ha"));
            save_artifact(&art, &path).map_err(|e| format!("set-up save failed: {e}"))?;
            models.push(Trained {
                method,
                net,
                record,
                artifact: path,
            });
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        out = Some((train, test));
    }
    let (train, test) = out.expect("at least one set-up ran");
    m.models = models
        .iter()
        .map(|t| {
            (
                t.method.paper_name(),
                f64::from(t.record.final_test_acc),
                f64::NAN,
            )
        })
        .collect();
    if let Some(first) = models.first() {
        m.weights_hash = weights_hash(&first.net);
    }
    for t in &models {
        m.layers
            .sample("core.test_acc", f64::from(t.record.final_test_acc));
        let what = format!("set-up {} model", t.method.paper_name());
        m.checks
            .op(&what, train_checks(&t.record, POSTTRAIN_EPOCHS));
    }
    Ok((train, test, models))
}

fn finite(what: &str, est: &Estimate, bad: &mut Vec<String>) {
    if !est.mean.is_finite() || !est.std_error.is_finite() {
        bad.push(format!("{what} = {} ± {}", est.mean, est.std_error));
    }
}

/// The spectrum op: `probe_spectrum` with default options and the given
/// probe seed. Returns the relative standard error of the global trace
/// (per-layer traces are independent estimates, so their errors add in
/// quadrature).
fn spectrum_op(
    net: &mut Network,
    train: &Dataset,
    seed: u64,
    bad: &mut Vec<String>,
) -> Result<f64, String> {
    let before = weights_hash(net);
    let opts = SpectrumOptions::default().with_seed(seed);
    let probe = probe_spectrum(net, train, 0, &opts).map_err(|e| format!("probe_spectrum: {e}"))?;
    finite("lambda_max", &probe.lambda_max, bad);
    finite("lambda_min", &probe.lambda_min, bad);
    finite("mean_eigenvalue", &probe.mean_eigenvalue, bad);
    finite("second_moment", &probe.second_moment, bad);
    for l in &probe.layers {
        finite(&l.name, &l.trace, bad);
    }
    if weights_hash(net) != before {
        bad.push("probe_spectrum did not restore the weights".to_string());
    }
    let se = probe
        .layers
        .iter()
        .map(|l| f64::from(l.trace.std_error).powi(2))
        .sum::<f64>()
        .sqrt();
    Ok(se / f64::from(probe.global_trace()).abs())
}

/// What one ptq op produced, for the checks and the traced run.
struct PtqOut {
    /// Benchmark-side timers (ms) around calls that carry no span.
    timers: Vec<(&'static str, f64)>,
    /// Wall time of `quant_sweep` (ms).
    sweep_ms: f64,
    /// Full-precision test accuracy of the loaded model.
    fp: f32,
    /// Sweep accuracy at `PTQ_BITS`.
    q4: Option<f32>,
    /// Rendered preflight report when it holds error diagnostics.
    preflight_errors: Option<String>,
    /// The quantized artifact written.
    saved: PathBuf,
}

/// The ptq op: load artifact → full-precision eval → noise-seeded
/// preflight → certified sensitivity matrix + allocation → `quant_sweep`
/// (whose certificate gate turns an escape into an error) → attach the
/// mixed-precision decision and save.
fn ptq_op(
    artifact: &Path,
    method: MethodKind,
    test: &Dataset,
    probe: (&hero_tensor::Tensor, &[usize]),
    saved: PathBuf,
) -> Result<PtqOut, String> {
    let (images, labels) = probe;
    let mut timers = Vec::new();
    let (art, t) = timed(|| load_artifact(artifact));
    timers.push(("artifact.load.ms", t));
    let mut art = art.map_err(|e| format!("load_artifact: {e}"))?;
    let mut net = network_from_artifact(&art).map_err(|e| e.to_string())?;
    let record = record_from_artifact(&art).map_err(|e| e.to_string())?;

    let (fp, t) = timed(|| hero_nn::evaluate_accuracy(&mut net, &test.images, &test.labels, 64));
    timers.push(("nn.eval.ms", t));
    let fp = fp.map_err(|e| e.to_string())?;

    let vopts = hero_analyze::VerifyOptions {
        quant_bits: vec![PTQ_BITS],
        ..hero_analyze::VerifyOptions::default()
    };
    let noise = NoiseConfig::uniform(PTQ_BITS);
    let (pre, t) = timed(|| {
        preflight_report_with_noise(&mut net, images, labels, &vopts, Some(&noise), false)
    });
    timers.push(("analyze.preflight.ms", t));
    let (report, _) = pre.map_err(|e| format!("preflight: {e}"))?;

    let (matrix, t) = timed(|| static_sensitivity_matrix(&mut net, images, labels, &SENS_BITS));
    timers.push(("analyze.sensitivity_matrix.ms", t));
    let matrix = matrix.map_err(|e| format!("sensitivity matrix: {e}"))?;
    let (alloc, t) = timed(|| matrix.allocate(f32::from(PTQ_BITS), 2, 8));
    timers.push(("quant.allocate.ms", t));
    let alloc = alloc.map_err(|e| format!("allocate: {e}"))?;

    let mut trained = TrainedModel {
        net,
        record,
        method,
    };
    let (curve, sweep_ms) = timed(|| quant_sweep(&mut trained, test, &SWEEP_BITS));
    let curve = curve.map_err(|e| format!("quant_sweep: {e}"))?;

    let params = trained.net.params();
    let infos = trained.net.param_infos();
    let mut quantized = Vec::with_capacity(params.len());
    let mut entries = Vec::new();
    let mut bits = alloc.iter();
    for (p, info) in params.iter().zip(&infos) {
        if !info.kind.is_quantizable() {
            quantized.push(p.clone());
            continue;
        }
        let b = *bits.next().ok_or("allocation shorter than the weights")?;
        let q = quantize_tensor(p, &QuantScheme::symmetric(b).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        entries.push(QuantEntry {
            name: info.name.clone(),
            bits: b,
            per_channel: false,
            bin_widths: q.bin_widths,
        });
        quantized.push(q.values);
    }
    attach_quant(&mut art, &quantized, entries);
    art.resume = None;
    let (written, t) = timed(|| save_artifact(&art, &saved));
    timers.push(("artifact.save.ms", t));
    written.map_err(|e| format!("save_artifact: {e}"))?;
    Ok(PtqOut {
        timers,
        sweep_ms,
        fp,
        q4: curve.points.iter().find(|p| p.0 == PTQ_BITS).map(|p| p.1),
        preflight_errors: report.has_errors().then(|| report.to_string()),
        saved,
    })
}

/// Save → load → save of the written artifact must reproduce its bytes.
/// Returns the artifact's size.
fn roundtrip_check(path: &Path, bad: &mut Vec<String>) -> Result<usize, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let again = path.with_extension("again.ha");
    let reloaded = load_artifact(path).map_err(|e| format!("reload: {e}"))?;
    save_artifact(&reloaded, &again).map_err(|e| e.to_string())?;
    if std::fs::read(&again).map_err(|e| e.to_string())? != bytes {
        bad.push("artifact save → load → save is not byte-identical".to_string());
    }
    Ok(bytes.len())
}

fn posttrain_workload(args: &Args, work: &Path) -> Result<Measured, String> {
    let mut m = Measured {
        throughput_of: "model visits",
        ..Measured::default()
    };
    let (train, test, mut models) = posttrain_setup(args, work, &mut m)?;
    let n = PROBE_BATCH.min(train.len());
    let images = train.images.narrow(0, n).map_err(|e| e.to_string())?;
    let labels = &train.labels[..n];
    // 4-bit accuracy per model: deterministic, so every visit must agree.
    let mut q4: BTreeMap<usize, f32> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut busy_ms, mut done) = (0.0, 0.0);
    let mut i = 0u64;
    while Instant::now() < deadline || (args.trace && i < 2) {
        let traced = args.trace && i % 2 == 1;
        let slot = i as usize % models.len();
        let model = &mut models[slot];
        let mut bad = Vec::new();
        m.calib.push(host::measure()?);
        if traced {
            layers::begin_op();
        }
        let start = Instant::now();
        let visit = spectrum_op(
            &mut model.net,
            &train,
            derive(args.seed, 1000 + i),
            &mut bad,
        )
        .and_then(|rel_se| {
            let spectrum_ms = ms(start.elapsed());
            let saved = work.join(format!("quant_{slot}.ha"));
            ptq_op(
                &model.artifact,
                model.method,
                &test,
                (&images, labels),
                saved,
            )
            .map(|p| (rel_se, spectrum_ms, p))
        });
        let visit_ms = ms(start.elapsed());
        let trace = traced.then(layers::end_op);
        i += 1;
        let (rel_se, spectrum_ms, p) = match visit {
            Ok(v) => v,
            Err(e) => {
                m.checks.op("model visit", vec![e]);
                continue;
            }
        };

        if let Some(report) = &p.preflight_errors {
            bad.push(format!("preflight reported errors:\n{report}"));
        }
        if !p.fp.is_finite() {
            bad.push(format!("full-precision accuracy {}", p.fp));
        }
        match p.q4 {
            Some(a) => {
                if let Some(prev) = q4.insert(slot, a) {
                    if prev.to_bits() != a.to_bits() {
                        bad.push(format!(
                            "4-bit accuracy changed between visits: {prev} vs {a}"
                        ));
                    }
                }
            }
            None => bad.push(format!("sweep has no {PTQ_BITS}-bit point")),
        }
        let bytes = roundtrip_check(&p.saved, &mut bad).unwrap_or_else(|e| {
            bad.push(e);
            0
        });
        m.checks.op("model visit", bad);

        match trace {
            Some(tr) => {
                let l = &mut m.layers;
                l.absorb(&tr, 1.0);
                l.traced_ms.push(visit_ms);
                for (k, v) in &p.timers {
                    l.add(k, *v);
                }
                l.add("nn.eval.images", test.len() as f64);
                l.add("quant.sweep_points", SWEEP_BITS.len() as f64);
                l.add("artifact.bytes", bytes as f64);
                // quant_sweep verifies the tape and computes its certified
                // bounds before its own span opens.
                l.add(
                    "analyze.verify.ms",
                    (p.sweep_ms - tr.span_ms("quant_sweep")).max(0.0),
                );
                l.add("hessian.probes", 1.0);
                l.add("hessian.probe_grad_evals", tr.counter("grad_evals") as f64);
                l.sample("hessian.trace_rel_se", rel_se);
                l.sample("core.spectrum_op.ms", spectrum_ms);
                l.sample("core.ptq_op.ms", visit_ms - spectrum_ms);
            }
            None if args.trace => m.layers.untraced_ms.push(visit_ms),
            None => {
                m.op_ms.push(visit_ms);
                busy_ms += visit_ms;
                done += 1.0;
            }
        }
    }
    m.throughput = done / (busy_ms / 1e3);

    let (mut q4_sum, mut fp_sum) = (0.0, 0.0);
    for (slot, a) in &q4 {
        m.models[*slot].2 = f64::from(*a);
        q4_sum += f64::from(*a);
        fp_sum += m.models[*slot].1;
        if models[*slot].method == MethodKind::Hero {
            m.layers.sample("core.q4_test_acc", f64::from(*a));
        }
    }
    m.layers.sample("core.q4_retention", q4_sum / fp_sum);
    Ok(m)
}

// --- run and report ----------------------------------------------------------

/// A directory for the run's artifacts inside the working directory,
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".herobench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|refs| {
                refs.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    vec![
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "gemm_kernel",
            hero_tensor::active_gemm_kernel().name().to_string(),
        ),
        ("HERO_THREADS", env("HERO_THREADS")),
        ("HERO_NO_SIMD", env("HERO_NO_SIMD")),
        ("git_rev", git_rev()),
    ]
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// How the tail reading stands: the percentile, the samples beyond it
/// and, when they fall short of ten, a warning.
fn tail_note(tail: &stats::Tail) -> String {
    let mut note = format!("p{} with {} samples beyond", tail.pct, tail.beyond);
    if tail.pct == 50.0 {
        note.push_str(" (no higher rung fits the window: this is the median)");
    }
    if tail.beyond < stats::TAIL_BEYOND {
        note.push_str(&format!(
            "; SHORT TAIL: fewer than {} samples beyond",
            stats::TAIL_BEYOND
        ));
    }
    note
}

/// The end-to-end metrics, measured with tracing off. Times and
/// throughput are scaled by the run's host speed ([`host::speed`]) to
/// what the reference machine would take; the raw readings are in the
/// notes.
fn end_to_end(args: &Args, m: &Measured) -> Vec<Metric> {
    let op = args.workload.op;
    let speed = host::speed(&m.calib);
    let n = m.op_ms.len();
    let [q1, p50, q3] = stats::quartiles(&m.op_ms);
    let tail = stats::tail_at(&m.op_ms, args.workload.tail_pct(args.seconds));
    let setup = stats::median(&m.setup_s);
    let pass = if m.checks.attempted == 0 {
        0.0
    } else {
        1.0 - m.checks.failures.len() as f64 / m.checks.attempted as f64
    };
    vec![
        Metric {
            name: "setup_s",
            value: setup * speed,
            unit: "s",
            note: format!("median of {} set-ups; raw {setup:.4}", m.setup_s.len()),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            note: "VmHWM of the workload process".to_string(),
        },
        Metric {
            name: "pass_rate",
            value: pass,
            unit: "share",
            note: format!(
                "1 - error_rate; {} of {} operations failed a check",
                m.checks.failures.len(),
                m.checks.attempted
            ),
        },
        Metric {
            name: "throughput",
            value: m.throughput / speed,
            unit: "1/s",
            note: format!(
                "{} per second of operation time; raw {:.4}",
                m.throughput_of, m.throughput
            ),
        },
        Metric {
            name: "op_ms_p50",
            value: p50 * speed,
            unit: "ms",
            note: format!("{op}, n={n}; raw quartiles [{q1:.2}, {p50:.2}, {q3:.2}]"),
        },
        Metric {
            name: "op_ms_tail",
            value: tail.map_or(f64::NAN, |t| t.value * speed),
            unit: "ms",
            note: tail.map_or(String::new(), |t| {
                format!("{op}, n={n}; {}; raw {:.2}", tail_note(&t), t.value)
            }),
        },
    ]
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// Runs the workload in this process and prints the report.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let work = WorkDir::create()?;
    let fp = fingerprint(args);
    let m = match args.workload.kind {
        Kind::Train(model, method) => train_workload(args, model, method)?,
        Kind::Posttrain => posttrain_workload(args, &work.0)?,
    };
    let metrics = if args.trace {
        m.layers
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| Metric {
                name,
                value,
                unit,
                note: String::new(),
            })
            .collect()
    } else {
        end_to_end(args, &m)
    };
    let tail = stats::tail_at(&m.op_ms, args.workload.tail_pct(args.seconds));
    let speed = host::speed(&m.calib);
    let failed = m.checks.failures.len();
    let correct = failed == 0 && metrics.iter().all(|x| x.value.is_finite());

    println!("herobench {}", args.workload.name);
    let fps: Vec<String> = fp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("fingerprint: {}", fps.join(" "));
    for x in &metrics {
        println!(
            "  {:<38} {:>14.4} {:<8} {}",
            x.name, x.value, x.unit, x.note
        );
    }
    println!(
        "host speed {speed:.4} × reference (median of {} calibration runs)",
        m.calib.len()
    );
    println!(
        "checks: {} attempted, {failed} failed; first-model weights hash {:#018x}",
        m.checks.attempted, m.weights_hash
    );
    for f in &m.checks.failures {
        println!("FAILED {f}");
    }

    let mut fp_obj = JsonObj::new();
    for (k, v) in &fp {
        fp_obj.str(k, v);
    }
    let mut values = JsonObj::new();
    for x in &metrics {
        values.f64(x.name, x.value);
    }
    let failures: Vec<String> = m
        .checks
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let mut record = JsonObj::new();
    record
        .u64("herobench", 1)
        .str("workload", args.workload.name)
        .u64("seed", args.seed)
        .bool("trace", args.trace)
        .raw("fingerprint", &fp_obj.finish())
        .bool("correct", correct)
        .u64("attempted", m.checks.attempted as u64)
        .u64("failed", failed as u64)
        .raw("failures", &format!("[{}]", failures.join(", ")))
        .str("weights_hash", &format!("{:#018x}", m.weights_hash))
        .f64("host_speed", speed)
        .raw("calib_ms", &json_list(&m.calib))
        .raw(
            "tail",
            &tail.map_or("null".to_string(), |t| {
                let mut o = JsonObj::new();
                o.f64("pct", t.pct)
                    .u64("beyond", t.beyond as u64)
                    .bool("short", t.beyond < stats::TAIL_BEYOND);
                o.finish()
            }),
        )
        .raw("op_ms", &json_list(&m.op_ms))
        .raw(
            "models",
            &format!(
                "[{}]",
                m.models
                    .iter()
                    .map(|(meth, fp, q4)| format!(
                        "{{\"method\": \"{}\", \"fp\": {}, \"q4\": {}}}",
                        escape(meth),
                        num(*fp),
                        num(*q4)
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .raw("metrics", &values.finish());
    println!("{}", record.finish());

    let mut summary = JsonObj::new();
    for x in &metrics {
        let mut v = JsonObj::new();
        v.f64("value", x.value).str("unit", x.unit);
        summary.raw(x.name, &v.finish());
    }
    let mut last = JsonObj::new();
    last.bool("correct", correct)
        .u64("attempted", m.checks.attempted.max(1) as u64)
        .u64("failed", failed as u64)
        .raw("metrics", &summary.finish());
    println!("{}", last.finish());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_obs::json::{parse, Value};

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("list present")
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Value::as_str).expect("name"),
                    e.get("unit").and_then(Value::as_str),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let doc = spec();
        let workloads: Vec<&str> = entries(&doc, "workloads").iter().map(|e| e.0).collect();
        let code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, code);

        let args = Args {
            workload: &WORKLOADS[0],
            seed: 0,
            seconds: 1.0,
            trace: false,
        };
        let e2e: Vec<(&str, Option<&str>)> = end_to_end(&args, &Measured::default())
            .iter()
            .map(|m| (m.name, Some(m.unit)))
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), e2e);

        let layers: Vec<(&str, Option<&str>)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (*n, Some(*u)))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), layers);
    }

    #[test]
    fn derived_seeds_are_distinct_and_repeatable() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn tail_percentile_is_fixed_by_workload_and_window() {
        // 5.9 epochs/s · 30 s · 3/4 = 132 expected samples → p90.
        assert_eq!(WORKLOADS[0].tail_pct(30.0), 90.0);
        assert_eq!(WORKLOADS[0].tail_pct(30.0), WORKLOADS[0].tail_pct(30.0));
        // 0.8 visits/s · 30 s · 3/4 = 18 expected visits: the median.
        assert_eq!(WORKLOADS[2].tail_pct(30.0), 50.0);
    }
}
