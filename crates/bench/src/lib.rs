//! # hero-bench
//!
//! The `hero` command-line binary and the benchmarks of the HERO (DAC
//! 2022) reproduction. `hero repro <target>` regenerates every table and
//! figure of the paper's evaluation section (see DESIGN.md §3 for the
//! index); the plain-`fn main()` harnesses under `benches/` measure
//! component costs (the per-step overhead of each training method,
//! quantization throughput, curvature-probe cost) with the in-tree
//! [`timing`] module — no external bench framework, so everything builds
//! offline.
//!
//! Reproduce a table or figure with:
//!
//! ```text
//! cargo run --release -p hero-bench --bin hero -- repro table1 [--fast]
//! ```
//!
//! and a bench with:
//!
//! ```text
//! cargo bench -p hero-bench --bench step_cost [-- --quick]
//! ```

#![warn(missing_docs)]

use hero_core::experiment::Scale;

pub mod timing;

/// The scale of a `hero repro` run: `--fast` selects the smoke-test
/// scale; without it the run uses the full reproduction scale recorded in
/// EXPERIMENTS.md.
pub fn scale(fast: bool) -> Scale {
    if fast {
        Scale::fast()
    } else {
        Scale::full()
    }
}

/// Emits the standard header of a `hero repro` run: a `banner` event
/// whose human rendering is the familiar console header.
pub fn banner(what: &str, scale: Scale) {
    hero_obs::Event::new("banner")
        .str("what", what)
        .f64("data_scale", f64::from(scale.data))
        .u64("epochs_small", scale.epochs_small as u64)
        .u64("epochs_large", scale.epochs_large as u64)
        .human(format!(
            "== HERO reproduction: {what} ==\n\
             scale: data x{:.2}, {} epochs (8x8 presets) / {} epochs (16x16)\n",
            scale.data, scale.epochs_small, scale.epochs_large
        ))
        .emit();
}

/// Emits a rendered table / figure as a structured `artifact` event; the
/// console sees the rendering unchanged, and a `HERO_TRACE=1` run also
/// records which artifact was produced (the rendering itself lives in the
/// stdout log, not the trace stream).
pub fn emit_artifact(name: &str, rendered: impl Into<String>) {
    hero_obs::Event::new("artifact")
        .str("name", name)
        .human(rendered)
        .emit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        assert_eq!(scale(false), Scale::full());
        assert_eq!(scale(true), Scale::fast());
    }
}
