//! Set-up: train a booster with the pipeline on a small world and take its
//! calibrated threshold.

use std::time::Instant;
use xatu_core::config::XatuConfig;
use xatu_core::model::XatuModel;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_netflow::attack::AttackType;
use xatu_obs::Snapshot;
use xatu_simnet::WorldConfig;

/// Seed of the training world. Fixed, so every workload and seed scores
/// with the same booster and set-up does the same work in every run.
pub const SETUP_SEED: u64 = 7;

/// A trained, calibrated booster and what training it cost.
pub struct Trained {
    /// The model the fleet runs.
    pub model: XatuModel,
    /// The attack type it serves.
    pub attack_type: AttackType,
    /// Its calibrated survival threshold.
    pub threshold: f64,
    /// Model and detector configuration (the default `XatuConfig` shape).
    pub cfg: XatuConfig,
    /// Wall seconds of `Pipeline::prepare`.
    pub prepare_s: f64,
    /// The pipeline's own `pipeline.train_seconds`.
    pub train_s: f64,
    /// Wall seconds of `Prepared::evaluate`, which calibrates the threshold.
    pub calibrate_s: f64,
}

/// The training run: six customers over four days, the default model
/// shape (hidden 24, contexts 90/108/240, window 30), one thread.
pub fn pipeline_config() -> PipelineConfig {
    let seed = SETUP_SEED;
    PipelineConfig {
        world: WorldConfig {
            seed,
            n_customers: 6,
            days: 4,
            n_botnets: 3,
            botnet_subnets: 10,
            n_chains: 6,
            chain_len_mean: 12.0,
            prep_days: 2.0,
            ..WorldConfig::default()
        },
        xatu: XatuConfig {
            seed: seed + 1,
            min_positives: 2,
            threads: 1,
            ..XatuConfig::default()
        },
        ..PipelineConfig::smoke_test(seed)
    }
}

fn wall(s: &Snapshot, name: &str) -> f64 {
    s.wall
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, t)| t.total_seconds)
}

/// Trains and calibrates. The fleet runs the first trained model.
pub fn train() -> Result<Trained, String> {
    let cfg = pipeline_config();
    let t0 = Instant::now();
    let prepared = Pipeline::new(cfg).prepare();
    let prepare_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = prepared.evaluate(cfg.overhead_bound);
    let calibrate_s = t1.elapsed().as_secs_f64();
    let (attack_type, model) = prepared
        .models
        .first()
        .cloned()
        .ok_or("set-up trained no model")?;
    let threshold = report
        .xatu_thresholds
        .iter()
        .find(|(ty, _)| *ty == attack_type)
        .map(|(_, th)| *th)
        .ok_or("no calibrated threshold for the trained model")?;
    Ok(Trained {
        model,
        attack_type,
        threshold,
        cfg: cfg.xatu,
        prepare_s,
        train_s: wall(&prepared.obs, "pipeline.train_seconds"),
        calibrate_s,
    })
}
