//! The closed-form performance-prediction formula (the paper's stated
//! future work) against the execution-driven simulator: the prediction
//! never runs the program, so agreement means the simulated behaviour
//! follows from the machine parameters.

use ccsort::algos::predict::{predict_radix, PredictModel};
use ccsort::algos::{run_experiment, ExpConfig};
use ccsort::machine::MachineConfig;

fn simulate(model: PredictModel, n: usize, p: usize, scale: usize) -> f64 {
    let res = run_experiment(&ExpConfig::new(model.algorithm(), n, p).radix_bits(8).scale(scale));
    assert!(res.verified);
    res.parallel_ns
}

#[test]
fn prediction_tracks_simulation_within_a_small_factor() {
    let n = 1 << 19;
    let p = 32;
    let scale = 8;
    let cfg = MachineConfig::origin2000(p).scaled_down(scale);
    for model in PredictModel::ALL {
        let predicted = predict_radix(&cfg, model, n, p, 8).total();
        let simulated = simulate(model, n, p, scale);
        let ratio = predicted / simulated;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "{model:?}: predicted {predicted:.0} vs simulated {simulated:.0} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn prediction_orders_the_models_like_the_simulator_at_large_n() {
    let n = 1 << 20;
    let p = 32;
    let scale = 8;
    let cfg = MachineConfig::origin2000(p).scaled_down(scale);
    // The paper's large-size ordering: SHMEM best, original CC-SAS worst.
    let pred_shmem = predict_radix(&cfg, PredictModel::Shmem, n, p, 8).total();
    let pred_ccsas = predict_radix(&cfg, PredictModel::Ccsas, n, p, 8).total();
    assert!(pred_shmem < pred_ccsas);
    let sim_shmem = simulate(PredictModel::Shmem, n, p, scale);
    let sim_ccsas = simulate(PredictModel::Ccsas, n, p, scale);
    assert!(sim_shmem < sim_ccsas);
}

#[test]
fn prediction_scales_with_processors() {
    let n = 1 << 20;
    for model in PredictModel::ALL {
        let t16 = predict_radix(&MachineConfig::origin2000(16).scaled_down(8), model, n, 16, 8).total();
        let t64 = predict_radix(&MachineConfig::origin2000(64).scaled_down(8), model, n, 64, 8).total();
        assert!(t64 < t16, "{model:?}: 64 procs ({t64}) must predict faster than 16 ({t16})");
    }
}
