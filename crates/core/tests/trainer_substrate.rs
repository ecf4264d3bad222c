//! The trainers are generic over the sampling backend: CD/PCD epochs
//! driven through every `Substrate`, including BRIM-in-the-loop
//! end-to-end training (the paper's headline claim).

use ember_brim::BrimConfig;
use ember_core::substrate::{AnnealerSubstrate, BrimSubstrate, SoftwareGibbs, Substrate};
use ember_core::GsConfig;
use ember_rbm::{exact, CdTrainer, PcdTrainer, Rbm};
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn two_mode_data(rows: usize, m: usize) -> Array2<f64> {
    Array2::from_shape_fn((rows, m), |(i, _)| if i % 2 == 0 { 1.0 } else { 0.0 })
}

#[test]
fn cd_through_software_substrate_learns() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut rbm = Rbm::random(8, 4, 0.01, &mut rng);
    let data = two_mode_data(40, 8);
    let before = exact::mean_log_likelihood(&rbm, &data);
    let mut sub = SoftwareGibbs::new(8, 4, &GsConfig::default(), &mut rng);
    let trainer = CdTrainer::new(1, 0.05);
    for _ in 0..60 {
        trainer.train_epoch_with(&mut rbm, &data, 10, &mut sub, &mut rng);
    }
    let after = exact::mean_log_likelihood(&rbm, &data);
    assert!(after > before + 1.0, "LL {before} -> {after}");
    assert_eq!(sub.counters().positive_samples, 60 * 40);
}

#[test]
fn cd_through_brim_substrate_trains_end_to_end() {
    // BRIM-in-the-loop CD-1: the machine's clamp/anneal/read cycle is the
    // only source of samples. Its conditionals run at an uncalibrated
    // effective temperature, yet the gradient signal must still pull the
    // model toward the data.
    let mut rng = StdRng::seed_from_u64(3);
    let mut rbm = Rbm::random(8, 4, 0.01, &mut rng);
    let data = two_mode_data(40, 8);
    let before = exact::mean_log_likelihood(&rbm, &data);
    let mut sub = BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.01, 80);
    let trainer = CdTrainer::new(1, 0.1);
    for _ in 0..90 {
        trainer.train_epoch_with(&mut rbm, &data, 10, &mut sub, &mut rng);
    }
    let after = exact::mean_log_likelihood(&rbm, &data);
    assert!(after > before + 0.5, "LL {before} -> {after}");
    assert!(rbm.weights().iter().all(|w| w.is_finite()));
    // The substrate did the sampling: 3 settles per sample at k=1.
    assert_eq!(sub.counters().phase_points, 90 * 40 * 3 * 80);
}

#[test]
fn cd_through_annealer_substrate_learns() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut rbm = Rbm::random(8, 4, 0.01, &mut rng);
    let data = two_mode_data(40, 8);
    let before = exact::mean_log_likelihood(&rbm, &data);
    let mut sub = AnnealerSubstrate::for_rbm(&rbm);
    let trainer = CdTrainer::new(1, 0.05);
    for _ in 0..60 {
        trainer.train_epoch_with(&mut rbm, &data, 10, &mut sub, &mut rng);
    }
    let after = exact::mean_log_likelihood(&rbm, &data);
    assert!(after > before + 0.5, "LL {before} -> {after}");
}

#[test]
fn pcd_through_substrate_runs_and_particles_evolve() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut rbm = Rbm::random(6, 3, 0.2, &mut rng);
    let data = two_mode_data(12, 6);
    let mut sub = SoftwareGibbs::new(6, 3, &GsConfig::default(), &mut rng);
    let mut trainer = PcdTrainer::new(1, 0.05, 8, &rbm, &mut rng);
    let before = trainer.particles().clone();
    let stats = trainer.train_epoch_with(&mut rbm, &data, 6, &mut sub, &mut rng);
    assert_eq!(stats.batches, 2);
    assert_ne!(&before, trainer.particles());
    assert!(trainer.particles().iter().all(|&x| x == 0.0 || x == 1.0));
    assert_eq!(sub.counters().negative_samples, 2 * 8);
}

#[test]
fn heterogeneous_substrates_drive_one_training_loop() {
    // The runtime-swap story: one trainer, one loop, three boxed
    // backends — each trains its own copy of the model through the
    // object-safe trait.
    let mut rng = StdRng::seed_from_u64(21);
    let rbm = Rbm::random(5, 3, 0.01, &mut rng);
    let data = two_mode_data(10, 5);
    let soft = SoftwareGibbs::new(5, 3, &GsConfig::default(), &mut rng);
    let mut backends: Vec<Box<dyn Substrate>> = vec![
        Box::new(soft),
        Box::new(BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.01, 40)),
        Box::new(AnnealerSubstrate::for_rbm(&rbm)),
    ];
    let trainer = CdTrainer::new(1, 0.05);
    for backend in &mut backends {
        let mut model = rbm.clone();
        let stats = trainer.train_epoch_with(&mut model, &data, 5, backend.as_mut(), &mut rng);
        assert_eq!(stats.batches, 2, "{}", backend.name());
        assert!(model.weights().iter().all(|w| w.is_finite()));
        assert!(backend.counters().phase_points > 0, "{}", backend.name());
    }
}
