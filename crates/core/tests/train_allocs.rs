//! Weight-sized allocations on the training path.
//!
//! A training request's host side is the gradient step and the
//! re-programming of the substrate before every minibatch (paper §3.2).
//! Neither needs a fresh weight-sized array: a fresh 1.25 MB array at
//! 784×200 page-faults on first touch, and those faults once made up a
//! large share of a training request. A counting global allocator (std
//! only) counts the allocations of at least one weight matrix,
//! `m·n·8` bytes, that the test thread makes inside a measured call;
//! other threads (the test harness, the rayon pool) are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ember_analog::NoiseModel;
use ember_core::substrate::SoftwareGibbs;
use ember_core::GsConfig;
use ember_rbm::{CdTrainer, PcdTrainer, Rbm};
use ember_substrate::Substrate;
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Visible width of the benchmark's 784×200 model.
const M: usize = 784;
/// Hidden width.
const N: usize = 200;
/// Bytes of one weight matrix.
const WEIGHT_BYTES: usize = M * N * 8;

thread_local! {
    /// Size from which an allocation on this thread counts; 0 counts none.
    static FLOOR: Cell<usize> = const { Cell::new(0) };
    /// Allocations counted on this thread.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Counts this thread's allocations of at least [`FLOOR`] bytes, then
/// defers to the system allocator.
struct Counting;

fn count(size: usize) {
    // `try_with`: the allocator also serves threads that are tearing
    // down their thread-locals.
    let _ = FLOOR.try_with(|floor| {
        if floor.get() != 0 && size >= floor.get() {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many weight-sized allocations this thread
/// made inside it.
fn weight_sized_allocs(f: impl FnOnce()) -> usize {
    COUNT.with(|count| count.set(0));
    FLOOR.with(|floor| floor.set(WEIGHT_BYTES));
    f();
    FLOOR.with(|floor| floor.set(0));
    COUNT.with(Cell::get)
}

fn configs() -> [GsConfig; 2] {
    let noisy = GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).expect("valid noise"));
    [GsConfig::default(), noisy]
}

/// The benchmark's training set: 64 rows of 0/1 data, trained in four
/// minibatches of 16.
fn training_data(rng: &mut StdRng) -> Array2<f64> {
    Array2::from_shape_fn((64, M), |_| f64::from(rng.random_bool(0.15)))
}

#[test]
fn a_cd1_epoch_allocates_no_weight_sized_array() {
    // Momentum 0, as a training request runs it: no velocity.
    for config in configs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rbm = Rbm::random(M, N, 0.01, &mut rng);
        let mut sub = SoftwareGibbs::new(M, N, &config, &mut rng);
        let data = training_data(&mut rng);
        let trainer = CdTrainer::new(1, 0.05);
        let allocs = weight_sized_allocs(|| {
            trainer.train_epoch_with(&mut rbm, &data, 16, &mut sub, &mut rng);
        });
        assert_eq!(allocs, 0, "weight-sized allocations in one epoch");
    }
}

#[test]
fn a_momentum_run_allocates_one_velocity() {
    // One velocity for the whole run, at rest again for each epoch.
    for config in configs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rbm = Rbm::random(M, N, 0.01, &mut rng);
        let mut sub = SoftwareGibbs::new(M, N, &config, &mut rng);
        let data = training_data(&mut rng);
        let trainer = CdTrainer::new(1, 0.05).with_momentum(0.5);
        let allocs = weight_sized_allocs(|| {
            trainer.train_with(&mut rbm, &data, 16, &mut sub, 2, &mut rng);
        });
        assert_eq!(allocs, 1, "weight-sized allocations in a two-epoch run");
    }
}

#[test]
fn a_pcd_epoch_allocates_no_weight_sized_array() {
    for config in configs() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut rbm = Rbm::random(M, N, 0.01, &mut rng);
        let mut sub = SoftwareGibbs::new(M, N, &config, &mut rng);
        let data = training_data(&mut rng);
        let mut trainer = PcdTrainer::new(1, 0.05, 16, &rbm, &mut rng);
        let allocs = weight_sized_allocs(|| {
            trainer.train_epoch_with(&mut rbm, &data, 16, &mut sub, &mut rng);
        });
        assert_eq!(allocs, 0, "weight-sized allocations in one epoch");
    }
}

fn program(sub: &mut SoftwareGibbs, rbm: &Rbm) {
    sub.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
}

#[test]
fn programming_changed_weights_allocates_no_weight_sized_array() {
    for config in configs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sub = SoftwareGibbs::new(M, N, &config, &mut rng);
        let before = Rbm::random(M, N, 0.1, &mut rng);
        let after = Rbm::random(M, N, 0.1, &mut rng);
        program(&mut sub, &before);
        let allocs = weight_sized_allocs(|| program(&mut sub, &after));
        assert_eq!(allocs, 0, "weight-sized allocations in one program");
    }
}

#[test]
fn a_noisy_gray_half_step_allocates_no_weight_sized_array() {
    // Gray (multi-bit) levels take the dense product, whose coupler
    // noise variance needs the squared weights that `program` caches.
    let [_, noisy] = configs();
    let mut rng = StdRng::seed_from_u64(3);
    let mut sub = SoftwareGibbs::new(M, N, &noisy, &mut rng);
    program(&mut sub, &Rbm::random(M, N, 0.1, &mut rng));
    let visible = Array2::from_shape_fn((16, M), |_| rng.random::<f64>());
    let hidden = Array2::from_shape_fn((16, N), |_| rng.random::<f64>());
    let allocs = weight_sized_allocs(|| {
        sub.sample_hidden_batch(&visible, &mut rng);
    });
    assert_eq!(allocs, 0, "weight-sized allocations in a hidden half-step");
    let allocs = weight_sized_allocs(|| {
        sub.sample_visible_batch(&hidden, &mut rng);
    });
    assert_eq!(allocs, 0, "weight-sized allocations in a visible half-step");
}

#[test]
fn replicas_share_the_coupling_image_until_programmed_with_other_weights() {
    // A shard replica is a clone of the programmed prototype. It holds
    // the prototype's image until it is programmed with other weights,
    // copies the image then (2 arrays, 4 with the squared ones of a
    // noisy front end), and rewrites its own copy in place after that.
    for (config, image_arrays) in configs().into_iter().zip([2, 4]) {
        let mut rng = StdRng::seed_from_u64(4);
        let mut proto = SoftwareGibbs::new(M, N, &config, &mut rng);
        let (before, after) = (
            Rbm::random(M, N, 0.1, &mut rng),
            Rbm::random(M, N, 0.1, &mut rng),
        );
        program(&mut proto, &before);
        let held = proto.programmed_weights().clone();

        let mut replica = None;
        let allocs = weight_sized_allocs(|| replica = Some(proto.clone()));
        assert_eq!(allocs, 0, "weight-sized allocations in a clone");
        let mut replica = replica.expect("cloned");
        let allocs = weight_sized_allocs(|| program(&mut replica, &before));
        assert_eq!(allocs, 0, "re-programming the prototype's weights");
        let allocs = weight_sized_allocs(|| program(&mut replica, &after));
        assert_eq!(allocs, image_arrays, "the first program with other weights");
        let allocs = weight_sized_allocs(|| program(&mut replica, &before));
        assert_eq!(allocs, 0, "re-programming a replica that owns its image");

        let bits = |a: &Array2<f64>| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(proto.programmed_weights()), bits(&held));
        assert_eq!(bits(replica.programmed_weights()), bits(&held));
    }
}
