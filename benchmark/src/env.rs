//! Set-up of the program under test: fabricate the model and its
//! substrate prototype, register it, and start the service (behind the
//! HTTP edge on `lone-http-784x200`).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ember_core::{GsConfig, SoftwareGibbs, Substrate, SubstrateSpec};
use ember_http::{Client, Server};
use ember_rbm::Rbm;
use ember_serve::{ModelRegistry, SamplingService, ServiceBuilder, ServiceStats};
use ember_substrate::ReplicableSubstrate;

use crate::gen::{Workload, WAVE};

/// The registered model's name.
pub const MODEL: &str = "m";

/// The closed loops' training target: a second registration of the same
/// parameters, so that their training probes publish versions of it and
/// the served model stays the same for the whole run.
pub const TRAINED: &str = "t";

/// How long the wave's group waits for the rest of its wave. A wave's 64
/// submits take well under a millisecond, so the group fills and
/// dispatches first; without a window the shard takes whatever part of
/// the wave is queued when it wakes, and the number of groups per wave
/// (and with it the wave's cost) is up to the scheduler.
pub const WAVE_WINDOW: Duration = Duration::from_millis(20);

/// Connection workers of the HTTP edge (the box has two cores).
pub const HTTP_WORKERS: usize = 2;

/// The service configuration of `workload`.
pub fn service_builder(workload: Workload) -> ServiceBuilder {
    match workload {
        Workload::LoneHttp => SamplingService::builder(),
        Workload::Wave => SamplingService::builder()
            .shards(1)
            .max_coalesce_rows(WAVE)
            .coalesce_window(WAVE_WINDOW),
        Workload::Mixed => SamplingService::builder()
            .shards(2)
            .coalesce_window(Duration::from_millis(2)),
    }
}

/// The seeded model and the software-backend prototype fabricated for
/// it.
pub fn fabricate(workload: Workload, seed: u64) -> (Rbm, Box<dyn ReplicableSubstrate>) {
    let mut rng = model_rng(seed);
    let (m, n) = workload.shape();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    (rbm, proto)
}

/// The same fabrication as [`fabricate`], as the concrete backend type,
/// so the kernel probe can read its realized weights.
pub fn fabricate_software(workload: Workload, seed: u64) -> (Rbm, SoftwareGibbs) {
    let mut rng = model_rng(seed);
    let (m, n) = workload.shape();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let mut sub = SoftwareGibbs::new(m, n, &GsConfig::default(), &mut rng);
    sub.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
    (rbm, sub)
}

fn model_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x0DE1_0000_0000_0003)
}

/// Where requests go.
pub enum Target {
    /// The HTTP edge and a client for it.
    Http {
        /// The running edge (owns the service).
        server: Server,
        /// A client without retries.
        client: Client,
    },
    /// The service, called in-process.
    InProc(SamplingService),
}

/// A running program under test.
pub struct Env {
    /// The workload it serves.
    pub workload: Workload,
    /// A clone of the registered prototype, for recomputing responses.
    pub proto: Box<dyn ReplicableSubstrate>,
    /// The service's registry.
    pub registry: ModelRegistry,
    /// The entry point.
    pub target: Target,
}

impl Env {
    /// Fabricates, registers and starts the program for `workload`.
    pub fn setup(workload: Workload, seed: u64) -> Env {
        let http = (workload == Workload::LoneHttp).then_some(HTTP_WORKERS);
        Env::setup_with(workload, seed, service_builder(workload), http)
    }

    /// [`Env::setup`] with another service configuration, behind an HTTP
    /// edge with `http_workers` connection workers, or in-process.
    pub fn setup_with(
        workload: Workload,
        seed: u64,
        builder: ServiceBuilder,
        http_workers: Option<usize>,
    ) -> Env {
        let (rbm, proto) = fabricate(workload, seed);
        let registry = ModelRegistry::new();
        let service = builder.registry(registry.clone()).build();
        if workload != Workload::Mixed {
            service
                .register_model(TRAINED, rbm.clone(), proto.clone_boxed())
                .expect("register the training target");
        }
        service
            .register_model(MODEL, rbm, proto.clone_boxed())
            .expect("register the benchmark model");
        let target = match http_workers {
            Some(workers) => {
                let server = Server::start_with_workers("127.0.0.1:0", service, workers)
                    .expect("bind a loopback port");
                let client = Client::new(server.addr());
                Target::Http { server, client }
            }
            None => Target::InProc(service),
        };
        Env {
            workload,
            proto,
            registry,
            target,
        }
    }

    /// The in-process service.
    ///
    /// # Panics
    ///
    /// Panics on the HTTP workload.
    pub fn service(&self) -> &SamplingService {
        match &self.target {
            Target::InProc(service) => service,
            Target::Http { .. } => panic!("the HTTP workload has no in-process service"),
        }
    }

    /// The service's accounting (over `GET /v1/stats` behind the edge).
    pub fn stats(&self) -> ServiceStats {
        match &self.target {
            Target::Http { client, .. } => client.stats().expect("GET /v1/stats"),
            Target::InProc(service) => service.stats(),
        }
    }

    /// Drains and stops every thread the program started.
    pub fn shutdown(self) {
        let deadline = Duration::from_secs(30);
        match self.target {
            Target::Http { server, .. } => {
                server.shutdown(deadline);
            }
            Target::InProc(service) => {
                service.shutdown(deadline);
            }
        }
    }
}
