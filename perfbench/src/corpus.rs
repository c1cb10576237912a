//! Seeded workload inputs: apps, packers, fuzz seeds and request order.
//!
//! Everything here is a pure function of the workload seed. The fleet
//! only ever sees the generated DEX bytes and request fields.

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_packer::PackerId;
use dexlego_service::ExtractRequest;

/// Smallest and largest app size, in bytecode instructions: the low end
/// of the paper's Table VI range (8.8k-94k), scaled to a 2-core box.
pub const MIN_INSNS: f64 = 2_000.0;
pub const MAX_INSNS: f64 = 32_000.0;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_da7a_0b5e_55ed)
    }

    /// An independent stream for one purpose, so adding a draw to one
    /// part of the input never shifts another part.
    pub fn fork(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Plain app plus the six packer profiles, drawn uniformly.
fn packer_choices() -> Vec<Option<PackerId>> {
    let mut all = vec![None];
    all.extend(PackerId::all().into_iter().map(Some));
    all
}

/// The wire name of a packer (the `advanced` shorthand for the long one).
fn packer_wire_name(packer: Option<PackerId>) -> Option<String> {
    packer.map(|id| match id {
        PackerId::Advanced => "advanced".to_owned(),
        other => other.profile().name.to_owned(),
    })
}

/// One generated app together with the packer it is submitted under.
pub struct App {
    pub label: String,
    pub dex_bytes: Vec<u8>,
    pub entry: String,
    pub insns: usize,
    pub packer: Option<PackerId>,
}

/// Where an app sits in the size and packer distributions.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    pub insns: usize,
    pub packer: Option<PackerId>,
}

/// `n` draws, stratified: app sizes are log-uniform between
/// [`MIN_INSNS`] and [`MAX_INSNS`] with one draw per equal-probability
/// stratum, and packers cycle through all seven choices. Stratifying
/// keeps the corpus mean nearly the same across seeds while the seed
/// still picks every exact size, the size/packer pairing and the order.
pub fn stratified_draws(rng: &mut Rng, n: usize) -> Vec<Draw> {
    let choices = packer_choices();
    let offset = rng.below(choices.len());
    let mut packers: Vec<Option<PackerId>> = (0..n)
        .map(|i| choices[(i + offset) % choices.len()])
        .collect();
    rng.shuffle(&mut packers);
    let span = (MAX_INSNS / MIN_INSNS).ln();
    let mut draws: Vec<Draw> = (0..n)
        .map(|i| {
            let q = (i as f64 + rng.unit()) / n as f64;
            Draw {
                insns: (MIN_INSNS * (span * q).exp()).round() as usize,
                packer: packers[i],
            }
        })
        .collect();
    rng.shuffle(&mut draws);
    draws
}

/// `n` draws in consecutive blocks of `block`, each stratified on its
/// own, so any prefix of the order covers the size and packer
/// distributions nearly evenly: a closed loop that gets through only part
/// of its prepared requests still sees the same mix for every seed.
pub fn blocked_draws(rng: &mut Rng, n: usize, block: usize) -> Vec<Draw> {
    let mut draws = Vec::with_capacity(n);
    while draws.len() < n {
        draws.extend(stratified_draws(rng, block.min(n - draws.len())));
    }
    draws
}

/// Generates the apps for `draws`, on at most two threads. Each app's
/// package name carries the seed and its label, so a new seed gives new
/// DEX bytes and new store keys.
pub fn generate_apps(seed: u64, prefix: &str, draws: &[Draw]) -> Vec<App> {
    let make = |i: usize, draw: &Draw| -> App {
        let label = format!("{prefix}{i:04}");
        let package = format!("bench/s{seed:x}/{label}");
        let app = generate(&AppSpec::plain_profile(&package, draw.insns));
        let dex_bytes = write_dex(&app.dex).expect("generated apps serialise");
        App {
            label,
            dex_bytes,
            entry: app.entry,
            insns: app.insn_count,
            packer: draw.packer,
        }
    };
    let half = draws.len() / 2;
    let (front, back) = draws.split_at(half);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            back.iter()
                .enumerate()
                .map(|(i, d)| make(half + i, d))
                .collect::<Vec<App>>()
        });
        let mut apps: Vec<App> = front.iter().enumerate().map(|(i, d)| make(i, d)).collect();
        apps.extend(worker.join().expect("app generation thread"));
        apps
    })
}

/// Whether a request can be answered from the store (a resubmit) or
/// must run the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identical to a request set-up already stored.
    Resubmit,
    /// Same app and packer as a stored request, new fuzz seed: a store
    /// miss whose revealed DEX the verify cache has seen.
    Redrive,
    /// An app the fleet has never seen.
    New,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Resubmit => "resubmit",
            Kind::Redrive => "redrive",
            Kind::New => "new",
        }
    }
}

/// One request, encoded during set-up.
pub struct Req {
    /// Index into the run's app list.
    pub app: usize,
    pub kind: Kind,
    pub request: ExtractRequest,
    /// The wire line without an id; the load loop splices the id in.
    pub body: String,
}

impl Req {
    pub fn new(apps: &[App], app: usize, kind: Kind, fuzz_seed: u64) -> Req {
        let a = &apps[app];
        let mut request = ExtractRequest::new(a.dex_bytes.clone(), &a.entry);
        request.name = Some(a.label.clone());
        request.packer = packer_wire_name(a.packer);
        request.seeds = vec![fuzz_seed];
        let body = request.encode();
        Req {
            app,
            kind,
            request,
            body,
        }
    }

    /// The wire line tagged with `id` — what `encode_with_id` produces,
    /// without re-encoding the payload.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\": {id}, {}", &self.body[1..])
    }
}

/// Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Draws for `n` popularity ranks. Rank `r` takes the size stratum
/// picked by a golden-ratio sequence, so popular ranks spread over the
/// whole size range, and packer `r mod 7`; the seed picks each exact size
/// within its stratum. The traffic-weighted size and packer mix then does
/// not hinge on which app a seed happened to make most popular.
pub fn ranked_draws(rng: &mut Rng, n: usize) -> Vec<Draw> {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let choices = packer_choices();
    let span = (MAX_INSNS / MIN_INSNS).ln();
    let mut positions: Vec<(f64, usize)> = (0..n)
        .map(|r| (((r as f64 + 1.0) * PHI).fract(), r))
        .collect();
    positions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut by_rank = vec![
        Draw {
            insns: 0,
            packer: None
        };
        n
    ];
    // The rank with the k-th smallest position takes stratum k.
    for (k, &(_, rank)) in positions.iter().enumerate() {
        let q = (k as f64 + rng.unit()) / n as f64;
        by_rank[rank] = Draw {
            insns: (MIN_INSNS * (span * q).exp()).round() as usize,
            packer: choices[rank % choices.len()],
        };
    }
    by_rank
}
