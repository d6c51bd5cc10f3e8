//! Workload definitions and the seeded inputs they run on.
//!
//! Everything a run feeds the program — stripe contents, the op round,
//! tenants, loss patterns — is drawn here from `--seed`, so equal seeds
//! give equal inputs. A run repeats the same round of ops until its time
//! is up, so every run attempts whole rounds.

use crate::oracle::Oracle;
use dialga::Dialga;
use dialga_testkit::Rng;
use dialga_workload::{Arrival, WorkloadSpec, Zipf};

/// What an op asks of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Service encode of one stripe.
    Encode,
    /// Service single-shard repair (a degraded read).
    Repair,
    /// Service decode of a stripe with one to `m` lost shards.
    Decode,
    /// Service integrity scrub of a clean stripe.
    Scrub,
    /// Store `write_stripe`.
    Put,
    /// Store `read_stripe`.
    Get,
}

impl Kind {
    /// Writes produce parity: encodes and puts.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Encode | Kind::Put)
    }

    /// Degraded reads: repairs, decodes and (below the store) gets.
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Repair | Kind::Decode | Kind::Get)
    }
}

/// Which front end a workload's end-to-end run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    Service,
    Store,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub front_end: FrontEnd,
    pub k: usize,
    pub m: usize,
    /// Block (shard) bytes.
    pub block: usize,
    /// Distinct stripe payloads the ops draw from.
    pub payloads: usize,
    /// Stripes the ops address, Zipf-skewed (on the service every stripe
    /// holds its own payload; on the store puts overwrite them).
    pub store_stripes: usize,
    /// Ops per round.
    pub round: usize,
    /// Closed-loop window: ops in flight at once.
    pub window: usize,
    /// Op mix as `(kind, weight)`.
    pub mix: Vec<(Kind, u32)>,
    /// Tenants (Zipf-skewed).
    pub tenants: usize,
    /// Zipf skew for tenants and stripes.
    pub theta: f64,
    /// One op in this many has its output checked in a timed round.
    pub sample_every: u64,
}

/// The workloads. Hot data of both stays inside one core's 2 MiB L2:
/// data that spills to the shared LLC measures the neighbours as much as
/// the program.
///
/// `svc_mixed_4k` is the `hot_burst` phase of the repository's
/// `skewed_bursty` profile (`dialga_workload::WorkloadSpec`) without its
/// bursts: its geometry, block size, mix, Zipf skew, closed-loop window,
/// tenants and working set, against one shard with one pool worker.
/// `store_put_get` is YCSB's workload A (half reads, half updates, Zipf
/// 0.99 over the keys) on the store, with as many stripes as keep the
/// image inside the L2.
pub fn workloads() -> Vec<Workload> {
    let spec = WorkloadSpec::skewed_bursty(0);
    let hot = &spec.phases[0];
    let window = match hot.arrival {
        Arrival::Closed { in_flight } => in_flight,
        Arrival::Open { .. } => 1,
    };
    let mix = vec![
        (Kind::Encode, hot.mix.encode),
        (Kind::Decode, hot.mix.decode),
        (Kind::Repair, hot.mix.repair),
        (Kind::Scrub, hot.mix.scrub),
    ];
    let mix_total: u32 = mix.iter().map(|&(_, wt)| wt).sum();
    vec![
        Workload {
            name: "svc_mixed_4k",
            front_end: FrontEnd::Service,
            k: spec.k,
            m: spec.m,
            block: hot.block_bytes,
            payloads: spec.working_set,
            store_stripes: spec.working_set,
            round: 18 * mix_total as usize,
            window,
            mix,
            tenants: spec.tenants as usize,
            theta: hot.zipf_theta,
            sample_every: 8,
        },
        Workload {
            name: "store_put_get",
            front_end: FrontEnd::Store,
            k: 6,
            m: 3,
            block: 4096,
            payloads: 8,
            store_stripes: 16,
            round: 256,
            window: 1,
            mix: vec![(Kind::Put, 1), (Kind::Get, 1)],
            tenants: 1,
            theta: 0.99,
            sample_every: 8,
        },
    ]
}

impl Workload {
    /// A tiny variant for the smoke mode: same shape, every check on.
    pub fn smoke(&self) -> Workload {
        let mut w = self.clone();
        w.payloads = w.payloads.min(4);
        w.store_stripes = w.store_stripes.min(6);
        w.round = w.round.min(2 * w.mix_total());
        w.sample_every = 1;
        w
    }

    /// Sum of the mix weights; a round holds each kind in exact
    /// proportion, so its size is a multiple of this.
    pub fn mix_total(&self) -> usize {
        self.mix.iter().map(|&(_, wt)| wt as usize).sum()
    }

    /// User bytes one op completes: a repair delivers one block, every
    /// other op a stripe's data.
    pub fn user_bytes(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Repair => self.block as u64,
            _ => (self.k * self.block) as u64,
        }
    }
}

/// One generated op.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub tenant: u32,
    /// Payload the op writes or (below the store) reads.
    pub payload: usize,
    /// Store stripe (store ops; elsewhere equal to `payload`).
    pub stripe: usize,
    /// Lost shards: the repair target, the decode losses, or the shard a
    /// get is repaired from on the rungs below the store.
    pub lost: Vec<usize>,
}

/// Everything generated for one run.
pub struct Inputs {
    /// Each payload's `k` data blocks.
    pub data: Vec<Vec<Vec<u8>>>,
    /// Each payload's `m` parity blocks, from the independent oracle.
    pub parity: Vec<Vec<Vec<u8>>>,
    /// One round of ops.
    pub ops: Vec<Op>,
    /// Ops whose outputs a timed round keeps for checking (one in
    /// `sample_every`). Keeping every output of a round would hold
    /// megabytes live, spill the L2 and make the allocator fault fresh
    /// pages in each round; set-up rounds and the traced run check all.
    pub sampled: Vec<bool>,
    /// Payload held by each store stripe before the first op.
    pub initial: Vec<usize>,
}

impl Inputs {
    /// Shard `i` of payload `p` (data first, then parity).
    pub fn shard(&self, p: usize, i: usize) -> &[u8] {
        let k = self.data[p].len();
        if i < k {
            &self.data[p][i]
        } else {
            &self.parity[p][i - k]
        }
    }

    /// All `k + m` shards of payload `p`, owned.
    pub fn stripe(&self, p: usize) -> Vec<Vec<u8>> {
        self.data[p]
            .iter()
            .chain(&self.parity[p])
            .cloned()
            .collect()
    }

    /// Payload `p` with the shards in `lost` missing.
    pub fn holed(&self, p: usize, lost: &[usize]) -> Vec<Option<Vec<u8>>> {
        let n = self.data[p].len() + self.parity[p].len();
        (0..n)
            .map(|i| (!lost.contains(&i)).then(|| self.shard(p, i).to_vec()))
            .collect()
    }
}

/// The `k` survivors a repair of `target` reads: the first `k` others.
pub fn survivors(k: usize, m: usize, target: usize) -> Vec<usize> {
    (0..k + m).filter(|&i| i != target).take(k).collect()
}

/// Draw the inputs of `w` from `seed`.
pub fn generate(w: &Workload, seed: u64, coder: &Dialga) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xD1A1_6A00_0000_0000);
    let data: Vec<Vec<Vec<u8>>> = (0..w.payloads)
        .map(|_| (0..w.k).map(|_| rng.bytes(w.block)).collect())
        .collect();
    let oracle = Oracle::new(coder);
    let parity = data.iter().map(|d| oracle.encode(d)).collect();

    let tenants = Zipf::new(w.tenants, w.theta);
    let stripes = Zipf::new(w.store_stripes, w.theta);
    // Exact proportions, shuffled: the seed picks the order, not the mix,
    // so every seed asks for the same amount of each kind of work.
    assert_eq!(w.round % w.mix_total(), 0, "round must hold whole mixes");
    let mut kinds: Vec<Kind> = w
        .mix
        .iter()
        .flat_map(|&(kind, wt)| std::iter::repeat_n(kind, wt as usize * w.round / w.mix_total()))
        .collect();
    rng.shuffle(&mut kinds);
    let n = w.k + w.m;
    let initial: Vec<usize> = (0..w.store_stripes).map(|s| s % w.payloads).collect();
    let mut held = initial.clone();
    let ops = kinds
        .into_iter()
        .map(|kind| {
            let tenant = tenants.sample(&mut rng) as u32;
            let (stripe, payload) = match kind {
                Kind::Put => {
                    let s = stripes.sample(&mut rng);
                    held[s] = rng.below(w.payloads as u64) as usize;
                    (s, held[s])
                }
                Kind::Get => {
                    let s = stripes.sample(&mut rng);
                    (s, held[s])
                }
                _ => {
                    let s = stripes.sample(&mut rng);
                    (s, s % w.payloads)
                }
            };
            // Losses as the profile replayer punches them: one repair
            // target, or one to `m` distinct decode losses.
            let lost = match kind {
                Kind::Repair | Kind::Get => vec![rng.below(n as u64) as usize],
                Kind::Decode => {
                    let mut lost = Vec::new();
                    let holes = 1 + rng.below(w.m as u64) as usize;
                    while lost.len() < holes {
                        let at = rng.below(n as u64) as usize;
                        if !lost.contains(&at) {
                            lost.push(at);
                        }
                    }
                    lost.sort_unstable();
                    lost
                }
                _ => Vec::new(),
            };
            Op {
                kind,
                tenant,
                payload,
                stripe,
                lost,
            }
        })
        .collect();
    let sampled = (0..w.round)
        .map(|_| rng.below(w.sample_every) == 0)
        .collect();
    Inputs {
        data,
        parity,
        ops,
        sampled,
        initial,
    }
}
