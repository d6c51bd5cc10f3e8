//! The store front end: `StripeStore` over a counting in-memory image,
//! opened from a populated image that lost power in the middle of a put.
//! [`StoreFront`] is the loop of both runs: the end-to-end run times it
//! untraced, the traced run is the same loop with one span per call.

use crate::err;
use crate::gen::{Inputs, Kind, Workload};
use crate::host::{thread_cpu_ns, Window};
use crate::image::{crash_mid_put, refs, CountingImage, CrashedImage};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use dialga_store::{Geometry, MemImage, RecoveryReport, StripeStore};
use dialga_testkit::Rng;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

pub type Store = StripeStore<CountingImage<MemImage>>;

/// Seed of the crash set-up. It is fixed, so every run recovers from
/// the same crashes and its set-up does the same work whatever `--seed`
/// is; with this seed the slot-boundary crash is rolled back and the
/// commit-boundary crash rolled forward on `store_put_get`, so set-up
/// takes both recovery paths.
const CRASH_SEED: u64 = 0xC2A5 ^ 301;

/// The crash set-up: populate, then power-fail one put, once at its slot
/// persist and once at its commit persist, and keep the durable bytes of
/// each.
pub fn crashed_images(w: &Workload, inp: &Inputs) -> Result<Vec<CrashedImage>, String> {
    let geo = Geometry::new(w.k, w.m, w.block, w.store_stripes).map_err(err)?;
    let mut rng = Rng::new(CRASH_SEED);
    let stripe = rng.below(w.store_stripes as u64) as usize;
    let old = inp.initial[stripe];
    let new = (old + 1 + rng.below(w.payloads as u64 - 1) as usize) % w.payloads;
    let tear_seed = rng.u64();
    [false, true]
        .into_iter()
        .map(|at_commit| {
            crash_mid_put(
                geo,
                &inp.data,
                &inp.initial,
                stripe,
                new,
                at_commit,
                tear_seed,
            )
            .map_err(err)
        })
        .collect()
}

/// Open (recover + boot-scrub) a copy of the crashed image. Returns the
/// store, the CPU seconds `open` took, and each stripe's payload after
/// recovery, checked: the interrupted stripe reads back exactly old or
/// new, every other stripe exactly as recorded.
fn open(inp: &Inputs, crash: &CrashedImage) -> Result<(Store, f64, Vec<usize>), String> {
    let image = CountingImage::new(MemImage::from_bytes(crash.bytes.clone()));
    let c0 = thread_cpu_ns().map_err(err)?;
    let store = StripeStore::open(image).map_err(err)?;
    let cpu_s = thread_cpu_ns().map_err(err)?.saturating_sub(c0) as f64 / 1e9;
    let mut held = crash.record.clone();
    for (s, want) in held.iter_mut().enumerate() {
        let got = store
            .read_stripe(s)
            .map_err(|e| format!("stripe {s} after recovery: {e}"))?;
        if got == inp.data[*want] {
            continue;
        }
        if s == crash.stripe && got == inp.data[crash.new] {
            *want = crash.new;
            continue;
        }
        return Err(format!("stripe {s} after recovery is neither old nor new"));
    }
    Ok((store, cpu_s, held))
}

/// One store call as timed.
struct Call {
    op: usize,
    kind: Kind,
    ns: u64,
    start: Instant,
    /// What a get returned, when the round keeps it for checking.
    got: Option<Vec<Vec<u8>>>,
}

/// Run one round: puts write `payload` to `stripe`, every other op
/// reads `stripe`, keeping what it read where `keep` says (all when
/// `None`). A failed call is returned as `Err` with its message.
fn run_round(store: &mut Store, inp: &Inputs, keep: Option<&[bool]>) -> Vec<Result<Call, String>> {
    inp.ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let t0 = Instant::now();
            let (kind, got) = if op.kind.is_write() {
                store
                    .write_stripe(op.stripe, &refs(&inp.data[op.payload]))
                    .map_err(|e| format!("put of stripe {}: {e}", op.stripe))?;
                (Kind::Put, None)
            } else {
                let got = store
                    .read_stripe(op.stripe)
                    .map_err(|e| format!("get of stripe {}: {e}", op.stripe))?;
                (Kind::Get, keep.is_none_or(|k| k[i]).then_some(got))
            };
            Ok(Call {
                op: i,
                kind,
                ns: t0.elapsed().as_nanos() as u64,
                start: t0,
                got,
            })
        })
        .collect()
}

/// Check a round's kept gets against the benchmark's record of what each
/// stripe holds, advancing the record with the round's puts.
fn check_round(inp: &Inputs, held: &mut [usize], calls: &[Call]) -> Result<(), String> {
    for c in calls {
        let op = &inp.ops[c.op];
        match c.kind {
            Kind::Put => held[op.stripe] = op.payload,
            _ => {
                if c.got
                    .as_ref()
                    .is_some_and(|got| *got != inp.data[held[op.stripe]])
                {
                    return Err(format!("get of stripe {} returned wrong bytes", op.stripe));
                }
            }
        }
    }
    Ok(())
}

/// The store workload's loop and everything it measures.
pub struct StoreFront<'a> {
    w: &'a Workload,
    inp: &'a Inputs,
    st: Store,
    /// Payload each stripe holds, by the benchmark's record.
    held: Vec<usize>,
    win: Window,
    /// User MiB per process CPU-second of each round.
    rates: Vec<f64>,
    bytes: u64,
    put_bytes: u64,
    /// Persist counts of the image before the first round.
    counts0: (u64, u64),
    /// `(round op, ns)` of every put.
    put: Vec<(usize, f64)>,
    get: Vec<f64>,
}

impl<'a> StoreFront<'a> {
    /// Set up `reps` times and keep the last store opened. A set-up opens
    /// every crashed image, each from a fresh copy and each checked.
    /// Records the recovery figures of the last set-up, summed over its
    /// opens, and returns the front end with each set-up's CPU seconds
    /// (`open` runs on the calling thread alone).
    pub fn new(
        w: &'a Workload,
        inp: &'a Inputs,
        crashes: &[CrashedImage],
        reps: usize,
        rep: &mut Report,
    ) -> Result<(Self, Vec<f64>), String> {
        let mut setup = Vec::with_capacity(reps);
        let mut opened = Vec::new();
        for _ in 0..reps.max(1) {
            opened.clear();
            let mut cpu_s = 0.0;
            for crash in crashes {
                let (st, cpu, held) = open(inp, crash)?;
                cpu_s += cpu;
                opened.push((st, held));
            }
            setup.push(cpu_s);
        }
        let sum = |f: fn(&RecoveryReport) -> u64| -> f64 {
            opened
                .iter()
                .map(|(st, _)| f(st.recovery_report()))
                .sum::<u64>() as f64
        };
        rep.put("store.recovery_s", sum(|r| r.recovery_ns) / 1e9, "s");
        rep.put("store.rolled_back", sum(|r| r.rolled_back as u64), "count");
        rep.put(
            "store.rolled_forward",
            sum(|r| r.rolled_forward as u64),
            "count",
        );
        rep.put(
            "store.shards_repaired",
            sum(|r| r.shards_repaired as u64),
            "count",
        );
        let (st, held) = opened.pop().ok_or("no store")?;
        let counts0 = st.image().counts();
        let front = StoreFront {
            w,
            inp,
            st,
            held,
            win: Window::default(),
            rates: Vec::new(),
            bytes: 0,
            put_bytes: 0,
            counts0,
            put: Vec::new(),
            get: Vec::new(),
        };
        Ok((front, setup))
    }

    /// Wall seconds inside timed rounds so far.
    pub fn timed_wall_s(&self) -> f64 {
        self.win.wall_s()
    }

    /// Run one round timed, then check it. With a tracer every get is
    /// checked and every call gets a span; without, the gets the inputs
    /// mark as sampled.
    pub fn round(&mut self, rep: &mut Report, mut tr: Option<&mut Tracer>) -> Result<(), String> {
        let inp = self.inp;
        let keep = if tr.is_some() {
            None
        } else {
            Some(inp.sampled.as_slice())
        };
        self.win.start().map_err(err)?;
        let calls = run_round(&mut self.st, inp, keep);
        let cpu_s = self.win.stop().map_err(err)?;
        let before = self.bytes;
        let mut ok = Vec::with_capacity(calls.len());
        for c in calls {
            rep.attempted += 1;
            let c = match c {
                Err(e) => {
                    rep.fail(e);
                    continue;
                }
                Ok(c) => c,
            };
            if let Some(tr) = tr.as_deref_mut() {
                tr.span("store", c.op, c.kind, c.start, c.ns);
            }
            let bytes = self.w.user_bytes(c.kind);
            self.bytes += bytes;
            if c.kind == Kind::Put {
                self.put_bytes += bytes;
                self.put.push((c.op, c.ns as f64));
            } else {
                self.get.push(c.ns as f64);
            }
            ok.push(c);
        }
        check_round(inp, &mut self.held, &ok).unwrap_or_else(|e| rep.error(e));
        self.rates.push((self.bytes - before) as f64 / MIB / cpu_s);
        Ok(())
    }

    /// Record the loop's figures: the CPU rate as `mib_per_cpu_s`
    /// (untraced) or a note (traced), the rest under their per-layer
    /// names. `gf_encode` is each round op's median serial encode time,
    /// when the traced run measured it.
    pub fn finish(self, rep: &mut Report, traced: bool, gf_encode: Option<&[Option<f64>]>) {
        if traced {
            rep.note(format!(
                "traced store: mib_per_cpu_s {:.4}, median of {} rounds",
                median(&self.rates).unwrap_or(0.0),
                self.rates.len()
            ));
        } else {
            rep.put_rate(&self.rates);
        }
        let put: Vec<f64> = self.put.iter().map(|&(_, ns)| ns).collect();
        rep.put_p50_us("store.put_p50_us", &put);
        rep.put_p50_us("store.get_p50_us", &self.get);
        rep.put_tail_us("store.get_tail_us", &self.get);
        if let Some(enc) = gf_encode {
            let minus: Vec<f64> = self
                .put
                .iter()
                .filter_map(|&(op, ns)| enc[op].map(|e| ns - e))
                .collect();
            rep.put_p50_us("store.put_minus_encode_us", &minus);
        }
        let (p1, b1) = self.st.image().counts();
        let (p0, b0) = self.counts0;
        rep.put(
            "store.persists_per_put",
            (p1 - p0) as f64 / self.put.len().max(1) as f64,
            "count",
        );
        rep.put(
            "store.persisted_bytes_per_user_byte",
            (b1 - b0) as f64 / self.put_bytes.max(1) as f64,
            "B/B",
        );
    }
}
