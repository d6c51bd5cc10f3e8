//! The traced run: a workload's op round replayed through each layer's
//! public entry point in turn, one rung per layer.
//!
//! | rung    | entry point                                   |
//! |---------|-----------------------------------------------|
//! | gf      | serial `Dialga::encode`, `RepairPlan::apply`  |
//! | ec      | `Dialga::repair_plan`, `Dialga::decode_plan`  |
//! | core    | `EncodePool::encode`, `EncodePool::repair`    |
//! | service | `StripeService::submit_*` + `Ticket::wait`    |
//! | store   | `StripeStore::write_stripe` / `read_stripe`   |
//! | memsim  | DIALGA and ISA-L sources on the PM model      |
//!
//! Each round goes through every rung in turn, so every rung sees the
//! same number of rounds. Each call gets one span ([`Tracer`]); the spans
//! are written to `.perfbench/spans-<workload>.tsv` when the run ends.
//! The service and store rungs are the end-to-end loops themselves
//! ([`ServiceFront`], [`StoreFront`]) with the tracer on.
//! A layer's self time is the difference between adjacent rungs (for an
//! encode: `core.pool_encode_us - gf.encode_us` is the pool's own cost).
//! Writes reach the gf and core rungs as encodes and degraded reads as
//! single-shard repairs; decodes and scrubs reach them only through ec
//! planning and the service.

use crate::err;
use crate::gen::{generate, survivors, Inputs, Kind, Workload};
use crate::image::refs;
use crate::report::Report;
use crate::stats::median;
use crate::store::StoreFront;
use crate::svc::ServiceFront;
use crate::trace::Tracer;
use crate::{sim, store, svc};
use dialga::{Coordinator, Dialga, EncodePool, RepairPlan};
use dialga_memsim::MachineConfig;
use std::time::Instant;

pub fn run(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) -> Result<(), String> {
    let coder = Dialga::new(w.k, w.m).map_err(err)?;
    let inp = generate(w, seed, &coder);
    let mut tr = Tracer::new();
    let mut gf = GfRung::new(w, &inp, &coder)?;
    let mut ec = EcRung::default();
    let mut core = CoreRung::new(w);
    let (mut service, _) = ServiceFront::new(w, &inp, &coder, 1, rep)?;
    let crashes = store::crashed_images(w, &inp)?;
    let (mut st, _) = StoreFront::new(w, &inp, &crashes, 1, rep)?;
    let start = Instant::now();
    loop {
        gf.round(&inp, &coder, &mut tr, rep);
        ec.round(w, &inp, &coder, &mut tr, rep);
        core.round(&inp, &coder, &mut tr, rep);
        service.round(rep, Some(&mut tr))?;
        st.round(rep, Some(&mut tr))?;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let gf_encode = gf.finish(rep);
    ec.finish(rep);
    core.finish(rep);
    service.finish(&coder, seed, rep, true);
    st.finish(rep, true, Some(&gf_encode));
    memsim_rung(rep)?;
    // One file per workload, replaced by each traced run.
    let path = format!(".perfbench/spans-{}.tsv", w.name);
    match tr.write(&path) {
        Ok(()) => rep.note(format!("{} spans written to {path}", tr.len())),
        Err(e) => rep.note(format!("spans not written to {path}: {e}")),
    }
    Ok(())
}

/// Serial kernels: every write encoded, every single-shard read repaired
/// from the first `k` survivors.
struct GfRung {
    block: usize,
    m: usize,
    plans: Vec<RepairPlan>,
    distance: u32,
    enc: Vec<f64>,
    repair: Vec<f64>,
    /// Encode samples of each round op, for the store's put-minus-encode.
    per_op: Vec<Vec<f64>>,
}

impl GfRung {
    fn new(w: &Workload, inp: &Inputs, coder: &Dialga) -> Result<GfRung, String> {
        let plans = (0..w.k + w.m)
            .map(|t| coder.repair_plan(&survivors(w.k, w.m, t), t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok(GfRung {
            block: w.block,
            m: w.m,
            plans,
            distance: coder.prefetch_distance(),
            enc: Vec::new(),
            repair: Vec::new(),
            per_op: vec![Vec::new(); inp.ops.len()],
        })
    }

    fn round(&mut self, inp: &Inputs, coder: &Dialga, tr: &mut Tracer, rep: &mut Report) {
        for (i, op) in inp.ops.iter().enumerate() {
            let p = op.payload;
            if op.kind.is_write() {
                let mut parity = vec![vec![0u8; self.block]; self.m];
                let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                rep.attempted += 1;
                let (r, ns) = tr.time("gf", i, op.kind, || {
                    coder.encode(&refs(&inp.data[p]), &mut outs)
                });
                match r {
                    Err(e) => rep.fail(format!("gf encode: {e}")),
                    Ok(()) if parity != inp.parity[p] => {
                        rep.error("gf encode: wrong parity".into())
                    }
                    Ok(()) => {
                        self.enc.push(ns);
                        self.per_op[i].push(ns);
                    }
                }
            } else if matches!(op.kind, Kind::Repair | Kind::Get) {
                let t = op.lost[0];
                let plan = &self.plans[t];
                let srcs: Vec<&[u8]> = plan.survivors().iter().map(|&s| inp.shard(p, s)).collect();
                let mut out = vec![0u8; self.block];
                rep.attempted += 1;
                let (r, ns) = tr.time("gf", i, op.kind, || {
                    plan.apply(&srcs, &mut out, self.distance, false)
                });
                match r {
                    Err(e) => rep.fail(format!("gf repair: {e}")),
                    Ok(()) if out != inp.shard(p, t) => rep.error("gf repair: wrong bytes".into()),
                    Ok(()) => self.repair.push(ns),
                }
            }
        }
    }

    /// Record the rung's figures; returns each round op's median encode
    /// time.
    fn finish(self, rep: &mut Report) -> Vec<Option<f64>> {
        rep.put_p50_us("gf.encode_us", &self.enc);
        rep.put_p50_us("gf.repair_us", &self.repair);
        self.per_op.iter().map(|v| median(v)).collect()
    }
}

/// Decode planning for every degraded read: the single-shard repair plan
/// of its first loss, and the full decode plan of its loss pattern.
#[derive(Default)]
struct EcRung {
    repair_plan: Vec<f64>,
    decode_plan: Vec<f64>,
}

impl EcRung {
    fn round(
        &mut self,
        w: &Workload,
        inp: &Inputs,
        coder: &Dialga,
        tr: &mut Tracer,
        rep: &mut Report,
    ) {
        for (i, op) in inp.ops.iter().enumerate() {
            if !op.kind.is_read() {
                continue;
            }
            let surv = survivors(w.k, w.m, op.lost[0]);
            rep.attempted += 1;
            let (plan, ns) = tr.time("ec", i, op.kind, || coder.repair_plan(&surv, op.lost[0]));
            self.repair_plan.push(ns);
            match plan {
                Err(e) => rep.fail(format!("repair_plan: {e}")),
                Ok(p) if p.survivors() != surv.as_slice() => {
                    rep.error("repair_plan: survivors".into())
                }
                Ok(_) => {}
            }
            let holed = inp.holed(op.payload, &op.lost);
            rep.attempted += 1;
            let (plan, ns) = tr.time("ec", i, op.kind, || coder.decode_plan(&holed));
            self.decode_plan.push(ns);
            match plan {
                Err(e) => rep.fail(format!("decode_plan: {e}")),
                Ok(p) => {
                    let lost: Vec<usize> = p
                        .lost_data()
                        .iter()
                        .chain(p.lost_parity())
                        .copied()
                        .collect();
                    if lost != op.lost || p.shard_len() != w.block {
                        rep.error(format!("decode_plan: lost {lost:?}, want {:?}", op.lost));
                    }
                }
            }
        }
    }

    fn finish(self, rep: &mut Report) {
        rep.put_p50_us("ec.repair_plan_us", &self.repair_plan);
        rep.put_p50_us("ec.decode_plan_us", &self.decode_plan);
    }
}

/// One stripe per call through a coordinated pool like a service shard's.
struct CoreRung {
    block: usize,
    m: usize,
    pool: EncodePool,
    enc: Vec<f64>,
    repair: Vec<f64>,
}

impl CoreRung {
    fn new(w: &Workload) -> CoreRung {
        let threads = svc::service_config(w).threads_per_shard;
        let coord = Coordinator::new(w.k, w.m, w.block as u64, threads, &MachineConfig::pm());
        CoreRung {
            block: w.block,
            m: w.m,
            pool: EncodePool::with_coordinator(threads, coord),
            enc: Vec::new(),
            repair: Vec::new(),
        }
    }

    fn round(&mut self, inp: &Inputs, coder: &Dialga, tr: &mut Tracer, rep: &mut Report) {
        for (i, op) in inp.ops.iter().enumerate() {
            let p = op.payload;
            if op.kind.is_write() {
                let mut parity = vec![vec![0u8; self.block]; self.m];
                let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                rep.attempted += 1;
                let (r, ns) = tr.time("core", i, op.kind, || {
                    self.pool.encode(coder, &refs(&inp.data[p]), &mut outs)
                });
                match r {
                    Err(e) => rep.fail(format!("pool encode: {e}")),
                    Ok(()) if parity != inp.parity[p] => {
                        rep.error("pool encode: wrong parity".into())
                    }
                    Ok(()) => self.enc.push(ns),
                }
            } else if matches!(op.kind, Kind::Repair | Kind::Get) {
                let t = op.lost[0];
                let shards = inp.holed(p, &[t]);
                rep.attempted += 1;
                let (r, ns) = tr.time("core", i, op.kind, || self.pool.repair(coder, &shards, t));
                match r {
                    Err(e) => rep.fail(format!("pool repair: {e}")),
                    Ok(out) if out != inp.shard(p, t) => {
                        rep.error("pool repair: wrong bytes".into())
                    }
                    Ok(_) => self.repair.push(ns),
                }
            }
        }
    }

    fn finish(self, rep: &mut Report) {
        rep.put_p50_us("core.pool_encode_us", &self.enc);
        rep.put_p50_us("core.pool_repair_us", &self.repair);
    }
}

/// The Fig. 19 points on the simulated PM machine.
fn memsim_rung(rep: &mut Report) -> Result<(), String> {
    let p = sim::price()?;
    let freq = MachineConfig::pm().freq_ghz;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    for (suffix, point, isal) in [("lo", &p.lo, &p.isal_lo), ("hi", &p.hi, &p.isal_hi)] {
        let c = &point.report.counters;
        let put = |rep: &mut Report, name: &str, v: f64, unit: &str| {
            rep.put(&format!("{name}.{suffix}"), v, unit)
        };
        put(
            rep,
            "memsim.media_read_amp",
            ratio(c.media_read_bytes, c.encode_read_bytes),
            "B/B",
        );
        put(
            rep,
            "memsim.imc_read_amp",
            ratio(c.imc_read_bytes, c.encode_read_bytes),
            "B/B",
        );
        put(
            rep,
            "memsim.useless_prefetch_ratio",
            ratio(c.useless_prefetches, c.hw_prefetches + c.sw_prefetches),
            "ratio",
        );
        put(
            rep,
            "memsim.buffer_hit_ratio",
            ratio(c.buffer_hits, c.buffer_hits + c.xpline_fetches),
            "ratio",
        );
        put(
            rep,
            "memsim.stall_cycles_per_load",
            point.report.stall_cycles_per_load(freq),
            "cycles",
        );
        put(
            rep,
            "memsim.host_ns_per_load",
            ratio(point.cpu_ns, c.loads),
            "ns",
        );
        put(rep, "pipeline.isal_gb_per_s", isal.gb_per_s(), "GB/sim-s");
        put(
            rep,
            "core.sim_policy_changes",
            point.policy_changes as f64,
            "count",
        );
        rep.note(format!(
            "memsim.{suffix}: DIALGA {:.4} GB/sim-s vs ISA-L {:.4}, {} threads, {} stripes/thread",
            point.gb_per_s(),
            isal.gb_per_s(),
            point.spec.threads,
            point.spec.stripes
        ));
    }
    Ok(())
}
