//! The simulated-PM plane: DIALGA and ISA-L task sources on the memsim
//! PM machine at the two Fig. 19 pressure points, RS(28,24) with 1 KiB
//! blocks. Every run, whatever its host workload, runs them after its
//! timed phase.

use crate::err;
use crate::host::thread_cpu_ns;
use dialga::DialgaSource;
use dialga_memsim::{Engine, MachineConfig, RunReport};
use dialga_pipeline::cost::{CostModel, Simd};
use dialga_pipeline::isal::{IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;

/// Threads at the low- and high-pressure points (Fig. 19).
const LO_THREADS: usize = 1;
const HI_THREADS: usize = 18;
/// The Fig. 19 geometry: k, m and block bytes.
const K: usize = 24;
const M: usize = 4;
const BLOCK: usize = 1024;
/// Data footprint per simulated thread (the figure binaries' default).
const BYTES_PER_THREAD: usize = 2 << 20;
/// Coordinator sampling interval in simulated ns: short enough that a
/// few-millisecond simulation adapts within the run (as in the figures).
const SAMPLE_NS: f64 = 50_000.0;

/// Which task source a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Dialga,
    Isal,
}

/// One simulated point: geometry, threads and stripe count.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    pub system: System,
    pub k: usize,
    /// Outputs per stripe: parity for an encode, lost blocks for a decode.
    pub m: usize,
    pub block: usize,
    pub threads: usize,
    pub stripes: u64,
}

impl PointSpec {
    /// A point of `k + m` at `block` bytes over the figure footprint. The
    /// seed does not enter: simulated results repeat exactly, run to run.
    pub fn new(system: System, k: usize, m: usize, block: usize, threads: usize) -> Self {
        let stripes = (BYTES_PER_THREAD / (k * block)).max(1) as u64;
        PointSpec {
            system,
            k,
            m,
            block,
            threads,
            stripes,
        }
    }

    /// Simulated user bytes: every thread encodes its own stripes.
    pub fn data_bytes(&self) -> u64 {
        (self.k * self.block) as u64 * self.stripes * self.threads as u64
    }
}

/// The outcome of one point.
#[derive(Debug, Clone)]
pub struct Point {
    pub spec: PointSpec,
    pub report: RunReport,
    /// Coordinator policy changes during the run (0 for ISA-L).
    pub policy_changes: u64,
    /// Host CPU ns the simulation took (this thread).
    pub cpu_ns: u64,
}

impl Point {
    pub fn gb_per_s(&self) -> f64 {
        self.report.throughput_gbs()
    }
}

/// Build and run one point; the CPU time taken covers the run only.
fn run(spec: PointSpec) -> Result<Point, String> {
    let cfg = MachineConfig::pm();
    let layout = StripeLayout::new(spec.k, spec.m, spec.block as u64, spec.stripes);
    let cost = CostModel::new(Simd::Avx512);
    let mut engine = Engine::new(cfg.clone(), spec.threads);
    let c0;
    let (report, policy_changes) = match spec.system {
        System::Dialga => {
            let mut src = DialgaSource::new(layout, cost, spec.threads, &cfg);
            src.set_sample_interval(SAMPLE_NS);
            c0 = thread_cpu_ns().map_err(err)?;
            let r = engine.run(&mut src);
            (
                r,
                src.coordinator().map_or(0, |c| c.snapshot().policy_changes),
            )
        }
        System::Isal => {
            let mut src = IsalSource::new(layout, cost, Knobs::default(), spec.threads);
            c0 = thread_cpu_ns().map_err(err)?;
            (engine.run(&mut src), 0)
        }
    };
    let cpu_ns = thread_cpu_ns().map_err(err)?.saturating_sub(c0);
    let point = Point {
        spec,
        report,
        policy_changes,
        cpu_ns,
    };
    check(&point)?;
    Ok(point)
}

/// Counter identities every run must satisfy.
fn check(p: &Point) -> Result<(), String> {
    let c = &p.report.counters;
    if c.loads != c.l2_hits + c.llc_hits + c.demand_misses {
        return Err(format!(
            "{:?}: loads {} != l2 {} + llc {} + misses {}",
            p.spec, c.loads, c.l2_hits, c.llc_hits, c.demand_misses
        ));
    }
    let want = p.spec.data_bytes();
    if p.report.data_bytes != want || c.encode_read_bytes != want {
        return Err(format!(
            "{:?}: data_bytes {} / demand bytes {} != configured {want}",
            p.spec, p.report.data_bytes, c.encode_read_bytes
        ));
    }
    if !p.gb_per_s().is_finite() || p.gb_per_s() <= 0.0 {
        return Err(format!("{:?}: no simulated throughput", p.spec));
    }
    Ok(())
}

/// A repeated point must reproduce its counters and clock bit for bit.
pub fn check_repeat(a: &Point, b: &Point) -> Result<(), String> {
    let same = a.report.counters == b.report.counters
        && a.report.elapsed_ns.to_bits() == b.report.elapsed_ns.to_bits()
        && a.policy_changes == b.policy_changes;
    if same {
        Ok(())
    } else {
        Err(format!("{:?}: repeated point differs", a.spec))
    }
}

/// DIALGA and ISA-L at low and high pressure. DIALGA's points run twice
/// and must repeat exactly.
pub struct Pricing {
    pub lo: Point,
    pub hi: Point,
    pub isal_lo: Point,
    pub isal_hi: Point,
}

pub fn price() -> Result<Pricing, String> {
    let point = |system, threads| run(PointSpec::new(system, K, M, BLOCK, threads));
    let lo = point(System::Dialga, LO_THREADS)?;
    let hi = point(System::Dialga, HI_THREADS)?;
    check_repeat(&lo, &point(System::Dialga, LO_THREADS)?)?;
    check_repeat(&hi, &point(System::Dialga, HI_THREADS)?)?;
    Ok(Pricing {
        lo,
        hi,
        isal_lo: point(System::Isal, LO_THREADS)?,
        isal_hi: point(System::Isal, HI_THREADS)?,
    })
}
