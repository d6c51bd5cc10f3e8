//! End-to-end and per-layer benchmark of the DIALGA stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! `--trace 0` runs the workload end to end and reports the end-to-end
//! metrics; `--trace 1` replays the workload's ops through each layer
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--smoke` runs every workload, both ways, at a tiny size.

mod gen;
mod host;
mod image;
mod ladder;
mod oracle;
mod report;
mod sim;
mod stats;
mod store;
mod svc;
mod trace;

use gen::{generate, FrontEnd, Workload};
use host::{Clocks, HostInfo};
use report::{Report, END_TO_END, PER_LAYER};
use store::StoreFront;
use svc::ServiceFront;

/// An error as the report's message.
fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Set-ups per run; `setup_s` is their median. A store open takes well
/// under a millisecond, so it is repeated more often.
const SETUP_REPS: usize = 51;
const STORE_SETUP_REPS: usize = 101;
/// Rounds a timed phase runs at least.
const MIN_ROUNDS: u64 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let all = gen::workloads();
    let ok = if args.smoke {
        let mut ok = true;
        for w in &all {
            for trace in [false, true] {
                ok &= run_one(&w.smoke(), args.seed, 0.0, trace);
            }
        }
        ok
    } else {
        let Some(name) = args.workload.as_deref() else {
            eprintln!("perfbench: --workload is required (or --smoke)");
            std::process::exit(2);
        };
        let Some(w) = all.iter().find(|w| w.name == name) else {
            let names: Vec<_> = all.iter().map(|w| w.name).collect();
            eprintln!("perfbench: unknown workload {name}; one of {names:?}");
            std::process::exit(2);
        };
        run_one(w, args.seed, args.seconds, args.trace)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Run one workload one way and print its report; `false` when an output
/// check failed or the run could not finish.
fn run_one(w: &Workload, seed: u64, seconds: f64, trace: bool) -> bool {
    let host = HostInfo::read();
    println!(
        "# perfbench workload={} seed={seed} seconds={seconds} trace={} nproc={} kernel={} commit={}",
        w.name,
        u8::from(trace),
        host.nproc,
        host.kernel,
        host.commit
    );
    let mut rep = Report::default();
    let result = Clocks::now().map_err(err).and_then(|clocks| {
        if trace {
            ladder::run(w, seed, seconds, &mut rep)?;
        } else {
            match w.front_end {
                FrontEnd::Service => run_service(w, seed, seconds, &mut rep)?,
                FrontEnd::Store => run_store(w, seed, seconds, &mut rep)?,
            }
        }
        let (wall, cpu, steal) = clocks.since().map_err(err)?;
        rep.put("host.wall_s", wall, "s");
        rep.put("host.cpu_s", cpu, "s");
        rep.put("host.steal_s", steal, "s");
        Ok(())
    });
    if let Err(e) = result {
        rep.error(e);
    }
    rep.note(format!(
        "ops attempted {} failed {}",
        rep.attempted, rep.failed
    ));
    rep.print(if trace { PER_LAYER } else { END_TO_END });
    rep.errors.is_empty()
}

/// The Fig. 19 points on simulated PM, run after the host phase.
fn put_sim(rep: &mut Report) -> Result<(), String> {
    let p = sim::price()?;
    rep.put("sim_lo_gb_per_s", p.lo.gb_per_s(), "GB/sim-s");
    rep.put("sim_hi_gb_per_s", p.hi.gb_per_s(), "GB/sim-s");
    Ok(())
}

fn run_service(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) -> Result<(), String> {
    let coder = dialga::Dialga::new(w.k, w.m).map_err(err)?;
    let inp = generate(w, seed, &coder);
    let (mut front, setup) = ServiceFront::new(w, &inp, &coder, SETUP_REPS, rep)?;
    rep.put_setup_s(&setup);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || front.timed_wall_s() < seconds {
        front.round(rep, None)?;
        rounds += 1;
    }
    front.finish(&coder, seed, rep, false);
    put_sim(rep)
}

fn run_store(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) -> Result<(), String> {
    let coder = dialga::Dialga::new(w.k, w.m).map_err(err)?;
    let inp = generate(w, seed, &coder);
    let crashes = store::crashed_images(w, &inp)?;
    let (mut front, setup) = StoreFront::new(w, &inp, &crashes, STORE_SETUP_REPS, rep)?;
    rep.put_setup_s(&setup);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || front.timed_wall_s() < seconds {
        front.round(rep, None)?;
        rounds += 1;
    }
    front.finish(rep, false, None);
    put_sim(rep)
}
