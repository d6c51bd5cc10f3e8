//! Host clocks and facts read from `/proc`.
//!
//! Bounded metrics use CPU time rather than wall time: on a shared VM the
//! hypervisor steals whole slices of wall time from the guest, while the
//! scheduler's per-task runtime (`schedstat`, nanoseconds) only advances
//! while the task really runs.
//!
//! `schedstat` shows a running task's runtime as of its last scheduler
//! update, which can be a whole tick old; yielding first makes the
//! scheduler account the calling thread up to now. Other threads are read
//! while idle (between rounds), when their figure is exact.

use std::fs;
use std::io;
use std::time::Instant;

/// Scheduler runtime of one task, from a `schedstat` file.
fn schedstat_ns(path: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad {path}")))
}

/// CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> io::Result<u64> {
    std::thread::yield_now();
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU nanoseconds summed over every live thread of this process.
///
/// A thread that exits takes its runtime with it, so a window measured
/// with this must not span a thread exit; threads started inside the
/// window count from zero, which is exact.
pub fn process_cpu_ns() -> io::Result<u64> {
    std::thread::yield_now();
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task")? {
        let path = entry?.path().join("schedstat");
        match schedstat_ns(&path.to_string_lossy()) {
            Ok(ns) => total += ns,
            // The thread exited between the listing and the read.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Machine-wide steal time in seconds, from the `cpu` line of
/// `/proc/stat` (USER_HZ = 100 ticks per second on Linux).
pub fn steal_s() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/stat")?;
    let line = text
        .lines()
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty /proc/stat"))?;
    let steal: u64 = line
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok(steal as f64 / 100.0)
}

/// CPU seconds of the whole process since it started, exited threads
/// included, from `/proc/self/stat` (USER_HZ ticks: coarse, for
/// whole-run figures only).
fn process_cpu_total_s() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |n: usize| -> u64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Ok((field(14) + field(15)) as f64 / 100.0)
}

/// Wall, CPU and steal readings at one instant.
#[derive(Clone, Copy)]
pub struct Clocks {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Clocks {
    /// Read all three clocks now.
    pub fn now() -> io::Result<Clocks> {
        Ok(Clocks {
            wall: Instant::now(),
            cpu_s: process_cpu_total_s()?,
            steal_s: steal_s()?,
        })
    }

    /// `(wall_s, cpu_s, steal_s)` elapsed since `self`.
    pub fn since(&self) -> io::Result<(f64, f64, f64)> {
        let now = Clocks::now()?;
        Ok((
            now.wall.duration_since(self.wall).as_secs_f64(),
            now.cpu_s - self.cpu_s,
            (now.steal_s - self.steal_s).max(0.0),
        ))
    }
}

/// A CPU + wall stopwatch that can be paused, so output checks between
/// timed rounds stay out of the measurement.
#[derive(Default)]
pub struct Window {
    wall_ns: u64,
    open: Option<(u64, Instant)>,
}

impl Window {
    /// Start (or resume) timing.
    pub fn start(&mut self) -> io::Result<()> {
        self.open = Some((process_cpu_ns()?, Instant::now()));
        Ok(())
    }

    /// Pause timing, adding the segment to the totals. Returns the
    /// segment's CPU seconds.
    pub fn stop(&mut self) -> io::Result<f64> {
        let Some((cpu0, wall0)) = self.open.take() else {
            return Ok(0.0);
        };
        self.wall_ns += wall0.elapsed().as_nanos() as u64;
        let cpu = process_cpu_ns()?.saturating_sub(cpu0);
        Ok(cpu as f64 / 1e9)
    }

    /// Timed wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Facts recorded with every run.
pub struct HostInfo {
    pub nproc: usize,
    pub kernel: String,
    pub commit: String,
}

impl HostInfo {
    pub fn read() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git (a
/// source export has no `.git`, and then the commit is unknown).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
