//! The system under test as a separate process: `appclass serve` built
//! in release mode, started on a loopback port, read through `/proc`,
//! scraped through its own `Stats` exposition, and stopped.

use appclass::serve::{ClientConfig, ServeClient, ServeError};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned server may take to announce its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds `appclass` in release mode from the checkout at `root` into
/// `target_dir` and returns the binary's path.
pub fn build(root: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "appclass"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building appclass failed: {status}"));
    }
    let bin = target_dir.join("release").join("appclass");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// Admission flags for one server process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// `--max-sessions`.
    pub max_sessions: usize,
    /// `--backlog`.
    pub backlog: usize,
}

impl Admission {
    /// Room for every generator connection: admission never refuses.
    pub const ROOMY: Admission = Admission { max_sessions: 8, backlog: 8 };
}

/// A running `appclass serve --shards 1` process.
pub struct Server {
    child: Child,
    /// Held so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it announced.
    pub addr: SocketAddr,
}

/// CPU and scheduling counters of the server process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// utime + stime, in seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
}

impl Server {
    /// Starts `bin serve` on an ephemeral loopback port with `model`,
    /// confined to `cpu` when one is given.
    pub fn start(
        bin: &Path,
        model: &Path,
        admission: Admission,
        cpu: Option<usize>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--shards", "1", "--model"])
            .arg(model)
            .args(["--max-sessions", &admission.max_sessions.to_string()])
            .args(["--backlog", &admission.backlog.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(cpu) = cpu {
            use std::os::unix::process::CommandExt;
            // SAFETY: the hook only makes one async-signal-safe system call.
            unsafe {
                cmd.pre_exec(move || {
                    crate::affinity::pin_current(cpu);
                    Ok(())
                });
            }
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let deadline = Instant::now() + START_TIMEOUT;
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap_or(0);
            if read == 0 || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before announcing its address".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr.parse().map_err(|e| format!("bad address `{addr}`: {e}"))?;
                return Ok(Server { child, _stdout: stdout, addr });
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Current CPU time and context switches.
    pub fn sample(&self) -> Result<ProcSample, String> {
        proc_sample(self.pid())
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Opens a session, reads the `Stats` exposition, and leaves.
    /// Refusals are retried; every attempt is returned so the caller's
    /// accounting can include it.
    pub fn scrape(&self) -> Result<(String, Attempts), String> {
        let mut attempts = Attempts::default();
        for _ in 0..1000 {
            match ServeClient::connect(self.addr, ClientConfig::default()) {
                Ok(mut client) => {
                    attempts.started += 1;
                    let text = client.stats().map_err(|e| format!("stats: {e}"))?;
                    client.bye().map_err(|e| format!("stats bye: {e}"))?;
                    return Ok((text, attempts));
                }
                Err(ServeError::Busy { .. }) => attempts.busy += 1,
                Err(ServeError::Rejected { .. }) => attempts.rejected += 1,
                Err(e) => return Err(format!("stats connect: {e}")),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server refused every stats session".to_string())
    }

    /// Kills the process and waits for it to end.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Session attempts the benchmark made outside its measured load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attempts {
    /// Admitted sessions.
    pub started: u64,
    /// `Busy` refusals.
    pub busy: u64,
    /// Hard refusals.
    pub rejected: u64,
}

/// utime + stime from `/proc/<pid>/stat` and context switches summed
/// over `/proc/<pid>/task/*/status`.
pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or_else(|| "malformed stat".into())
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after the name.
    let cpu_s = (ticks(11)? + ticks(12)?) / clock_ticks_per_s();
    let mut ctx_switches = 0;
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("/proc/{pid}/task: {e}"))?;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                ctx_switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Ok(ProcSample { cpu_s, ctx_switches })
}

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`. Linux
/// fixes it at 100 on every architecture the kernel exports to userland.
fn clock_ticks_per_s() -> f64 {
    100.0
}

/// `VmHWM` from a `/proc/*/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// The counters and histogram quantiles the benchmark reads from a
/// `Stats` exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scraped {
    /// `serve_frames_in_total`.
    pub frames_in: u64,
    /// `serve_sessions_started_total`.
    pub sessions_started: u64,
    /// `serve_shed_total`.
    pub shed: u64,
    /// `serve_sessions_rejected_total`.
    pub rejected: u64,
    /// `serve_model_swap_total`.
    pub swaps: u64,
    /// `serve_classify_latency` p50 and p99, microseconds.
    pub classify_us: (f64, f64),
    /// `serve_model_swap_latency` p50, microseconds.
    pub swap_us_p50: f64,
}

/// Parses the exposition text a `Stats` request returns.
pub fn parse_stats(text: &str) -> Result<Scraped, String> {
    let value = |key: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("`{key}` missing from the stats exposition"))
    };
    let count = |key: &str| value(key).map(|v| v as u64);
    Ok(Scraped {
        frames_in: count("serve_frames_in_total")?,
        sessions_started: count("serve_sessions_started_total")?,
        shed: count("serve_shed_total")?,
        rejected: count("serve_sessions_rejected_total")?,
        swaps: count("serve_model_swap_total")?,
        classify_us: (
            value("serve_classify_latency{quantile=\"0.5\"}")? / 1e3,
            value("serve_classify_latency{quantile=\"0.99\"}")? / 1e3,
        ),
        swap_us_p50: value("serve_model_swap_latency{quantile=\"0.5\"}")? / 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_and_quantiles() {
        let text = "serve_sessions_started_total 12\nserve_frames_in_total 3400\n\
            serve_shed_total 0\nserve_sessions_rejected_total 3\nserve_model_swap_total 2\n\
            serve_classify_latency_count 12\nserve_classify_latency{quantile=\"0.5\"} 8000\n\
            serve_classify_latency{quantile=\"0.99\"} 16000\n\
            serve_model_swap_latency{quantile=\"0.5\"} 1000000\n";
        let s = parse_stats(text).unwrap();
        assert_eq!((s.frames_in, s.sessions_started, s.rejected, s.swaps), (3400, 12, 3, 2));
        assert_eq!(s.classify_us, (8.0, 16.0));
        assert_eq!(s.swap_us_p50, 1000.0);
        assert!(parse_stats("serve_frames_in_total 1\n").is_err());
    }

    #[test]
    fn reads_own_process() {
        let s = proc_sample(std::process::id()).unwrap();
        assert!(s.cpu_s >= 0.0);
        assert!(vm_hwm_mb("/proc/self/status").unwrap() > 0.0);
    }
}
