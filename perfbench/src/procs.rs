//! The served topology: `gem-served` replicas, optionally behind a `gem-routed`, each its
//! own process with explicit flags. Every process is killed and reaped when its
//! [`Proc`] drops, so no exit path of the benchmark leaves a server behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::prom::{self, Scrape};

/// Executor-pool size of every replica.
pub const WORKERS: usize = 2;

/// One spawned server process and the addresses it announced.
pub struct Proc {
    child: Child,
    /// Keeps the child's stdout pipe open (it writes a summary line at shutdown).
    stdout: BufReader<ChildStdout>,
    /// Client address (`gem-served listening on ...` / `gem-routed listening on ...`).
    pub addr: String,
    /// Prometheus exposition address.
    pub metrics: String,
}

impl Proc {
    /// Spawn `bin args...` and wait for its `metrics on` and `listening on` lines.
    fn spawn(bin: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut proc = Proc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            metrics: String::new(),
        };
        loop {
            let mut line = String::new();
            let read = proc
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if read == 0 {
                return Err(format!("{} exited before it was ready", bin.display()));
            }
            if let Some((_, addr)) = line.trim().split_once(" metrics on ") {
                proc.metrics = addr.to_string();
            } else if let Some((_, addr)) = line.trim().split_once(" listening on ") {
                proc.addr = addr.to_string();
                break;
            }
        }
        if proc.metrics.is_empty() {
            return Err(format!("{} announced no metrics address", bin.display()));
        }
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read status of pid {}: {e}", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())?;
        Ok(kib / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where the binaries live: next to this executable (one cargo target directory).
pub fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    for name in ["gem-served", "gem-routed"] {
        if !dir.join(name).is_file() {
            return Err(format!("{name} is not built next to {}", exe.display()));
        }
    }
    Ok(dir.to_path_buf())
}

/// The shape of a topology.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub replicas: usize,
    pub router: bool,
    pub cache_capacity: usize,
}

impl Shape {
    /// The flags every replica gets, for the record (store and addresses vary per run).
    pub fn describe(&self) -> String {
        format!(
            "{} x gem-served --workers {WORKERS} --cache-capacity {} --store DIR --metrics-addr; {}",
            self.replicas,
            self.cache_capacity,
            if self.router {
                "gem-routed --metrics-addr in front"
            } else {
                "no router"
            }
        )
    }
}

/// A running topology. Dropping it stops the router, then the replicas, then removes
/// the replicas' store directories.
pub struct Topology {
    pub router: Option<Proc>,
    pub replicas: Vec<Proc>,
    dir: PathBuf,
}

impl Topology {
    /// Start `shape` with stores under `dir` (created fresh).
    pub fn start(bins: &Path, shape: Shape, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut topology = Topology {
            router: None,
            replicas: Vec::new(),
            dir: dir.to_path_buf(),
        };
        for i in 0..shape.replicas {
            let store = dir.join(format!("replica{i}"));
            let args = [
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--cache-capacity",
                &shape.cache_capacity.to_string(),
                "--store",
                &store.to_string_lossy(),
            ]
            .map(String::from);
            topology
                .replicas
                .push(Proc::spawn(&bins.join("gem-served"), &args)?);
        }
        if shape.router {
            let mut args: Vec<String> = ["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"]
                .map(String::from)
                .to_vec();
            for replica in &topology.replicas {
                args.push("--replica".to_string());
                args.push(replica.addr.clone());
            }
            topology.router = Some(Proc::spawn(&bins.join("gem-routed"), &args)?);
        }
        Ok(topology)
    }

    /// A lone `gem-routed` in front of an already running replica.
    pub fn start_router(bins: &Path, replica: &str, dir: &Path) -> Result<Self, String> {
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--replica",
            replica,
        ]
        .map(String::from);
        Ok(Topology {
            router: Some(Proc::spawn(&bins.join("gem-routed"), &args)?),
            replicas: Vec::new(),
            dir: dir.to_path_buf(),
        })
    }

    /// The address clients connect to: the router when there is one.
    pub fn entry(&self) -> &str {
        match &self.router {
            Some(router) => &router.addr,
            None => &self.replicas[0].addr,
        }
    }

    /// Summed peak RSS of the router and the replicas, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for proc in self.router.iter().chain(&self.replicas) {
            total += proc.peak_rss_mb()?;
        }
        Ok(total)
    }

    /// Scrape every replica, in replica order.
    pub fn scrape_replicas(&self) -> Result<Vec<Scrape>, String> {
        self.replicas
            .iter()
            .map(|r| prom::scrape(&r.metrics))
            .collect()
    }

    /// Scrape the router (an empty scrape when there is none).
    pub fn scrape_router(&self) -> Result<Scrape, String> {
        match &self.router {
            Some(router) => prom::scrape(&router.metrics),
            None => Ok(Scrape::default()),
        }
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        self.router = None;
        self.replicas.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
