//! Scraping the Prometheus text exposition `gem-served` / `gem-routed` serve on
//! `--metrics-addr`, and turning two scrapes into window deltas.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One scrape: every sample line, keyed by its series name with labels exactly as
/// rendered (`gem_request_phase_seconds_sum{shape="embed",phase="queue"}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// The value of `series`, or 0 when the series is absent.
    pub fn get(&self, series: &str) -> f64 {
        self.samples.get(series).copied().unwrap_or(0.0)
    }

    /// Every series whose key starts with `prefix`.
    pub fn matching<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.samples
            .range(prefix.to_string()..)
            .take_while(move |(key, _)| key.starts_with(prefix))
            .map(|(key, value)| (key.as_str(), *value))
    }
}

/// Fetch and parse the exposition at `addr`.
///
/// # Errors
/// When the address refuses the connection or the answer is not an exposition.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    let (_, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("scrape {addr}: no HTTP body"))?;
    let mut samples = BTreeMap::new();
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("scrape {addr}: bad sample line `{line}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("scrape {addr}: bad value in `{line}`"))?;
        samples.insert(series.to_string(), value);
    }
    Ok(Scrape { samples })
}

/// Before/after scrapes of a set of processes (one entry per process).
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub before: Vec<Scrape>,
    pub after: Vec<Scrape>,
}

impl Window {
    /// `after - before` of `series`, summed over the processes.
    pub fn delta(&self, series: &str) -> f64 {
        self.before
            .iter()
            .zip(&self.after)
            .map(|(b, a)| a.get(series) - b.get(series))
            .sum()
    }

    /// The largest `after` value of a gauge across the processes.
    pub fn max_after(&self, series: &str) -> f64 {
        self.after.iter().map(|a| a.get(series)).fold(0.0, f64::max)
    }

    /// Per-series deltas of every series starting with `prefix`, summed over processes.
    pub fn deltas_matching(&self, prefix: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (b, a) in self.before.iter().zip(&self.after) {
            for (key, value) in a.matching(prefix) {
                *out.entry(key.to_string()).or_insert(0.0) += value - b.get(key);
            }
        }
        out
    }

    /// Δ`name_sum{labels}` / Δ`name_count{labels}` in microseconds (the summaries render
    /// seconds), with the Δcount it rests on. `(0, 0)` when nothing was recorded.
    pub fn mean_us(&self, name: &str, labels: &str) -> (f64, f64) {
        let count = self.delta(&format!("{name}_count{labels}"));
        if count <= 0.0 {
            return (0.0, 0.0);
        }
        let sum = self.delta(&format!("{name}_sum{labels}"));
        (sum * 1e6 / count, count)
    }
}
