//! Cluster state and supervision: which replicas exist, which are live, where each
//! model handle lives, and the snapshot-driven machinery that keeps models reachable
//! across replica failures and membership changes.
//!
//! [`Cluster`] is the single shared-state hub. One mutex protects the membership
//! slots, the [`HashRing`], and the placement map; every acquisition goes through
//! [`gem_serve::sync::lock_or_recover`], and **no network I/O ever happens under the
//! lock** — snapshot pulls and pushes collect their plan while locked and execute
//! unlocked, so a slow replica cannot wedge routing.
//!
//! Failure detection is two-tier:
//!
//! * **Passive** — the forwarding path calls [`Cluster::mark_down`] the moment a
//!   connect or write against a replica fails, so fail-over happens on the very
//!   request that observed the failure, not at the next probe tick.
//! * **Active** — the [`Supervisor`] thread probes every replica's `Health` endpoint
//!   on an interval; replicas reporting `degraded`/`overloaded` are marked
//!   [`ReplicaState::Degraded`] (still routable, but visible to operators), and
//!   [`Cluster::down_after`] consecutive probe failures mark a replica
//!   [`ReplicaState::Down`]. The supervisor reacts to both death and recovery with a
//!   [`Cluster::rebalance`].
//!
//! Rebalancing never refits: it lists the models each live replica holds, pulls the
//! snapshot for any handle whose ring owner lacks it (from whichever live replica —
//! or shared store tier behind one — still resolves it), pushes it to the owner, and
//! re-ships the successor copy that write-through replication maintains.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gem_serve::client::{ClientError, GemClient, HealthOutcome, HealthState};
use gem_serve::sync::{lock_or_recover, wait_timeout_or_recover};

use crate::metrics::{RouterMetrics, STATE_DEGRADED, STATE_DOWN, STATE_UP};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// The router's view of one replica's availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Probes answer `ok`; the replica receives its full ring share.
    Up,
    /// Reachable but reporting `degraded`/`overloaded`. Still routed to — it answers,
    /// just slowly — but flagged in health views and metrics.
    Degraded,
    /// Unreachable (probe failures or a forwarding failure). Its ring share is served
    /// by successors until it returns.
    Down,
}

impl ReplicaState {
    /// The wire/display name (`"up"` / `"degraded"` / `"down"`).
    pub fn name(self) -> &'static str {
        match self {
            ReplicaState::Up => "up",
            ReplicaState::Degraded => "degraded",
            ReplicaState::Down => "down",
        }
    }

    /// Whether the replica can be routed to at all.
    pub fn is_live(self) -> bool {
        !matches!(self, ReplicaState::Down)
    }

    fn metric_value(self) -> u64 {
        match self {
            ReplicaState::Up => STATE_UP,
            ReplicaState::Degraded => STATE_DEGRADED,
            ReplicaState::Down => STATE_DOWN,
        }
    }
}

/// What a probe (or forwarding failure) changed about a replica's state — the
/// supervisor rebalances on either edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// The replica just became unroutable.
    WentDown,
    /// A down replica is answering again.
    CameBack,
}

/// Per-replica bookkeeping behind the cluster lock.
#[derive(Debug, Clone)]
struct Slot {
    state: ReplicaState,
    consecutive_failures: u32,
    last_health: Option<HealthOutcome>,
}

impl Slot {
    fn fresh() -> Self {
        Slot {
            state: ReplicaState::Up,
            consecutive_failures: 0,
            last_health: None,
        }
    }
}

/// Everything the cluster lock protects.
#[derive(Debug)]
struct State {
    slots: HashMap<String, Slot>,
    ring: HashRing,
    /// Where each known handle is actually served from right now. Consulted before
    /// the ring so handles that legitimately live off their ring position — a
    /// `fit-update` derivative created on its parent's holder, or a model awaiting
    /// rebalance after a membership change — keep resolving.
    placement: HashMap<String, String>,
}

/// The merged health view the router reports for `Health` requests, computed from the
/// last probe observations without touching any replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthView {
    /// `ok` (every replica up), `degraded` (something down or degraded but at least
    /// one live replica), or `overloaded` (nothing live).
    pub state: &'static str,
    /// Sum of queue depths across live replicas, from the last probes.
    pub queue_depth: u64,
    /// Sum of queue capacities across live replicas.
    pub queue_capacity: u64,
    /// Sum of busy executors across live replicas.
    pub busy_workers: u64,
    /// Sum of executor threads across live replicas.
    pub workers: u64,
    /// Backoff hint, set only when nothing is live.
    pub retry_after_ms: Option<u64>,
}

/// What a [`Cluster::rebalance`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Distinct handles examined (union of every live replica's model list and the
    /// placement map).
    pub examined: usize,
    /// Handles whose snapshot was shipped to a new ring owner.
    pub moved: usize,
    /// Successor copies shipped to restore write-through redundancy.
    pub replicated: usize,
    /// Human-readable descriptions of pulls/pushes that failed (the pass continues
    /// past individual failures; these handles retry at the next rebalance).
    pub failures: Vec<String>,
}

/// Shared cluster state: membership, liveness, the ring, and handle placement.
/// See the module docs.
#[derive(Debug)]
pub struct Cluster {
    state: Mutex<State>,
    metrics: Arc<RouterMetrics>,
    down_after: u32,
    probe_interval: Duration,
    connect_timeout: Duration,
}

impl Cluster {
    /// A cluster over `replicas` with default tuning: [`DEFAULT_VNODES`] ring points
    /// per replica, two consecutive probe failures before `down`, a 1 s probe
    /// interval, and a 2 s connect/IO timeout for control traffic.
    pub fn new(replicas: &[String], metrics: Arc<RouterMetrics>) -> Self {
        Self::with_options(
            replicas,
            metrics,
            DEFAULT_VNODES,
            2,
            Duration::from_secs(1),
            Duration::from_secs(2),
        )
    }

    /// [`Cluster::new`] with every knob explicit (the `gem-routed` flags map here).
    pub fn with_options(
        replicas: &[String],
        metrics: Arc<RouterMetrics>,
        vnodes: usize,
        down_after: u32,
        probe_interval: Duration,
        connect_timeout: Duration,
    ) -> Self {
        let ring = HashRing::build(replicas, vnodes);
        let mut slots = HashMap::new();
        for node in ring.nodes() {
            metrics.replica(node);
            slots.insert(node.clone(), Slot::fresh());
        }
        Cluster {
            state: Mutex::new(State {
                slots,
                ring,
                placement: HashMap::new(),
            }),
            metrics,
            down_after: down_after.max(1),
            probe_interval,
            connect_timeout,
        }
    }

    /// The metrics set this cluster records into.
    pub fn metrics(&self) -> &Arc<RouterMetrics> {
        &self.metrics
    }

    /// The supervisor's probe interval.
    pub fn probe_interval(&self) -> Duration {
        self.probe_interval
    }

    /// Consecutive probe failures before a replica is marked down.
    pub fn down_after(&self) -> u32 {
        self.down_after
    }

    /// The connect/IO timeout used for control traffic (and upstream connects).
    pub fn connect_timeout(&self) -> Duration {
        self.connect_timeout
    }

    /// Open a control connection (probes, listings, fan-outs, pulls, pushes) to `addr`
    /// with the cluster's connect/IO timeout.
    ///
    /// # Errors
    /// [`ClientError`] when the replica is unreachable or the handshake fails.
    pub fn connect(&self, addr: &str) -> Result<GemClient, ClientError> {
        GemClient::connect_timeout(addr, self.connect_timeout)
    }

    /// Ask each of `replicas` in turn one request, `ask`, over a control connection of
    /// its own ([`Cluster::connect`], so each step of a leg waits at most the connect
    /// timeout). Lazy: a leg runs when its outcome is taken, and a failed leg is its
    /// error, not the end of the walk.
    pub fn ask_each<'a, T: 'a>(
        &'a self,
        replicas: &'a [String],
        ask: impl Fn(&mut GemClient) -> Result<T, ClientError> + 'a,
    ) -> impl Iterator<Item = (&'a str, Result<T, ClientError>)> + 'a {
        replicas.iter().map(move |addr| {
            let outcome = self.connect(addr).and_then(|mut client| ask(&mut client));
            (addr.as_str(), outcome)
        })
    }

    /// Every replica address with its current state, sorted by address.
    pub fn replica_states(&self) -> Vec<(String, ReplicaState)> {
        let state = lock_or_recover(&self.state);
        let mut out: Vec<(String, ReplicaState)> = state
            .slots
            .iter()
            .map(|(addr, slot)| (addr.clone(), slot.state))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The live (routable) replica addresses, sorted.
    pub fn live_replicas(&self) -> Vec<String> {
        let state = lock_or_recover(&self.state);
        let mut out: Vec<String> = state
            .slots
            .iter()
            .filter(|(_, slot)| slot.state.is_live())
            .map(|(addr, _)| addr.clone())
            .collect();
        out.sort();
        out
    }

    /// The replica that should serve `handle` right now: its recorded placement when
    /// that replica is live, the first live ring node otherwise. `None` when nothing
    /// is live.
    pub fn route_handle(&self, handle: &str) -> Option<String> {
        let state = lock_or_recover(&self.state);
        if let Some(addr) = state.placement.get(handle) {
            if is_live(&state.slots, addr) {
                return Some(addr.clone());
            }
        }
        state
            .ring
            .route(handle, |node| is_live(&state.slots, node))
            .map(str::to_owned)
    }

    /// Route a non-handle key (e.g. an `embed-corpus` fingerprint hash) to the first
    /// live ring node.
    pub fn route_hash(&self, hash: u64) -> Option<String> {
        let state = lock_or_recover(&self.state);
        state
            .ring
            .route_hash(hash, |node| is_live(&state.slots, node))
            .map(str::to_owned)
    }

    /// Record that `handle` is served by `addr` (called when a tracked `Fit` /
    /// `FitUpdate` / `PushModel` succeeds, and by rebalancing).
    pub fn record_placement(&self, handle: &str, addr: &str) {
        let mut state = lock_or_recover(&self.state);
        state.placement.insert(handle.to_string(), addr.to_string());
    }

    /// Where `handle` was last recorded, live or not.
    pub fn placement_of(&self, handle: &str) -> Option<String> {
        lock_or_recover(&self.state).placement.get(handle).cloned()
    }

    /// Drop `handle`'s placement record (after a cluster-wide evict).
    pub fn forget_placement(&self, handle: &str) {
        lock_or_recover(&self.state).placement.remove(handle);
    }

    /// Handles with a recorded placement, sorted (the admin `placements` view).
    pub fn placements(&self) -> Vec<(String, String)> {
        let state = lock_or_recover(&self.state);
        let mut out: Vec<(String, String)> = state
            .placement
            .iter()
            .map(|(h, a)| (h.clone(), a.clone()))
            .collect();
        out.sort();
        out
    }

    /// Passive failure detection: the forwarding path observed `addr` failing.
    /// Marks it down immediately. Returns the transition (so callers can trigger a
    /// rebalance on the `WentDown` edge exactly once).
    pub fn mark_down(&self, addr: &str) -> Transition {
        let mut state = lock_or_recover(&self.state);
        let down_after = self.down_after;
        let Some(slot) = state.slots.get_mut(addr) else {
            return Transition::None;
        };
        slot.consecutive_failures = down_after;
        if slot.state == ReplicaState::Down {
            return Transition::None;
        }
        slot.state = ReplicaState::Down;
        self.metrics.replica(addr).state.set(STATE_DOWN);
        Transition::WentDown
    }

    /// Active failure detection: fold one probe outcome into `addr`'s slot.
    pub fn probe_result(
        &self,
        addr: &str,
        outcome: Result<HealthOutcome, ClientError>,
    ) -> Transition {
        let instruments = self.metrics.replica(addr);
        instruments.probes.inc();
        let mut state = lock_or_recover(&self.state);
        let down_after = self.down_after;
        let Some(slot) = state.slots.get_mut(addr) else {
            return Transition::None;
        };
        let was = slot.state;
        match outcome {
            Ok(health) => {
                slot.consecutive_failures = 0;
                slot.state = match health.state {
                    HealthState::Ok => ReplicaState::Up,
                    HealthState::Degraded | HealthState::Overloaded => ReplicaState::Degraded,
                };
                slot.last_health = Some(health);
            }
            Err(_) => {
                instruments.probe_failures.inc();
                slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                if slot.consecutive_failures >= down_after {
                    slot.state = ReplicaState::Down;
                }
            }
        }
        let now = slot.state;
        if now != was {
            instruments.state.set(now.metric_value());
        }
        match (was.is_live(), now.is_live()) {
            (true, false) => Transition::WentDown,
            (false, true) => Transition::CameBack,
            _ => Transition::None,
        }
    }

    /// The merged health view for router-answered `Health` requests.
    pub fn health_view(&self) -> HealthView {
        let state = lock_or_recover(&self.state);
        let mut live = 0usize;
        let mut impaired = 0usize;
        let mut view = HealthView {
            state: "ok",
            queue_depth: 0,
            queue_capacity: 0,
            busy_workers: 0,
            workers: 0,
            retry_after_ms: None,
        };
        for slot in state.slots.values() {
            if slot.state.is_live() {
                live += 1;
                if let Some(health) = &slot.last_health {
                    view.queue_depth += health.queue_depth;
                    view.queue_capacity += health.queue_capacity;
                    view.busy_workers += health.busy_workers;
                    view.workers += health.workers;
                }
            }
            if slot.state != ReplicaState::Up {
                impaired += 1;
            }
        }
        if live == 0 {
            view.state = "overloaded";
            view.retry_after_ms =
                Some(u64::try_from(self.probe_interval.as_millis()).unwrap_or(1_000));
        } else if impaired > 0 {
            view.state = "degraded";
        }
        view
    }

    /// Add `addr` to the membership (admin surface). Returns `false` when it was
    /// already a member. The caller follows up with [`Cluster::rebalance`].
    pub fn add_replica(&self, addr: &str) -> bool {
        let mut state = lock_or_recover(&self.state);
        if state.slots.contains_key(addr) {
            return false;
        }
        self.metrics.replica(addr).state.set(STATE_UP);
        state.slots.insert(addr.to_string(), Slot::fresh());
        let vnodes = state.ring.vnodes();
        let mut nodes: Vec<String> = state.slots.keys().cloned().collect();
        nodes.sort();
        state.ring = HashRing::build(&nodes, vnodes);
        true
    }

    /// Remove `addr` from the membership (admin surface). Returns `false` when it was
    /// not a member. The caller follows up with [`Cluster::rebalance`].
    pub fn remove_replica(&self, addr: &str) -> bool {
        let mut state = lock_or_recover(&self.state);
        if state.slots.remove(addr).is_none() {
            return false;
        }
        self.metrics.replica(addr).state.set(STATE_DOWN);
        let vnodes = state.ring.vnodes();
        let mut nodes: Vec<String> = state.slots.keys().cloned().collect();
        nodes.sort();
        state.ring = HashRing::build(&nodes, vnodes);
        true
    }

    /// Write-through replication: copy `handle`'s snapshot from `owner` to its live
    /// ring successor, so the node fail-over would route to already holds it. Called
    /// synchronously after every tracked fit/push, **before** the client sees the
    /// success — fail-over needs no grace period.
    ///
    /// Returns the successor that now holds the copy, or `None` when the cluster has
    /// no second live replica to copy to.
    ///
    /// # Errors
    /// A human-readable description when the pull or push failed; the primary copy is
    /// unaffected.
    pub fn replicate(&self, handle: &str, owner: &str) -> Result<Option<String>, String> {
        let successor = {
            let state = lock_or_recover(&self.state);
            state
                .ring
                .successor(handle, owner, |node| is_live(&state.slots, node))
                .map(str::to_owned)
        };
        let Some(successor) = successor else {
            return Ok(None);
        };
        self.copy_snapshot(handle, owner, &successor)?;
        self.metrics.inc_replication();
        Ok(Some(successor))
    }

    /// Pull `handle`'s snapshot from `from` and push it to `to`. No refit anywhere:
    /// the source serves bytes it already holds (memory or store tier) and the
    /// destination installs them.
    fn copy_snapshot(&self, handle: &str, from: &str, to: &str) -> Result<(), String> {
        let parsed = gem_serve::ModelHandle::parse(handle)?;
        let mut source = self
            .connect(from)
            .map_err(|e| format!("pull {handle} from {from}: {e}"))?;
        let snapshot = source
            .pull_model(parsed)
            .map_err(|e| format!("pull {handle} from {from}: {e}"))?;
        let mut destination = self
            .connect(to)
            .map_err(|e| format!("push {handle} to {to}: {e}"))?;
        destination
            .push_model(&snapshot.snapshot)
            .map_err(|e| format!("push {handle} to {to}: {e}"))?;
        Ok(())
    }

    /// Re-home every known handle after a liveness or membership change: ship each
    /// handle's snapshot to its current ring owner (if the owner lacks it) and to the
    /// owner's successor (restoring write-through redundancy), then normalize the
    /// placement map to the ring. Never refits — every move is a `PullModel` /
    /// `PushModel` pair between replicas (or the shared store tier behind them).
    ///
    /// All network traffic happens outside the cluster lock.
    pub fn rebalance(&self) -> RebalanceReport {
        let mut report = RebalanceReport::default();

        // Phase 1 (locked): snapshot the live membership and known placements.
        let (live, ring, placement) = {
            let state = lock_or_recover(&self.state);
            let live: Vec<String> = state
                .slots
                .iter()
                .filter(|(_, slot)| slot.state.is_live())
                .map(|(addr, _)| addr.clone())
                .collect();
            (live, state.ring.clone(), state.placement.clone())
        };
        if live.is_empty() {
            return report;
        }

        // Phase 2 (unlocked): ask every live replica what it holds.
        let mut holders: HashMap<String, Vec<String>> = HashMap::new();
        for (addr, models) in self.ask_each(&live, GemClient::list_models) {
            match models {
                Ok(models) => {
                    for model in models {
                        holders
                            .entry(model.handle)
                            .or_default()
                            .push(addr.to_string());
                    }
                }
                Err(e) => report.failures.push(format!("list {addr}: {e}")),
            }
        }
        let mut handles: HashSet<String> = holders.keys().cloned().collect();
        handles.extend(placement.keys().cloned());
        let mut handles: Vec<String> = handles.into_iter().collect();
        handles.sort();

        // Phase 3 (unlocked): ship snapshots so each handle's ring owner and its
        // successor both hold it.
        let is_member = |node: &str| live.iter().any(|l| l == node);
        let mut moved = 0u64;
        for handle in &handles {
            report.examined += 1;
            let Some(owner) = ring.route(handle, is_member).map(str::to_owned) else {
                continue;
            };
            let holds: Vec<String> = holders.get(handle).cloned().unwrap_or_default();
            if !holds.iter().any(|h| h == &owner) {
                // Prefer any live holder; fall back to the recorded placement (it may
                // front a shared store tier even if its memory list missed the handle).
                let source = holds
                    .first()
                    .cloned()
                    .or_else(|| placement.get(handle).cloned().filter(|a| is_member(a)));
                let Some(source) = source else {
                    report
                        .failures
                        .push(format!("{handle}: no live replica holds it"));
                    continue;
                };
                match self.copy_snapshot(handle, &source, &owner) {
                    Ok(()) => {
                        report.moved += 1;
                        moved += 1;
                    }
                    Err(e) => {
                        report.failures.push(e);
                        continue;
                    }
                }
            }
            if let Some(successor) = ring.successor(handle, &owner, is_member).map(str::to_owned) {
                if !holds.iter().any(|h| h == &successor) {
                    match self.copy_snapshot(handle, &owner, &successor) {
                        Ok(()) => report.replicated += 1,
                        Err(e) => report.failures.push(e),
                    }
                }
            }
            self.record_placement(handle, &owner);
        }
        self.metrics.add_failover_moves(moved);
        report
    }
}

/// Whether `addr` is present and routable. Free function (not a method) so callers
/// holding the state guard can use it without re-locking.
fn is_live(slots: &HashMap<String, Slot>, addr: &str) -> bool {
    slots.get(addr).is_some_and(|slot| slot.state.is_live())
}

/// The health-probe thread: probes every replica each [`Cluster::probe_interval`],
/// folds the outcomes into the cluster, and runs a rebalance whenever a replica's
/// liveness flips in either direction.
#[derive(Debug)]
pub struct Supervisor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Start probing `cluster`. The thread exits promptly on [`Supervisor::stop`].
    pub fn spawn(cluster: Arc<Cluster>) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (flag, condvar) = &*signal;
            loop {
                {
                    let guard = lock_or_recover(flag);
                    let guard =
                        wait_timeout_or_recover(condvar, guard, cluster.probe_interval(), || {});
                    if *guard {
                        return;
                    }
                }
                let members: Vec<String> = cluster
                    .replica_states()
                    .into_iter()
                    .map(|(addr, _)| addr)
                    .collect();
                let mut needs_rebalance = false;
                for (addr, outcome) in cluster.ask_each(&members, GemClient::health) {
                    if cluster.probe_result(addr, outcome) != Transition::None {
                        needs_rebalance = true;
                    }
                }
                if needs_rebalance {
                    let _ = cluster.rebalance();
                }
            }
        });
        Supervisor {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the probe thread and wait for it to exit.
    pub fn stop(&mut self) {
        let (flag, condvar) = &*self.stop;
        *lock_or_recover(flag) = true;
        condvar.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(addrs: &[&str]) -> Cluster {
        let replicas: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        Cluster::new(&replicas, Arc::new(RouterMetrics::new()))
    }

    fn probe_failure() -> Result<HealthOutcome, ClientError> {
        Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "probe refused",
        )))
    }

    fn probe_ok(state: HealthState) -> Result<HealthOutcome, ClientError> {
        Ok(HealthOutcome {
            state,
            queue_depth: 1,
            queue_capacity: 64,
            busy_workers: 2,
            workers: 4,
            retry_after_ms: None,
        })
    }

    #[test]
    fn down_needs_consecutive_probe_failures_and_recovery_is_immediate() {
        let c = cluster(&["a:1", "b:2"]);
        assert_eq!(c.probe_result("a:1", probe_failure()), Transition::None);
        assert_eq!(
            c.probe_result("a:1", probe_ok(HealthState::Ok)),
            Transition::None,
            "a success resets the failure streak"
        );
        assert_eq!(c.probe_result("a:1", probe_failure()), Transition::None);
        assert_eq!(c.probe_result("a:1", probe_failure()), Transition::WentDown);
        assert_eq!(c.live_replicas(), vec!["b:2".to_string()]);
        assert_eq!(
            c.probe_result("a:1", probe_ok(HealthState::Ok)),
            Transition::CameBack
        );
        assert_eq!(c.live_replicas().len(), 2);
    }

    #[test]
    fn mark_down_is_immediate_and_reroutes_handles() {
        let c = cluster(&["a:1", "b:2"]);
        let handle = "00000000000000aa-00000000000000bb";
        let owner = c.route_handle(handle).expect("two live replicas");
        assert_eq!(c.mark_down(&owner), Transition::WentDown);
        assert_eq!(c.mark_down(&owner), Transition::None, "edge fires once");
        let rerouted = c.route_handle(handle).expect("one live replica left");
        assert_ne!(rerouted, owner);
    }

    #[test]
    fn placement_overrides_ring_while_its_replica_lives() {
        let c = cluster(&["a:1", "b:2"]);
        let handle = "00000000000000aa-00000000000000bb";
        let ring_owner = c.route_handle(handle).expect("routable");
        let other = if ring_owner == "a:1" { "b:2" } else { "a:1" };
        c.record_placement(handle, other);
        assert_eq!(c.route_handle(handle).as_deref(), Some(other));
        // Placement on a dead replica is ignored — the ring takes over.
        c.mark_down(other);
        assert_eq!(c.route_handle(handle).as_deref(), Some(ring_owner.as_str()));
    }

    #[test]
    fn health_view_merges_live_probe_observations() {
        let c = cluster(&["a:1", "b:2"]);
        let _ = c.probe_result("a:1", probe_ok(HealthState::Ok));
        let _ = c.probe_result("b:2", probe_ok(HealthState::Ok));
        let view = c.health_view();
        assert_eq!(view.state, "ok");
        assert_eq!(view.queue_depth, 2);
        assert_eq!(view.workers, 8);

        let _ = c.probe_result("b:2", probe_ok(HealthState::Overloaded));
        assert_eq!(c.health_view().state, "degraded");

        c.mark_down("a:1");
        c.mark_down("b:2");
        let dead = c.health_view();
        assert_eq!(dead.state, "overloaded");
        assert!(dead.retry_after_ms.is_some());
    }

    #[test]
    fn membership_changes_rebuild_the_ring() {
        let c = cluster(&["a:1", "b:2"]);
        assert!(c.add_replica("c:3"));
        assert!(!c.add_replica("c:3"), "idempotent");
        assert_eq!(c.live_replicas().len(), 3);
        assert!(c.remove_replica("a:1"));
        assert!(!c.remove_replica("a:1"));
        let handle = "00000000000000aa-00000000000000bb";
        let owner = c.route_handle(handle).expect("routable");
        assert_ne!(owner, "a:1", "removed members receive no routes");
    }

    #[test]
    fn supervisor_stops_promptly() {
        let replicas = vec!["127.0.0.1:1".to_string()]; // nothing listens; probes fail
        let c = Arc::new(Cluster::with_options(
            &replicas,
            Arc::new(RouterMetrics::new()),
            8,
            2,
            Duration::from_millis(20),
            Duration::from_millis(50),
        ));
        let mut supervisor = Supervisor::spawn(Arc::clone(&c));
        std::thread::sleep(Duration::from_millis(120));
        supervisor.stop();
        // Probes against a dead address eventually mark it down.
        let states = c.replica_states();
        assert_eq!(states.len(), 1);
    }
}
