//! The scheduling tier: batching, QoS classes, and policy auto-tuning.
//!
//! Sits between [`Backend::submit`](crate::Backend::submit) and the
//! worker pool, replacing the plain FIFO queue with three mechanisms:
//!
//! * **Batching** — queued jobs sharing a benchmark×size *group* are
//!   dequeued together as one [`Batch`], so a worker amortizes benchmark
//!   warmup (LUTs, lazy allocations, instruction cache) across the whole
//!   window instead of paying it per job. Batches are formed at dequeue
//!   time from whatever is pending — no timers, no artificial delay, and
//!   fully deterministic under a virtual clock.
//! * **QoS classes** — every submission carries a [`JobClass`]
//!   (`interactive` or `batch`), and the queue dequeues by deficit round
//!   robin: each class accrues a per-visit quantum of jobs and spends it
//!   before yielding the dispatcher, so a CIF sweep in the batch class can
//!   never starve an interactive SQCIF probe (see [`starvation_bound`]).
//! * **Policy auto-tuning** — [`pick_threads`] chooses a concrete thread
//!   count for `ExecPolicy::Auto` jobs from a per-benchmark×size scaling
//!   model: an Amdahl curve seeded from the committed Table-IV-derived
//!   prior ([`prior_parallel_fraction`]) and refined online from observed
//!   execution times in the engine's [`MetricsRegistry`].
//!
//! The [`Drr`] core is a plain (externally synchronized) data structure so
//! the cluster coordinator can drive it under its own state lock;
//! [`SchedQueue`] wraps it with a mutex + condvar for the single-process
//! engine's blocking workers.

use sdvbs_runner::{size_label, Job};
use sdvbs_trace::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// The QoS class a submission rides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobClass {
    /// Latency-sensitive probes; the DRR dispatcher favors this class and
    /// bounds how much batch work can be dispatched ahead of it.
    #[default]
    Interactive,
    /// Throughput work (sweeps, bulk re-runs); scheduled fairly but never
    /// at the expense of interactive latency.
    Batch,
}

/// Number of QoS classes (the DRR state arrays are this wide).
pub const CLASSES: usize = 2;

impl JobClass {
    /// Parses the `?class=` query value. Empty and `interactive` mean
    /// interactive (the default); `batch` means batch.
    ///
    /// # Errors
    ///
    /// Returns the offending value for anything else, so the router can
    /// answer `400` instead of silently misclassifying.
    pub fn parse(text: &str) -> Result<JobClass, String> {
        match text {
            "" | "interactive" => Ok(JobClass::Interactive),
            "batch" => Ok(JobClass::Batch),
            other => Err(format!(
                "unknown class {other:?} (expected \"interactive\" or \"batch\")"
            )),
        }
    }

    /// The wire/query label.
    pub fn label(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Batch => "batch",
        }
    }

    fn index(self) -> usize {
        match self {
            JobClass::Interactive => 0,
            JobClass::Batch => 1,
        }
    }

    fn from_index(i: usize) -> JobClass {
        if i == 0 {
            JobClass::Interactive
        } else {
            JobClass::Batch
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Most jobs dispatched in one batch (clamped to at least 1). 1
    /// disables batching entirely — every dispatch is a single job.
    pub max_batch: usize,
    /// DRR quantum for the interactive class: jobs it may dispatch per
    /// visit before yielding.
    pub quantum_interactive: u32,
    /// DRR quantum for the batch class. This constant *is* the starvation
    /// bound: at most this many batch jobs are dispatched ahead of a
    /// newly arrived interactive job (see [`starvation_bound`]).
    pub quantum_batch: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            max_batch: 16,
            quantum_interactive: 16,
            quantum_batch: 2,
        }
    }
}

impl SchedConfig {
    fn quantum(&self, class: usize) -> u64 {
        let q = if class == 0 {
            self.quantum_interactive
        } else {
            self.quantum_batch
        };
        u64::from(q.max(1))
    }
}

/// The documented DRR delay bound, in *batch-class jobs dispatched*, for
/// an interactive job that arrives with `interactive_ahead` jobs already
/// pending in its own class.
///
/// Derivation: each full DRR round dispatches at least
/// `quantum_interactive` interactive jobs (or empties the class) and at
/// most `quantum_batch` batch jobs; one extra batch visit may already be
/// in progress (with a freshly accrued quantum) when the job arrives. So
/// the job waits at most
/// `quantum_batch × (⌈(interactive_ahead + 1) / quantum_interactive⌉ + 1)`
/// batch-class dispatches. For a lone probe (`interactive_ahead = 0`) the
/// bound is `2 × quantum_batch` — with the defaults, 4 batch jobs — no
/// matter how deep the batch backlog is.
pub fn starvation_bound(cfg: &SchedConfig, interactive_ahead: usize) -> usize {
    let qi = cfg.quantum_interactive.max(1) as usize;
    let qb = cfg.quantum_batch.max(1) as usize;
    let rounds = interactive_ahead / qi + 1;
    qb * (rounds + 1)
}

/// The scheduler group key a spec batches under: `benchmark|size`.
pub fn group_key(spec: &Job) -> String {
    format!("{}|{}", spec.benchmark, size_label(spec.size))
}

/// One dispatch window: consecutive jobs from a single benchmark×size
/// group in a single class, executed back to back by one worker.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The class the batch was dequeued from.
    pub class: JobClass,
    /// The shared benchmark×size group key.
    pub group: String,
    /// Job ids, in submission order.
    pub ids: Vec<u64>,
}

/// One class's pending jobs, grouped by benchmark×size with round-robin
/// rotation across groups.
#[derive(Debug, Default)]
struct ClassQueue {
    /// Group visit order (front is next to dispatch from).
    order: VecDeque<String>,
    groups: HashMap<String, VecDeque<u64>>,
    len: usize,
}

impl ClassQueue {
    fn push(&mut self, id: u64, group: &str, front: bool) {
        let q = self.groups.entry(group.to_string()).or_insert_with(|| {
            if front {
                self.order.push_front(group.to_string());
            } else {
                self.order.push_back(group.to_string());
            }
            VecDeque::new()
        });
        if front {
            q.push_front(id);
        } else {
            q.push_back(id);
        }
        self.len += 1;
    }

    /// Takes up to `limit` jobs from the front group; the group rotates to
    /// the back of the visit order if it still has jobs (intra-class
    /// fairness across groups — warmth is amortized within the batch).
    fn pop_group_batch(&mut self, limit: usize) -> Option<(String, Vec<u64>)> {
        let group = self.order.pop_front()?;
        let q = self
            .groups
            .get_mut(&group)
            .expect("every ordered group has a queue");
        let take = limit.max(1).min(q.len());
        let ids: Vec<u64> = q.drain(..take).collect();
        self.len -= ids.len();
        if q.is_empty() {
            self.groups.remove(&group);
        } else {
            self.order.push_back(group.clone());
        }
        Some((group, ids))
    }

    fn drain_all(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        while let Some((_, ids)) = self.pop_group_batch(usize::MAX) {
            out.extend(ids);
        }
        out
    }
}

/// The deficit-round-robin batching core. Externally synchronized — the
/// engine wraps it in [`SchedQueue`], the cluster coordinator holds it
/// under its own state lock.
#[derive(Debug)]
pub struct Drr {
    cfg: SchedConfig,
    classes: [ClassQueue; CLASSES],
    deficit: [u64; CLASSES],
    /// Next class to visit (0 = interactive).
    cursor: usize,
}

impl Drr {
    /// An empty scheduler.
    pub fn new(cfg: SchedConfig) -> Drr {
        Drr {
            cfg,
            classes: [ClassQueue::default(), ClassQueue::default()],
            deficit: [0; CLASSES],
            cursor: 0,
        }
    }

    /// Total pending jobs across both classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len).sum()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a job at the back of its group.
    pub fn push_back(&mut self, id: u64, group: &str, class: JobClass) {
        self.classes[class.index()].push(id, group, false);
    }

    /// Re-enqueues a job at the front of its group (orphan requeue after a
    /// worker death must not lose its place to later arrivals).
    pub fn push_front(&mut self, id: u64, group: &str, class: JobClass) {
        self.classes[class.index()].push(id, group, true);
    }

    /// Dequeues the next batch by deficit round robin, or `None` when
    /// empty.
    ///
    /// Each visit to a non-empty class accrues that class's quantum; the
    /// class keeps dispatching (possibly across several `pop_batch` calls)
    /// until its deficit is spent or it empties, then the cursor advances.
    /// An emptied class forfeits its leftover deficit — credit never
    /// accumulates while there is nothing to spend it on, which is what
    /// keeps [`starvation_bound`] tight.
    pub fn pop_batch(&mut self) -> Option<Batch> {
        if self.is_empty() {
            return None;
        }
        loop {
            let c = self.cursor;
            if self.classes[c].len == 0 {
                self.deficit[c] = 0;
                self.cursor = (c + 1) % CLASSES;
                continue; // total is non-empty, so this skips at most once per class
            }
            if self.deficit[c] == 0 {
                self.deficit[c] = self.cfg.quantum(c);
            }
            let limit = self.cfg.max_batch.max(1).min(self.deficit[c] as usize);
            let (group, ids) = self.classes[c]
                .pop_group_batch(limit)
                .expect("class checked non-empty");
            self.deficit[c] -= ids.len() as u64;
            if self.classes[c].len == 0 {
                self.deficit[c] = 0;
            }
            if self.deficit[c] == 0 {
                self.cursor = (c + 1) % CLASSES;
            }
            return Some(Batch {
                class: JobClass::from_index(c),
                group,
                ids,
            });
        }
    }

    /// Removes and returns every pending job (drain rejects them all).
    pub fn drain_all(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for class in &mut self.classes {
            out.extend(class.drain_all());
        }
        self.deficit = [0; CLASSES];
        out
    }
}

/// Why [`SchedQueue::try_push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPushError {
    /// The queue is at capacity (admission control → `429`).
    Full,
    /// The queue is closed for drain (→ `503`).
    Closed,
}

struct SchedState {
    drr: Drr,
    closed: bool,
}

/// The engine's blocking scheduler queue: [`Drr`] under a mutex, with a
/// condvar parking the workers while it is empty. Capacity-bounded for
/// admission control; closing wakes everyone and lets workers finish the
/// remaining batches before `pop_batch` returns `None`.
pub struct SchedQueue {
    state: Mutex<SchedState>,
    ready: Condvar,
    capacity: usize,
}

impl SchedQueue {
    /// A queue admitting at most `capacity` pending jobs (clamped ≥ 1).
    pub fn new(capacity: usize, cfg: SchedConfig) -> SchedQueue {
        SchedQueue {
            state: Mutex::new(SchedState {
                drr: Drr::new(cfg),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues without blocking; refuses when full or closed.
    ///
    /// # Errors
    ///
    /// [`SchedPushError::Full`] at capacity, [`SchedPushError::Closed`]
    /// after [`SchedQueue::close`].
    pub fn try_push(&self, id: u64, group: &str, class: JobClass) -> Result<(), SchedPushError> {
        let mut st = self.lock();
        if st.closed {
            return Err(SchedPushError::Closed);
        }
        if st.drr.len() >= self.capacity {
            return Err(SchedPushError::Full);
        }
        st.drr.push_back(id, group, class);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a batch is available (or the queue is closed *and*
    /// empty, which returns `None` — the worker-exit signal).
    pub fn pop_batch(&self) -> Option<Batch> {
        let mut st = self.lock();
        loop {
            if let Some(batch) = st.drr.pop_batch() {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes are refused, workers drain the
    /// remaining batches and then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Pending jobs right now.
    pub fn len(&self) -> usize {
        self.lock().drr.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Policy auto-tuning: the per-benchmark×size scaling model.
// ---------------------------------------------------------------------------

/// Table-IV-derived prior: the parallel fraction `p` of each benchmark's
/// pipeline for the Amdahl model `t(n) = t(1)·((1−p) + p/n)`.
///
/// The paper's Table IV reports per-kernel parallelism on idealized
/// hardware (e.g. Disparity's SSD at 1,800×, Stitch's LS solver at
/// 20,900×, Tracking's matrix inversion at 171,000×); a kernel with
/// parallelism `S` contributes `1 − 1/S ≈ 1` of its time as parallel
/// work, so the benchmark-level prior is dominated by how much of the
/// pipeline its parallel kernels cover. These constants fold that in with
/// the suite's measured kernel occupancy (Figure 3): stencil-heavy
/// pipelines are nearly all parallel; the tree/sequential benchmarks
/// (localization's particle resampling, texture synthesis's sequential
/// patch placement) much less so.
pub const TABLE_IV_PRIOR: &[(&str, f64)] = &[
    ("Disparity Map", 0.95),    // correlation/SSD/sort: 160×–1,800×
    ("Feature Tracking", 0.92), // gaussian/integral/area sum: 425×–171,000×
    ("SIFT", 0.90),             // SIFT/interpolation/integral: 180×–16,000×
    ("Image Stitch", 0.90),     // LS solver/SVD/convolution: 4,500×–20,900×
    ("SVM", 0.90),              // matrix ops/learning: 851×–1,000×
    ("Image Segmentation", 0.85),
    ("Face Detection", 0.80),
    ("Robot Localization", 0.40),
    ("Texture Synthesis", 0.30),
];

/// Prior parallel fraction for `benchmark` (0.5 for anything unlisted).
pub fn prior_parallel_fraction(benchmark: &str) -> f64 {
    TABLE_IV_PRIOR
        .iter()
        .find(|(name, _)| *name == benchmark)
        .map_or(0.5, |(_, p)| *p)
}

/// Observations needed at a thread count before its measured mean is
/// trusted over the model's prediction.
pub const MIN_OBSERVATIONS: usize = 2;

/// Jobs whose serial pipeline runs under this many milliseconds are not
/// worth parallelizing — thread spawn/join overhead dominates.
pub const PARALLEL_MIN_MS: f64 = 2.0;

/// Per-extra-thread overhead charged by the model, in ms (spawn + join +
/// sharing), so the tuner never picks a wide policy for marginal gains.
const THREAD_OVERHEAD_MS: f64 = 0.06;

/// The windowed histogram name the engine feeds with observed pipeline
/// times for one benchmark×size group at one thread count.
pub fn exec_hist_name(group: &str, threads: usize) -> String {
    format!("exec_ms|{group}|t{threads}")
}

/// The mean observed pipeline time for `group` at `threads`, once at
/// least [`MIN_OBSERVATIONS`] samples exist.
fn observed_mean(reg: &MetricsRegistry, group: &str, threads: usize) -> Option<f64> {
    let h = reg.histogram(&exec_hist_name(group, threads))?;
    (h.count() >= MIN_OBSERVATIONS).then(|| h.mean())
}

/// Thread counts the tuner considers: powers of two up to `auto_threads`,
/// plus `auto_threads` itself.
fn candidates(auto_threads: usize) -> Vec<usize> {
    let auto = auto_threads.max(1);
    let mut out = vec![1usize];
    let mut n = 2usize;
    while n < auto {
        out.push(n);
        n *= 2;
    }
    if auto > 1 {
        out.push(auto);
    }
    out
}

/// Picks the thread count for an `ExecPolicy::Auto` job of `benchmark` in
/// `group` (benchmark×size), given the engine's metrics history.
///
/// Deterministic in the registry contents: the Amdahl curve uses the
/// Table-IV prior until both a serial and a parallel mean are observed,
/// then refines `p` from the measured ratio. Measured means (at
/// [`MIN_OBSERVATIONS`]+ samples) always override the model at their own
/// thread count. Jobs measured faster than [`PARALLEL_MIN_MS`] serially
/// stay serial.
pub fn pick_threads(
    reg: &MetricsRegistry,
    group: &str,
    benchmark: &str,
    auto_threads: usize,
) -> usize {
    let auto = auto_threads.max(1);
    if auto == 1 {
        return 1;
    }
    let candidates = candidates(auto);
    let t1 = observed_mean(reg, group, 1);
    if let Some(t1) = t1 {
        if t1 < PARALLEL_MIN_MS {
            return 1;
        }
    }
    // Refine the prior from the widest thread count with data (the widest
    // gives the best-conditioned estimate of the serial fraction).
    let mut p = prior_parallel_fraction(benchmark);
    if let Some(t1) = t1 {
        let refined = candidates
            .iter()
            .rev()
            .filter(|&&n| n > 1)
            .find_map(|&n| observed_mean(reg, group, n).map(|tn| (n, tn)));
        if let Some((n, tn)) = refined {
            let speed_fraction = (1.0 - tn / t1.max(f64::MIN_POSITIVE)) / (1.0 - 1.0 / n as f64);
            p = speed_fraction.clamp(0.0, 0.995);
        }
    }
    // Relative serial time 1.0 when unmeasured: the overhead term then
    // reads "fraction of a typical serial run", which is conservative.
    let base = t1.unwrap_or(1.0);
    let mut best = (1usize, f64::INFINITY);
    for &n in &candidates {
        let predicted = observed_mean(reg, group, n).unwrap_or_else(|| {
            base * ((1.0 - p) + p / n as f64) + THREAD_OVERHEAD_MS * (n - 1) as f64
        });
        if predicted < best.1 {
            best = (n, predicted);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, qi: u32, qb: u32) -> SchedConfig {
        SchedConfig {
            max_batch,
            quantum_interactive: qi,
            quantum_batch: qb,
        }
    }

    #[test]
    fn class_parsing_defaults_to_interactive() {
        assert_eq!(JobClass::parse(""), Ok(JobClass::Interactive));
        assert_eq!(JobClass::parse("interactive"), Ok(JobClass::Interactive));
        assert_eq!(JobClass::parse("batch"), Ok(JobClass::Batch));
        assert!(JobClass::parse("urgent").is_err());
    }

    #[test]
    fn one_group_dequeues_as_one_batch_up_to_max() {
        let mut drr = Drr::new(cfg(4, 16, 2));
        for id in 0..6 {
            drr.push_back(id, "Disparity Map|sqcif", JobClass::Interactive);
        }
        let b = drr.pop_batch().unwrap();
        assert_eq!(b.ids, vec![0, 1, 2, 3]);
        assert_eq!(b.group, "Disparity Map|sqcif");
        let b = drr.pop_batch().unwrap();
        assert_eq!(b.ids, vec![4, 5]);
        assert!(drr.pop_batch().is_none());
    }

    #[test]
    fn groups_within_a_class_round_robin() {
        let mut drr = Drr::new(cfg(2, 16, 2));
        for id in 0..4 {
            drr.push_back(id, "A", JobClass::Interactive);
        }
        for id in 10..12 {
            drr.push_back(id, "B", JobClass::Interactive);
        }
        assert_eq!(drr.pop_batch().unwrap().ids, vec![0, 1]); // A rotates back
        assert_eq!(drr.pop_batch().unwrap().ids, vec![10, 11]); // B's turn
        assert_eq!(drr.pop_batch().unwrap().ids, vec![2, 3]);
        assert!(drr.is_empty());
    }

    #[test]
    fn batch_class_yields_within_its_quantum() {
        // 10 batch jobs pending, then an interactive arrival: at most
        // 2×quantum_batch batch jobs dispatch before the probe.
        let c = cfg(16, 16, 2);
        let mut drr = Drr::new(c.clone());
        for id in 0..10 {
            drr.push_back(id, "CIF sweep", JobClass::Batch);
        }
        // The dispatcher is mid-stream: take one batch first.
        let first = drr.pop_batch().unwrap();
        assert_eq!(first.class, JobClass::Batch);
        drr.push_back(100, "probe", JobClass::Interactive);
        let mut batch_before_probe = first.ids.len();
        loop {
            let b = drr.pop_batch().unwrap();
            if b.class == JobClass::Interactive {
                assert_eq!(b.ids, vec![100]);
                break;
            }
            batch_before_probe += b.ids.len();
        }
        assert!(
            batch_before_probe <= starvation_bound(&c, 0),
            "{batch_before_probe} batch jobs dispatched ahead of the probe \
             (bound {})",
            starvation_bound(&c, 0)
        );
    }

    #[test]
    fn push_front_requeues_ahead_of_later_arrivals() {
        let mut drr = Drr::new(cfg(1, 16, 2));
        drr.push_back(1, "A", JobClass::Interactive);
        drr.push_back(2, "A", JobClass::Interactive);
        let b = drr.pop_batch().unwrap();
        assert_eq!(b.ids, vec![1]);
        drr.push_front(1, "A", JobClass::Interactive); // worker died; requeue
        assert_eq!(drr.pop_batch().unwrap().ids, vec![1]);
        assert_eq!(drr.pop_batch().unwrap().ids, vec![2]);
    }

    #[test]
    fn drain_all_empties_both_classes() {
        let mut drr = Drr::new(cfg(4, 16, 2));
        drr.push_back(1, "A", JobClass::Interactive);
        drr.push_back(2, "B", JobClass::Batch);
        drr.push_back(3, "A", JobClass::Batch);
        let mut ids = drr.drain_all();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(drr.is_empty());
        assert!(drr.pop_batch().is_none());
    }

    #[test]
    fn sched_queue_enforces_capacity_and_close() {
        let q = SchedQueue::new(2, cfg(4, 16, 2));
        assert_eq!(q.try_push(1, "A", JobClass::Interactive), Ok(()));
        assert_eq!(q.try_push(2, "A", JobClass::Interactive), Ok(()));
        assert_eq!(
            q.try_push(3, "A", JobClass::Interactive),
            Err(SchedPushError::Full)
        );
        q.close();
        assert_eq!(
            q.try_push(4, "A", JobClass::Interactive),
            Err(SchedPushError::Closed)
        );
        // Remaining work still dequeues after close; then None.
        assert_eq!(q.pop_batch().unwrap().ids, vec![1, 2]);
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn tuner_uses_the_prior_cold_and_measurements_warm() {
        let reg = MetricsRegistry::new();
        // Cold, highly parallel prior: go wide (the per-thread overhead
        // term keeps the cold pick conservative, but it must leave 1).
        assert!(pick_threads(&reg, "Disparity Map|cif", "Disparity Map", 8) >= 4);
        // Cold, mostly serial prior: stay narrow.
        assert!(pick_threads(&reg, "Texture Synthesis|cif", "Texture Synthesis", 8) <= 2);
        // auto_threads=1 short-circuits.
        assert_eq!(pick_threads(&reg, "g", "Disparity Map", 1), 1);

        // Tiny measured serial time: stay serial regardless of prior.
        let mut reg = MetricsRegistry::new();
        for _ in 0..MIN_OBSERVATIONS {
            reg.observe(&exec_hist_name("Disparity Map|sqcif", 1), 0.4);
        }
        assert_eq!(
            pick_threads(&reg, "Disparity Map|sqcif", "Disparity Map", 8),
            1
        );

        // Measured anti-scaling overrides an optimistic prior: t(8) worse
        // than t(1) refines p to 0 and the tuner falls back to serial.
        let mut reg = MetricsRegistry::new();
        for _ in 0..MIN_OBSERVATIONS {
            reg.observe(&exec_hist_name("g", 1), 20.0);
            reg.observe(&exec_hist_name("g", 8), 30.0);
        }
        assert_eq!(pick_threads(&reg, "g", "Disparity Map", 8), 1);

        // Measured healthy scaling keeps the wide pick.
        let mut reg = MetricsRegistry::new();
        for _ in 0..MIN_OBSERVATIONS {
            reg.observe(&exec_hist_name("g", 1), 40.0);
            reg.observe(&exec_hist_name("g", 8), 8.0);
        }
        assert_eq!(pick_threads(&reg, "g", "Disparity Map", 8), 8);
    }

    #[test]
    fn starvation_bound_formula_matches_the_docs() {
        let c = cfg(16, 16, 2);
        assert_eq!(starvation_bound(&c, 0), 4); // lone probe: 2×quantum_batch
        assert_eq!(starvation_bound(&c, 15), 4); // still one round
        assert_eq!(starvation_bound(&c, 16), 6); // two rounds
        assert_eq!(starvation_bound(&c, 47), 8);
    }
}
