//! The unified experiment engine: every figure and study in
//! [`crate::experiments`] routes its simulations through this module
//! instead of calling [`crate::simulate`] directly.
//!
//! The pieces:
//!
//! * [`RunKey`] — the identity of one simulation: benchmark name,
//!   predictor configuration, and a content digest of the full
//!   [`SimConfig`]. Two requests with equal keys are the same run.
//! * [`RunPlan`] — the deduplicated set of runs a group of figures
//!   needs. Figures 5–7, for example, all view the same base sweep;
//!   planning them together executes each simulation once.
//! * [`Runner`] — executes a plan on a scoped worker pool (sized to
//!   the machine, or explicitly via [`Runner::with_jobs`]), consulting
//!   an optional [`RunCache`] first. Simulations are deterministic and
//!   independent, so parallel execution is observationally identical
//!   to serial execution.
//! * [`RunCache`] — a persistent content-addressed store of completed
//!   [`RunResult`]s under `results/cache/`, keyed by the run's digest.
//!
//! # Examples
//!
//! ```no_run
//! use bw_core::{RunPlan, Runner, SimConfig};
//! use bw_core::zoo::NamedPredictor;
//! use bw_workload::benchmark;
//!
//! let cfg = SimConfig::quick(1);
//! let mut plan = RunPlan::new();
//! let key = plan.add(
//!     benchmark("gzip").unwrap(),
//!     NamedPredictor::Gshare16k12.config(),
//!     &cfg,
//! );
//! let mut set = Runner::parallel().run(&plan, |_| {});
//! let run = set.remove(&key).unwrap();
//! println!("IPC {:.2}", run.ipc());
//! ```

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use bw_predictors::PredictorConfig;
use bw_trace::Trace;
use bw_types::fnv1a;
use bw_workload::BenchmarkModel;
use serde::{Deserialize, Serialize, Value};

use crate::sim::{RunResult, SimConfig, SimError, SimRequest, SimSource, TraceRunError};
use crate::supervise::{
    attempt_run, CancelToken, Cancelled, Quarantine, RunFailure, RunOutcome, Supervision,
    QUARANTINE_FILE,
};

/// An interned workload identifier: either a built-in benchmark name
/// or a trace identity (`name@digest`).
///
/// Interning keeps [`RunKey`] `Copy` without leaking: non-builtin
/// workloads (trace files) register their name once per process and
/// every key referencing them shares the entry. The *digest* of a key
/// uses the name string itself, so cache identities are stable across
/// processes regardless of interning order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadId(u32);

/// The interner's table: names by id, plus the reverse index.
type InternTable = (Vec<Arc<str>>, HashMap<Arc<str>, u32>);

fn interner() -> &'static Mutex<InternTable> {
    static INTERNER: OnceLock<Mutex<InternTable>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new((Vec::new(), HashMap::new())))
}

impl WorkloadId {
    /// Interns `name`, returning its id (existing entry if already
    /// interned).
    #[must_use]
    pub fn intern(name: &str) -> Self {
        let mut guard = interner().lock().expect("workload interner lock");
        let (names, index) = &mut *guard;
        if let Some(&i) = index.get(name) {
            return WorkloadId(i);
        }
        let arc: Arc<str> = Arc::from(name);
        let i = u32::try_from(names.len()).expect("fewer than 4G distinct workloads");
        names.push(Arc::clone(&arc));
        index.insert(arc, i);
        WorkloadId(i)
    }

    /// The interned name.
    ///
    /// # Panics
    ///
    /// Never in practice: ids only come from [`WorkloadId::intern`] in
    /// this process.
    #[must_use]
    pub fn name(&self) -> Arc<str> {
        let guard = interner().lock().expect("workload interner lock");
        Arc::clone(&guard.0[self.0 as usize])
    }
}

/// Version stamp embedded in every cache file; bump on any change to
/// the serialized layout to orphan stale entries. Version 2 wrapped
/// the identity + result payload in an outer checksummed envelope.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The identity of one simulation run.
///
/// Keys are small (`Copy`) and hashable; the [`SimConfig`] itself is
/// folded in as a content digest, so *any* configuration change —
/// budgets, seed, machine options, technology — produces a distinct
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    workload: WorkloadId,
    predictor: PredictorConfig,
    cfg_digest: u64,
}

impl RunKey {
    /// Builds the key for `model` × `predictor` × `cfg`.
    #[must_use]
    pub fn new(
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
    ) -> Self {
        RunKey {
            workload: WorkloadId::intern(model.name),
            predictor,
            cfg_digest: cfg.digest(),
        }
    }

    /// Builds the key for a trace-driven run. The workload identity is
    /// `name@content-digest`, so editing or re-recording a trace file
    /// invalidates cached results even under the same file name.
    #[must_use]
    pub fn for_trace(trace: &Trace, predictor: PredictorConfig, cfg: &SimConfig) -> Self {
        let id = format!("{}@{:016x}", trace.meta().name, trace.digest());
        RunKey {
            workload: WorkloadId::intern(&id),
            predictor,
            cfg_digest: cfg.digest(),
        }
    }

    /// The workload name (`name@digest` for trace-driven runs).
    #[must_use]
    pub fn benchmark(&self) -> Arc<str> {
        self.workload.name()
    }

    /// The predictor configuration.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// The [`SimConfig::digest`] this key was built with.
    #[must_use]
    pub fn cfg_digest(&self) -> u64 {
        self.cfg_digest
    }

    /// A stable digest of the whole key, used as the cache file stem.
    /// Computed from the workload *name* (not its interning order), so
    /// it is stable across processes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.identity().digest()
    }

    /// The key spelled out as the cache records it.
    pub(crate) fn identity(&self) -> Identity {
        Identity {
            benchmark: self.workload.name().to_string(),
            predictor: format!("{:?}", self.predictor),
            cfg_digest: format!("{:016x}", self.cfg_digest),
        }
    }
}

/// A run's identity as text: the workload name, the predictor's `Debug`
/// form and the config digest in hex. Every cache entry records it
/// beside its result and [`RunKey::digest`] hashes it, so an entry's
/// contents can be checked against the digest in its file name.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Identity {
    pub(crate) benchmark: String,
    pub(crate) predictor: String,
    cfg_digest: String,
}

impl Identity {
    pub(crate) fn digest(&self) -> u64 {
        fnv1a(format!("{}|{}|{}", self.benchmark, self.predictor, self.cfg_digest).as_bytes())
    }
}

/// Where a planned run's instructions come from.
enum PlanSource {
    /// Generate mode: a built-in benchmark model.
    Model(&'static BenchmarkModel),
    /// Replay mode: a loaded trace (shared — several predictor
    /// configurations typically replay the same recording).
    Trace(Arc<Trace>),
}

struct PlanEntry {
    key: RunKey,
    source: PlanSource,
    cfg: SimConfig,
    label: String,
}

/// The deduplicated, ordered set of simulations a group of figures
/// needs.
///
/// [`RunPlan::add`] returns the entry's [`RunKey`]; adding the same
/// run twice is free and returns the same key, which is how several
/// figures share one sweep.
#[derive(Default)]
pub struct RunPlan {
    entries: Vec<PlanEntry>,
    seen: HashSet<RunKey>,
}

impl RunPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        RunPlan::default()
    }

    /// Requests one simulation, with a default progress label.
    pub fn add(
        &mut self,
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
    ) -> RunKey {
        let label = format!("{:?} / {}", predictor, model.name);
        self.add_labeled(model, predictor, cfg, label)
    }

    /// Requests one simulation with an explicit progress label (shown
    /// by the [`Runner`]'s progress callback while the run executes).
    pub fn add_labeled(
        &mut self,
        model: &'static BenchmarkModel,
        predictor: PredictorConfig,
        cfg: &SimConfig,
        label: impl Into<String>,
    ) -> RunKey {
        let key = RunKey::new(model, predictor, cfg);
        if self.seen.insert(key) {
            self.entries.push(PlanEntry {
                key,
                source: PlanSource::Model(model),
                cfg: cfg.clone(),
                label: label.into(),
            });
        }
        key
    }

    /// Requests one trace-driven simulation (replay mode).
    ///
    /// # Errors
    ///
    /// [`TraceRunError::BudgetExceedsTrace`] if the recording is too
    /// short for `cfg`'s warmup + measure budget — checked at plan
    /// time so a short trace fails before any simulation starts.
    pub fn add_trace(
        &mut self,
        trace: &Arc<Trace>,
        predictor: PredictorConfig,
        cfg: &SimConfig,
        label: impl Into<String>,
    ) -> Result<RunKey, TraceRunError> {
        crate::sim::check_trace_budget(trace, cfg)?;
        let key = RunKey::for_trace(trace, predictor, cfg);
        if self.seen.insert(key) {
            self.entries.push(PlanEntry {
                key,
                source: PlanSource::Trace(Arc::clone(trace)),
                cfg: cfg.clone(),
                label: label.into(),
            });
        }
        Ok(key)
    }

    /// Number of distinct runs planned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every planned key with its progress label, in plan order (used
    /// by the supervision invariants).
    #[cfg(feature = "audit")]
    pub(crate) fn keys_and_labels(&self) -> impl Iterator<Item = (RunKey, &str)> {
        self.entries.iter().map(|e| (e.key, e.label.as_str()))
    }
}

/// The results of an executed [`RunPlan`], keyed by [`RunKey`], plus
/// the typed report of every run that did not complete.
///
/// A strict [`Runner::run`] that returns has an empty report; a
/// [`Runner::run_supervised`] set may be degraded, in which case
/// [`summary`](RunSet::summary) describes what failed.
pub struct RunSet {
    pub(crate) results: HashMap<RunKey, RunResult>,
    pub(crate) failures: Vec<RunFailure>,
    pub(crate) executed: usize,
    pub(crate) cache_hits: usize,
    pub(crate) quarantined: usize,
    pub(crate) retries: u32,
    pub(crate) supervision: Supervision,
}

impl RunSet {
    /// Borrows the result for `key` if the run completed.
    #[must_use]
    pub fn get(&self, key: &RunKey) -> Option<&RunResult> {
        self.results.get(key)
    }

    /// Removes and returns the result for `key` if the run completed
    /// (each planned key is present at most once).
    pub fn remove(&mut self, key: &RunKey) -> Option<RunResult> {
        self.results.remove(key)
    }

    /// Number of completed results held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether no run completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// How many runs were simulated (cache misses).
    #[must_use]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// How many runs were served from the [`RunCache`].
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// How many planned keys were skipped by the quarantine.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Total retry attempts consumed across all runs.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Every recorded failure event (terminal failures plus recovered
    /// cache corruptions), in plan order.
    #[must_use]
    pub fn failures(&self) -> &[RunFailure] {
        &self.failures
    }

    /// `true` if anything went wrong — the sweep is usable but a
    /// caller reporting results should surface the failure summary and
    /// exit nonzero.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The policy this set was executed under.
    #[must_use]
    pub fn supervision(&self) -> &Supervision {
        &self.supervision
    }

    /// A human-readable multi-line failure summary (empty string when
    /// clean).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let terminal = self
            .failures
            .iter()
            .filter(|f| f.outcome.is_terminal_failure())
            .count();
        let mut out = format!(
            "{} of {} run(s) degraded ({} executed, {} cache hit(s), {} retried):\n",
            self.failures.len(),
            self.results.len() + terminal,
            self.executed,
            self.cache_hits,
            self.retries,
        );
        for f in &self.failures {
            out.push_str("  FAILED ");
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }
}

/// [`Runner::run`]'s policy: one attempt, no watchdog, no backoff, no
/// quarantine.
const STRICT: Supervision = Supervision {
    run_timeout: None,
    max_attempts: 1,
    backoff: Duration::ZERO,
    quarantine_after: 0,
};

/// Executes [`RunPlan`]s: cache lookups first, then the misses on a
/// scoped worker pool.
///
/// Runs are deterministic functions of their [`RunKey`] inputs and
/// share no state, so the returned [`RunSet`] is identical whatever
/// the job count — parallelism changes wall-clock time only.
pub struct Runner {
    jobs: usize,
    cache: Option<RunCache>,
    supervision: Supervision,
    /// Violations collected from audited simulations (audit feature;
    /// `None` when auditing is off).
    #[cfg(feature = "audit")]
    audit_sink: Option<Mutex<Vec<crate::Violation>>>,
}

impl Runner {
    /// A single-threaded runner with no cache — the drop-in equivalent
    /// of calling [`crate::simulate`] in a loop.
    #[must_use]
    pub fn serial() -> Self {
        Runner {
            jobs: 1,
            cache: None,
            supervision: Supervision::default(),
            #[cfg(feature = "audit")]
            audit_sink: None,
        }
    }

    /// A runner sized to the machine's available cores, no cache.
    #[must_use]
    pub fn parallel() -> Self {
        let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Runner {
            jobs,
            ..Runner::serial()
        }
    }

    /// A runner with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            ..Runner::serial()
        }
    }

    /// Attaches a persistent result cache.
    #[must_use]
    pub fn cached(mut self, cache: RunCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the supervision policy used by
    /// [`run_supervised`](Runner::run_supervised) (watchdog timeout,
    /// retry budget, quarantine threshold). [`run`](Runner::run) is
    /// unaffected.
    #[must_use]
    pub fn supervised(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// Runs every simulation under the runtime sanitizer, collecting
    /// invariant violations (retrieve them with
    /// [`take_violations`](Runner::take_violations)).
    ///
    /// Audited runs always simulate: the persistent cache is neither
    /// read nor written, since a cached result carries no audit
    /// evidence. Results themselves are identical to unaudited runs —
    /// the sanitizer is observation-only.
    #[cfg(feature = "audit")]
    #[must_use]
    pub fn audited(mut self) -> Self {
        self.audit_sink = Some(Mutex::new(Vec::new()));
        self
    }

    /// `true` if this runner audits its simulations.
    #[cfg(feature = "audit")]
    #[must_use]
    pub fn is_audited(&self) -> bool {
        self.audit_sink.is_some()
    }

    /// Drains the violations collected so far across all audited runs.
    #[cfg(feature = "audit")]
    pub fn take_violations(&self) -> Vec<crate::Violation> {
        self.audit_sink
            .as_ref()
            .map(|s| std::mem::take(&mut *s.lock().expect("audit sink lock")))
            .unwrap_or_default()
    }

    /// The cache to consult for this run, `None` when auditing (every
    /// audited run must actually execute).
    fn effective_cache(&self) -> Option<&RunCache> {
        #[cfg(feature = "audit")]
        if self.audit_sink.is_some() {
            return None;
        }
        self.cache.as_ref()
    }

    /// Executes one planned simulation, auditing if enabled; the sim
    /// loop polls `token` between instruction chunks. Under
    /// `fault-inject` the entry's label becomes the thread's ambient
    /// injection scope, so faults can target runs by the same labels a
    /// human sees in progress output.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the run completed.
    fn execute(&self, e: &PlanEntry, token: &CancelToken) -> Result<RunResult, Cancelled> {
        #[cfg(feature = "fault-inject")]
        let _scope = bw_fault::ScopeGuard::enter(&e.label);
        let source = match &e.source {
            PlanSource::Model(model) => SimSource::Model(model),
            PlanSource::Trace(trace) => SimSource::Trace(trace),
        };
        let request = SimRequest::new(source, e.key.predictor, &e.cfg).cancellable(token);
        #[cfg(feature = "audit")]
        let request = if self.audit_sink.is_some() {
            request.audited()
        } else {
            request
        };
        let output = match request.run() {
            Ok(output) => output,
            Err(SimError::Cancelled) => return Err(Cancelled),
            Err(SimError::Trace(err)) => panic!("trace budget was validated at plan time: {err}"),
        };
        #[cfg(feature = "audit")]
        if let Some(sink) = &self.audit_sink {
            if !output.violations.is_empty() {
                sink.lock()
                    .expect("audit sink lock")
                    .extend(output.violations);
            }
        }
        Ok(output.result)
    }

    /// The worker count this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes every run in `plan`, returning the keyed results.
    ///
    /// `progress` receives each entry's label as it starts (from
    /// worker threads when running parallel, hence `Send`).
    ///
    /// A cache entry that fails validation (corrupt file) is evicted
    /// and the run re-executes — identical to a miss. For typed
    /// failure reporting instead of unwinding, see
    /// [`run_supervised`](Runner::run_supervised).
    ///
    /// # Panics
    ///
    /// Panics if a simulation panics, with the original message. No
    /// new run starts after the first failure, but runs already in
    /// flight finish and are stored to the cache first, so a
    /// re-invocation resumes instead of restarting.
    pub fn run(&self, plan: &RunPlan, progress: impl FnMut(&str) + Send) -> RunSet {
        let set = self.execute_plan(plan, progress, true);
        // The strict policy records terminal failures only.
        if let Some(f) = set.failures.first() {
            panic!("{f}");
        }
        set
    }

    /// Executes every run in `plan` under the supervision policy
    /// ([`Runner::supervised`]): each run is isolated with
    /// `catch_unwind`, watched by a wall-clock deadline, retried with
    /// backoff, and reported as a typed [`RunOutcome`] instead of
    /// unwinding the sweep. Keys whose persistent failure count
    /// reached the quarantine threshold are skipped outright.
    ///
    /// Healthy runs produce results identical to
    /// [`run`](Runner::run) — both go through the same executor, and
    /// supervision is pure bookkeeping around the same deterministic
    /// simulations.
    pub fn run_supervised(&self, plan: &RunPlan, progress: impl FnMut(&str) + Send) -> RunSet {
        self.execute_plan(plan, progress, false)
    }

    /// Probes the cache for one entry (fault-injection hook included:
    /// an armed `corrupt` fault targeting this entry's label flips
    /// bytes in the cache file just before the read).
    fn probe_cache(&self, e: &PlanEntry) -> CacheLookup {
        let Some(cache) = self.effective_cache() else {
            return CacheLookup::Miss;
        };
        #[cfg(feature = "fault-inject")]
        if bw_fault::injected_cache_corruption(&e.label) {
            let _ = bw_fault::corrupt_file(&cache.path_for(&e.key), bw_fault::armed_seed());
        }
        cache.load_checked(&e.key)
    }

    /// The one executor behind [`run`](Runner::run) and
    /// [`run_supervised`](Runner::run_supervised): quarantine check
    /// and cache probe per entry, then the misses on a worker pool,
    /// each under [`attempt_run`].
    ///
    /// `strict` selects [`run`](Runner::run)'s policy: [`STRICT`]
    /// instead of the runner's [`Supervision`], no quarantine ledger
    /// read or written, no report of self-healed cache corruption, and
    /// no new claims after the first terminal failure (in-flight runs
    /// still finish and are cached).
    fn execute_plan(
        &self,
        plan: &RunPlan,
        progress: impl FnMut(&str) + Send,
        strict: bool,
    ) -> RunSet {
        let sup = if strict {
            STRICT
        } else {
            self.supervision.clone()
        };
        let mut quarantine = match self.effective_cache() {
            Some(c) if !strict => Quarantine::load(c.dir().join(QUARANTINE_FILE)),
            _ => Quarantine::ephemeral(),
        };

        let mut results = HashMap::with_capacity(plan.entries.len());
        // Failures keyed by plan index so the report reads in plan
        // order whatever the worker completion order.
        let mut failures: Vec<(usize, RunFailure)> = Vec::new();
        let mut misses: Vec<(usize, &PlanEntry)> = Vec::new();
        let mut cache_hits = 0;
        let mut quarantined = 0;
        let failure = |e: &PlanEntry, outcome| RunFailure {
            key: e.key,
            label: e.label.clone(),
            outcome,
        };

        for (i, e) in plan.entries.iter().enumerate() {
            if let Some(q) = quarantine.entry(&e.key) {
                if sup.quarantines(q.failures) {
                    quarantined += 1;
                    let outcome = RunOutcome::Quarantined {
                        failures: q.failures,
                        last_error: q.last_error.clone(),
                    };
                    failures.push((i, failure(e, outcome)));
                    continue;
                }
            }
            match self.probe_cache(e) {
                CacheLookup::Hit(r) => {
                    results.insert(e.key, *r);
                    cache_hits += 1;
                }
                CacheLookup::Corrupt(path) => {
                    // Self-heal (evict + re-execute), and under
                    // supervision still report: a corrupted entry
                    // means something damaged the results directory,
                    // and a silent repair would hide it.
                    if let Some(c) = self.effective_cache() {
                        c.evict(&path);
                    }
                    if !strict {
                        failures.push((i, failure(e, RunOutcome::CacheCorrupt { path })));
                    }
                    misses.push((i, e));
                }
                CacheLookup::Miss => misses.push((i, e)),
            }
        }
        let executed = misses.len();

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let retries = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, RunOutcome)>> = Mutex::new(Vec::with_capacity(executed));
        let progress = Mutex::new(progress);
        let worker = || {
            while !stop.load(Ordering::Relaxed) {
                let Some(&(i, e)) = misses.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                (progress.lock().expect("progress lock"))(&e.label);
                let (outcome, tries) = attempt_run(&sup, |token| self.execute(e, token));
                retries.fetch_add(tries as usize, Ordering::Relaxed);
                match &outcome {
                    RunOutcome::Ok(r) => {
                        if let Some(c) = self.effective_cache() {
                            c.store(&e.key, r);
                        }
                    }
                    _ if strict => stop.store(true, Ordering::Relaxed),
                    _ => {}
                }
                done.lock().expect("result lock").push((i, outcome));
            }
        };
        let workers = self.jobs.min(misses.len());
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
        }
        for (i, outcome) in done.into_inner().expect("result lock") {
            let e = &plan.entries[i];
            match outcome {
                RunOutcome::Ok(r) => {
                    results.insert(e.key, *r);
                }
                outcome => {
                    quarantine.record_failure(&e.key, &outcome);
                    failures.push((i, failure(e, outcome)));
                }
            }
        }
        quarantine.save();

        failures.sort_by_key(|(i, _)| *i);
        let set = RunSet {
            results,
            failures: failures.into_iter().map(|(_, f)| f).collect(),
            executed,
            cache_hits,
            quarantined,
            retries: u32::try_from(retries.into_inner()).unwrap_or(u32::MAX),
            supervision: sup,
        };
        // A stopped strict run is about to re-raise its failure; the
        // entries it never claimed are not supervision bugs.
        #[cfg(feature = "audit")]
        if let (Some(sink), false) = (&self.audit_sink, stop.into_inner()) {
            let violations = crate::supervise::supervision_violations(plan, &set);
            if !violations.is_empty() {
                sink.lock().expect("audit sink lock").extend(violations);
            }
        }
        set
    }
}

impl Default for Runner {
    /// [`Runner::parallel`].
    fn default() -> Self {
        Runner::parallel()
    }
}

/// The result of probing the cache for one key.
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid entry was found.
    Hit(Box<RunResult>),
    /// No entry (or a stale-format entry, which a future store simply
    /// replaces).
    Miss,
    /// An entry exists but failed validation — truncated, bit-flipped,
    /// or undecodable. The caller should [`evict`](RunCache::evict)
    /// the named file and re-execute.
    Corrupt(PathBuf),
}

/// What [`RunCache::verify_dir`] found in a cache directory.
#[derive(Debug, Default)]
pub struct CacheAudit {
    /// Entries that passed every check.
    pub ok: usize,
    /// Entries with an older (or newer) format version — harmless,
    /// replaced on the next store of their key.
    pub stale: usize,
    /// Files that failed parsing, checksum, or identity validation.
    pub corrupt: Vec<PathBuf>,
    /// Leftover `.tmp` staging files from interrupted writers.
    pub stray_tmp: Vec<PathBuf>,
}

impl CacheAudit {
    /// `true` when nothing needs repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.stray_tmp.is_empty()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} stale, {} corrupt, {} stray tmp",
            self.ok,
            self.stale,
            self.corrupt.len(),
            self.stray_tmp.len()
        )
    }
}

/// A size budget for [`RunCache::evict_to_budget`]: either bound (or
/// both) may be set; an unset bound never evicts. The default budget
/// is unbounded (no eviction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum total bytes of cache entries; `None` = unbounded.
    pub max_bytes: Option<u64>,
    /// Maximum number of cache entries; `None` = unbounded.
    pub max_entries: Option<usize>,
}

impl CacheBudget {
    /// `true` when neither bound is set (eviction passes are no-ops).
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_entries.is_none()
    }
}

/// One cache entry as enumerated by [`RunCache::entries`].
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Where the entry lives (sharded or legacy flat layout).
    pub path: PathBuf,
    /// The key digest parsed from the file name.
    pub digest: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-accessed rank in epoch nanoseconds (mtime fallback; 0 when
    /// unreadable) — the LRU ordering key.
    pub accessed_ns: u64,
}

/// What an eviction pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Entries removed.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries left in the cache.
    pub retained: usize,
    /// Bytes left in the cache.
    pub retained_bytes: u64,
    /// Entries that were over budget but pinned by an in-flight run
    /// and therefore kept.
    pub pinned_kept: usize,
}

impl EvictReport {
    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "evicted {} entr(ies) / {} bytes, retained {} / {} bytes, {} pinned",
            self.evicted, self.evicted_bytes, self.retained, self.retained_bytes, self.pinned_kept
        )
    }
}

/// A persistent content-addressed store of completed runs.
///
/// One JSON file per [`RunKey`] under the cache directory, named
/// `<benchmark>-<key digest>.json` inside a two-level layout: entries
/// fan out into 256 shard subdirectories keyed by the top byte of the
/// key digest (`<dir>/<aa>/<benchmark>-<digest>.json`), so a corpus of
/// thousands of `name@digest` trace entries does not pile into one
/// flat directory. Caches written by earlier versions stored entries
/// flat at the root; [`load_checked`] still reads those transparently,
/// and [`migrate`](RunCache::migrate) moves them into their shards.
/// Each file is an outer envelope —
/// format version, FNV-1a checksum, and the serialized identity +
/// result payload as one string — so [`load_checked`] distinguishes a
/// *stale* entry (old format version: silently a miss) from a
/// *corrupt* one (truncation or bit damage: reported, evicted,
/// re-executed).
///
/// Writes go through [`bw_types::fsutil::atomic_write`] (stage to a
/// `.tmp` sibling, then rename): readers observe either the old
/// complete file or the new complete file, and — because rename is
/// atomic and serialization is deterministic (same key,
/// byte-identical file) — concurrent writers racing on one key are
/// harmless.
///
/// [`load_checked`]: RunCache::load_checked
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: PathBuf,
}

/// One cache file, decoded by [`decode_entry`].
enum Decoded {
    /// An envelope from another format generation: not damage, just an
    /// entry the next store of its key replaces.
    Stale,
    /// Unparsable, failing its checksum, or carrying a payload that
    /// does not decode.
    Corrupt,
    /// The identity the entry was stored under, and its result.
    Entry(Identity, Box<RunResult>),
}

/// Encodes one cache file: an envelope holding the format version, an
/// FNV-1a checksum, and the identity + result payload as one string.
/// The checksum covers the payload's exact bytes, so verification never
/// depends on float re-canonicalization.
fn encode_entry(identity: Identity, result: &RunResult) -> Option<String> {
    let payload = serde_json::to_string(&Value::Obj(vec![
        ("benchmark".into(), Value::Str(identity.benchmark)),
        ("predictor".into(), Value::Str(identity.predictor)),
        ("cfg_digest".into(), Value::Str(identity.cfg_digest)),
        ("result".into(), result.to_value()),
    ]))
    .ok()?;
    let envelope = Value::Obj(vec![
        ("format_version".into(), CACHE_FORMAT_VERSION.to_value()),
        (
            "checksum".into(),
            Value::Str(format!("{:016x}", fnv1a(payload.as_bytes()))),
        ),
        ("payload".into(), Value::Str(payload)),
    ]);
    serde_json::to_string_pretty(&envelope).ok()
}

/// Decodes one cache file written by [`encode_entry`]; never panics,
/// whatever the text.
fn decode_entry(text: &str) -> Decoded {
    let decode = || -> Option<Decoded> {
        let v = serde_json::parse_value_str(text).ok()?;
        if u32::from_value(v.get("format_version")?).ok()? != CACHE_FORMAT_VERSION {
            return Some(Decoded::Stale);
        }
        let (Value::Str(checksum), Value::Str(payload)) = (v.get("checksum")?, v.get("payload")?)
        else {
            return None;
        };
        if *checksum != format!("{:016x}", fnv1a(payload.as_bytes())) {
            return None;
        }
        let Value::Obj(mut fields) = serde_json::parse_value_str(payload).ok()? else {
            return None;
        };
        // Move the identity out of the parsed payload instead of
        // copying it.
        let mut take = |name: &str| match fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, Value::Str(s))) => Some(std::mem::take(s)),
            _ => None,
        };
        let identity = Identity {
            benchmark: take("benchmark")?,
            predictor: take("predictor")?,
            cfg_digest: take("cfg_digest")?,
        };
        let result = RunResult::from_value(Value::Obj(fields).get("result")?).ok()?;
        Some(Decoded::Entry(identity, Box::new(result)))
    };
    decode().unwrap_or(Decoded::Corrupt)
}

/// A path's file name as text (empty when it has none).
fn file_name_of(path: &Path) -> std::borrow::Cow<'_, str> {
    path.file_name().unwrap_or_default().to_string_lossy()
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunCache { dir: dir.into() }
    }

    /// The conventional cache location, `results/cache/` under the
    /// current directory.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    /// A cache at [`RunCache::default_dir`].
    #[must_use]
    pub fn at_default() -> Self {
        RunCache::new(Self::default_dir())
    }

    /// The cache's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file name (without directory) an entry is stored under. The
    /// workload name is sanitized for the filesystem (trace ids carry
    /// `@` and arbitrary user-supplied names); identity lives in the
    /// digest, the name is only there for humans browsing the cache
    /// directory.
    fn file_name(benchmark: &str, digest: u64) -> String {
        let name: String = benchmark
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '@') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{name}-{digest:016x}.json")
    }

    /// The key digest an entry's file name carries
    /// (`<name>-<16 hex digits>.json`); `None` for every other file —
    /// the quarantine ledger, the flight journal, stray `.tmp` staging
    /// files.
    fn digest_of(file_name: &str) -> Option<u64> {
        let (_, hex) = file_name.strip_suffix(".json")?.rsplit_once('-')?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    /// The shard subdirectory name for a key digest: the digest's top
    /// byte as two hex characters, giving a 256-way fan-out.
    fn shard_name(digest: u64) -> String {
        format!("{:02x}", digest >> 56)
    }

    /// `true` for directory names that are shard subdirectories.
    fn is_shard_name(name: &str) -> bool {
        name.len() == 2
            && name
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    }

    /// A key's identity and the file its entry lives at in the sharded
    /// layout (the identity is spelled out once for both).
    fn locate(&self, key: &RunKey) -> (Identity, PathBuf) {
        let identity = key.identity();
        let digest = identity.digest();
        let path = self
            .dir
            .join(Self::shard_name(digest))
            .join(Self::file_name(&identity.benchmark, digest));
        (identity, path)
    }

    /// The pre-sharding flat location of a sharded entry path: the
    /// same file name at the root.
    fn flat(&self, sharded: &Path) -> PathBuf {
        self.dir.join(sharded.file_name().unwrap_or_default())
    }

    /// The file a key's result lives at in the sharded layout:
    /// `<dir>/<shard>/<benchmark>-<digest>.json`.
    #[must_use]
    pub fn path_for(&self, key: &RunKey) -> PathBuf {
        self.locate(key).1
    }

    /// Where the pre-sharding flat layout stored this key. Still read
    /// transparently on a sharded-path miss, so old caches keep
    /// serving hits; [`migrate`](RunCache::migrate) moves such entries
    /// into their shards.
    #[must_use]
    pub fn legacy_path_for(&self, key: &RunKey) -> PathBuf {
        self.flat(&self.path_for(key))
    }

    /// Loads a cached result, or `None` on miss / stale format /
    /// corruption (never panics, whatever the file contains).
    #[must_use]
    pub fn load(&self, key: &RunKey) -> Option<RunResult> {
        match self.load_checked(key) {
            CacheLookup::Hit(r) => Some(*r),
            CacheLookup::Miss | CacheLookup::Corrupt(_) => None,
        }
    }

    /// Removes one cache file (best-effort; eviction of a file that is
    /// already gone is a no-op).
    pub fn evict(&self, path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    /// Probes the cache for `key`, distinguishing a clean miss (no
    /// file, or a stale format version) from a corrupt entry that
    /// should be evicted and reported.
    #[must_use]
    pub fn load_checked(&self, key: &RunKey) -> CacheLookup {
        let (identity, sharded) = self.locate(key);
        // Probe the sharded location first, then fall back to the
        // pre-sharding flat layout so old caches keep serving hits.
        let (path, text) = match std::fs::read_to_string(&sharded) {
            Ok(text) => (sharded, text),
            Err(_) => {
                let legacy = self.flat(&sharded);
                match std::fs::read_to_string(&legacy) {
                    Ok(text) => (legacy, text),
                    Err(_) => return CacheLookup::Miss,
                }
            }
        };
        match decode_entry(&text) {
            Decoded::Entry(stored, result) if stored == identity => CacheLookup::Hit(result),
            // Another identity under this key's digest is a miss: a
            // digest collision would be astronomically rare, but a
            // hand-renamed or copied file lands here too.
            Decoded::Stale | Decoded::Entry(..) => CacheLookup::Miss,
            Decoded::Corrupt => CacheLookup::Corrupt(path),
        }
    }

    /// Stores a result. The write is atomic (staged `.tmp` sibling +
    /// rename), so a reader never observes a torn entry and an
    /// interrupted writer damages nothing. Failures (e.g. an
    /// unwritable directory) are swallowed: the cache is an
    /// accelerator, not a ledger.
    pub fn store(&self, key: &RunKey, result: &RunResult) {
        let (identity, path) = self.locate(key);
        let Some(text) = encode_entry(identity, result) else {
            return;
        };
        if bw_types::fsutil::atomic_write(&path, text.as_bytes()).is_ok() {
            // The sharded entry now supersedes any flat-layout
            // leftover for the same key; drop it so verify passes
            // don't double-count the identity.
            self.evict(&self.flat(&path));
        }
    }

    /// Every file in the cache, sorted: the root's own files (legacy
    /// flat entries, the quarantine ledger, the flight journal) and
    /// the contents of the shard subdirectories. Other directories are
    /// not ours to judge; a missing directory has no files.
    fn files(&self) -> Vec<PathBuf> {
        let mut paths = Vec::new();
        let Ok(root) = std::fs::read_dir(&self.dir) else {
            return paths;
        };
        for path in root.filter_map(|e| e.ok().map(|e| e.path())) {
            if !path.is_dir() {
                paths.push(path);
            } else if Self::is_shard_name(&file_name_of(&path)) {
                if let Ok(shard) = std::fs::read_dir(&path) {
                    paths.extend(shard.filter_map(|e| e.ok().map(|e| e.path())));
                }
            }
        }
        paths.sort();
        paths
    }

    /// Validates every file in the cache directory: JSON envelope,
    /// checksum, payload decode, and that the file name's digest stem
    /// matches the identity recorded inside. Also reports stray `.tmp`
    /// staging files. A missing directory is an empty (clean) cache.
    #[must_use]
    pub fn verify_dir(&self) -> CacheAudit {
        let mut audit = CacheAudit::default();
        for path in self.files() {
            let name = file_name_of(&path);
            if name == QUARANTINE_FILE {
                continue;
            }
            if name.ends_with(".tmp") {
                audit.stray_tmp.push(path);
                continue;
            }
            let digest = Self::digest_of(&name);
            match std::fs::read_to_string(&path).map_or(Decoded::Corrupt, |t| decode_entry(&t)) {
                // The file name must carry the digest of the identity
                // inside — a renamed or cross-copied file would
                // otherwise satisfy a key it does not answer.
                Decoded::Entry(identity, _) if digest == Some(identity.digest()) => audit.ok += 1,
                Decoded::Stale | Decoded::Entry(..) => audit.stale += 1,
                Decoded::Corrupt => audit.corrupt.push(path),
            }
        }
        audit
    }

    /// Verifies the directory and evicts everything damaged (corrupt
    /// entries and stray `.tmp` staging files), returning the audit
    /// that drove the evictions. Stale-format entries are left alone —
    /// they are replaced lazily on their next store.
    pub fn repair(&self) -> CacheAudit {
        let audit = self.verify_dir();
        for path in audit.corrupt.iter().chain(&audit.stray_tmp) {
            self.evict(path);
        }
        audit
    }

    /// Moves legacy flat-layout entries into their shard
    /// subdirectories, returning how many files moved.
    ///
    /// Only files matching the cache naming scheme
    /// (`<name>-<16 hex digits>.json`) are touched; the digest in the
    /// file name decides the shard, so even a stale-format entry lands
    /// where its next store would. Corrupt files that happen to carry
    /// a well-formed name move too — [`repair`](RunCache::repair)
    /// remains the tool that deletes them. Purely a rename pass that
    /// never reads an entry: safe to re-run, a no-op on an
    /// already-sharded (or missing) cache.
    pub fn migrate(&self) -> usize {
        let mut moved = 0;
        for path in self.files() {
            if path.parent() != Some(self.dir.as_path()) {
                continue; // already in a shard
            }
            let name = file_name_of(&path);
            let Some(digest) = Self::digest_of(&name) else {
                continue;
            };
            let shard = self.dir.join(Self::shard_name(digest));
            if std::fs::create_dir_all(&shard).is_ok()
                && std::fs::rename(&path, shard.join(&*name)).is_ok()
            {
                moved += 1;
            }
        }
        moved
    }

    /// Every entry in the cache (root legacy layout plus shard
    /// subdirectories) matching the cache naming scheme
    /// (`<name>-<16 hex digits>.json`), with its key digest, byte
    /// size, and last-accessed rank. Foreign files — the quarantine
    /// ledger, the flight journal, stray `.tmp` staging files — are
    /// not entries and are never returned (so never evicted by
    /// budget).
    #[must_use]
    pub fn entries(&self) -> Vec<CacheEntry> {
        let entry = |path: PathBuf| {
            let digest = Self::digest_of(&file_name_of(&path))?;
            let meta = std::fs::metadata(&path).ok()?;
            // LRU rank from atime (mtime when atime is unavailable,
            // e.g. noatime mounts), flattened to epoch nanoseconds so
            // ordering needs no clock types on this deterministic path.
            let stamp = meta
                .accessed()
                .or_else(|_| meta.modified())
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
            Some(CacheEntry {
                path,
                digest,
                bytes: meta.len(),
                accessed_ns: stamp,
            })
        };
        self.files().into_iter().filter_map(entry).collect()
    }

    /// Total `(bytes, entry count)` currently held, by the same
    /// enumeration as [`entries`](RunCache::entries).
    #[must_use]
    pub fn usage(&self) -> (u64, usize) {
        let entries = self.entries();
        (entries.iter().map(|e| e.bytes).sum(), entries.len())
    }

    /// Evicts least-recently-accessed entries until the cache fits
    /// `budget`, never touching entries for which `pinned` returns
    /// `true` (the daemon pins every digest with an in-flight
    /// single-flight, so eviction can neither lose a run that is about
    /// to be stored nor force a duplicate execution of one being
    /// delivered).
    ///
    /// Ties on access time break toward the lexicographically smaller
    /// path, keeping the pass deterministic on coarse-clock
    /// filesystems.
    pub fn evict_to_budget(
        &self,
        budget: &CacheBudget,
        pinned: &dyn Fn(u64) -> bool,
    ) -> EvictReport {
        let mut entries = self.entries();
        entries.sort_by(|a, b| {
            a.accessed_ns
                .cmp(&b.accessed_ns)
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut report = EvictReport::default();
        let mut bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut count = entries.len();
        let over = |bytes: u64, count: usize| {
            budget.max_bytes.is_some_and(|cap| bytes > cap)
                || budget.max_entries.is_some_and(|cap| count > cap)
        };
        for entry in &entries {
            if !over(bytes, count) {
                break;
            }
            if pinned(entry.digest) {
                report.pinned_kept += 1;
                continue;
            }
            self.evict(&entry.path);
            bytes = bytes.saturating_sub(entry.bytes);
            count -= 1;
            report.evicted += 1;
            report.evicted_bytes += entry.bytes;
        }
        report.retained = count;
        report.retained_bytes = bytes;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NamedPredictor;
    use bw_workload::benchmark;

    fn small_plan(cfg: &SimConfig) -> (RunPlan, Vec<RunKey>) {
        let mut plan = RunPlan::new();
        let mut keys = Vec::new();
        for p in [NamedPredictor::Bim128, NamedPredictor::Gshare16k12] {
            for m in ["gzip", "vortex"] {
                keys.push(plan.add(benchmark(m).unwrap(), p.config(), cfg));
            }
        }
        (plan, keys)
    }

    #[test]
    fn plan_deduplicates_identical_requests() {
        let cfg = SimConfig::quick(1);
        let mut plan = RunPlan::new();
        let m = benchmark("gzip").unwrap();
        let a = plan.add(m, NamedPredictor::Bim4k.config(), &cfg);
        let b = plan.add(m, NamedPredictor::Bim4k.config(), &cfg);
        assert_eq!(a, b);
        assert_eq!(plan.len(), 1);
        // A different budget is a different run.
        let c = plan.add(m, NamedPredictor::Bim4k.config(), &SimConfig::quick(2));
        assert_ne!(a, c);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn key_digest_tracks_every_config_field() {
        let m = benchmark("gzip").unwrap();
        let p = NamedPredictor::Bim4k.config();
        let base = RunKey::new(m, p, &SimConfig::quick(1));
        let mut longer = SimConfig::quick(1);
        longer.measure_insts += 1;
        assert_ne!(base, RunKey::new(m, p, &longer));
        assert_ne!(base.digest(), RunKey::new(m, p, &longer).digest());
        let mut banked = SimConfig::quick(1);
        banked.banked = true;
        assert_ne!(base, RunKey::new(m, p, &banked));
    }

    #[test]
    fn parallel_results_match_serial() {
        let cfg = SimConfig::quick(3);
        let (plan_a, keys) = small_plan(&cfg);
        let (plan_b, _) = small_plan(&cfg);
        let mut serial = Runner::serial().run(&plan_a, |_| {});
        let mut par = Runner::with_jobs(4).run(&plan_b, |_| {});
        assert_eq!(serial.executed(), keys.len());
        assert_eq!(par.executed(), keys.len());
        for k in &keys {
            let a = serial.remove(k).unwrap();
            let b = par.remove(k).unwrap();
            assert_eq!(a.stats, b.stats, "{k:?}");
            assert!((a.total_energy_j() - b.total_energy_j()).abs() < 1e-18);
            assert_eq!(a.predictor, b.predictor);
        }
    }

    #[test]
    fn progress_labels_are_reported() {
        let cfg = SimConfig::quick(4);
        let mut plan = RunPlan::new();
        plan.add_labeled(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim128.config(),
            &cfg,
            "custom label",
        );
        let labels = Mutex::new(Vec::new());
        Runner::serial().run(&plan, |l| labels.lock().unwrap().push(l.to_string()));
        assert_eq!(labels.into_inner().unwrap(), vec!["custom label"]);
    }

    #[test]
    fn cache_paths_shard_by_digest_prefix() {
        let cache = RunCache::new("some-dir");
        let key = RunKey::new(
            benchmark("gzip").unwrap(),
            NamedPredictor::Bim4k.config(),
            &SimConfig::quick(1),
        );
        let path = cache.path_for(&key);
        let shard = path
            .parent()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap();
        assert_eq!(shard, format!("{:02x}", key.digest() >> 56));
        assert!(RunCache::is_shard_name(&shard));
        assert!(!RunCache::is_shard_name("ab c"));
        assert!(!RunCache::is_shard_name("AB"));
        assert!(!RunCache::is_shard_name("abc"));
        // The legacy path is the same file name, flat at the root.
        assert_eq!(
            cache.legacy_path_for(&key).file_name(),
            path.file_name(),
            "flat and sharded layouts share the file name"
        );
        assert_eq!(cache.legacy_path_for(&key).parent().unwrap(), cache.dir());
    }

    #[test]
    fn cache_reads_legacy_flat_entries_and_migrates_them() {
        let dir = std::env::temp_dir().join(format!("bw-cache-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let cfg = SimConfig::quick(11);
        let m = benchmark("gzip").unwrap();
        let key = RunKey::new(m, NamedPredictor::Bim128.config(), &cfg);
        let result = crate::sim::simulate(m, NamedPredictor::Bim128.config(), &cfg);

        // Simulate a pre-sharding cache: store, then move the entry to
        // the flat location an old version would have used.
        cache.store(&key, &result);
        std::fs::rename(cache.path_for(&key), cache.legacy_path_for(&key)).unwrap();
        assert!(
            matches!(cache.load_checked(&key), CacheLookup::Hit(_)),
            "flat legacy entries must keep serving hits"
        );

        // Migration moves it into its shard; reads keep working.
        assert_eq!(cache.migrate(), 1);
        assert!(!cache.legacy_path_for(&key).exists());
        assert!(cache.path_for(&key).is_file());
        assert!(matches!(cache.load_checked(&key), CacheLookup::Hit(_)));
        assert_eq!(cache.migrate(), 0, "already sharded: nothing to move");

        // verify_dir descends into shards and still counts the entry.
        let audit = cache.verify_dir();
        assert_eq!(audit.ok, 1, "{}", audit.summary());
        assert!(audit.is_clean());

        // A fresh store of the same key evicts a flat-layout leftover.
        std::fs::copy(cache.path_for(&key), cache.legacy_path_for(&key)).unwrap();
        cache.store(&key, &result);
        assert!(!cache.legacy_path_for(&key).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
