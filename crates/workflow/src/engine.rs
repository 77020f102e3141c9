//! The workflow engine: instantiation, dependency-driven scheduling,
//! default status policy, permissions, triggers, reset/rerun, status
//! collection — and fault tolerance.
//!
//! A workflow product suite must keep a design flow coherent when
//! individual tools misbehave. The engine therefore isolates every
//! action behind `catch_unwind` (a crashing tool fails its step, it
//! does not poison the scheduler), retries failed attempts under a
//! per-step [`RetryPolicy`] with exponential backoff and deterministic
//! jitter, enforces per-step timeouts against injected latency on a
//! [`VirtualClock`], and always terminates [`Engine::run_to_fixpoint`]
//! with a [`FixpointReport`] accounting for every step that could not
//! be completed. Chaos is injected deterministically through a seeded
//! [`FaultPlan`], so a failing run reproduces from one integer.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use interop_core::fault::{FaultKind, FaultPlan, RetryPolicy, VirtualClock};
use obs::{NullRecorder, Recorder, Span};

use crate::action::{Action, ActionCtx, ActionOutcome, StepState};
use crate::data::{DataStore, Maturity, Stamp};
use crate::template::{BlockTree, Dependency, FlowTemplate, TemplateError};

/// Scheduler-visible step status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not yet run; waiting on start dependencies (or retry backoff).
    Pending,
    /// Ran successfully but finish dependencies are unmet.
    AwaitingFinish,
    /// Completed.
    Done,
    /// Action failed on its only allowed attempt.
    Failed,
    /// Action failed and its retry budget is exhausted (or a
    /// non-retryable fault was injected): the engine gave up after
    /// trying. The flow around it keeps running.
    Degraded,
    /// Invalidated by an upstream change; will rerun.
    Stale,
    /// The current user lacks the required role.
    PermissionBlocked,
}

impl Status {
    /// True for statuses the scheduler will never act on again without
    /// an external reset.
    pub fn is_terminal_failure(&self) -> bool {
        matches!(self, Status::Failed | Status::Degraded)
    }
}

/// One instantiated step.
#[derive(Debug, Clone)]
pub struct StepInst {
    /// Full name `block/path/step`.
    pub full_name: String,
    /// Owning block path.
    pub block: String,
    /// Action key.
    pub action: String,
    /// Resolved start dependencies (full step names / absolute paths).
    pub start_deps: Vec<Dependency>,
    /// Resolved finish dependencies.
    pub finish_deps: Vec<Dependency>,
    /// Required role.
    pub required_role: Option<String>,
    /// Steps that must all be Done when this dep is `ChildrenComplete`.
    pub children_steps: Vec<String>,
    /// Retry policy for this step's attempts.
    pub retry: RetryPolicy,
    /// Per-attempt timeout in virtual ticks (`None` = unlimited).
    pub timeout_ticks: Option<u64>,
    /// Current status.
    pub status: Status,
    /// Times the action ran (all incarnations).
    pub runs: u32,
    /// Attempts within the current incarnation (reset on rerun).
    pub attempts: u32,
    /// Earliest tick the next retry attempt may start (backoff gate).
    pub next_eligible: Option<Stamp>,
    /// Tick of first run.
    pub first_run: Option<Stamp>,
    /// Tick the step reached Done.
    pub completed: Option<Stamp>,
    /// Last action log.
    pub log: String,
}

/// A change trigger: "Trigger-based procedures provide the ability to
/// notify the user when something has changed in the design that does,
/// or might, require them to rework some of their steps."
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Fires when a written path contains this substring.
    pub path_contains: String,
    /// Completed steps (full-name suffix match) to mark stale.
    pub mark_stale_suffix: String,
    /// Notification text.
    pub note: String,
}

/// An engine-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Template failed validation.
    Template(TemplateError),
    /// A step references an unregistered action.
    UnknownAction {
        /// Step name.
        step: String,
        /// Missing action key.
        action: String,
    },
    /// Unknown step name in an API call.
    NoSuchStep(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Template(e) => write!(f, "template: {e}"),
            EngineError::UnknownAction { step, action } => {
                write!(f, "step `{step}` uses unregistered action `{action}`")
            }
            EngineError::NoSuchStep(s) => write!(f, "no step named `{s}`"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TemplateError> for EngineError {
    fn from(e: TemplateError) -> Self {
        EngineError::Template(e)
    }
}

/// Overall verdict of a [`FixpointReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Every step is Done.
    Complete,
    /// Quiescent with failed or degraded steps: the flow did all it
    /// could around the failures.
    Degraded,
    /// Quiescent with no failures but steps still waiting (unmet data
    /// dependencies, permission blocks, unmet finish deps).
    Stalled,
}

/// What [`Engine::run_to_fixpoint`] observed: the fixpoint always
/// arrives, and this is the accounting of how and what was left behind.
#[derive(Debug, Clone, Default)]
pub struct FixpointReport {
    /// Scheduler passes needed to reach the fixpoint.
    pub ticks: usize,
    /// Total action attempts run.
    pub actions: usize,
    /// Attempts beyond each incarnation's first (retry volume).
    pub retries: u64,
    /// Attempts cut off by a per-step timeout.
    pub timeouts: u64,
    /// Attempts that panicked and were isolated.
    pub panics: u64,
    /// Faults injected by the active [`FaultPlan`].
    pub faults_injected: u64,
    /// Virtual ticks spent in injected latency and backoff delays.
    pub virtual_ticks: u64,
    /// Steps that ended Failed.
    pub failed: Vec<String>,
    /// Steps that ended Degraded (retry budget exhausted).
    pub degraded: Vec<String>,
    /// Steps left Pending / AwaitingFinish / PermissionBlocked.
    pub waiting: Vec<String>,
}

impl FixpointReport {
    /// The overall verdict.
    pub fn status(&self) -> FlowStatus {
        if !self.failed.is_empty() || !self.degraded.is_empty() {
            FlowStatus::Degraded
        } else if self.waiting.is_empty() {
            FlowStatus::Complete
        } else {
            FlowStatus::Stalled
        }
    }
}

impl std::fmt::Display for FixpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} in {} ticks: {} actions ({} retries, {} timeouts, {} panics, {} faults), \
             {} failed, {} degraded, {} waiting",
            self.status(),
            self.ticks,
            self.actions,
            self.retries,
            self.timeouts,
            self.panics,
            self.faults_injected,
            self.failed.len(),
            self.degraded.len(),
            self.waiting.len()
        )
    }
}

/// What one attempt at an action produced, after fault injection,
/// panic isolation, and timeout enforcement.
enum AttemptResult {
    Finished(ActionOutcome),
    Panicked(String),
    TimedOut { latency: u64, budget: u64 },
}

/// The workflow engine.
pub struct Engine {
    actions: BTreeMap<String, Box<dyn Action>>,
    /// The design-data store.
    pub store: DataStore,
    steps: Vec<StepInst>,
    by_name: BTreeMap<String, usize>,
    triggers: Vec<Trigger>,
    /// Notifications raised by triggers and permission blocks.
    pub notifications: Vec<String>,
    roles: BTreeSet<String>,
    changes_seen: usize,
    recorder: Arc<dyn Recorder>,
    fault_plan: FaultPlan,
    default_retry: RetryPolicy,
    clock: VirtualClock,
    // Cumulative chaos accounting (reported per run_to_fixpoint call
    // as deltas).
    retries: u64,
    timeouts: u64,
    panics: u64,
    faults_injected: u64,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine {
            actions: BTreeMap::new(),
            store: DataStore::new(),
            steps: Vec::new(),
            by_name: BTreeMap::new(),
            triggers: Vec::new(),
            notifications: Vec::new(),
            roles: BTreeSet::new(),
            changes_seen: 0,
            recorder: Arc::new(NullRecorder),
            fault_plan: FaultPlan::none(),
            default_retry: RetryPolicy::default(),
            clock: VirtualClock::new(),
            retries: 0,
            timeouts: 0,
            panics: 0,
            faults_injected: 0,
        }
    }

    /// Routes the scheduler's spans and counters into `recorder`: a
    /// `workflow.tick` span per scheduling pass, a
    /// `workflow.action.<key>` span per action attempt (with `step` and
    /// `attempt` attributes), counters `workflow.actions` /
    /// `workflow.notifications` / `workflow.retries` /
    /// `workflow.timeouts` / `workflow.panics` /
    /// `workflow.faults.injected`, and a `workflow.tick.actions`
    /// histogram of per-tick run counts.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Installs a deterministic fault plan. Sites are full step names;
    /// attempts are 1-based per incarnation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Sets the retry policy applied to steps that do not declare their
    /// own (the default allows a single attempt — no retries). Steps
    /// capture the default at [`Engine::deploy`] time, so call this
    /// before deploying.
    pub fn set_default_retry(&mut self, policy: RetryPolicy) {
        self.default_retry = policy;
    }

    /// The engine's virtual clock: injected latency, enforced timeouts,
    /// and backoff delays all accumulate here instead of wall time.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Registers an action under a key.
    pub fn register(&mut self, key: impl Into<String>, action: impl Action + 'static) {
        self.actions.insert(key.into(), Box::new(action));
    }

    /// Grants the current user a role.
    pub fn grant_role(&mut self, role: impl Into<String>) {
        self.roles.insert(role.into());
    }

    /// Adds a change trigger.
    pub fn add_trigger(&mut self, t: Trigger) {
        self.triggers.push(t);
    }

    /// Deploys a template over a block hierarchy: every block gets its
    /// own namespaced instance of every step ("the data and process
    /// status is kept separate for each block").
    ///
    /// # Errors
    ///
    /// Fails on template validation errors or unregistered actions.
    pub fn deploy(&mut self, template: &FlowTemplate, tree: &BlockTree) -> Result<(), EngineError> {
        template.validate()?;
        for step in &template.steps {
            if !self.actions.contains_key(&step.action) {
                return Err(EngineError::UnknownAction {
                    step: step.name.clone(),
                    action: step.action.clone(),
                });
            }
        }
        let blocks = tree.walk();
        for (path, block) in &blocks {
            // Full names of all steps in strict descendants.
            let mut descendant_steps = Vec::new();
            for (child_path, _) in &blocks {
                if child_path != path && child_path.starts_with(&format!("{path}/")) {
                    for s in &template.steps {
                        descendant_steps.push(format!("{child_path}/{}", s.name));
                    }
                }
            }
            let _ = block;
            for step in &template.steps {
                let resolve = |d: &Dependency| -> Dependency {
                    match d {
                        Dependency::StepDone(t) => Dependency::StepDone(format!("{path}/{t}")),
                        Dependency::Data(m) => Dependency::Data(prefix_maturity(m, path)),
                        Dependency::ChildrenComplete => Dependency::ChildrenComplete,
                    }
                };
                let inst = StepInst {
                    full_name: format!("{path}/{}", step.name),
                    block: path.clone(),
                    action: step.action.clone(),
                    start_deps: step.start_deps.iter().map(resolve).collect(),
                    finish_deps: step.finish_deps.iter().map(resolve).collect(),
                    required_role: step.required_role.clone(),
                    children_steps: descendant_steps.clone(),
                    retry: step
                        .retry
                        .clone()
                        .unwrap_or_else(|| self.default_retry.clone()),
                    timeout_ticks: step.timeout_ticks,
                    status: Status::Pending,
                    runs: 0,
                    attempts: 0,
                    next_eligible: None,
                    first_run: None,
                    completed: None,
                    log: String::new(),
                };
                self.by_name
                    .insert(inst.full_name.clone(), self.steps.len());
                self.steps.push(inst);
            }
        }
        Ok(())
    }

    /// All step instances.
    pub fn steps(&self) -> &[StepInst] {
        &self.steps
    }

    /// One step by full name.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn step(&self, full_name: &str) -> Result<&StepInst, EngineError> {
        self.by_name
            .get(full_name)
            .map(|&i| &self.steps[i])
            .ok_or_else(|| EngineError::NoSuchStep(full_name.to_string()))
    }

    /// Sets a step's state explicitly through the API.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn set_state(&mut self, full_name: &str, state: StepState) -> Result<(), EngineError> {
        let idx = *self
            .by_name
            .get(full_name)
            .ok_or_else(|| EngineError::NoSuchStep(full_name.to_string()))?;
        self.steps[idx].status = match state {
            StepState::Done => Status::Done,
            StepState::Failed => Status::Failed,
            StepState::Stale => Status::Stale,
        };
        if state == StepState::Stale {
            self.steps[idx].attempts = 0;
            self.steps[idx].next_eligible = None;
        }
        Ok(())
    }

    /// True when a step may be reset: it has run, and no dependent step
    /// is currently mid-flight (`AwaitingFinish`). ("When can I reset
    /// and rerun this step?")
    pub fn can_reset(&self, full_name: &str) -> bool {
        let Some(&idx) = self.by_name.get(full_name) else {
            return false;
        };
        if self.steps[idx].runs == 0 {
            return false;
        }
        !self
            .dependents_of(full_name)
            .iter()
            .any(|&d| self.steps[d].status == Status::AwaitingFinish)
    }

    /// Resets a step to Pending and marks every completed transitive
    /// dependent Stale.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn reset(&mut self, full_name: &str) -> Result<usize, EngineError> {
        let idx = *self
            .by_name
            .get(full_name)
            .ok_or_else(|| EngineError::NoSuchStep(full_name.to_string()))?;
        self.steps[idx].status = Status::Pending;
        self.steps[idx].attempts = 0;
        self.steps[idx].next_eligible = None;
        let dependents = self.dependents_of(full_name);
        let mut invalidated = 0;
        for d in dependents {
            if matches!(self.steps[d].status, Status::Done | Status::AwaitingFinish) {
                self.steps[d].status = Status::Stale;
                self.steps[d].attempts = 0;
                self.steps[d].next_eligible = None;
                invalidated += 1;
            }
        }
        Ok(invalidated)
    }

    /// Transitive dependents via StepDone start/finish deps.
    fn dependents_of(&self, full_name: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let mut frontier = vec![full_name.to_string()];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        while let Some(name) = frontier.pop() {
            for (i, s) in self.steps.iter().enumerate() {
                let depends = s
                    .start_deps
                    .iter()
                    .chain(&s.finish_deps)
                    .any(|d| matches!(d, Dependency::StepDone(t) if *t == name));
                if depends && seen.insert(s.full_name.clone()) {
                    out.push(i);
                    frontier.push(s.full_name.clone());
                }
            }
        }
        out
    }

    fn dep_satisfied(&self, dep: &Dependency, children: &[String]) -> bool {
        match dep {
            Dependency::StepDone(t) => self
                .by_name
                .get(t)
                .map(|&i| self.steps[i].status == Status::Done)
                .unwrap_or(false),
            Dependency::Data(m) => m.holds(&self.store),
            Dependency::ChildrenComplete => children.iter().all(|c| {
                self.by_name
                    .get(c)
                    .map(|&i| self.steps[i].status == Status::Done)
                    .unwrap_or(false)
            }),
        }
    }

    /// Runs one action attempt with fault injection, panic isolation,
    /// and timeout enforcement. `attempt` is 1-based.
    fn run_attempt(&mut self, idx: usize, attempt: u32, recorder: &dyn Recorder) -> AttemptResult {
        let action_key = self.steps[idx].action.clone();
        let block = self.steps[idx].block.clone();
        let full = self.steps[idx].full_name.clone();
        let timeout = self.steps[idx].timeout_ticks;

        let fault = self.fault_plan.fault_for(&full, attempt);
        if fault.is_some() {
            self.faults_injected += 1;
            recorder.add_counter("workflow.faults.injected", 1);
        }

        // Injected latency: the "tool" hangs for `d` virtual ticks. A
        // step timeout kills the attempt at the budget; otherwise the
        // wait is absorbed and the action still runs.
        if let Some(FaultKind::Latency(d)) = fault {
            if let Some(budget) = timeout {
                if d > budget {
                    self.clock.advance(budget);
                    return AttemptResult::TimedOut { latency: d, budget };
                }
            }
            self.clock.advance(d);
        }

        // Synthetic failures never reach the action.
        match fault {
            Some(FaultKind::TransientError) => {
                return AttemptResult::Finished(ActionOutcome {
                    exit_code: 75,
                    explicit: None,
                    log: format!("{full}: injected transient error (attempt {attempt})"),
                });
            }
            Some(FaultKind::PersistentError) => {
                return AttemptResult::Finished(ActionOutcome {
                    exit_code: 70,
                    explicit: None,
                    log: format!("{full}: injected persistent error (attempt {attempt})"),
                });
            }
            _ => {}
        }

        // The data store is handed to the action mid-panic-boundary;
        // like a real tool dying mid-write, a panicking action may
        // leave partial outputs behind — triggers and maturity checks
        // are how the flow copes, so AssertUnwindSafe is the honest
        // model here, not a soundness dodge.
        let changes_before = self.store.changes.len();
        let caught = {
            let Some(action) = self.actions.get(&action_key) else {
                return AttemptResult::Finished(ActionOutcome {
                    exit_code: 127,
                    explicit: None,
                    log: format!("{full}: action `{action_key}` is not registered"),
                });
            };
            let mut ctx = ActionCtx {
                store: &mut self.store,
                block: &block,
                step: &full,
            };
            let span = Span::enter(recorder, format!("workflow.action.{action_key}"));
            span.attr("step", full.as_str());
            span.attr("attempt", attempt as usize);
            panic::catch_unwind(AssertUnwindSafe(|| {
                if fault == Some(FaultKind::Panic) {
                    panic!("injected fault: tool crash in `{full}` (attempt {attempt})");
                }
                action.run(&mut ctx)
            }))
        };

        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => return AttemptResult::Panicked(panic_message(&payload)),
        };

        // Corruption faults strike the outputs this attempt wrote.
        if let Some(kind @ (FaultKind::CorruptOutput | FaultKind::TruncateOutput)) = fault {
            let written: Vec<String> = self.store.changes[changes_before..]
                .iter()
                .map(|c| c.path.clone())
                .collect();
            for path in written {
                if let Some(content) = self.store.read(&path).map(str::to_string) {
                    if let Some(mangled) = self.fault_plan.mangle(kind, &full, &content) {
                        self.store.write(path, mangled);
                    }
                }
            }
        }
        AttemptResult::Finished(outcome)
    }

    /// Runs one scheduling pass: starts every runnable step once,
    /// re-checks finish dependencies, and fires triggers. Returns the
    /// number of action attempts run.
    pub fn tick(&mut self) -> usize {
        let recorder = Arc::clone(&self.recorder);
        let tick_span = Span::enter(&*recorder, "workflow.tick");
        tick_span.attr("steps", self.steps.len());
        self.store.advance();
        let now = self.store.now();
        let mut ran = 0usize;

        for idx in 0..self.steps.len() {
            let runnable = matches!(self.steps[idx].status, Status::Pending | Status::Stale);
            if !runnable {
                continue;
            }
            // Retry backoff gate: the step is waiting out its delay.
            if self.steps[idx].next_eligible.is_some_and(|t| t > now) {
                continue;
            }
            let ready = {
                let s = &self.steps[idx];
                s.start_deps
                    .iter()
                    .all(|d| self.dep_satisfied(d, &s.children_steps))
            };
            if !ready {
                continue;
            }
            // Permissions.
            if let Some(role) = self.steps[idx].required_role.clone() {
                if !self.roles.contains(&role) {
                    if self.steps[idx].status != Status::PermissionBlocked {
                        self.steps[idx].status = Status::PermissionBlocked;
                        self.notifications.push(format!(
                            "{}: blocked (needs role `{role}`)",
                            self.steps[idx].full_name
                        ));
                        recorder.add_counter("workflow.notifications", 1);
                    }
                    continue;
                }
            }

            // Run one attempt.
            let attempt = self.steps[idx].attempts + 1;
            let result = self.run_attempt(idx, attempt, &*recorder);
            recorder.add_counter("workflow.actions", 1);
            ran += 1;
            if attempt > 1 {
                self.retries += 1;
                recorder.add_counter("workflow.retries", 1);
            }
            let now = self.store.now();
            let s = &mut self.steps[idx];
            s.runs += 1;
            s.attempts = attempt;
            s.next_eligible = None;
            if s.first_run.is_none() {
                s.first_run = Some(now);
            }

            let (state, retryable) = match result {
                AttemptResult::Finished(outcome) => {
                    s.log = outcome.log.clone();
                    (outcome.state(), true)
                }
                AttemptResult::Panicked(msg) => {
                    s.log = format!("panicked: {msg}");
                    self.panics += 1;
                    recorder.add_counter("workflow.panics", 1);
                    (StepState::Failed, true)
                }
                AttemptResult::TimedOut { latency, budget } => {
                    s.log =
                        format!("timed out after {budget} virtual ticks (tool needed {latency})");
                    self.timeouts += 1;
                    recorder.add_counter("workflow.timeouts", 1);
                    (StepState::Failed, true)
                }
            };
            // A persistent fault makes further attempts pointless.
            let retryable = retryable
                && self
                    .fault_plan
                    .fault_for(&s.full_name, attempt)
                    .is_none_or(|k| k.is_retryable());

            s.status = match state {
                StepState::Done => {
                    s.attempts = 0;
                    Status::AwaitingFinish
                }
                StepState::Stale => Status::Stale,
                StepState::Failed => {
                    if retryable && s.retry.may_retry(attempt) {
                        // Schedule the retry: back off on the virtual
                        // clock, stay Pending, and let a later tick
                        // pick the step up again.
                        let delay = s.retry.delay_after(attempt, &s.full_name);
                        s.next_eligible = Some(now + delay);
                        self.clock.advance(delay);
                        Status::Pending
                    } else if s.retry.max_attempts > 1 || !retryable {
                        Status::Degraded
                    } else {
                        Status::Failed
                    }
                }
            };
        }

        // Finish-dependency promotion.
        for idx in 0..self.steps.len() {
            if self.steps[idx].status != Status::AwaitingFinish {
                continue;
            }
            let ok = {
                let s = &self.steps[idx];
                s.finish_deps
                    .iter()
                    .all(|d| self.dep_satisfied(d, &s.children_steps))
            };
            if ok {
                self.steps[idx].status = Status::Done;
                self.steps[idx].completed = Some(self.store.now());
            }
        }

        // Triggers over new store changes.
        let new_changes: Vec<crate::data::ChangeEvent> =
            self.store.changes[self.changes_seen..].to_vec();
        self.changes_seen = self.store.changes.len();
        for change in &new_changes {
            for t in &self.triggers.clone() {
                if !change.path_contains(&t.path_contains) {
                    continue;
                }
                for idx in 0..self.steps.len() {
                    let s = &mut self.steps[idx];
                    // Scope staleness to the block that owns the changed
                    // data: `chip/cpu/rtl.v` belongs to `chip/cpu` (the
                    // file sits directly in the block's directory).
                    let owns = change
                        .path
                        .strip_prefix(&format!("{}/", s.block))
                        .is_some_and(|rest| !rest.contains('/'));
                    if owns
                        && s.status == Status::Done
                        && s.full_name.ends_with(&t.mark_stale_suffix)
                    {
                        s.status = Status::Stale;
                        s.attempts = 0;
                        s.next_eligible = None;
                        self.notifications
                            .push(format!("{}: {} ({})", s.full_name, t.note, change.path));
                        recorder.add_counter("workflow.notifications", 1);
                    }
                }
            }
        }

        recorder.record_value("workflow.tick.actions", ran as u64);
        tick_span.attr("actions", ran);
        ran
    }

    /// True when some runnable step is only waiting out a retry-backoff
    /// delay — i.e. quiescence now would be premature.
    fn backoff_pending(&self) -> bool {
        let now = self.store.now();
        self.steps.iter().any(|s| {
            matches!(s.status, Status::Pending | Status::Stale)
                && s.next_eligible.is_some_and(|t| t > now)
        })
    }

    /// Ticks until a true fixpoint: no action ran, no status changed,
    /// and no retry is waiting out its backoff. There is no iteration
    /// cap to guess — termination is guaranteed because every step's
    /// attempt budget is finite, and the report says how many rounds
    /// were actually needed and what was left unfinished.
    pub fn run_to_fixpoint(&mut self) -> FixpointReport {
        let (retries0, timeouts0, panics0, faults0, vclock0) = (
            self.retries,
            self.timeouts,
            self.panics,
            self.faults_injected,
            self.clock.now(),
        );
        let mut ticks = 0usize;
        let mut actions = 0usize;
        loop {
            let before = self.status_counts();
            let ran = self.tick();
            ticks += 1;
            actions += ran;
            let after = self.status_counts();
            if ran == 0 && before == after && !self.backoff_pending() {
                break;
            }
        }
        let mut report = FixpointReport {
            ticks,
            actions,
            retries: self.retries - retries0,
            timeouts: self.timeouts - timeouts0,
            panics: self.panics - panics0,
            faults_injected: self.faults_injected - faults0,
            virtual_ticks: self.clock.now() - vclock0,
            ..FixpointReport::default()
        };
        for s in &self.steps {
            match s.status {
                Status::Failed => report.failed.push(s.full_name.clone()),
                Status::Degraded => report.degraded.push(s.full_name.clone()),
                Status::Pending
                | Status::AwaitingFinish
                | Status::Stale
                | Status::PermissionBlocked => report.waiting.push(s.full_name.clone()),
                Status::Done => {}
            }
        }
        report
    }

    /// Status histogram `(pending, awaiting, done, failed, stale,
    /// blocked, degraded)`.
    pub fn status_counts(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0, 0, 0);
        for s in &self.steps {
            match s.status {
                Status::Pending => c.0 += 1,
                Status::AwaitingFinish => c.1 += 1,
                Status::Done => c.2 += 1,
                Status::Failed => c.3 += 1,
                Status::Stale => c.4 += 1,
                Status::PermissionBlocked => c.5 += 1,
                Status::Degraded => c.6 += 1,
            }
        }
        c
    }

    /// True when every step is Done.
    pub fn is_complete(&self) -> bool {
        self.steps.iter().all(|s| s.status == Status::Done)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

trait PathContains {
    fn path_contains(&self, needle: &str) -> bool;
}

impl PathContains for crate::data::ChangeEvent {
    fn path_contains(&self, needle: &str) -> bool {
        self.path.contains(needle)
    }
}

fn prefix_maturity(m: &Maturity, block: &str) -> Maturity {
    let pre = |p: &str| format!("{block}/{p}");
    match m {
        Maturity::Exists(p) => Maturity::Exists(pre(p)),
        Maturity::NewerThan { path, than } => Maturity::NewerThan {
            path: pre(path),
            than: pre(than),
        },
        Maturity::Contains { path, needle } => Maturity::Contains {
            path: pre(path),
            needle: needle.clone(),
        },
        Maturity::VarEquals { name, value } => Maturity::VarEquals {
            name: name.clone(),
            value: value.clone(),
        },
    }
}
