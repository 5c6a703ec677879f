//! Exhaustive schedule exploration: bounded model checking of the
//! simulated algorithms.
//!
//! The random-scheduler experiments sample the schedule space; this
//! module enumerates it **completely** for small configurations, so
//! the paper's per-schedule claims (Lemma 7: *every* PCM history is
//! IVL; Lemma 10: *every* Algorithm 2 history is IVL; the snapshot
//! counter linearizes on *every* schedule) are verified with the
//! coverage of a model checker rather than a fuzzer, and the exact
//! number of non-linearizable schedules becomes a measurable quantity
//! (experiment E7-exact).
//!
//! Two explorers are provided:
//!
//! * [`explore_all_schedules`] — naive depth-first search over every
//!   maximal schedule. Because the [`Executor`] is [`Clone`], the
//!   search snapshots it at each branch point and extends by a single
//!   step per tree edge (incremental frontier discovery): the cost is
//!   O(nodes), not the O(paths · len²) of prefix re-execution.
//! * [`explore_dpor`] — dynamic partial-order reduction in the style
//!   of Flanagan–Godefroid (persistent/backtrack sets with sleep sets
//!   and clock vectors). It visits at least one representative of
//!   every Mazurkiewicz trace class instead of every interleaving,
//!   which pushes exact verification past the naive explorer's
//!   ~20-step ceiling.
//!
//! # Independence, and why histories survive the reduction
//!
//! Two steps of different processes are *independent* when swapping
//! them (a) leaves the final state unchanged and (b) leaves every
//! checked verdict unchanged. For (a) the classic shared-memory rule
//! applies: steps conflict iff they touch the same register and at
//! least one writes — the per-step [`Access`] footprints recorded by
//! [`crate::machine::MemCtx`] decide this exactly. But the properties
//! checked here (IVL, linearizability) are predicates over the
//! recorded *history*, and a history also carries the real-time
//! precedence order `≺_H`: swapping a response step past an
//! invocation step changes `≺_H` even when the two steps touch
//! disjoint registers. The dependence relation therefore also orders
//! *boundary* steps: a response-carrying step is dependent with every
//! other process's invocation-carrying step (and vice versa). Under
//! this relation every execution in one trace class yields the same
//! [`history_fingerprint`] — the same operations per process, the
//! same return values, the same precedence pairs — so checking one
//! representative checks the class. The differential tests below
//! assert exactly that against the naive explorer.
//!
//! A step's *register* footprint is determined by the machine's local
//! state, so a peeked footprint stays valid while the process does
//! not move. Whether the step will turn out to be its operation's
//! *last* step may depend on the value it reads (a snapshot scan
//! retires only when two collects agree), so for race detection the
//! explorer treats any read-performing step of an in-flight operation
//! as *potentially* response-carrying (`Footprint::may_rsp`) — a
//! sound over-approximation.

use std::collections::BTreeSet;

use crate::executor::{Executor, RunResult, SimObject, StepRecord, Workload};
use crate::machine::Access;
use crate::register::Memory;
use crate::scheduler::FixedScheduler;
use ivl_spec::history::{History, Op};

/// Everything needed to replay one configuration from scratch.
pub trait Configuration {
    /// Builds a fresh memory + object + workloads triple.
    fn build(&self) -> (Memory, Box<dyn SimObject>, Vec<Workload>);
}

impl<F> Configuration for F
where
    F: Fn() -> (Memory, Box<dyn SimObject>, Vec<Workload>),
{
    fn build(&self) -> (Memory, Box<dyn SimObject>, Vec<Workload>) {
        self()
    }
}

/// Summary of an exhaustive exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExplorationStats {
    /// Complete schedules explored.
    pub schedules: u64,
    /// Simulator steps executed across the whole search tree (cost
    /// metric; one per tree edge thanks to snapshotting).
    pub steps_executed: u64,
    /// Whether exploration stopped early at the schedule cap.
    pub truncated: bool,
}

/// Enumerates **every** maximal schedule of `config` (up to
/// `max_schedules`), invoking `visit(schedule, result)` on each
/// completed execution.
///
/// # Examples
///
/// Verify Lemma 10 on *every* interleaving of a tiny instance:
///
/// ```
/// use ivl_shmem::algorithms::IvlCounterSim;
/// use ivl_shmem::executor::{SimCounterSpec, SimObject};
/// use ivl_shmem::{explore_all_schedules, Memory, SimOp, Workload};
/// use ivl_spec::check_ivl_monotone;
///
/// let config = || {
///     let mut mem = Memory::new();
///     let obj = IvlCounterSim::new(&mut mem, 2);
///     let w = vec![
///         Workload { ops: vec![SimOp::Update(5)] },
///         Workload { ops: vec![SimOp::Query(0)] },
///     ];
///     (mem, Box::new(obj) as Box<dyn SimObject>, w)
/// };
/// let stats = explore_all_schedules(&config, 1_000, |schedule, result| {
///     assert!(check_ivl_monotone(&SimCounterSpec, &result.history).is_ivl(),
///             "{schedule:?}");
/// });
/// assert_eq!(stats.schedules, 3); // C(3,1): one 1-step op vs one 2-step op
/// ```
///
/// # Panics
///
/// Propagates panics from the simulated algorithms and from `visit`.
pub fn explore_all_schedules<C: Configuration>(
    config: &C,
    max_schedules: u64,
    mut visit: impl FnMut(&[usize], &RunResult),
) -> ExplorationStats {
    let mut stats = ExplorationStats::default();
    let (mem, obj, workloads) = config.build();
    let root = Executor::new(mem, obj, workloads, FixedScheduler::new(Vec::new()));
    let mut prefix: Vec<usize> = Vec::new();
    dfs(&root, &mut prefix, &mut stats, max_schedules, &mut visit);
    stats
}

fn dfs(
    exec: &Executor<FixedScheduler>,
    prefix: &mut Vec<usize>,
    stats: &mut ExplorationStats,
    max_schedules: u64,
    visit: &mut impl FnMut(&[usize], &RunResult),
) {
    if stats.schedules >= max_schedules {
        stats.truncated = true;
        return;
    }
    let runnable = exec.runnable();
    if runnable.is_empty() {
        stats.schedules += 1;
        visit(prefix, &exec.result());
        return;
    }
    for p in runnable {
        // Snapshot-and-step: one executed step per tree edge.
        let mut child = exec.clone();
        child.step_once(p);
        stats.steps_executed += 1;
        prefix.push(p);
        dfs(&child, prefix, stats, max_schedules, visit);
        prefix.pop();
        if stats.truncated {
            return;
        }
    }
}

/// Counts the maximal schedules of `config` without visiting
/// (convenience for sizing a configuration before asserting on it).
pub fn count_schedules<C: Configuration>(config: &C, max_schedules: u64) -> ExplorationStats {
    explore_all_schedules(config, max_schedules, |_, _| {})
}

/// A canonical description of everything the history-level checkers
/// can observe: the operations of each process in program order (with
/// arguments and return values) plus the precedence pairs `op ≺_H
/// op'`. Executions in the same Mazurkiewicz trace class (under the
/// dependence relation of [`explore_dpor`]) have equal fingerprints,
/// and IVL/linearizability verdicts are functions of the fingerprint
/// — this is what the differential tests compare.
pub fn history_fingerprint(h: &History<u64, u64, u64>) -> String {
    let ops = h.operations();
    // Stable keys: process id + per-process program-order rank.
    let mut keys: Vec<String> = vec![String::new(); ops.len()];
    let mut by_proc: std::collections::BTreeMap<u32, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, o) in ops.iter().enumerate() {
        by_proc.entry(o.process.0).or_default().push(i);
    }
    for (p, idxs) in &mut by_proc {
        idxs.sort_by_key(|&i| ops[i].invoke_index);
        for (k, &i) in idxs.iter().enumerate() {
            keys[i] = format!("p{p}.{k}");
        }
    }
    let mut labels: Vec<String> = Vec::with_capacity(ops.len());
    for (i, o) in ops.iter().enumerate() {
        let body = match &o.op {
            Op::Update(u) => format!("U{u}"),
            Op::Query(q) => format!("Q{q}"),
        };
        let ret = match (&o.return_value, o.is_complete()) {
            (Some(v), _) => format!("={v}"),
            (None, true) => String::new(),
            (None, false) => "=?".to_string(),
        };
        labels.push(format!("{}:{body}{ret}", keys[i]));
    }
    labels.sort();
    let mut prec: Vec<String> = Vec::new();
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate() {
            if i != j && a.precedes(b) {
                prec.push(format!("{}<{}", keys[i], keys[j]));
            }
        }
    }
    prec.sort();
    format!("{}|{}", labels.join(","), prec.join(","))
}

/// Summary of a [`explore_dpor`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DporStats {
    /// Maximal executions visited (at least one per trace class).
    pub classes: u64,
    /// Steps executed along explored branches.
    pub steps_executed: u64,
    /// Steps executed on throwaway clones to peek at next-step
    /// footprints (for race detection and sleep filtering).
    pub peek_steps: u64,
    /// States whose every enabled process was asleep (pruned without
    /// visiting a redundant execution).
    pub sleep_blocked: u64,
    /// Whether exploration stopped early at the class cap.
    pub truncated: bool,
}

/// One process's next step, abstracted to what the dependence
/// relation needs.
#[derive(Clone, Debug)]
struct Footprint {
    process: usize,
    accesses: Vec<Access>,
    inv: bool,
    rsp: bool,
}

impl Footprint {
    fn of(rec: &StepRecord) -> Self {
        Footprint {
            process: rec.process,
            accesses: rec.accesses.clone(),
            inv: rec.is_inv(),
            rsp: rec.is_rsp(),
        }
    }

    fn conflicts(&self, other: &Footprint) -> bool {
        self.accesses
            .iter()
            .any(|a| other.accesses.iter().any(|b| a.conflicts_with(b)))
    }

    /// Exact dependence between two steps evaluated at the *same*
    /// state (executed steps, or peeks of co-enabled next steps —
    /// register-independent steps cannot change each other's
    /// footprint or completion, so peeked bits are exact here).
    fn dependent(&self, other: &Footprint) -> bool {
        if self.process == other.process {
            return true;
        }
        // Boundary dependence: swapping a response past an invocation
        // flips a `≺_H` precedence pair.
        if (self.rsp && other.inv) || (self.inv && other.rsp) {
            return true;
        }
        self.conflicts(other)
    }

    /// Whether this step *might* be its operation's response step in
    /// some context: it is one now, or its completion could hinge on
    /// the value a read returns.
    fn may_rsp(&self) -> bool {
        self.rsp || self.accesses.iter().any(|a| a.kind.is_read())
    }
}

/// Dependence between an *executed* step (exact bits) and a process's
/// *future* next step peeked at the current state. Between the
/// executed step and now, other processes may have written registers
/// the future step reads, so its response bit is taken as
/// [`Footprint::may_rsp`] — an over-approximation that keeps the
/// backtrack-point computation sound.
fn race_dependent(executed: &Footprint, next: &Footprint) -> bool {
    debug_assert_ne!(executed.process, next.process);
    if (executed.rsp && next.inv) || (executed.inv && next.may_rsp()) {
        return true;
    }
    executed.conflicts(next)
}

/// One executed step on the current DPOR stack.
struct ExecStep {
    f: Footprint,
    /// 1-based ordinal of this step within its process.
    ord: usize,
    /// `clock[q]` = how many of process `q`'s steps happen-before (or
    /// are) this step, under the exact dependence relation.
    clock: Vec<usize>,
}

/// A state on the DPOR stack. `frames[i]` is the state *before*
/// `steps[i]`; adding `q` to `frames[i].backtrack` schedules the
/// alternative "run `q` at that state" for exploration.
struct Frame {
    exec: Executor<FixedScheduler>,
    enabled: Vec<usize>,
    peeks: Vec<Option<Footprint>>,
    backtrack: BTreeSet<usize>,
    done: BTreeSet<usize>,
    sleep: BTreeSet<usize>,
}

/// Clock of `p`'s next step before it executes: the clock of `p`'s
/// last executed step (its own past and everything ordered before
/// it), or all-zero if `p` has not moved.
fn proc_clock(p: usize, steps: &[ExecStep], nprocs: usize) -> Vec<usize> {
    steps
        .iter()
        .rev()
        .find(|s| s.f.process == p)
        .map(|s| s.clock.clone())
        .unwrap_or_else(|| vec![0; nprocs])
}

fn push_frame(
    exec: Executor<FixedScheduler>,
    sleep: BTreeSet<usize>,
    nprocs: usize,
    frames: &mut Vec<Frame>,
    steps: &[ExecStep],
    stats: &mut DporStats,
) {
    let enabled = exec.runnable();
    let mut peeks: Vec<Option<Footprint>> = vec![None; nprocs];
    for &q in &enabled {
        let mut probe = exec.clone();
        let rec = probe.step_once(q);
        stats.peek_steps += 1;
        peeks[q] = Some(Footprint::of(&rec));
    }

    // Race detection: for every enabled q, find executed steps that
    // are dependent with q's next step but not already ordered before
    // it, and register q as a backtrack alternative at each such
    // state. (Flanagan–Godefroid add only the latest such step; adding
    // all of them is a superset, hence still sound. Enabled sets only
    // shrink over an execution — no blocking — so q was enabled at
    // every earlier state.)
    let mut to_add: Vec<(usize, usize)> = Vec::new();
    for &q in &enabled {
        let fq = peeks[q].as_ref().expect("peek recorded for enabled q");
        let cq = proc_clock(q, steps, nprocs);
        for (i, st) in steps.iter().enumerate() {
            if st.f.process == q {
                continue;
            }
            if st.ord <= cq[st.f.process] {
                continue; // already happens-before q's next step
            }
            if race_dependent(&st.f, fq) {
                to_add.push((i, q));
            }
        }
    }

    let mut backtrack = BTreeSet::new();
    if let Some(&first) = enabled.iter().find(|&&q| !sleep.contains(&q)) {
        backtrack.insert(first);
    } else if !enabled.is_empty() {
        stats.sleep_blocked += 1;
    }

    frames.push(Frame {
        exec,
        enabled,
        peeks,
        backtrack,
        done: BTreeSet::new(),
        sleep,
    });
    for (i, q) in to_add {
        frames[i].backtrack.insert(q);
    }
}

/// Explores at least one representative execution per Mazurkiewicz
/// trace class of `config` (dynamic partial-order reduction with
/// sleep sets), invoking `visit(schedule, result)` on each. Verdicts
/// that are functions of the [`history_fingerprint`] — IVL and
/// linearizability — are thereby checked over **all** schedules while
/// executing only a fraction of them.
///
/// # Panics
///
/// Propagates panics from the simulated algorithms and from `visit`.
pub fn explore_dpor<C: Configuration>(
    config: &C,
    max_classes: u64,
    mut visit: impl FnMut(&[usize], &RunResult),
) -> DporStats {
    let mut stats = DporStats::default();
    let (mem, obj, workloads) = config.build();
    let nprocs = workloads.len();
    let root = Executor::new(mem, obj, workloads, FixedScheduler::new(Vec::new()));

    let mut frames: Vec<Frame> = Vec::new();
    let mut steps: Vec<ExecStep> = Vec::new();
    push_frame(
        root,
        BTreeSet::new(),
        nprocs,
        &mut frames,
        &steps,
        &mut stats,
    );

    while let Some(d) = frames.len().checked_sub(1) {
        if frames[d].enabled.is_empty() {
            // Maximal execution: one representative of its class.
            stats.classes += 1;
            let schedule: Vec<usize> = steps.iter().map(|s| s.f.process).collect();
            let result = frames[d].exec.result();
            visit(&schedule, &result);
            frames.pop();
            steps.pop();
            continue;
        }

        // Next unexplored backtrack alternative; sleeping processes
        // are provably redundant here and are skipped outright.
        let choice = loop {
            let fr = &mut frames[d];
            match fr.backtrack.iter().copied().find(|q| !fr.done.contains(q)) {
                None => break None,
                Some(q) if fr.sleep.contains(&q) => {
                    fr.done.insert(q);
                }
                Some(q) => break Some(q),
            }
        };
        let Some(p) = choice else {
            frames.pop();
            if !frames.is_empty() {
                steps.pop();
            }
            continue;
        };
        if stats.classes >= max_classes {
            stats.truncated = true;
            break;
        }

        frames[d].done.insert(p);
        let fp = frames[d].peeks[p]
            .clone()
            .expect("enabled process has a peek");

        // Sleep inheritance: alternatives already covered from this
        // state stay asleep in the child iff independent of p's step.
        let child_sleep: BTreeSet<usize> = frames[d]
            .sleep
            .iter()
            .chain(frames[d].done.iter())
            .copied()
            .filter(|&q| q != p)
            .filter(|&q| match &frames[d].peeks[q] {
                Some(fq) => !fq.dependent(&fp),
                None => false,
            })
            .collect();

        let mut child = frames[d].exec.clone();
        let rec = child.step_once(p);
        stats.steps_executed += 1;
        let f = Footprint::of(&rec);

        // Clock vector of the new step: own program order joined with
        // every dependent executed step.
        let mut clock = proc_clock(p, &steps, nprocs);
        let ord = clock[p] + 1;
        clock[p] = ord;
        for st in steps.iter() {
            if st.f.dependent(&f) {
                for (c, sc) in clock.iter_mut().zip(st.clock.iter()) {
                    *c = (*c).max(*sc);
                }
            }
        }
        steps.push(ExecStep { f, ord, clock });
        push_frame(child, child_sleep, nprocs, &mut frames, &steps, &mut stats);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{example9_hash, IvlCounterSim, PcmSim, SnapshotCounterSim};
    use crate::executor::{SimCounterSpec, SimOp};
    use ivl_spec::check_ivl_monotone;
    use ivl_spec::linearize::check_linearizable;
    use std::collections::BTreeMap;

    #[test]
    fn schedule_count_matches_interleaving_math() {
        // Two processes, one single-step update each: exactly C(2,1)=2
        // interleavings.
        let config = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 2);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(1)],
                },
                Workload {
                    ops: vec![SimOp::Update(2)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        let stats = count_schedules(&config, 1_000);
        assert_eq!(stats.schedules, 2);
        assert!(!stats.truncated);

        // One 1-step update vs one 2-step read: C(3,1) = 3.
        let config = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 2);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(1)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        assert_eq!(count_schedules(&config, 1_000).schedules, 3);
    }

    #[test]
    fn lemma_10_holds_on_every_schedule() {
        // 2 updaters (2 updates each) + 1 reader (1 read of 3 steps):
        // every single interleaving is IVL.
        let config = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 3);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(1), SimOp::Update(2)],
                },
                Workload {
                    ops: vec![SimOp::Update(4)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        let mut checked = 0u64;
        let stats = explore_all_schedules(&config, 100_000, |sched, result| {
            assert!(
                check_ivl_monotone(&SimCounterSpec, &result.history).is_ivl(),
                "schedule {sched:?} violated IVL"
            );
            checked += 1;
        });
        assert!(!stats.truncated, "exploration must be complete");
        assert_eq!(stats.schedules, checked);
        assert!(
            stats.schedules > 50,
            "non-trivial space: {}",
            stats.schedules
        );
    }

    #[test]
    fn snapshot_counter_linearizable_on_every_schedule() {
        // Tiny instance: 2 processes, one update (scan-embedded, ≥5
        // steps) and one read. Exhaustive — Afek correctness without
        // sampling gaps.
        let config = || {
            let mut mem = Memory::new();
            let obj = SnapshotCounterSim::new(&mut mem, 2);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(3)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        let stats = explore_all_schedules(&config, 1_000_000, |sched, result| {
            assert!(
                check_linearizable(&[SimCounterSpec], &result.history).is_linearizable(),
                "schedule {sched:?} broke the snapshot counter"
            );
        });
        assert!(!stats.truncated);
        assert!(stats.schedules > 100, "{}", stats.schedules);
    }

    #[test]
    fn example9_exact_violation_census() {
        // The minimal Example 9 configuration: seeds folded into one
        // update each; U(a) concurrent with Q(a);Q(b). Exhaustively
        // count the schedules whose history is not linearizable; every
        // one must still be IVL (Lemma 7, exhaustive flavour).
        let config = example9_census_config;
        let spec = {
            let mut mem = Memory::new();
            PcmSim::new(&mut mem, 2, 2, example9_hash()).spec()
        };
        let mut nonlin = 0u64;
        let stats = explore_all_schedules(&config, 2_000_000, |sched, result| {
            assert!(
                check_ivl_monotone(&spec, &result.history).is_ivl(),
                "schedule {sched:?} violated IVL"
            );
            if !check_linearizable(std::slice::from_ref(&spec), &result.history).is_linearizable() {
                nonlin += 1;
            }
        });
        assert!(!stats.truncated, "space too large: {}", stats.schedules);
        assert!(nonlin > 0, "Example 9 violations must exist");
        assert!(nonlin < stats.schedules, "most schedules still linearize");
        println!(
            "example9 census: {} / {} schedules non-linearizable",
            nonlin, stats.schedules
        );
    }

    /// The Example 9 PCM configuration used by the census and the
    /// differential tests.
    fn example9_census_config() -> (Memory, Box<dyn SimObject>, Vec<Workload>) {
        let mut mem = Memory::new();
        let obj = PcmSim::new(&mut mem, 2, 2, example9_hash());
        let w = vec![
            Workload {
                ops: vec![
                    SimOp::Update(2),
                    SimOp::Update(2),
                    SimOp::Update(2),
                    SimOp::Update(0),
                    SimOp::Update(1),
                    SimOp::Update(0), // U
                ],
            },
            Workload {
                ops: vec![SimOp::Query(0), SimOp::Query(1)],
            },
        ];
        (mem, Box::new(obj) as Box<dyn SimObject>, w)
    }

    /// Collects `fingerprint -> (is_ivl, is_linearizable)` over every
    /// execution an explorer visits, asserting along the way that the
    /// verdict really is a function of the fingerprint.
    fn collect_verdicts(
        explore: impl FnOnce(&mut dyn FnMut(&[usize], &RunResult)),
        judge: impl Fn(&RunResult) -> (bool, bool),
    ) -> BTreeMap<String, (bool, bool)> {
        let mut map: BTreeMap<String, (bool, bool)> = BTreeMap::new();
        let mut visit = |sched: &[usize], result: &RunResult| {
            let fp = history_fingerprint(&result.history);
            let v = judge(result);
            if let Some(prev) = map.insert(fp.clone(), v) {
                assert_eq!(
                    prev, v,
                    "fingerprint {fp} maps to two verdicts (schedule {sched:?})"
                );
            }
        };
        explore(&mut visit);
        map
    }

    /// The differential harness: naive DFS and DPOR must agree on the
    /// set of reachable history fingerprints and on every verdict,
    /// with DPOR executing no more (in practice: far fewer) schedules.
    fn assert_dpor_matches_naive<C: Configuration>(
        config: &C,
        judge: impl Fn(&RunResult) -> (bool, bool) + Copy,
        label: &str,
    ) -> (ExplorationStats, DporStats) {
        let mut naive_stats = ExplorationStats::default();
        let naive = collect_verdicts(
            |visit| {
                naive_stats = explore_all_schedules(config, 5_000_000, |s, r| visit(s, r));
            },
            judge,
        );
        assert!(!naive_stats.truncated, "{label}: naive side truncated");
        let mut dpor_stats = DporStats::default();
        let dpor = collect_verdicts(
            |visit| {
                dpor_stats = explore_dpor(config, 5_000_000, |s, r| visit(s, r));
            },
            judge,
        );
        assert!(!dpor_stats.truncated, "{label}: DPOR side truncated");
        assert_eq!(
            naive, dpor,
            "{label}: fingerprint/verdict maps diverge between naive DFS and DPOR"
        );
        assert!(
            dpor_stats.classes <= naive_stats.schedules,
            "{label}: DPOR visited more executions ({}) than schedules exist ({})",
            dpor_stats.classes,
            naive_stats.schedules
        );
        println!(
            "{label}: naive {} schedules / DPOR {} classes ({} fingerprints)",
            naive_stats.schedules,
            dpor_stats.classes,
            naive.len()
        );
        (naive_stats, dpor_stats)
    }

    fn counter_judge(result: &RunResult) -> (bool, bool) {
        (
            check_ivl_monotone(&SimCounterSpec, &result.history).is_ivl(),
            check_linearizable(&[SimCounterSpec], &result.history).is_linearizable(),
        )
    }

    #[test]
    fn dpor_agrees_with_naive_on_counter_configs() {
        // Lemma 10's exhaustive config (mixed 1-step updates and a
        // multi-step read).
        let lemma10 = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 3);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(1), SimOp::Update(2)],
                },
                Workload {
                    ops: vec![SimOp::Update(4)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        assert_dpor_matches_naive(&lemma10, counter_judge, "lemma10");

        // Two concurrent readers against one updater: read-read
        // independence is where the reduction bites.
        let readers = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 3);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(7)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        let (naive, dpor) = assert_dpor_matches_naive(&readers, counter_judge, "readers");
        assert!(
            dpor.classes < naive.schedules,
            "reduction must be strict here: {} vs {}",
            dpor.classes,
            naive.schedules
        );
    }

    #[test]
    fn dpor_agrees_with_naive_on_snapshot_counter() {
        // Value-dependent termination (a scan retires only when two
        // collects agree) exercises the may_rsp over-approximation.
        let config = || {
            let mut mem = Memory::new();
            let obj = SnapshotCounterSim::new(&mut mem, 2);
            let w = vec![
                Workload {
                    ops: vec![SimOp::Update(3)],
                },
                Workload {
                    ops: vec![SimOp::Query(0)],
                },
            ];
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };
        assert_dpor_matches_naive(&config, counter_judge, "snapshot");
    }

    #[test]
    fn dpor_agrees_with_naive_on_example9_exact() {
        let spec = {
            let mut mem = Memory::new();
            PcmSim::new(&mut mem, 2, 2, example9_hash()).spec()
        };
        let judge = |result: &RunResult| {
            (
                check_ivl_monotone(&spec, &result.history).is_ivl(),
                check_linearizable(std::slice::from_ref(&spec), &result.history).is_linearizable(),
            )
        };
        let (_, dpor) = assert_dpor_matches_naive(&example9_census_config, judge, "example9-exact");
        // The census's non-linearizable histories must survive the
        // reduction: DPOR sees every violating fingerprint.
        assert!(dpor.classes > 0);
    }

    #[test]
    fn dpor_verifies_beyond_naive_ceiling() {
        // E7-exact, scaled past the naive explorer's reach: a
        // 10-process IVL counter with two 1-step updaters and two
        // 10-step readers — 22 total steps. The naive schedule count
        // is 22!/(10!·10!) ≈ 8.5·10⁷ — hopeless for an in-test
        // enumeration — while the readers' interior steps are
        // pairwise-independent reads, so DPOR collapses the space to
        // its small dependent core and certifies Lemma 10 on all of
        // it.
        let config = || {
            let mut mem = Memory::new();
            let obj = IvlCounterSim::new(&mut mem, 10);
            let mut w = vec![Workload::default(); 10];
            w[0] = Workload {
                ops: vec![SimOp::Update(3)],
            };
            w[1] = Workload {
                ops: vec![SimOp::Update(5)],
            };
            w[2] = Workload {
                ops: vec![SimOp::Query(0)],
            };
            w[3] = Workload {
                ops: vec![SimOp::Query(0)],
            };
            (mem, Box::new(obj) as Box<dyn SimObject>, w)
        };

        // The naive explorer cannot finish this: it hits the cap.
        let naive = count_schedules(&config, 50_000);
        assert!(naive.truncated, "config must be out of naive reach");

        let mut max_len = 0usize;
        let stats = explore_dpor(&config, 5_000_000, |sched, result| {
            max_len = max_len.max(sched.len());
            assert!(
                check_ivl_monotone(&SimCounterSpec, &result.history).is_ivl(),
                "schedule {sched:?} violated IVL"
            );
        });
        assert!(!stats.truncated, "DPOR must close the space: {stats:?}");
        assert!(
            max_len > 20,
            "must be beyond the ~20-step naive ceiling: {max_len}"
        );
        println!(
            "beyond-ceiling: DPOR closed {} classes ({} steps executed, {} peeks) on a {}-step config",
            stats.classes, stats.steps_executed, stats.peek_steps, max_len
        );
    }
}
