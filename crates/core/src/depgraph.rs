//! Operator–kernel dependency graph construction (paper §IV-A).
//!
//! Reconstructs the hierarchy a real profiler trace flattens away:
//!
//! * an operator `p` is the parent of operator `c` (or launch call `l`) if
//!   `c` starts within `p`'s `[begin, end)` on the same thread, with the
//!   *tightest* containing operator winning;
//! * kernel `k` links to launch `l` through the CUDA correlation ID.
//!
//! The construction is one interval sweep over operators and launches in
//! *sweep order*: by thread, then begin ascending, then (for operators) end
//! descending, then trace index. Parents come before their children, so a
//! stack of open operators yields each node's innermost container, and at
//! each launch instant the stack holds exactly the operators containing it.
//!
//! Sorting into sweep order is the only super-linear step, and engine
//! traces skip it. The engine numbers operators in pre-order, which is
//! sweep order, so the build places each operator at its
//! [`OpId`](skip_trace::OpId) and checks the placed order in one O(n)
//! pass. Traces whose ids are not a gap-free pre-order (imports,
//! hand-built or multi-thread traces numbered otherwise) fail the check
//! and are sorted instead. Both paths yield the same order, so the graph
//! does not depend on which one ran.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use skip_des::SimTime;
use skip_trace::{CorrelationId, CpuOpEvent, RuntimeLaunchEvent, ThreadId, Trace};

/// Index of an operator within [`DependencyGraph::ops`] order (the trace's
/// CPU-op order).
pub type OpRef = usize;

/// A launch call resolved against the graph: which operator issued it and
/// which kernel it triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchLink {
    /// Index into [`Trace::launches`].
    pub launch_idx: usize,
    /// The innermost operator containing the launch call, if any.
    pub parent_op: Option<OpRef>,
    /// Index into [`Trace::kernels`] of the kernel with the same
    /// correlation ID, if one executed.
    pub kernel_idx: Option<usize>,
}

/// The reconstructed operator–kernel dependency graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependencyGraph {
    /// `parent[i]` is the innermost operator containing operator `i`.
    parent: Vec<Option<OpRef>>,
    /// Operator `i`'s children, in trace order, are
    /// `children[child_start[i]..child_start[i + 1]]`.
    child_start: Vec<usize>,
    children: Vec<OpRef>,
    /// Root operators (no parent), in trace order.
    roots: Vec<OpRef>,
    /// Launch calls resolved to parent operators and kernels.
    launches: Vec<LaunchLink>,
}

impl DependencyGraph {
    /// Builds the dependency graph for `trace`.
    ///
    /// Operators with identical `(thread, begin)` are disambiguated by
    /// longer-duration-first, so a parent whose first child starts at the
    /// same instant still contains it — matching how SKIP treats zero-skew
    /// profiler timestamps.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        let ops = trace.cpu_ops();
        let n = ops.len();
        let mut parent: Vec<Option<OpRef>> = vec![None; n];
        let mut launch_parent: Vec<Option<OpRef>> = vec![None; trace.launches().len()];
        sweep(
            trace,
            |i, p| parent[i] = p,
            |l, open| launch_parent[l] = innermost(ops, open),
        );

        // Children as compressed rows. `child_start[p]` first counts p's
        // children, then (prefix-summed) points one past p's row; filling
        // every row back to front in reverse trace order leaves it pointing
        // at the row's start, with the row in trace order.
        let mut child_start = vec![0usize; n + 1];
        for &p in parent.iter().flatten() {
            child_start[p] += 1;
        }
        let mut total = 0;
        for start in &mut child_start {
            total += *start;
            *start = total;
        }
        let mut children = vec![0; total];
        for (i, p) in parent.iter().enumerate().rev() {
            if let Some(p) = *p {
                child_start[p] -= 1;
                children[child_start[p]] = i;
            }
        }
        let roots = (0..n).filter(|&i| parent[i].is_none()).collect();

        let launches = launch_parent
            .into_iter()
            .zip(launch_kernels(trace))
            .enumerate()
            .map(|(launch_idx, (parent_op, kernel_idx))| LaunchLink {
                launch_idx,
                parent_op,
                kernel_idx,
            })
            .collect();

        DependencyGraph {
            parent,
            child_start,
            children,
            roots,
            launches,
        }
    }

    /// The innermost operator containing operator `i`.
    #[must_use]
    pub fn parent_of(&self, i: OpRef) -> Option<OpRef> {
        self.parent.get(i).copied().flatten()
    }

    /// Operators directly nested in operator `i`, in trace order.
    #[must_use]
    pub fn children_of(&self, i: OpRef) -> &[OpRef] {
        &self.children[self.child_start[i]..self.child_start[i + 1]]
    }

    /// Root (top-level) operators in trace order.
    #[must_use]
    pub fn roots(&self) -> &[OpRef] {
        &self.roots
    }

    /// Resolved launch calls.
    #[must_use]
    pub fn launches(&self) -> &[LaunchLink] {
        &self.launches
    }

    /// The operator ID of the root ancestor of operator `i` — useful for
    /// attributing a kernel to the top-level ATen operator that caused it.
    #[must_use]
    pub fn root_ancestor(&self, mut i: OpRef) -> OpRef {
        while let Some(p) = self.parent_of(i) {
            i = p;
        }
        i
    }
}

/// Per launch, in trace order: `(launch index, kernel, root operator
/// containing the launch)`. These are the only facts operator attribution
/// reads, and one sweep yields them without the parent links, child rows
/// and root list of a whole [`DependencyGraph`]. The root is the bottom of
/// the open-operator stack, which is where [`DependencyGraph::root_ancestor`]
/// of the launch's parent leads.
pub(crate) fn launch_roots(
    trace: &Trace,
) -> impl Iterator<Item = (usize, Option<usize>, Option<OpRef>)> + '_ {
    let mut roots: Vec<Option<OpRef>> = vec![None; trace.launches().len()];
    sweep(trace, |_, _| {}, |l, open| roots[l] = open.first().copied());
    launch_kernels(trace)
        .zip(roots)
        .enumerate()
        .map(|(l, (kernel, root))| (l, kernel, root))
}

/// Walks the operators and launches of `trace` in sweep order through one
/// stack of open operators. `on_op(i, parent)` fires as operator `i` opens;
/// `on_launch(l, open)` fires with the operators containing launch `l`,
/// outermost first. An operator that begins at a launch's instant opens
/// before the launch.
fn sweep(
    trace: &Trace,
    mut on_op: impl FnMut(OpRef, Option<OpRef>),
    mut on_launch: impl FnMut(usize, &[OpRef]),
) {
    let ops = trace.cpu_ops();
    let op_order = op_sweep_order(ops);
    let launches = trace.launches();
    let mut stack = OpenStack::default();
    let mut next_op = 0;
    for l in launch_sweep_order(launches) {
        let at = (launches[l].thread, launches[l].begin);
        while let Some(&i) = op_order.get(next_op) {
            if (ops[i].thread, ops[i].begin) > at {
                break;
            }
            on_op(i, stack.open(ops, i));
            next_op += 1;
        }
        on_launch(l, stack.containing(ops, at.0, at.1));
    }
    for &i in &op_order[next_op..] {
        on_op(i, stack.open(ops, i));
    }
}

/// The chain of open operators on one thread, outermost at the bottom.
/// Each operator's parent is the one below it, and ends never increase
/// going up.
#[derive(Default)]
struct OpenStack {
    thread: Option<ThreadId>,
    open: Vec<OpRef>,
}

impl OpenStack {
    /// Empties the stack when the sweep moves on to another thread.
    fn enter(&mut self, thread: ThreadId) {
        if self.thread != Some(thread) {
            self.thread = Some(thread);
            self.open.clear();
        }
    }

    /// Opens operator `i`, first closing every open operator that does not
    /// contain it; returns `i`'s parent.
    fn open(&mut self, ops: &[CpuOpEvent], i: OpRef) -> Option<OpRef> {
        let op = &ops[i];
        self.enter(op.thread);
        while let Some(&top) = self.open.last() {
            if op.begin < ops[top].end && op.end <= ops[top].end {
                break;
            }
            self.open.pop();
        }
        let parent = self.open.last().copied();
        self.open.push(i);
        parent
    }

    /// Closes every operator on `thread` that ended by `at`; returns the
    /// operators still open, which are exactly those containing `at`.
    fn containing(&mut self, ops: &[CpuOpEvent], thread: ThreadId, at: SimTime) -> &[OpRef] {
        self.enter(thread);
        while self.open.last().is_some_and(|&top| ops[top].end <= at) {
            self.open.pop();
        }
        &self.open
    }
}

/// The innermost of the operators containing a launch (`open`, outermost
/// first). Among the containers sharing the latest begin, the lowest trace
/// index wins; the golden reports pin that tie-break. Equal-begin operators
/// nest shorter inside longer, so that group is a suffix of `open`.
fn innermost(ops: &[CpuOpEvent], open: &[OpRef]) -> Option<OpRef> {
    let &top = open.last()?;
    let begin = ops[top].begin;
    open.iter()
        .rev()
        .take_while(|&&i| ops[i].begin == begin)
        .min()
        .copied()
}

/// Operator indices in sweep order: by thread, begin ascending, end
/// descending (so an operator precedes those it contains), then trace
/// index.
fn op_sweep_order(ops: &[CpuOpEvent]) -> Vec<OpRef> {
    placed_order(ops).unwrap_or_else(|| {
        let mut order: Vec<OpRef> = (0..ops.len()).collect();
        order.sort_unstable_by_key(|&i| sweep_key(ops, i));
        order
    })
}

fn sweep_key(ops: &[CpuOpEvent], i: OpRef) -> (ThreadId, SimTime, Reverse<SimTime>, OpRef) {
    (ops[i].thread, ops[i].begin, Reverse(ops[i].end), i)
}

/// The operators placed at their ids, if the ids are a gap-free run of
/// integers and that placement is already sweep order; `None` otherwise.
fn placed_order(ops: &[CpuOpEvent]) -> Option<Vec<OpRef>> {
    let base = ops.iter().map(|op| op.id.get()).min()?;
    let mut order = vec![OpRef::MAX; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let slot = usize::try_from(op.id.get() - base).ok()?;
        match order.get_mut(slot) {
            Some(placed) if *placed == OpRef::MAX => *placed = i,
            _ => return None, // an id past the run, or a repeated one
        }
    }
    order
        .windows(2)
        .all(|w| sweep_key(ops, w[0]) < sweep_key(ops, w[1]))
        .then_some(order)
}

/// Launch indices in sweep order: by thread, then begin, then trace index.
/// Engine launches are recorded in this order, which one pass confirms.
fn launch_sweep_order(launches: &[RuntimeLaunchEvent]) -> Vec<usize> {
    let key = |l: &RuntimeLaunchEvent| (l.thread, l.begin);
    let mut order: Vec<usize> = (0..launches.len()).collect();
    if !launches.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        order.sort_by_key(|&l| key(&launches[l])); // stable: ties keep trace order
    }
    order
}

/// Per launch, in trace order: the index of the kernel carrying its
/// correlation ID, if one ran.
///
/// Engine traces assign correlation IDs in strictly ascending order, which
/// one pass over the kernels confirms. A cursor then steps through the
/// kernels alongside the launches and finds each kernel where the previous
/// one left off; a launch whose kernel is not at the cursor (a memcpy, a
/// kernel that never ran, an out-of-order launch) falls back to a binary
/// search. Imported traces with shuffled or duplicate IDs use a map
/// instead, where a later kernel wins a duplicated correlation.
fn launch_kernels(trace: &Trace) -> impl Iterator<Item = Option<usize>> + '_ {
    let kernels = trace.kernels();
    let ascending = kernels
        .windows(2)
        .all(|w| w[0].correlation < w[1].correlation);
    let by_corr: Option<BTreeMap<CorrelationId, usize>> = (!ascending).then(|| {
        kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (k.correlation, i))
            .collect()
    });
    let mut cursor = 0;
    trace.launches().iter().map(move |l| {
        let corr = l.correlation;
        if let Some(map) = &by_corr {
            return map.get(&corr).copied();
        }
        let found = if kernels.get(cursor).is_some_and(|k| k.correlation == corr) {
            Some(cursor)
        } else {
            kernels.binary_search_by_key(&corr, |k| k.correlation).ok()
        };
        if let Some(k) = found {
            cursor = k + 1;
        }
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_des::SimTime;
    use skip_trace::{CpuOpEvent, KernelEvent, OpId, RuntimeLaunchEvent, StreamId, TraceMeta};

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn op(t: &mut Trace, id: u64, name: &str, begin: u64, end: u64) -> CpuOpEvent {
        let name = t.intern(name);
        CpuOpEvent {
            id: OpId::new(id),
            name,
            thread: ThreadId::MAIN,
            begin: ns(begin),
            end: ns(end),
        }
    }

    /// aten::linear [0,100) contains aten::t [5,10) and aten::addmm
    /// [10,90), which contains the launch at [20,25) → kernel corr 7.
    fn nested_trace() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "aten::linear", 0, 100);
        t.push_cpu_op(ev);
        let ev = op(&mut t, 1, "aten::t", 5, 10);
        t.push_cpu_op(ev);
        let ev = op(&mut t, 2, "aten::addmm", 10, 90);
        t.push_cpu_op(ev);
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(20),
            end: ns(25),
            correlation: CorrelationId::new(7),
        });
        let gemm = t.intern("gemm");
        t.push_kernel(KernelEvent {
            name: gemm,
            stream: StreamId::DEFAULT,
            begin: ns(40),
            end: ns(80),
            correlation: CorrelationId::new(7),
        });
        t
    }

    #[test]
    fn containment_produces_expected_hierarchy() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        assert_eq!(g.roots(), &[0]);
        assert_eq!(g.parent_of(1), Some(0));
        assert_eq!(g.parent_of(2), Some(0));
        assert_eq!(g.children_of(0), &[1, 2]);
        assert_eq!(g.parent_of(0), None);
    }

    #[test]
    fn launch_attaches_to_innermost_op_and_kernel() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        let l = &g.launches()[0];
        assert_eq!(l.parent_op, Some(2), "addmm is the innermost container");
        assert_eq!(l.kernel_idx, Some(0));
    }

    #[test]
    fn root_ancestor_walks_to_top() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        assert_eq!(g.root_ancestor(2), 0);
        assert_eq!(g.root_ancestor(1), 0);
        assert_eq!(g.root_ancestor(0), 0);
    }

    #[test]
    fn sibling_ops_do_not_nest() {
        let mut t = Trace::new(TraceMeta::default());
        for (id, begin) in [(0u64, 0u64), (1, 10), (2, 20)] {
            let ev = op(&mut t, id, "sib", begin, begin + 10);
            t.push_cpu_op(ev);
        }
        let g = DependencyGraph::build(&t);
        assert_eq!(g.roots(), &[0, 1, 2]);
    }

    #[test]
    fn different_threads_never_nest() {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "outer", 0, 100);
        t.push_cpu_op(ev);
        let mut other = op(&mut t, 1, "elsewhere", 10, 20);
        other.thread = ThreadId::new(5);
        t.push_cpu_op(other);
        let g = DependencyGraph::build(&t);
        assert_eq!(g.parent_of(1), None);
        assert_eq!(g.roots().len(), 2);
    }

    #[test]
    fn equal_begin_ties_resolve_outer_first() {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "inner", 0, 10); // same begin, shorter
        t.push_cpu_op(ev);
        let ev = op(&mut t, 1, "outer", 0, 50);
        t.push_cpu_op(ev);
        let g = DependencyGraph::build(&t);
        assert_eq!(g.parent_of(0), Some(1));
        assert_eq!(g.roots(), &[1]);
    }

    #[test]
    fn orphan_launch_has_no_parent() {
        let mut t = Trace::new(TraceMeta::default());
        let memcpy = t.intern("cudaMemcpyAsync");
        t.push_launch(RuntimeLaunchEvent {
            name: memcpy,
            thread: ThreadId::MAIN,
            begin: ns(5),
            end: ns(6),
            correlation: CorrelationId::new(1),
        });
        let g = DependencyGraph::build(&t);
        assert_eq!(g.launches()[0].parent_op, None);
        assert_eq!(g.launches()[0].kernel_idx, None);
    }

    #[test]
    fn deep_nesting_chain() {
        let mut t = Trace::new(TraceMeta::default());
        for i in 0..10u64 {
            let ev = op(&mut t, i, "level", i, 100 - i);
            t.push_cpu_op(ev);
        }
        let g = DependencyGraph::build(&t);
        for i in 1..10usize {
            assert_eq!(g.parent_of(i), Some(i - 1));
        }
        assert_eq!(g.root_ancestor(9), 0);
    }

    /// Correlation pairing must not depend on which lookup path the
    /// ascending-correlation gate picks: a trace with shuffled correlation
    /// IDs (map fallback) and its sorted twin (binary-search fast path)
    /// must both pair every launch with the kernel carrying its ID.
    #[test]
    fn correlation_pairing_agrees_across_lookup_paths() {
        // 0, 7, 14, ... shuffled via a fixed permutation step so the
        // kernels are NOT ascending; the sorted twin uses the same IDs in
        // ascending order.
        let ids: Vec<u64> = (0..50u64).map(|i| (i * 37) % 101).collect();
        let mut sorted_ids = ids.clone();
        sorted_ids.sort_unstable();
        for id_set in [&ids, &sorted_ids] {
            let mut t = Trace::new(TraceMeta::default());
            let launch = t.intern("cudaLaunchKernel");
            let k = t.intern("k");
            for (i, &c) in id_set.iter().enumerate() {
                let at = i as u64 * 10;
                t.push_launch(RuntimeLaunchEvent {
                    name: launch,
                    thread: ThreadId::MAIN,
                    begin: ns(at),
                    end: ns(at + 1),
                    correlation: CorrelationId::new(c),
                });
                t.push_kernel(KernelEvent {
                    name: k,
                    stream: StreamId::DEFAULT,
                    begin: ns(at + 2),
                    end: ns(at + 5),
                    correlation: CorrelationId::new(c),
                });
            }
            let g = DependencyGraph::build(&t);
            for (li, link) in g.launches().iter().enumerate() {
                let corr = t.launches()[li].correlation;
                let want = t.kernels().iter().position(|k| k.correlation == corr);
                assert_eq!(link.kernel_idx, want, "launch {li}");
            }
        }
    }

    /// The cursor gate is strict: two kernels sharing a correlation send the
    /// pairing down the map path, where the later kernel wins, while the
    /// same launches over strictly ascending kernels pair through the cursor.
    #[test]
    fn duplicated_correlation_pairs_with_the_later_kernel() {
        let pair = |kernel_corrs: &[u64]| {
            let mut t = Trace::new(TraceMeta::default());
            let launch = t.intern("cudaLaunchKernel");
            let k = t.intern("k");
            for c in 1..=3u64 {
                t.push_launch(RuntimeLaunchEvent {
                    name: launch,
                    thread: ThreadId::MAIN,
                    begin: ns(c * 10),
                    end: ns(c * 10 + 1),
                    correlation: CorrelationId::new(c),
                });
            }
            for (i, &c) in kernel_corrs.iter().enumerate() {
                let at = 100 + i as u64 * 10;
                t.push_kernel(KernelEvent {
                    name: k,
                    stream: StreamId::DEFAULT,
                    begin: ns(at),
                    end: ns(at + 5),
                    correlation: CorrelationId::new(c),
                });
            }
            let g = DependencyGraph::build(&t);
            g.launches()
                .iter()
                .map(|l| l.kernel_idx)
                .collect::<Vec<_>>()
        };
        assert_eq!(pair(&[1, 2, 2, 3]), [Some(0), Some(2), Some(3)]);
        assert_eq!(pair(&[1, 2, 3]), [Some(0), Some(1), Some(2)]);
    }

    /// A copy of `t` with operator `i`'s id replaced by `id_of(i)`.
    fn with_op_ids(t: &Trace, id_of: impl Fn(usize) -> u64) -> Trace {
        let mut out = Trace::new(t.meta().clone());
        for (_, name) in t.names().iter() {
            out.intern(name);
        }
        for (i, op) in t.cpu_ops().iter().enumerate() {
            out.push_cpu_op(CpuOpEvent {
                id: OpId::new(id_of(i)),
                ..*op
            });
        }
        for &l in t.launches() {
            out.push_launch(l);
        }
        for &k in t.kernels() {
            out.push_kernel(k);
        }
        out
    }

    /// Engine traces number operators in pre-order, so their build takes
    /// the placement path; renumbering the same events out of pre-order
    /// sends the build down the sort path, and the graph must not change.
    #[test]
    fn renumbered_op_ids_build_the_same_graph() {
        use skip_hw::Platform;
        use skip_llm::{zoo, Phase, Workload};
        use skip_runtime::{Engine, ExecMode};

        let engine = Engine::new(Platform::intel_h100());
        for mode in [ExecMode::Eager, ExecMode::FlashAttention2] {
            let t = engine.run(&Workload::new(zoo::gpt2(), Phase::Prefill, 2, 128), mode);
            let n = t.cpu_ops().len() as u64;
            assert!(
                placed_order(t.cpu_ops()).is_some(),
                "{mode}: ids are a pre-order"
            );
            let want = DependencyGraph::build(&t);
            let renumberings = [
                ("reversed", (0..n).rev().collect::<Vec<u64>>()),
                ("trace order", (1_000..1_000 + n).collect()),
                ("strided", (0..n).map(|i| (i * 7) % n + n).collect()),
            ];
            for (label, ids) in renumberings {
                let renumbered = with_op_ids(&t, |i| ids[i]);
                assert!(
                    placed_order(renumbered.cpu_ops()).is_none(),
                    "{mode} {label}: takes the sort path"
                );
                assert_eq!(DependencyGraph::build(&renumbered), want, "{mode} {label}");
            }
        }
    }

    /// Deterministic pseudo-random interval soup: nested, overlapping,
    /// zero-length, equal-begin, multi-thread, plus launches at op
    /// boundaries (begin == launch instant, end == launch instant). Ops
    /// carry their trace index as id.
    fn interval_soup() -> Trace {
        let mut state = 0x2545f491u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut t = Trace::new(TraceMeta::default());
        for i in 0..400u64 {
            let begin = next(1_000);
            let dur = next(120); // zero-length allowed
            let thread = ThreadId::new(next(3) as u32);
            let mut ev = op(&mut t, i, "soup", begin, begin + dur);
            ev.thread = thread;
            t.push_cpu_op(ev);
        }
        let launch = t.intern("cudaLaunchKernel");
        for c in 0..300u64 {
            let begin = next(1_100);
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::new(next(3) as u32),
                begin: ns(begin),
                end: ns(begin + 1),
                correlation: CorrelationId::new(c),
            });
        }
        t
    }

    /// The graph must agree with naive all-pairs containment scans on both
    /// ordering paths.
    ///
    /// * An operator's parent is, among the operators on its thread that
    ///   precede it in sweep order and contain its interval, the last one
    ///   to begin (longer first on equal begins, then trace order).
    /// * A launch's parent follows the scan the sweep replaced: among the
    ///   operators containing the launch instant, the latest begin wins,
    ///   and on equal begins the lowest trace index.
    /// * Roots and child lists are those parents inverted, in trace order,
    ///   and each launch's root is the root of its parent's chain.
    #[test]
    fn launch_attachment_matches_naive_scan() {
        let soup = interval_soup();
        let ops = soup.cpu_ops();
        let key = |i: usize| (ops[i].begin, std::cmp::Reverse(ops[i].end), i);
        let mut by_sweep_key: Vec<usize> = (0..ops.len()).collect();
        by_sweep_key.sort_by_key(|&i| (ops[i].thread, key(i)));
        let mut rank = vec![0u64; ops.len()];
        for (r, &i) in by_sweep_key.iter().enumerate() {
            rank[i] = r as u64;
        }
        let paths = [
            (
                "ids in trace order",
                with_op_ids(&soup, |i| i as u64),
                false,
            ),
            ("ids in sweep order", with_op_ids(&soup, |i| rank[i]), true),
        ];

        let parents: Vec<Option<usize>> = (0..ops.len())
            .map(|c| {
                (0..ops.len())
                    .filter(|&p| {
                        ops[p].thread == ops[c].thread
                            && key(p) < key(c)
                            && ops[c].begin < ops[p].end
                            && ops[c].end <= ops[p].end
                    })
                    .max_by_key(|&p| key(p))
            })
            .collect();
        let roots: Vec<usize> = (0..ops.len()).filter(|&i| parents[i].is_none()).collect();
        let launch_parents: Vec<Option<usize>> = soup
            .launches()
            .iter()
            .map(|l| {
                let mut best: Option<usize> = None;
                for (i, o) in ops.iter().enumerate() {
                    if o.thread == l.thread && o.contains(l.begin) {
                        best = match best {
                            Some(b) if ops[b].begin >= o.begin => Some(b),
                            _ => Some(i),
                        };
                    }
                }
                best
            })
            .collect();

        for (label, t, placed) in &paths {
            assert_eq!(placed_order(t.cpu_ops()).is_some(), *placed, "{label}");
            let g = DependencyGraph::build(t);
            for (c, want) in parents.iter().enumerate() {
                assert_eq!(g.parent_of(c), *want, "{label}: parent of op {c}");
                let children: Vec<usize> =
                    (0..ops.len()).filter(|&i| parents[i] == Some(c)).collect();
                assert_eq!(g.children_of(c), &children[..], "{label}: children of {c}");
            }
            assert_eq!(g.roots(), &roots[..], "{label}");
            for (li, want) in launch_parents.iter().enumerate() {
                assert_eq!(g.launches()[li].parent_op, *want, "{label}: launch {li}");
            }
            for (li, kernel, root) in launch_roots(t) {
                let link = g.launches()[li];
                assert_eq!(kernel, link.kernel_idx, "{label}: launch {li}");
                let want = link.parent_op.map(|p| g.root_ancestor(p));
                assert_eq!(root, want, "{label}: root of launch {li}");
            }
        }
    }

    /// Launches whose kernels never ran and launches recorded out of
    /// correlation order both miss the pairing cursor; the binary-search
    /// fallback must still pair every launch exactly as a naive scan does.
    #[test]
    fn cursor_misses_fall_back_to_binary_search() {
        let mut t = Trace::new(TraceMeta::default());
        let launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k");
        // Correlations 1..=60, with launches 20..=29 recorded in reverse.
        let mut corrs: Vec<u64> = (1..=60).collect();
        corrs[19..29].reverse();
        for (i, &c) in corrs.iter().enumerate() {
            let at = i as u64 * 10;
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::MAIN,
                begin: ns(at),
                end: ns(at + 1),
                correlation: CorrelationId::new(c),
            });
        }
        // Every third correlation has no kernel.
        for c in (1..=60u64).filter(|c| c % 3 != 0) {
            t.push_kernel(KernelEvent {
                name: k,
                stream: StreamId::DEFAULT,
                begin: ns(1_000 + c * 10),
                end: ns(1_005 + c * 10),
                correlation: CorrelationId::new(c),
            });
        }
        assert!(
            t.kernels()
                .windows(2)
                .all(|w| w[0].correlation < w[1].correlation),
            "ascending correlations take the cursor"
        );
        let g = DependencyGraph::build(&t);
        let mut unpaired = 0;
        for (li, link) in g.launches().iter().enumerate() {
            let corr = t.launches()[li].correlation;
            let want = t.kernels().iter().position(|k| k.correlation == corr);
            assert_eq!(link.kernel_idx, want, "launch {li} ({corr})");
            unpaired += usize::from(want.is_none());
        }
        assert_eq!(unpaired, 20);
    }
}
