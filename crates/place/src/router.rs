//! SWAP-permutation routing (§5.2 and §5.3).
//!
//! Between two consecutive subcircuit placements the machine state must be
//! permuted: the value at nucleus `v` has to reach nucleus `π(v)`, moving
//! only along *fast* interactions and only via SWAP gates, with
//! non-intersecting SWAPs allowed in parallel. The paper's algorithm:
//!
//! 1. cut the adjacency graph into two connected, balanced halves `G1`,
//!    `G2` (the crossing edges form the *communication channel*);
//! 2. colour each value white (destination in `G1`) or black (destination
//!    in `G2`); values with no destination — nuclei that host no logical
//!    qubit — are wildcards, coloured to balance the count;
//! 3. funnel black values toward the channel inside `G1` (the "air
//!    bubbles rise / water falls" picture) while white values funnel in
//!    `G2`, exchanging one pair across the channel whenever both ends are
//!    ready — our implementation, like the paper's, does **not** block the
//!    channel, and uses every channel edge in parallel;
//! 4. once the halves are colour-pure, recurse independently (the two
//!    sub-schedules run in parallel).
//!
//! The *leaf–target override* of §5.3 is implemented too: whenever a value
//! can be swapped directly into a leaf nucleus that is its final
//! destination, the swap is done eagerly and the leaf is excluded from the
//! rest of the stage (the paper reports 0–5% depth savings).
//!
//! For bounded-degree graphs the depth is `O(n)` (8n + O(1) for `s = 1/2`,
//! §5.2), which property tests in this crate check empirically.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qcp_env::PhysicalQubit;
use qcp_graph::bisection::balanced_connected_bisection;
use qcp_graph::traversal::{connected_components, shortest_path};
use qcp_graph::{Graph, NodeId};

use crate::cost::{PlacedGate, Schedule};
use crate::{PlaceError, Result};

/// Router configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Enables the leaf–target override heuristic (§5.3). On by default.
    pub leaf_override: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            leaf_override: true,
        }
    }
}

/// A parallel SWAP schedule: levels of vertex-disjoint swaps along
/// adjacency-graph edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwapSchedule {
    levels: Vec<Vec<(PhysicalQubit, PhysicalQubit)>>,
}

impl SwapSchedule {
    /// The swap levels, outermost first.
    pub fn levels(&self) -> &[Vec<(PhysicalQubit, PhysicalQubit)>] {
        &self.levels
    }

    /// Number of levels (the quantity §5.2 minimizes).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no swaps are needed.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Converts to a costed [`Schedule`] (each SWAP weighs three maximal
    /// couplings).
    pub fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new();
        for level in &self.levels {
            s.push_level(level.iter().map(|&(a, b)| PlacedGate::swap(a, b)).collect());
        }
        s
    }

    /// Simulates the schedule: returns `final_pos` where the value
    /// initially at vertex `v` ends at `final_pos[v]`.
    pub fn simulate(&self, n: usize) -> Vec<usize> {
        // token_at[v] = original home of the value now at v.
        let mut token_at: Vec<usize> = (0..n).collect();
        for level in &self.levels {
            for &(a, b) in level {
                token_at.swap(a.index(), b.index());
            }
        }
        let mut pos = vec![0usize; n];
        for (v, &t) in token_at.iter().enumerate() {
            pos[t] = v;
        }
        pos
    }
}

/// Routes the permutation `targets` on `graph`: the value at vertex `v`
/// must reach `targets[v]`; `None` marks a don't-care value. Returns a
/// parallel swap schedule along graph edges.
///
/// A one-shot call; a [`Placer`](crate::Placer) routes through one
/// long-lived router per routing graph, which reuses its bisections.
///
/// # Errors
///
/// * [`PlaceError::InvalidPlacement`] if `targets` has the wrong length or
///   repeats a destination;
/// * [`PlaceError::RoutingImpossible`] if a value's destination lies in a
///   different connected component.
pub fn route_permutation(
    graph: &Graph,
    targets: &[Option<usize>],
    config: &RouterConfig,
) -> Result<SwapSchedule> {
    Router::new(graph.clone(), *config).route(targets)
}

/// One bisection of an active vertex set, in global vertex ids: the
/// halves and the channel edges as `(left end, right end)`.
#[derive(Debug)]
struct Split {
    left: Vec<usize>,
    right: Vec<usize>,
    channel: Vec<(usize, usize)>,
}

/// The §5.2 router bound to one routing graph.
///
/// Which bisection the recursion takes depends only on the graph and the
/// active vertex list; the permutation decides only which values move. The
/// router therefore computes the graph's components once and memoises each
/// active list's [`Split`]. The memo is keyed by the list itself, not
/// built as one static tree: leaf–target freezing makes the active set
/// depend on the permutation, and the bisection's tie-breaks depend on the
/// list's order. Cloning gives a fresh memo.
pub(crate) struct Router {
    graph: Graph,
    config: RouterConfig,
    /// Connected components, each in BFS order.
    components: Vec<Vec<usize>>,
    comp_of: Vec<usize>,
    splits: Mutex<HashMap<Vec<usize>, Arc<Split>>>,
}

impl Clone for Router {
    fn clone(&self) -> Self {
        Router {
            graph: self.graph.clone(),
            config: self.config,
            components: self.components.clone(),
            comp_of: self.comp_of.clone(),
            splits: Mutex::default(),
        }
    }
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("graph", &self.graph)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Routing state: the moving destinations, flat masks over the vertices,
/// the emitted swaps and reusable vertex lists. There is one per thread,
/// reset at the top of every call, so a call that fails part-way cannot
/// leak state into the next one. A recursion sets its masks over its
/// active list and clears them before its halves recurse, so each mask
/// holds only the current recursion's vertices.
#[derive(Default)]
struct Scratch {
    dest: Vec<Option<usize>>,
    active: Vec<bool>,
    in_left: Vec<bool>,
    white: Vec<bool>,
    frozen: Vec<bool>,
    /// Vertices already swapped in the level being built.
    used: Vec<bool>,
    channel_end: Vec<bool>,
    /// Funnel BFS distances to the designated channel end.
    dist: Vec<Option<u32>>,
    queue: Vec<usize>,
    /// Wildcard values of the recursion being coloured.
    wild: Vec<usize>,
    /// Wrong-coloured values of the side being funnelled.
    wrong: Vec<usize>,
    /// Every swap of the call as `(level, a, b)`, in emission order.
    swaps: Vec<(usize, usize, usize)>,
    /// Swaps per level, for bucketing `swaps` into the schedule.
    level_len: Vec<usize>,
    /// Spare buffers for halves that leaf freezing shrank.
    spare: Vec<Vec<usize>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    /// Starts a call on `targets`: every mask cleared, no swaps emitted.
    fn reset(&mut self, targets: &[Option<usize>]) {
        let n = targets.len();
        self.dest.clear();
        self.dest.extend_from_slice(targets);
        for mask in [
            &mut self.active,
            &mut self.in_left,
            &mut self.white,
            &mut self.frozen,
            &mut self.used,
            &mut self.channel_end,
        ] {
            mask.clear();
            mask.resize(n, false);
        }
        self.dist.clear();
        self.dist.resize(n, None);
        self.swaps.clear();
    }

    fn mark(&mut self, active: &[usize], split: &Split) {
        for &v in active {
            self.active[v] = true;
        }
        for &v in &split.left {
            self.in_left[v] = true;
        }
        for &(a, b) in &split.channel {
            self.channel_end[a] = true;
            self.channel_end[b] = true;
        }
    }

    fn clear(&mut self, active: &[usize]) {
        for &v in active {
            self.active[v] = false;
            self.in_left[v] = false;
            self.white[v] = false;
            self.frozen[v] = false;
            self.channel_end[v] = false;
            self.dist[v] = None;
        }
    }

    /// The unfrozen vertices of `side` in a spare buffer, or `None` when
    /// none is frozen and the side itself can be routed.
    fn unfrozen(&mut self, side: &[usize]) -> Option<Vec<usize>> {
        if !side.iter().any(|&v| self.frozen[v]) {
            return None;
        }
        let mut rest = self.spare.pop().unwrap_or_default();
        rest.clear();
        rest.extend(side.iter().copied().filter(|&v| !self.frozen[v]));
        Some(rest)
    }

    /// Active, unfrozen and on the given side of the cut.
    fn in_side(&self, v: usize, left: bool) -> bool {
        self.active[v] && self.in_left[v] == left && !self.frozen[v]
    }

    fn misplaced(&self, v: usize) -> bool {
        self.white[v] != self.in_left[v]
    }

    fn swap(&mut self, u: usize, v: usize, level: usize) {
        self.dest.swap(u, v);
        self.white.swap(u, v);
        self.used[u] = true;
        self.used[v] = true;
        self.swaps.push((level, u, v));
    }

    /// Buckets the emitted swaps into `depth` levels. The counting sort is
    /// stable, so each level keeps emission order: components in order,
    /// and within a recursion its left half before its right.
    fn schedule(&mut self, depth: usize) -> SwapSchedule {
        self.level_len.clear();
        self.level_len.resize(depth, 0);
        for &(level, _, _) in &self.swaps {
            self.level_len[level] += 1;
        }
        let mut levels: Vec<Vec<(PhysicalQubit, PhysicalQubit)>> = self
            .level_len
            .iter()
            .map(|&len| Vec::with_capacity(len))
            .collect();
        for &(level, a, b) in &self.swaps {
            levels[level].push((PhysicalQubit::new(a), PhysicalQubit::new(b)));
        }
        SwapSchedule { levels }
    }
}

impl Router {
    /// Binds the router to `graph`, computing its components once.
    pub(crate) fn new(graph: Graph, config: RouterConfig) -> Self {
        let components: Vec<Vec<usize>> = connected_components(&graph)
            .into_iter()
            .map(|comp| comp.into_iter().map(NodeId::index).collect())
            .collect();
        let mut comp_of = vec![usize::MAX; graph.node_count()];
        for (ci, comp) in components.iter().enumerate() {
            for &v in comp {
                comp_of[v] = ci;
            }
        }
        Router {
            graph,
            config,
            components,
            comp_of,
            splits: Mutex::default(),
        }
    }

    /// The routing graph.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Routes `targets`; see [`route_permutation`] for the contract.
    pub(crate) fn route(&self, targets: &[Option<usize>]) -> Result<SwapSchedule> {
        let n = self.graph.node_count();
        if targets.len() != n {
            return Err(PlaceError::InvalidPlacement {
                message: format!("targets length {} != graph size {n}", targets.len()),
            });
        }
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.reset(targets);
            // `used` doubles as the seen-destination mask until routing.
            for &t in targets.iter().flatten() {
                if t >= n || s.used[t] {
                    return Err(PlaceError::InvalidPlacement {
                        message: format!("destination {t} repeated or out of range"),
                    });
                }
                s.used[t] = true;
            }
            s.used.fill(false);
            for (v, t) in targets.iter().enumerate() {
                if let Some(t) = *t {
                    if self.comp_of[v] != self.comp_of[t] {
                        return Err(PlaceError::RoutingImpossible {
                            stuck: PhysicalQubit::new(v),
                        });
                    }
                }
            }
            // Components are disjoint: their schedules all start at level 0.
            let mut depth = 0;
            for comp in &self.components {
                depth = depth.max(self.route_rec(comp, 0, s)?);
            }
            Ok(s.schedule(depth))
        })
    }

    /// The memoised bisection of `active`. The lock is never held while a
    /// bisection is computed; racing threads compute the same split.
    fn split(&self, active: &[usize]) -> Result<Arc<Split>> {
        let cached = self.memo().get(active).cloned();
        if let Some(split) = cached {
            return Ok(split);
        }
        let split = Arc::new(bisect(&self.graph, active)?);
        self.memo()
            .entry(active.to_vec())
            .or_insert_with(|| Arc::clone(&split));
        Ok(split)
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<Vec<usize>, Arc<Split>>> {
        // The map is only ever inserted into whole, so a panic elsewhere
        // cannot leave it inconsistent.
        self.splits.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Routes the values on `active`, emitting its swaps from level `base`
    /// on, and returns the number of levels it used.
    fn route_rec(&self, active: &[usize], base: usize, s: &mut Scratch) -> Result<usize> {
        if active.iter().all(|&v| s.dest[v].is_none_or(|d| d == v)) {
            return Ok(0);
        }
        if active.len() < 2 {
            // A lone unsatisfied vertex cannot be fixed.
            return Err(PlaceError::RoutingImpossible {
                stuck: PhysicalQubit::new(active.first().copied().unwrap_or(0)),
            });
        }
        let split = self.split(active)?;
        s.mark(active, &split);

        // Colour values: White = destination in the left half.
        // Wildcards are assigned to balance, preferring their current side
        // so they move as little as possible.
        let mut fixed_white = 0usize;
        s.wild.clear();
        for &v in active {
            match s.dest[v] {
                Some(d) => {
                    if s.in_left[d] {
                        s.white[v] = true;
                        fixed_white += 1;
                    }
                }
                None => s.wild.push(v),
            }
        }
        let left_len = split.left.len();
        debug_assert!(
            fixed_white <= left_len,
            "more fixed whites than room in the left half"
        );
        let mut need_white = left_len - fixed_white.min(left_len);
        // Wildcards already in the left half take white first.
        s.wild.sort_unstable_by_key(|&v| (!s.in_left[v], v));
        for &v in &s.wild {
            if need_white > 0 {
                s.white[v] = true;
                need_white -= 1;
            }
        }

        // Exchange phase.
        let mut depth = 0;
        let max_iters = 8 * active.len() + 16; // safety margin over the 8n bound
        for _ in 0..max_iters {
            if !active.iter().any(|&v| !s.frozen[v] && s.misplaced(v)) {
                break;
            }
            if !self.build_level(active, &split, base + depth, s) {
                return Err(PlaceError::RoutingImpossible {
                    stuck: PhysicalQubit::new(
                        active
                            .iter()
                            .copied()
                            .find(|&v| s.misplaced(v))
                            .unwrap_or(active[0]),
                    ),
                });
            }
            depth += 1;
        }
        debug_assert!(
            active.iter().all(|&v| s.frozen[v] || !s.misplaced(v)),
            "exchange phase exceeded its iteration budget"
        );

        // Recurse on both halves (minus satisfied frozen leaves) in
        // parallel: both start right after the exchange levels.
        let (left, right) = (s.unfrozen(&split.left), s.unfrozen(&split.right));
        s.clear(active);
        let mut sub_depth = 0;
        for half in [
            left.as_deref().unwrap_or(&split.left),
            right.as_deref().unwrap_or(&split.right),
        ] {
            if !half.is_empty() {
                sub_depth = sub_depth.max(self.route_rec(half, base + depth, s)?);
            }
        }
        s.spare.extend(left);
        s.spare.extend(right);
        Ok(depth + sub_depth)
    }

    /// Builds one parallel swap level at index `level` and applies it to
    /// the scratch state. Returns `false` if no swap was possible.
    fn build_level(&self, active: &[usize], split: &Split, level: usize, s: &mut Scratch) -> bool {
        let graph = &self.graph;
        let start = s.swaps.len();

        // 1. Leaf–target override (§5.3): deliver values straight into leaf
        //    destinations and retire the leaf.
        if self.config.leaf_override {
            for &v in active {
                if s.frozen[v] || s.used[v] {
                    continue;
                }
                let Some(d) = s.dest[v] else { continue };
                if d == v || s.used[d] || s.frozen[d] {
                    continue;
                }
                if !graph.has_edge(NodeId::new(v), NodeId::new(d)) {
                    continue;
                }
                // The destination must be an active leaf, not a channel end
                // (freezing a channel endpoint could block the exchange), and
                // its current value must not itself be finalized there.
                if !s.active[d] || s.channel_end[d] {
                    continue;
                }
                // Working degree: neighbours within active, excluding frozen.
                let working_degree = graph
                    .neighbor_slice(NodeId::new(d))
                    .iter()
                    .filter(|u| s.active[u.index()] && !s.frozen[u.index()])
                    .count();
                if working_degree != 1 || s.dest[d] == Some(d) {
                    continue;
                }
                s.swap(v, d, level);
                s.frozen[d] = true;
            }
        }

        // 2. Cross-channel exchanges: black on the left end, white on the
        //    right end. (The channel is never blocked, and all channel edges
        //    work in parallel.)
        for &(a, b) in &split.channel {
            if s.used[a] || s.used[b] || s.frozen[a] || s.frozen[b] {
                continue;
            }
            if !s.white[a] && s.white[b] {
                s.swap(a, b, level);
            }
        }

        // 3. Funnel wrong-coloured values toward the channel on both sides.
        //    Distances are measured to a single *designated* channel edge
        //    (§5.2: "we suppose that the communication channel consists of a
        //    single edge, otherwise, choose a single edge") so both queues
        //    provably meet; the other channel edges still exchange
        //    opportunistically in step 2 above.
        if let Some(&(a, b)) = split.channel.first() {
            self.funnel(active, a, true, level, s);
            self.funnel(active, b, false, level, s);
        }

        for i in start..s.swaps.len() {
            let (_, u, v) = s.swaps[i];
            s.used[u] = false;
            s.used[v] = false;
        }
        s.swaps.len() > start
    }

    /// Steps each wrong-coloured value on one side of the cut one hop
    /// closer to `source`, the side's end of the designated channel edge,
    /// through a right-coloured neighbour. Distances come from a BFS on the
    /// graph masked to the side's unfrozen vertices.
    fn funnel(&self, active: &[usize], source: usize, left: bool, level: usize, s: &mut Scratch) {
        if !s.in_side(source, left) {
            return;
        }
        for &v in active {
            s.dist[v] = None;
        }
        s.dist[source] = Some(0);
        s.queue.clear();
        s.queue.push(source);
        let mut head = 0;
        while let Some(&v) = s.queue.get(head) {
            head += 1;
            let next = s.dist[v].map(|d| d + 1);
            for u in self.graph.neighbor_slice(NodeId::new(v)) {
                let u = u.index();
                if s.dist[u].is_none() && s.in_side(u, left) {
                    s.dist[u] = next;
                    s.queue.push(u);
                }
            }
        }

        // Wrong colour on this side: black-on-left or white-on-right.
        let mut wrong = std::mem::take(&mut s.wrong);
        wrong.clear();
        wrong.extend(
            active
                .iter()
                .copied()
                .filter(|&v| s.in_side(v, left) && s.misplaced(v) && !s.used[v]),
        );
        wrong.sort_unstable_by_key(|&v| (s.dist[v], v));
        for &v in &wrong {
            if s.used[v] {
                continue;
            }
            let Some(dv) = s.dist[v] else { continue };
            if dv == 0 {
                continue; // already at the channel, waiting for the partner
            }
            // Step toward the channel through a right-coloured neighbour;
            // the sorted neighbour row makes the first match the smallest.
            let step = self
                .graph
                .neighbor_slice(NodeId::new(v))
                .iter()
                .map(|u| u.index())
                .find(|&u| {
                    s.in_side(u, left)
                        && !s.used[u]
                        && !s.misplaced(u)
                        && s.dist[u].is_some_and(|du| du + 1 == dv)
                });
            if let Some(u) = step {
                s.swap(v, u, level);
            }
        }
        s.wrong = wrong;
    }
}

/// Bisects the subgraph induced by `active`, mapping the halves and the
/// channel back to global vertex ids.
fn bisect(graph: &Graph, active: &[usize]) -> Result<Split> {
    let active_ids: Vec<NodeId> = active.iter().map(|&v| NodeId::new(v)).collect();
    let (sub, back) = graph
        .induced(&active_ids)
        .map_err(|e| PlaceError::InvalidPlacement {
            message: format!("induced subgraph failed: {e}"),
        })?;
    let bisection =
        balanced_connected_bisection(&sub).map_err(|e| PlaceError::InvalidPlacement {
            message: format!("bisection failed: {e}"),
        })?;
    let global = |v: &NodeId| back[v.index()].index();
    Ok(Split {
        left: bisection.left.iter().map(global).collect(),
        right: bisection.right.iter().map(global).collect(),
        channel: bisection
            .channel
            .iter()
            .map(|(a, b)| (global(a), global(b)))
            .collect(),
    })
}

/// A simple baseline router for comparison: completes the wildcard values
/// into a full permutation, then satisfies destinations one leaf of a
/// spanning tree at a time, moving each value along a shortest path (one
/// swap per level — no parallelism).
///
/// Guaranteed to terminate with `O(n·diameter)` swaps; the recursive
/// bisection router beats it on both depth and swap count, which the
/// ablation benchmark (`qcp-bench`, `ablation` binary) quantifies.
///
/// # Errors
///
/// Same failure conditions as [`route_permutation`].
pub fn route_sequential(graph: &Graph, targets: &[Option<usize>]) -> Result<SwapSchedule> {
    let n = graph.node_count();
    if targets.len() != n {
        return Err(PlaceError::InvalidPlacement {
            message: format!("targets length {} != graph size {n}", targets.len()),
        });
    }
    let components = connected_components(graph);
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in components.iter().enumerate() {
        for &v in comp {
            comp_of[v.index()] = ci;
        }
    }
    // Complete wildcards into a bijection per component.
    let mut dest: Vec<Option<usize>> = targets.to_vec();
    for comp in &components {
        let members: HashSet<usize> = comp.iter().map(|v| v.index()).collect();
        let mut taken: HashSet<usize> = HashSet::new();
        for &v in comp {
            if let Some(d) = dest[v.index()] {
                if !members.contains(&d) {
                    return Err(PlaceError::RoutingImpossible {
                        stuck: PhysicalQubit::new(v.index()),
                    });
                }
                taken.insert(d);
            }
        }
        let mut free: Vec<usize> = comp
            .iter()
            .map(|v| v.index())
            .filter(|d| !taken.contains(d))
            .collect();
        free.sort_unstable();
        for &v in comp {
            if dest[v.index()].is_none() {
                #[allow(clippy::expect_used)]
                let slot = free
                    .pop()
                    .expect("invariant: free slots match unassigned values per component");
                dest[v.index()] = Some(slot);
            }
        }
    }

    let mut levels: Vec<Vec<(usize, usize)>> = Vec::new();
    // Satisfy one destination at a time, shrinking the graph leaf-first.
    let mut alive: Vec<bool> = vec![true; n];
    let mut remaining: usize = n;
    while remaining > 0 {
        // Pick the largest-index leaf (or any vertex of degree <= 1) of
        // the alive induced subgraph.
        let alive_ids: Vec<NodeId> = (0..n).filter(|&v| alive[v]).map(NodeId::new).collect();
        let (sub, back) = graph
            .induced(&alive_ids)
            .map_err(|e| PlaceError::InvalidPlacement {
                message: format!("induced failed: {e}"),
            })?;
        // Spanning-tree leaf of each component: a vertex whose removal
        // keeps the rest connected. Use a BFS tree leaf.
        let mut leaf: Option<usize> = None;
        let mut visited = vec![false; sub.node_count()];
        for start in sub.nodes() {
            if visited[start.index()] {
                continue;
            }
            let tree = qcp_graph::spanning::RootedTree::bfs(&sub, start).map_err(|e| {
                PlaceError::InvalidPlacement {
                    message: format!("tree failed: {e}"),
                }
            })?;
            for &v in tree.nodes() {
                visited[v.index()] = true;
            }
            #[allow(clippy::expect_used)]
            let l = *tree
                .nodes()
                .last()
                .expect("invariant: BFS trees are non-empty");
            leaf = Some(back[l.index()].index());
            break;
        }
        #[allow(clippy::expect_used)]
        let d = leaf.expect("invariant: the alive set is non-empty until every target is routed");
        // Which value must end at d?
        let holder = (0..n).find(|&v| alive[v] && dest[v] == Some(d));
        if let Some(h) = holder {
            if h != d {
                #[allow(clippy::expect_used)]
                let (sh, sd) = (
                    alive_ids
                        .iter()
                        .position(|&x| x.index() == h)
                        .expect("invariant: holder is alive"),
                    alive_ids
                        .iter()
                        .position(|&x| x.index() == d)
                        .expect("invariant: destination is alive"),
                );
                let path = shortest_path(&sub, NodeId::new(sh), NodeId::new(sd)).ok_or(
                    PlaceError::RoutingImpossible {
                        stuck: PhysicalQubit::new(h),
                    },
                )?;
                for w in path.windows(2) {
                    let (a, b) = (back[w[0].index()].index(), back[w[1].index()].index());
                    dest.swap(a, b);
                    levels.push(vec![(a, b)]);
                }
            }
        }
        alive[d] = false;
        remaining -= 1;
    }
    Ok(SwapSchedule {
        levels: levels
            .into_iter()
            .map(|lv| {
                lv.into_iter()
                    .map(|(a, b)| (PhysicalQubit::new(a), PhysicalQubit::new(b)))
                    .collect()
            })
            .collect(),
    })
}

/// Checks that `schedule` realizes `targets` on `graph`: every swap uses a
/// graph edge, swaps within one level are vertex-disjoint, and every value
/// with a destination arrives.
pub fn verify_schedule(graph: &Graph, targets: &[Option<usize>], schedule: &SwapSchedule) -> bool {
    let n = graph.node_count();
    if targets.len() != n {
        return false;
    }
    for level in schedule.levels() {
        let mut used = HashSet::new();
        for &(a, b) in level {
            if !graph.has_edge(NodeId::new(a.index()), NodeId::new(b.index())) {
                return false;
            }
            if !used.insert(a.index()) || !used.insert(b.index()) {
                return false;
            }
        }
    }
    let pos = schedule.simulate(n);
    targets
        .iter()
        .enumerate()
        .all(|(v, t)| t.is_none_or(|d| pos[v] == d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_graph::generate;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn full_targets(perm: &[usize]) -> Vec<Option<usize>> {
        perm.iter().map(|&d| Some(d)).collect()
    }

    #[test]
    fn identity_needs_no_swaps() {
        let g = generate::chain(5);
        let t: Vec<Option<usize>> = (0..5).map(Some).collect();
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(s.is_empty());
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn adjacent_swap_on_chain() {
        let g = generate::chain(3);
        let t = full_targets(&[1, 0, 2]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn full_reversal_on_chain() {
        // The worst-case permutation (n, 2, 3, …, n−1, 1)-style reversal.
        for n in 2..10 {
            let g = generate::chain(n);
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
            assert!(verify_schedule(&g, &t, &s), "reversal failed on n={n}");
            assert!(
                s.depth() <= 8 * n + 8,
                "depth {} exceeds linear bound for n={n}",
                s.depth()
            );
        }
    }

    #[test]
    fn asymptotic_witness_permutation() {
        // §5.2's witness: (n, 2, 3, …, n−1, 1) — exchange the chain ends.
        let n = 9;
        let g = generate::chain(n);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.swap(0, n - 1);
        let t = full_targets(&perm);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // Moving a value across the whole chain needs at least n-1 swaps.
        assert!(s.swap_count() >= n - 1);
    }

    #[test]
    fn wildcards_are_dont_care() {
        let g = generate::chain(4);
        // Only one value is constrained: end to end.
        let mut t = vec![None; 4];
        t[0] = Some(3);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn routes_on_trees_grids_rings() {
        let graphs = vec![
            generate::star(7),
            generate::grid(3, 3),
            generate::ring(8),
            generate::caterpillar(4, 1),
        ];
        for g in graphs {
            let n = g.node_count();
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
            assert!(verify_schedule(&g, &t, &s), "failed on {g:?}");
        }
    }

    #[test]
    fn leaf_override_toggle_both_correct() {
        let g = generate::caterpillar(5, 2);
        let n = g.node_count();
        let perm: Vec<usize> = (1..n).chain([0]).collect();
        let t = full_targets(&perm);
        for cfg in [
            RouterConfig {
                leaf_override: true,
            },
            RouterConfig {
                leaf_override: false,
            },
        ] {
            let s = route_permutation(&g, &t, &cfg).unwrap();
            assert!(
                verify_schedule(&g, &t, &s),
                "leaf_override={}",
                cfg.leaf_override
            );
        }
    }

    #[test]
    fn cross_component_target_is_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut t = vec![None; 4];
        t[0] = Some(2);
        let err = route_permutation(&g, &t, &RouterConfig::default()).unwrap_err();
        assert!(matches!(err, PlaceError::RoutingImpossible { .. }));
    }

    #[test]
    fn within_component_routing_on_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let t = full_targets(&[1, 0, 3, 2]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // Both component swaps fit in one parallel level.
        assert_eq!(s.depth(), 1);
        assert_eq!(s.swap_count(), 2);
    }

    #[test]
    fn duplicate_target_rejected() {
        let g = generate::chain(3);
        let t = vec![Some(1), Some(1), None];
        assert!(matches!(
            route_permutation(&g, &t, &RouterConfig::default()).unwrap_err(),
            PlaceError::InvalidPlacement { .. }
        ));
    }

    #[test]
    fn sequential_baseline_correct() {
        for (g, n) in [
            (generate::chain(6), 6),
            (generate::grid(2, 4), 8),
            (generate::ring(5), 5),
        ] {
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_sequential(&g, &t).unwrap();
            assert!(verify_schedule(&g, &t, &s), "sequential failed on {g:?}");
        }
    }

    #[test]
    fn sequential_handles_wildcards() {
        let g = generate::chain(5);
        let mut t = vec![None; 5];
        t[1] = Some(4);
        let s = route_sequential(&g, &t).unwrap();
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn bisection_router_parallelism_beats_sequential_depth() {
        let g = generate::chain(10);
        let perm: Vec<usize> = (0..10).rev().collect();
        let t = full_targets(&perm);
        let par = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        let seq = route_sequential(&g, &t).unwrap();
        assert!(
            par.depth() < seq.depth(),
            "parallel depth {} not below sequential {}",
            par.depth(),
            seq.depth()
        );
    }

    #[test]
    fn schedule_to_costed_schedule() {
        let g = generate::chain(3);
        let t = full_targets(&[2, 1, 0]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        let costed = s.to_schedule();
        assert_eq!(costed.gate_count(), s.swap_count());
    }

    #[test]
    fn example_4_crotonic_permutation() {
        // Example 4: permute (M C1 H1 C2 C3 H2 C4) -> values move
        // M→C1, C1→C2, H1→C3, C2→C4, C3→H2, H2→H1, C4→M along the bond
        // graph of trans-crotonic acid.
        let env = qcp_env::molecules::trans_crotonic_acid();
        let g = env.bond_graph();
        // Indices: M=0, C1=1, H1=2, C2=3, C3=4, H2=5, C4=6.
        let t = full_targets(&[1, 3, 4, 6, 5, 2, 0]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // The paper separates the halves in 3 steps and finishes the
        // sub-permutations in parallel; allow a small constant factor.
        assert!(s.depth() <= 10, "depth {}", s.depth());
    }

    /// A seeded input for `router`: a permutation within each component,
    /// sometimes with wildcards, and every few trials a malformed one (a
    /// wrong length, a repeated destination, or a cross-component or
    /// out-of-range destination).
    fn reuse_input(router: &Router, trial: usize, rng: &mut StdRng) -> Vec<Option<usize>> {
        let n = router.graph.node_count();
        let mut targets = vec![None; n];
        for comp in &router.components {
            let mut dests = comp.clone();
            dests.shuffle(rng);
            for (&v, &d) in comp.iter().zip(&dests) {
                if trial % 3 != 1 || rng.gen_range(0..3) != 0 {
                    targets[v] = Some(d);
                }
            }
        }
        match trial % 10 {
            3 => {
                if rng.gen_range(0..2) == 0 {
                    targets.push(None);
                } else {
                    targets.pop();
                }
            }
            6 => {
                let v = rng.gen_range(0..n);
                let w = (v + 1 + rng.gen_range(0..n - 1)) % n;
                targets[w] = Some(targets[v].unwrap_or(v));
                targets[v] = targets[w];
            }
            9 => match router.components.as_slice() {
                [a, b, ..] => {
                    let (v, w) = (a[rng.gen_range(0..a.len())], b[rng.gen_range(0..b.len())]);
                    let (tv, tw) = (targets[v].unwrap_or(v), targets[w].unwrap_or(w));
                    targets[v] = Some(tw);
                    targets[w] = Some(tv);
                }
                _ => targets[rng.gen_range(0..n)] = Some(n),
            },
            _ => {}
        }
        targets
    }

    /// A path and a ring with a pendant: two components of different
    /// shapes.
    fn two_components() -> Graph {
        Graph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (6, 8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn reused_router_matches_fresh_routes() {
        let graphs = [
            generate::chain(10),
            generate::grid(4, 5),
            generate::ring(9),
            generate::star(7),
            generate::caterpillar(5, 2),
            two_components(),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for leaf_override in [true, false] {
                let config = RouterConfig { leaf_override };
                let router = Router::new(g.clone(), config);
                let mut rng = StdRng::seed_from_u64(gi as u64);
                let (mut ok, mut failed) = (0, 0);
                for trial in 0..240 {
                    let targets = reuse_input(&router, trial, &mut rng);
                    let reused = router.route(&targets);
                    assert_eq!(
                        reused,
                        route_permutation(g, &targets, &config),
                        "graph {gi} leaf_override={leaf_override} trial {trial}: {targets:?}"
                    );
                    match reused {
                        Ok(s) => {
                            assert!(verify_schedule(g, &targets, &s));
                            ok += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
                assert!(
                    ok >= 160 && failed >= 48,
                    "graph {gi}: {ok} ok, {failed} failed"
                );
                assert!(!router.memo().is_empty());
            }
        }
    }

    #[test]
    fn interleaved_routers_match_fresh_thread_routes() {
        // One thread's scratch serves routers of different sizes in turn,
        // failing calls included (a rejected duplicate destination leaves
        // the seen mask half set). Every answer must equal a route
        // computed on a freshly spawned thread, whose scratch is new.
        let routers: Vec<Router> = [
            generate::grid(5, 5),
            generate::chain(4),
            two_components(),
            generate::caterpillar(5, 2),
            generate::ring(9),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            Router::new(
                g,
                RouterConfig {
                    leaf_override: i % 2 == 0,
                },
            )
        })
        .collect();
        let mut rng = StdRng::seed_from_u64(14);
        let (mut ok, mut failed) = (0, 0);
        for trial in 0..300 {
            let router = &routers[rng.gen_range(0..routers.len())];
            let targets = reuse_input(router, trial, &mut rng);
            let reused = router.route(&targets);
            let (graph, config) = (router.graph.clone(), router.config);
            let fresh = std::thread::spawn(move || route_permutation(&graph, &targets, &config))
                .join()
                .unwrap();
            assert_eq!(reused, fresh, "trial {trial}");
            if reused.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        assert!(ok >= 180 && failed >= 60, "{ok} ok, {failed} failed");
    }
}
