//! TSP — branch-and-bound traveling salesman.
//!
//! Sharing structure (paper §5.5): the major shared data structures — the
//! pool of partially evaluated tours, the priority queue of pointers into the
//! pool, and the current shortest tour — all migrate among the processors
//! under a global lock.  Accesses are scattered and irregular, so a faulting
//! processor frequently brings in diffs for tours allocated by others that it
//! never reads (useless messages *and* useless data), and aggregation reduces
//! the number of messages.
//!
//! The solver performs an exact branch-and-bound over a deterministic random
//! distance matrix; the optimal tour length is the verification value.

use tdsm_core::{Align, Dsm};

use crate::common::{AppConfig, AppRun, DetRng};

/// Maximum number of cities a tour record can hold.
const MAX_CITIES: usize = 16;
/// `u32` fields per tour record in the shared pool: length, cost, bound and
/// the city sequence.
const TOUR_FIELDS: usize = 3 + MAX_CITIES;

/// Size of a TSP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TspSize {
    /// Number of cities (exact search, keep modest).
    pub cities: usize,
    /// Seed of the deterministic distance matrix.
    pub seed: u64,
}

impl TspSize {
    /// The run used for the paper-style figures.
    pub fn standard() -> Self {
        TspSize {
            cities: 11,
            seed: 12,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        TspSize { cities: 8, seed: 7 }
    }

    /// The `--scale large` stress tier (one more city multiplies the
    /// branch-and-bound tree roughly twelvefold).
    pub fn huge() -> Self {
        TspSize {
            cities: 12,
            seed: 12,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("{}cities", self.cities)
    }
}

/// Deterministic symmetric distance matrix.
pub fn distance_matrix(size: &TspSize) -> Vec<Vec<u32>> {
    let n = size.cities;
    let mut rng = DetRng::new(size.seed);
    let mut d = vec![vec![0u32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w = 10 + rng.next_range(90) as u32;
            d[i][j] = w;
            d[j][i] = w;
        }
    }
    d
}

/// The cheapest edge leaving each city — a constant of the distance matrix,
/// computed once per run.  Entries past the last city are zero, so
/// [`lower_bound`] can sum the whole table.
fn cheapest_edges(dist: &[Vec<u32>]) -> [u32; MAX_CITIES] {
    let mut cheapest = [0u32; MAX_CITIES];
    for (c, row) in dist.iter().enumerate() {
        let others = row.iter().enumerate().filter(|&(o, _)| o != c);
        cheapest[c] = others.map(|(_, &d)| d).min().unwrap_or(u32::MAX);
    }
    cheapest
}

/// Simple lower bound: cost so far plus, for every unvisited city (and the
/// current end point), the cheapest edge leaving it, halved.
///
/// The search calls this once per node on masks that look random, so the sum
/// selects each city's edge with a mask instead of a branch that would
/// mispredict.
fn lower_bound(cheapest: &[u32; MAX_CITIES], visited_mask: u32, last: usize, cost: u32) -> u32 {
    let counted = !visited_mask | 1 << last;
    let mut extra = 0u32;
    for (c, &edge) in cheapest.iter().enumerate() {
        // All ones if city `c` is counted, zero otherwise.
        extra += edge & 0u32.wrapping_sub(counted >> c & 1);
    }
    cost + extra / 2
}

/// Sequential reference: exact branch-and-bound, returns the optimal tour
/// length as the checksum.
pub fn run_sequential(size: &TspSize) -> f64 {
    let dist = distance_matrix(size);
    let cheapest = cheapest_edges(&dist);
    let n = size.cities;
    let mut best = u32::MAX;
    // Depth-first stack of (mask, last, cost).
    let mut stack = vec![(1u32, 0usize, 0u32)];
    while let Some((mask, last, cost)) = stack.pop() {
        if mask == (1 << n) - 1 {
            best = best.min(cost + dist[last][0]);
            continue;
        }
        if lower_bound(&cheapest, mask, last, cost) >= best {
            continue;
        }
        for (next, &edge) in dist[last].iter().enumerate().skip(1) {
            if mask & (1 << next) == 0 {
                stack.push((mask | (1 << next), next, cost + edge));
            }
        }
    }
    best as f64
}

/// DSM implementation on `cfg.nprocs` processors.
///
/// The pool of partial tours, the priority queue (an index heap ordered by
/// lower bound) and the global best tour length live in shared memory and
/// are manipulated under a global queue lock — the migratory pattern the
/// paper describes.
pub fn run_parallel(cfg: &AppConfig, size: &TspSize) -> AppRun {
    let dist = distance_matrix(size);
    let cheapest = cheapest_edges(&dist);
    let n = size.cities;
    // Far above what the search allocates: on eight processors the pool's
    // high-water mark is 101 records at 11 cities and 1 011 at 12 (at most
    // 1 077 on 1 to 16 processors under either protocol).
    let pool_capacity: usize = 200_000;

    let mut dsm = Dsm::new(cfg.clone());
    let pool = dsm.alloc_array::<u32>(pool_capacity * TOUR_FIELDS, Align::Page);
    // queue[0] = number of entries; queue[1..] = pool indices ordered as a
    // simple stack prioritised by insertion (branch-and-bound with a shared
    // work stack).
    let queue = dsm.alloc_array::<u32>(pool_capacity + 1, Align::Page);
    let pool_top = dsm.alloc_scalar::<u32>(Align::Page);
    let best = dsm.alloc_scalar::<u32>(Align::Page);

    const QUEUE_LOCK: usize = 0;
    const BEST_LOCK: usize = 1;

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        // Processor 0 seeds the search with the root tour.
        if me == 0 {
            ctx.acquire(QUEUE_LOCK).await;
            best.set(ctx, u32::MAX).await;
            let mut rec = vec![0u32; TOUR_FIELDS];
            rec[0] = 1; // tour length (cities visited)
            rec[1] = 0; // cost so far
            rec[2] = 0; // bound
            rec[3] = 0; // starting city
            pool.write_slice(ctx, 0, &rec).await;
            pool_top.set(ctx, 1).await;
            queue.set(ctx, 0, 1).await;
            queue.set(ctx, 1, 0).await;
            ctx.release(QUEUE_LOCK).await;
        }
        ctx.barrier().await;

        let mut expanded = 0u64;
        let mut idle_rounds = 0u32;
        // The tour record read at every expansion.
        let mut rec = Vec::new();
        loop {
            // Grab a unit of work from the shared queue.
            ctx.acquire(QUEUE_LOCK).await;
            let len = queue.get(ctx, 0).await;
            let work = if len > 0 {
                let idx = queue.get(ctx, len as usize).await;
                queue.set(ctx, 0, len - 1).await;
                Some(idx)
            } else {
                None
            };
            ctx.release(QUEUE_LOCK).await;

            let Some(tour_idx) = work else {
                idle_rounds += 1;
                ctx.compute(20_000);
                if idle_rounds > 3 {
                    break;
                }
                continue;
            };
            idle_rounds = 0;
            expanded += 1;

            // Read the tour record (allocated, most likely, by another
            // processor — the migratory access the paper describes).
            pool.read_into(ctx, tour_idx as usize * TOUR_FIELDS, TOUR_FIELDS, &mut rec)
                .await;
            let tour_len = rec[0] as usize;
            let cost = rec[1];
            let cities = &rec[3..3 + tour_len];
            let last = cities[tour_len - 1] as usize;
            let mask = cities.iter().fold(0u32, |m, &c| m | (1 << c));
            ctx.compute(5_000);

            // Unsynchronized read of the global bound, as in the paper's
            // TSP: a stale value only weakens pruning for this expansion,
            // never correctness — every bound *update* re-reads under
            // BEST_LOCK.  Annotated so the race detector reports only
            // undocumented races.
            ctx.begin_benign_race();
            let current_best = best.get(ctx).await;
            ctx.end_benign_race();
            if tour_len == n {
                let total = cost + dist[last][0];
                if total < current_best {
                    ctx.acquire(BEST_LOCK).await;
                    let b = best.get(ctx).await;
                    if total < b {
                        best.set(ctx, total).await;
                    }
                    ctx.release(BEST_LOCK).await;
                }
                continue;
            }
            if lower_bound(&cheapest, mask, last, cost) >= current_best {
                continue;
            }

            // Below the queue depth limit the subtree is searched locally —
            // the shared queue hands out coarse work units (as the real TSP
            // program does), while the tour pool, queue and best tour remain
            // the migratory shared structures the paper describes.
            let queue_depth_limit = n.saturating_sub(8).max(2);
            if tour_len >= queue_depth_limit {
                let mut local_best = current_best;
                let mut stack = vec![(mask, last, cost, tour_len)];
                let mut searched = 0u64;
                while let Some((m, l, c, len)) = stack.pop() {
                    searched += 1;
                    if len == n {
                        local_best = local_best.min(c + dist[l][0]);
                        continue;
                    }
                    if lower_bound(&cheapest, m, l, c) >= local_best {
                        continue;
                    }
                    for (next, &edge) in dist[l].iter().enumerate().skip(1) {
                        if m & (1 << next) == 0 {
                            stack.push((m | (1 << next), next, c + edge, len + 1));
                        }
                    }
                }
                ctx.compute(searched * 3_000);
                if local_best < current_best {
                    ctx.acquire(BEST_LOCK).await;
                    let b = best.get(ctx).await;
                    if local_best < b {
                        best.set(ctx, local_best).await;
                    }
                    ctx.release(BEST_LOCK).await;
                }
                continue;
            }

            // Expand: allocate children in the shared pool and push them on
            // the queue.
            let mut children: Vec<Vec<u32>> = Vec::new();
            for (next, &edge) in dist[last].iter().enumerate().skip(1) {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let child_cost = cost + edge;
                let child_mask = mask | (1 << next);
                let bound = lower_bound(&cheapest, child_mask, next, child_cost);
                if bound >= current_best {
                    continue;
                }
                let mut child = vec![0u32; TOUR_FIELDS];
                child[0] = tour_len as u32 + 1;
                child[1] = child_cost;
                child[2] = bound;
                child[3..3 + tour_len].copy_from_slice(cities);
                child[3 + tour_len] = next as u32;
                children.push(child);
                ctx.compute(5_000);
            }
            if children.is_empty() {
                continue;
            }
            ctx.acquire(QUEUE_LOCK).await;
            let mut top = pool_top.get(ctx).await;
            let mut qlen = queue.get(ctx, 0).await;
            for child in &children {
                // Dropping a child would prune the search without a trace.
                assert!(
                    (top as usize) < pool_capacity,
                    "TSP tour pool full: all {pool_capacity} records allocated"
                );
                pool.write_slice(ctx, top as usize * TOUR_FIELDS, child)
                    .await;
                qlen += 1;
                queue.set(ctx, qlen as usize, top).await;
                top += 1;
            }
            pool_top.set(ctx, top).await;
            queue.set(ctx, 0, qlen).await;
            ctx.release(QUEUE_LOCK).await;
        }

        ctx.barrier().await;
        ctx.mark_execution_end();
        (best.get(ctx).await as f64, expanded)
    });

    AppRun::new("TSP", size.label(), out.results[0].0, out.stats)
}

/// The single data-set size reported for TSP.
pub fn paper_sizes() -> Vec<TspSize> {
    vec![TspSize::standard()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdsm_core::UnitPolicy;

    /// The bound as it was first written — the cheapest edge of every counted
    /// city recomputed from the matrix at every call — kept as the oracle for
    /// the table-driven [`lower_bound`].
    fn lower_bound_reference(dist: &[Vec<u32>], visited_mask: u32, last: usize, cost: u32) -> u32 {
        let n = dist.len();
        let mut extra = 0u32;
        for c in 0..n {
            if visited_mask & (1 << c) != 0 && c != last {
                continue;
            }
            let mut cheapest = u32::MAX;
            for o in 0..n {
                if o != c && dist[c][o] < cheapest {
                    cheapest = dist[c][o];
                }
            }
            extra += cheapest;
        }
        cost + extra / 2
    }

    /// Compare the two bounds on every `(mask, last)` the search can reach:
    /// city 0 visited, `last` one of the visited cities.
    fn assert_bounds_agree(dist: &[Vec<u32>], cost: u32) {
        let n = dist.len();
        let cheapest = cheapest_edges(dist);
        for mask in (1u32..1 << n).step_by(2) {
            for last in (0..n).filter(|&c| mask & (1 << c) != 0) {
                assert_eq!(
                    lower_bound(&cheapest, mask, last, cost),
                    lower_bound_reference(dist, mask, last, cost),
                    "n={n} mask={mask:#b} last={last}"
                );
            }
        }
    }

    /// A symmetric matrix over `n` cities from a list of edge weights.
    fn symmetric(n: usize, weights: &[u32]) -> Vec<Vec<u32>> {
        let mut d = vec![vec![0u32; n]; n];
        let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        for ((i, j), &w) in pairs.zip(weights) {
            d[i][j] = w;
            d[j][i] = w;
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn table_bound_equals_the_recomputing_bound(
            n in 2usize..=MAX_CITIES,
            weights in prop::collection::vec(0u32..1000, MAX_CITIES * (MAX_CITIES - 1) / 2),
            cost in 0u32..5000,
        ) {
            assert_bounds_agree(&symmetric(n, &weights), cost);
        }
    }

    #[test]
    fn table_bound_equals_the_recomputing_bound_at_max_cities() {
        // A full table: no zero padding, bit 15 of the mask in use.
        let size = TspSize {
            cities: MAX_CITIES,
            seed: 12,
        };
        assert_bounds_agree(&distance_matrix(&size), 17);
    }

    /// Brute-force optimum for cross-checking the branch-and-bound.
    fn brute_force(size: &TspSize) -> u32 {
        let dist = distance_matrix(size);
        let n = size.cities;
        let mut cities: Vec<usize> = (1..n).collect();
        let mut best = u32::MAX;
        permute(&mut cities, 0, &dist, &mut best);
        fn permute(cities: &mut Vec<usize>, k: usize, dist: &[Vec<u32>], best: &mut u32) {
            if k == cities.len() {
                let mut cost = dist[0][cities[0]];
                for w in cities.windows(2) {
                    cost += dist[w[0]][w[1]];
                }
                cost += dist[*cities.last().unwrap()][0];
                *best = (*best).min(cost);
                return;
            }
            for i in k..cities.len() {
                cities.swap(k, i);
                permute(cities, k + 1, dist, best);
                cities.swap(k, i);
            }
        }
        best
    }

    #[test]
    fn sequential_finds_the_optimum() {
        let size = TspSize::tiny();
        assert_eq!(run_sequential(&size) as u32, brute_force(&size));
    }

    #[test]
    fn distance_matrix_is_symmetric_and_deterministic() {
        let size = TspSize::standard();
        let a = distance_matrix(&size);
        let b = distance_matrix(&size);
        assert_eq!(a, b);
        for i in 0..size.cities {
            assert_eq!(a[i][i], 0);
            for j in 0..size.cities {
                assert_eq!(a[i][j], a[j][i]);
            }
        }
    }

    #[test]
    fn parallel_finds_the_same_optimum() {
        let size = TspSize::tiny();
        let seq = run_sequential(&size);
        for procs in [1usize, 4] {
            let par = run_parallel(&AppConfig::with_procs(procs), &size);
            assert_eq!(par.checksum, seq, "procs={procs}");
        }
    }

    #[test]
    fn correct_under_larger_units() {
        let size = TspSize::tiny();
        let seq = run_sequential(&size);
        let par = run_parallel(
            &AppConfig::with_procs(4).unit(UnitPolicy::Static { pages: 4 }),
            &size,
        );
        assert_eq!(par.checksum, seq);
    }
}
