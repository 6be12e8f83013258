//! Barnes — Barnes-Hut hierarchical N-body simulation (SPLASH).
//!
//! Sharing structure (paper §5.5): the octree is constructed *sequentially by
//! a master processor* while the force computation is done in parallel by all
//! processors.  Bodies are small records allocated contiguously, so the
//! fine-grained force/position writes produce write-write false sharing on
//! every page of the body array; at the same time the master reads
//! essentially the whole body region each step and every processor reads a
//! large part of it, so there is extensive true sharing and few useless
//! messages — aggregation is therefore beneficial, which is exactly the
//! behaviour Figure 1 reports.

use tdsm_core::{Align, Dsm};

use crate::common::{block_range, AppConfig, AppRun};

/// `f64` fields per body record: position (3), velocity (3), force (3),
/// mass (1) and 2 private scratch words.
pub const BODY_FIELDS: usize = 12;
/// `f64` fields per serialized tree node.
const NODE_FIELDS: usize = 16;
const THETA: f64 = 0.6;

/// Size of a Barnes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarnesSize {
    /// Number of bodies.
    pub bodies: usize,
    /// Number of timesteps.
    pub steps: usize,
}

impl BarnesSize {
    /// The paper's 16 K-body run, scaled down in body count (the sharing
    /// pattern per page of bodies is unchanged).
    pub fn standard() -> Self {
        BarnesSize {
            bodies: 2048,
            steps: 2,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        BarnesSize {
            bodies: 96,
            steps: 2,
        }
    }

    /// The `--scale large` stress tier (8K bodies, two extra steps).
    pub fn huge() -> Self {
        BarnesSize {
            bodies: 8192,
            steps: 4,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("{}bodies", self.bodies)
    }
}

fn initial_body(i: usize) -> ([f64; 3], [f64; 3], f64) {
    // A deterministic blob: positions in a cube, small velocities.  The
    // per-body epsilon keeps every position distinct so the octree insertion
    // always terminates.
    let h = |k: usize| ((i * 2654435761 + k * 40503) % 1000) as f64 / 1000.0;
    let eps = i as f64 * 1e-6;
    let pos = [
        h(1) * 10.0 - 5.0 + eps,
        h(2) * 10.0 - 5.0 + eps,
        h(3) * 10.0 - 5.0,
    ];
    let vel = [h(4) * 0.2 - 0.1, h(5) * 0.2 - 0.1, h(6) * 0.2 - 0.1];
    let mass = 0.5 + h(7);
    (pos, vel, mass)
}

/// One node of the Barnes-Hut octree (plain in-memory form used by both the
/// sequential reference and the master processor of the DSM version).
#[derive(Debug, Clone)]
struct Node {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    /// Child node indices (0 = none; the root is at index 0 so it can never
    /// be a child).
    children: [u32; 8],
    /// Index of the single body in a leaf (u32::MAX for internal/empty).
    body: u32,
}

impl Node {
    fn empty(center: [f64; 3], half: f64) -> Self {
        Node {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [0; 8],
            body: u32::MAX,
        }
    }

    fn octant(&self, pos: &[f64; 3]) -> usize {
        (usize::from(pos[0] >= self.center[0]))
            | (usize::from(pos[1] >= self.center[1]) << 1)
            | (usize::from(pos[2] >= self.center[2]) << 2)
    }

    fn child_center(&self, oct: usize) -> [f64; 3] {
        let q = self.half / 2.0;
        [
            self.center[0] + if oct & 1 != 0 { q } else { -q },
            self.center[1] + if oct & 2 != 0 { q } else { -q },
            self.center[2] + if oct & 4 != 0 { q } else { -q },
        ]
    }
}

/// Build the octree over the given positions/masses.  Returns the node pool;
/// the root is node 0.
fn build_tree(pos: &[[f64; 3]], mass: &[f64]) -> Vec<Node> {
    let mut half = 1.0f64;
    for p in pos {
        for d in 0..3 {
            half = half.max(p[d].abs() + 1.0);
        }
    }
    let mut nodes = vec![Node::empty([0.0; 3], half)];
    for i in 0..pos.len() {
        insert(&mut nodes, 0, i as u32, pos);
    }
    compute_moments(&mut nodes, 0, pos, mass);
    nodes
}

/// Insert `body` into the subtree rooted at `node`, splitting occupied
/// leaves as needed (positions are guaranteed distinct by `initial_body`).
fn insert(nodes: &mut Vec<Node>, node: usize, body: u32, all_pos: &[[f64; 3]]) {
    let is_empty_leaf =
        nodes[node].body == u32::MAX && nodes[node].children.iter().all(|&c| c == 0);
    if is_empty_leaf {
        nodes[node].body = body;
        return;
    }
    if nodes[node].body != u32::MAX {
        // Occupied leaf: push the resident body down before descending.
        let resident = nodes[node].body;
        nodes[node].body = u32::MAX;
        insert_into_child(nodes, node, resident, all_pos);
    }
    insert_into_child(nodes, node, body, all_pos);
}

fn insert_into_child(nodes: &mut Vec<Node>, node: usize, body: u32, all_pos: &[[f64; 3]]) {
    let p = all_pos[body as usize];
    let oct = nodes[node].octant(&p);
    if nodes[node].children[oct] == 0 {
        let center = nodes[node].child_center(oct);
        let half = nodes[node].half / 2.0;
        nodes.push(Node::empty(center, half));
        let idx = (nodes.len() - 1) as u32;
        nodes[node].children[oct] = idx;
        nodes[idx as usize].body = body;
    } else {
        let child = nodes[node].children[oct] as usize;
        insert(nodes, child, body, all_pos);
    }
}

fn compute_moments(nodes: &mut Vec<Node>, node: usize, pos: &[[f64; 3]], mass: &[f64]) {
    if nodes[node].body != u32::MAX {
        let b = nodes[node].body as usize;
        nodes[node].mass = mass[b];
        nodes[node].com = pos[b];
        return;
    }
    let mut total = 0.0;
    let mut com = [0.0f64; 3];
    for oct in 0..8 {
        let c = nodes[node].children[oct] as usize;
        if c == 0 {
            continue;
        }
        compute_moments(nodes, c, pos, mass);
        total += nodes[c].mass;
        for d in 0..3 {
            com[d] += nodes[c].mass * nodes[c].com[d];
        }
    }
    if total > 0.0 {
        for d in 0..3 {
            com[d] /= total;
        }
    }
    nodes[node].mass = total;
    nodes[node].com = com;
}

/// Force on a body at `p` (excluding self-interaction with body `me`).
fn tree_force(nodes: &[Node], node: usize, p: &[f64; 3], me: u32, acc: &mut [f64; 3]) -> u64 {
    let n = &nodes[node];
    if n.mass == 0.0 || (n.body != u32::MAX && n.body == me) {
        return 1;
    }
    let dx = n.com[0] - p[0];
    let dy = n.com[1] - p[1];
    let dz = n.com[2] - p[2];
    let r2 = dx * dx + dy * dy + dz * dz + 1e-6;
    let r = r2.sqrt();
    let mut visited = 1;
    if n.body != u32::MAX || (2.0 * n.half) / r < THETA {
        let f = n.mass / (r2 * r);
        acc[0] += f * dx;
        acc[1] += f * dy;
        acc[2] += f * dz;
    } else {
        for oct in 0..8 {
            let c = n.children[oct] as usize;
            if c != 0 {
                visited += tree_force(nodes, c, p, me, acc);
            }
        }
    }
    visited
}

fn tree_to_floats(nodes: &[Node]) -> Vec<f64> {
    let mut out = vec![0.0f64; nodes.len() * NODE_FIELDS];
    for (i, n) in nodes.iter().enumerate() {
        let b = i * NODE_FIELDS;
        out[b..b + 3].copy_from_slice(&n.center);
        out[b + 3] = n.half;
        out[b + 4] = n.mass;
        out[b + 5..b + 8].copy_from_slice(&n.com);
        for (k, &c) in n.children.iter().enumerate() {
            out[b + 8 + k] = c as f64;
        }
    }
    out
}

fn floats_to_tree(data: &[f64], count: usize) -> Vec<Node> {
    (0..count)
        .map(|i| {
            let b = i * NODE_FIELDS;
            let mut children = [0u32; 8];
            for (k, c) in children.iter_mut().enumerate() {
                *c = data[b + 8 + k] as u32;
            }
            Node {
                center: [data[b], data[b + 1], data[b + 2]],
                half: data[b + 3],
                mass: data[b + 4],
                com: [data[b + 5], data[b + 6], data[b + 7]],
                children,
                // The body index is not needed by remote force computation;
                // leaves are recognised by having no children.
                body: if children.iter().all(|&c| c == 0) {
                    0
                } else {
                    u32::MAX
                },
            }
        })
        .collect()
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &BarnesSize) -> f64 {
    let n = size.bodies;
    let mut pos: Vec<[f64; 3]> = Vec::with_capacity(n);
    let mut vel: Vec<[f64; 3]> = Vec::with_capacity(n);
    let mut mass: Vec<f64> = Vec::with_capacity(n);
    for i in 0..n {
        let (p, v, m) = initial_body(i);
        pos.push(p);
        vel.push(v);
        mass.push(m);
    }
    for _ in 0..size.steps {
        let nodes = build_tree(&pos, &mass);
        // The serialized/deserialized tree is what the parallel version
        // traverses, so traverse the same representation here to keep the
        // checksums bitwise comparable.
        let remote = floats_to_tree(&tree_to_floats(&nodes), nodes.len());
        let mut forces = vec![[0.0f64; 3]; n];
        for (i, f) in forces.iter_mut().enumerate() {
            tree_force(&remote, 0, &pos[i], i as u32, f);
        }
        for i in 0..n {
            for d in 0..3 {
                vel[i][d] += 0.01 * forces[i][d];
                pos[i][d] += 0.01 * vel[i][d];
            }
        }
    }
    pos.iter()
        .zip(vel.iter())
        .map(|(p, v)| {
            p.iter().map(|x| x.abs()).sum::<f64>() + v.iter().map(|x| x.abs()).sum::<f64>()
        })
        .sum()
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &BarnesSize) -> AppRun {
    let n = size.bodies;
    let mut dsm = Dsm::new(cfg.clone());
    // Contiguous array of body records — the page-shared structure the paper
    // studies.
    let bodies = dsm.alloc_array::<f64>(n * BODY_FIELDS, Align::Page);
    // Node pool written by the master each step (generously sized).
    let max_nodes = 4 * n + 64;
    let tree = dsm.alloc_array::<f64>(max_nodes * NODE_FIELDS, Align::Page);
    let tree_len = dsm.alloc_scalar::<u64>(Align::Page);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let mine = block_range(n, nprocs, me);

        // Owners initialise their bodies.
        for i in mine.clone() {
            let (p, v, m) = initial_body(i);
            let mut rec = vec![0.0f64; BODY_FIELDS];
            rec[..3].copy_from_slice(&p);
            rec[3..6].copy_from_slice(&v);
            rec[9] = m;
            bodies.write_slice(ctx, i * BODY_FIELDS, &rec).await;
            ctx.compute(120);
        }
        ctx.barrier().await;

        // One record buffer for every per-body bulk read below.
        let mut rec = Vec::new();
        for _ in 0..size.steps {
            // The master reads every body (fine-grained reads over the whole
            // region) and builds the tree sequentially.
            if me == 0 {
                let mut pos = Vec::with_capacity(n);
                let mut mass = Vec::with_capacity(n);
                for i in 0..n {
                    bodies.read_into(ctx, i * BODY_FIELDS, 10, &mut rec).await;
                    pos.push([rec[0], rec[1], rec[2]]);
                    mass.push(rec[9]);
                    ctx.compute(800);
                }
                let nodes = build_tree(&pos, &mass);
                ctx.compute(nodes.len() as u64 * 6_000);
                let floats = tree_to_floats(&nodes);
                tree.write_slice(ctx, 0, &floats).await;
                tree_len.set(ctx, nodes.len() as u64).await;
            }
            ctx.barrier().await;

            // Every processor reads the tree (a large truly shared region)
            // and computes the forces of its own bodies, writing them back
            // fine-grained.
            let count = tree_len.get(ctx).await as usize;
            let floats = tree.read_vec(ctx, 0, count * NODE_FIELDS).await;
            let nodes = floats_to_tree(&floats, count);
            for i in mine.clone() {
                bodies.read_into(ctx, i * BODY_FIELDS, 3, &mut rec).await;
                let p = [rec[0], rec[1], rec[2]];
                let mut f = [0.0f64; 3];
                let visited = tree_force(&nodes, 0, &p, i as u32, &mut f);
                // ~30 flops + a cache-unfriendly node load per visited cell
                // on a 166 MHz Pentium, scaled up by the body-count reduction
                // documented in EXPERIMENTS.md.
                ctx.compute(visited * 6_000);
                bodies.write_slice(ctx, i * BODY_FIELDS + 6, &f).await;
            }
            ctx.barrier().await;

            // Position/velocity update of own bodies (fine-grained writes).
            for i in mine.clone() {
                bodies
                    .read_into(ctx, i * BODY_FIELDS, BODY_FIELDS, &mut rec)
                    .await;
                for d in 0..3 {
                    rec[3 + d] += 0.01 * rec[6 + d];
                    rec[d] += 0.01 * rec[3 + d];
                }
                bodies.write_slice(ctx, i * BODY_FIELDS, &rec[..6]).await;
                ctx.compute(800);
            }
            ctx.barrier().await;
        }

        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for i in 0..n {
                bodies.read_into(ctx, i * BODY_FIELDS, 6, &mut rec).await;
                sum += rec.iter().map(|x| x.abs()).sum::<f64>();
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new("Barnes", size.label(), out.results[0], out.stats)
}

/// The single data-set size reported for Barnes (its false-sharing behaviour
/// is size independent, §5.2).
pub fn paper_sizes() -> Vec<BarnesSize> {
    vec![BarnesSize::standard()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn tree_conserves_mass() {
        let n = 50;
        let mut pos = Vec::new();
        let mut mass = Vec::new();
        for i in 0..n {
            let (p, _, m) = initial_body(i);
            pos.push(p);
            mass.push(m);
        }
        let nodes = build_tree(&pos, &mass);
        let total: f64 = mass.iter().sum();
        assert!((nodes[0].mass - total).abs() < 1e-9);
    }

    #[test]
    fn force_points_towards_a_distant_cluster() {
        // A single body far to the left of a cluster must be pulled right.
        let mut pos = vec![[-50.0, 0.0, 0.0]];
        let mut mass = vec![1.0];
        for i in 0..20 {
            pos.push([10.0 + (i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1, 0.0]);
            mass.push(1.0);
        }
        let nodes = build_tree(&pos, &mass);
        let mut f = [0.0f64; 3];
        tree_force(&nodes, 0, &pos[0], 0, &mut f);
        assert!(f[0] > 0.0);
    }

    #[test]
    fn serialization_roundtrip_preserves_moments() {
        let n = 30;
        let mut pos = Vec::new();
        let mut mass = Vec::new();
        for i in 0..n {
            let (p, _, m) = initial_body(i);
            pos.push(p);
            mass.push(m);
        }
        let nodes = build_tree(&pos, &mass);
        let floats = tree_to_floats(&nodes);
        let back = floats_to_tree(&floats, nodes.len());
        assert_eq!(back.len(), nodes.len());
        assert!((back[0].mass - nodes[0].mass).abs() < 1e-12);
        for d in 0..3 {
            assert!((back[0].com[d] - nodes[0].com[d]).abs() < 1e-12);
        }
    }

    /// The reference as it was first written: the tree serialised and parsed
    /// again for every body.  Kept as the oracle for the once-per-step codec
    /// of [`run_sequential`].
    fn run_sequential_per_body_codec(size: &BarnesSize) -> f64 {
        let n = size.bodies;
        let (mut pos, mut vel, mut mass) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let (p, v, m) = initial_body(i);
            pos.push(p);
            vel.push(v);
            mass.push(m);
        }
        for _ in 0..size.steps {
            let nodes = build_tree(&pos, &mass);
            let mut forces = vec![[0.0f64; 3]; n];
            for (i, f) in forces.iter_mut().enumerate() {
                let floats = tree_to_floats(&nodes);
                let remote = floats_to_tree(&floats, nodes.len());
                tree_force(&remote, 0, &pos[i], i as u32, f);
            }
            for i in 0..n {
                for d in 0..3 {
                    vel[i][d] += 0.01 * forces[i][d];
                    pos[i][d] += 0.01 * vel[i][d];
                }
            }
        }
        pos.iter()
            .zip(vel.iter())
            .map(|(p, v)| {
                p.iter().map(|x| x.abs()).sum::<f64>() + v.iter().map(|x| x.abs()).sum::<f64>()
            })
            .sum()
    }

    #[test]
    fn hoisted_codec_keeps_the_checksum_bits() {
        let size = BarnesSize::tiny();
        assert_eq!(
            run_sequential(&size).to_bits(),
            run_sequential_per_body_codec(&size).to_bits()
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let size = BarnesSize::tiny();
        let seq = run_sequential(&size);
        for procs in [1usize, 4] {
            let par = run_parallel(&AppConfig::with_procs(procs), &size);
            assert!(
                checksums_match(par.checksum, seq, 1e-9),
                "procs={procs}: {} vs {seq}",
                par.checksum
            );
        }
    }

    #[test]
    fn correct_under_larger_and_dynamic_units() {
        let size = BarnesSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 4 },
            UnitPolicy::Dynamic { max_group_pages: 8 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-9), "unit {unit:?}");
        }
    }
}
