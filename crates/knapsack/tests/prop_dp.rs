//! Property tests: the 2-D DP is optimal (vs the exhaustive oracle), its
//! kernel computes exactly the classic cell-by-cell DP, and all solvers
//! respect feasibility on arbitrary instances.

use phishare_knapsack::bb::solve_branch_and_bound_bounded;
use phishare_knapsack::exhaustive::solve_exhaustive;
use phishare_knapsack::{
    prep_2d, solve_1d_filtered, solve_2d, solve_2d_with, solve_prepped_2d_with, Capacity,
    DpScratch, PackItem, Packing, ValueFunction,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn arb_item(index: usize) -> impl Strategy<Value = PackItem> {
    (50u64..4000, 1u32..=60).prop_map(move |(mem_mb, cores)| PackItem {
        index,
        mem_mb,
        threads: cores * 4,
    })
}

fn arb_items(max: usize) -> impl Strategy<Value = Vec<PackItem>> {
    prop::collection::vec(any::<()>(), 1..=max).prop_flat_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, _)| arb_item(i))
            .collect::<Vec<_>>()
    })
}

fn arb_capacity() -> impl Strategy<Value = Capacity> {
    (
        500u64..8000,
        prop::sample::select(vec![25u64, 50, 100, 200]),
    )
        .prop_map(|(mem_mb, granularity_mb)| Capacity {
            mem_mb,
            granularity_mb,
            thread_limit: 240,
            value_ref_threads: 0,
        })
}

/// Instances for the kernel reference, half on the unit grid and half on
/// a coarse one (see [`arb_unit_instance`] and [`arb_grid_instance`]).
fn arb_kernel_instance() -> impl Strategy<Value = (Vec<PackItem>, Capacity)> {
    prop_oneof![arb_unit_instance(), arb_grid_instance()]
}

/// Unit-grid instances: zero-memory and zero-thread items, thread limits
/// whose `t_max + 1` lies on both sides of 64 and 128, and memory either
/// drawn at random or roomy enough for every item at once (with small
/// thread counts, every item then fits in both dimensions).
fn arb_unit_instance() -> impl Strategy<Value = (Vec<PackItem>, Capacity)> {
    (
        prop::sample::select(vec![252u32, 256, 260, 508, 512]),
        prop::sample::select(vec![50u64, 100]),
        any::<bool>(),
        1usize..=16,
    )
        .prop_flat_map(|(thread_limit, granularity_mb, small, n)| {
            let threads = if small {
                (0..=thread_limit / 64).prop_map(|cores| cores * 4).boxed()
            } else {
                prop_oneof![1 => Just(0u32), 4 => 1..=thread_limit].boxed()
            };
            let item = (prop_oneof![1 => Just(0u64), 4 => 1u64..1500], threads);
            (
                prop::collection::vec(item, 1..=n),
                prop_oneof![Just(None), (0u64..8000).prop_map(Some)],
                Just((thread_limit, granularity_mb)),
            )
        })
        .prop_map(|(raw, mem_mb, (thread_limit, granularity_mb))| {
            let items = index(raw);
            let cap = Capacity {
                mem_mb: mem_mb.unwrap_or(roomy(&items, granularity_mb)),
                granularity_mb,
                thread_limit,
                value_ref_threads: 240,
            };
            (items, cap)
        })
}

/// Instances whose units share a factor in each dimension, so the solver
/// scales its table: memory in multiples of `k` units, threads either Table
/// I's 60, 180 and 240 or multiples of `m` cores, zero weights in both
/// dimensions, and capacities (thread limits from 100 to 512, memory
/// random or roomy plus a slack under `k` units) that are mostly not
/// multiples of the factor. Table I threads leave at most 8 thread rows,
/// a coarse `k` few memory rows, so both orientations of the table occur.
fn arb_grid_instance() -> impl Strategy<Value = (Vec<PackItem>, Capacity)> {
    (
        prop::sample::select(vec![50u64, 100]),
        1u64..=8,
        any::<bool>(),
        1u32..=4,
        100u32..=512,
        1usize..=16,
    )
        .prop_flat_map(|(granularity_mb, k, table1, m, thread_limit, n)| {
            let threads = if table1 {
                prop::sample::select(vec![60u32, 180, 240]).boxed()
            } else {
                (1..=thread_limit / (4 * m))
                    .prop_map(move |c| c * 4 * m)
                    .boxed()
            };
            // `u·k` units exactly: `⌈(u·k·g − d)/g⌉ = u·k` for `d < g`.
            let mem =
                (1u64..=12, 0..granularity_mb).prop_map(move |(u, d)| u * k * granularity_mb - d);
            let item = (
                prop_oneof![1 => Just(0u64), 5 => mem],
                prop_oneof![1 => Just(0u32), 5 => threads],
            );
            (
                prop::collection::vec(item, 1..=n),
                prop_oneof![
                    (0..k * granularity_mb).prop_map(|slack| (None, slack)),
                    (0u64..8000).prop_map(|mem_mb| (Some(mem_mb), 0)),
                ],
                Just((thread_limit, granularity_mb)),
            )
        })
        .prop_map(|(raw, (mem_mb, slack), (thread_limit, granularity_mb))| {
            let items = index(raw);
            let cap = Capacity {
                mem_mb: mem_mb.unwrap_or(roomy(&items, granularity_mb) + slack),
                granularity_mb,
                thread_limit,
                value_ref_threads: 240,
            };
            (items, cap)
        })
}

fn index(raw: Vec<(u64, u32)>) -> Vec<PackItem> {
    raw.into_iter()
        .enumerate()
        .map(|(index, (mem_mb, threads))| PackItem {
            index,
            mem_mb,
            threads,
        })
        .collect()
}

/// Memory that holds every item at once.
fn roomy(items: &[PackItem], granularity_mb: u64) -> u64 {
    items
        .iter()
        .map(|it| it.mem_mb.div_ceil(granularity_mb) * granularity_mb)
        .sum()
}

/// The classic 2-D knapsack DP, cell by cell over the whole table, with
/// `solve_2d`'s fit filter and reconstruction: the specification the
/// solver's clamped row kernel must reproduce bit for bit. Returns the
/// selected `index` fields (ascending) and the optimum.
fn reference_2d(items: &[PackItem], cap: &Capacity, vf: ValueFunction) -> (Vec<usize>, f64) {
    let (w_max, t_max) = (cap.units(), (cap.thread_limit / 4) as usize);
    if w_max == 0 || t_max == 0 {
        return (Vec::new(), 0.0);
    }
    let layers: Vec<(usize, usize, f64, usize)> = items
        .iter()
        .filter_map(|it| {
            let (w, t) = (cap.item_units(it.mem_mb), it.threads.div_ceil(4) as usize);
            let fits = w <= w_max && t <= t_max && it.threads <= cap.thread_limit;
            fits.then(|| (w, t, vf.value(it.threads, cap.value_threads()), it.index))
        })
        .collect();
    let stride = t_max + 1;
    let mut dp = vec![0.0f64; (w_max + 1) * stride];
    let mut taken = vec![vec![false; dp.len()]; layers.len()];
    for (k, &(wk, tk, v, _)) in layers.iter().enumerate() {
        for w in (wk..=w_max).rev() {
            for t in (tk..=t_max).rev() {
                let candidate = dp[(w - wk) * stride + t - tk] + v;
                if candidate > dp[w * stride + t] {
                    dp[w * stride + t] = candidate;
                    taken[k][w * stride + t] = true;
                }
            }
        }
    }
    let (mut w, mut t) = (w_max, t_max);
    let mut selected = Vec::new();
    for (k, &(wk, tk, _, index)) in layers.iter().enumerate().rev() {
        if taken[k][w * stride + t] {
            selected.push(index);
            w -= wk;
            t -= tk;
        }
    }
    selected.sort_unstable();
    (selected, dp[dp.len() - 1])
}

/// The grid the solver's kernel runs `(items, cap)` on, restated from
/// `dp_core_2d`'s docs: per dimension (memory, threads), the capacity in
/// units and the gcd of the fitting items' units. `None` when a capacity
/// is zero or nothing fits.
fn instance_grid(items: &[PackItem], cap: &Capacity) -> Option<[(usize, usize); 2]> {
    let (w_max, t_max) = (cap.units(), (cap.thread_limit / 4) as usize);
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let (g_w, g_t) = items
        .iter()
        .map(|it| {
            (
                cap.item_units(it.mem_mb),
                it.threads.div_ceil(4) as usize,
                it,
            )
        })
        .filter(|&(w, t, it)| w <= w_max && t <= t_max && it.threads <= cap.thread_limit)
        .fold(None, |g, (w, t, _)| {
            let (g_w, g_t) = g.unwrap_or((0, 0));
            Some((gcd(g_w, w), gcd(g_t, t)))
        })?;
    (w_max > 0 && t_max > 0).then_some([(w_max, g_w.max(1)), (t_max, g_t.max(1))])
}

/// The kernel strategy reaches every path of the scaled grid: both
/// orientations of the table, a zero weight in each orientation's row
/// dimension, and capacities that are not multiples of a common factor
/// above 1 in either dimension.
#[test]
fn kernel_instances_cover_the_scaled_grid() {
    let strategy = arb_kernel_instance();
    // [rows = memory, rows = threads, ..with a zero row weight, ..with a
    // zero row weight, memory remainder, thread remainder]
    let mut seen = [0usize; 6];
    for case in 0..512 {
        let (items, cap) = strategy.generate(&mut TestRng::for_case("grid coverage", case));
        let Some([(w_max, g_w), (t_max, g_t)]) = instance_grid(&items, &cap) else {
            continue;
        };
        let transposed = t_max / g_t < w_max / g_w;
        let zero_row = items.iter().any(|it| {
            let fits = cap.item_units(it.mem_mb) <= w_max && it.threads <= cap.thread_limit;
            fits && if transposed {
                it.threads == 0
            } else {
                it.mem_mb == 0
            }
        });
        seen[usize::from(transposed)] += 1;
        seen[2 + usize::from(transposed)] += usize::from(zero_row);
        seen[4] += usize::from(g_w > 1 && w_max % g_w != 0);
        seen[5] += usize::from(g_t > 1 && t_max % g_t != 0);
    }
    assert!(seen.iter().all(|&n| n >= 64), "{seen:?}");
}

fn assert_feasible(p: &Packing, cap: &Capacity) {
    assert!(
        p.total_mem_mb <= cap.mem_mb,
        "memory overpacked: {} > {}",
        p.total_mem_mb,
        cap.mem_mb
    );
    assert!(
        p.total_threads <= cap.thread_limit,
        "threads overpacked: {} > {}",
        p.total_threads,
        cap.thread_limit
    );
    // No duplicate selections.
    let mut seen = p.selected.clone();
    seen.dedup();
    assert_eq!(seen.len(), p.selected.len(), "duplicate selection");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 2-D DP achieves exactly the exhaustive optimum on every instance
    /// small enough to enumerate.
    #[test]
    fn dp_2d_matches_oracle(items in arb_items(12), cap in arb_capacity()) {
        for vf in [ValueFunction::PaperQuadratic, ValueFunction::Unit] {
            let oracle = solve_exhaustive(&items, &cap, vf);
            let dp = solve_2d(&items, &cap, vf);
            prop_assert!(
                (oracle.total_value - dp.total_value).abs() < 1e-9,
                "{vf}: oracle {} vs dp {} on {} items",
                oracle.total_value, dp.total_value, items.len()
            );
        }
    }

    /// The solver's selection and optimum equal the cell-by-cell reference
    /// bit for bit, for every value function.
    #[test]
    fn dp_2d_matches_cell_by_cell_reference(inst in arb_kernel_instance()) {
        let (items, cap) = inst;
        for vf in ValueFunction::ALL {
            let (selected, total) = reference_2d(&items, &cap, vf);
            let p = solve_2d(&items, &cap, vf);
            prop_assert_eq!(&p.selected, &selected, "{} on {:?}", vf, cap);
            prop_assert_eq!(p.total_value.to_bits(), total.to_bits());
        }
    }

    /// One scratch carried across instances that grow and shrink in both
    /// dimensions: stale table cells and bits never leak into a later
    /// solve, raw or prepped.
    #[test]
    fn reused_scratch_matches_reference(
        instances in prop::collection::vec(arb_kernel_instance(), 1..=6)
    ) {
        let mut scratch = DpScratch::default();
        let vf = ValueFunction::PaperQuadratic;
        for (items, cap) in &instances {
            let (selected, total) = reference_2d(items, cap, vf);
            let raw = solve_2d_with(items, cap, vf, &mut scratch);
            prop_assert_eq!(&raw.selected, &selected);
            prop_assert_eq!(raw.total_value.to_bits(), total.to_bits());
            let pre = prep_2d(items, cap);
            let (positions, prepped_total) = solve_prepped_2d_with(&pre, vf, &mut scratch);
            let mut prepped: Vec<usize> =
                positions.iter().map(|&p| items[pre.items[p].pos].index).collect();
            prepped.sort_unstable();
            prop_assert_eq!(prepped, selected);
            prop_assert_eq!(prepped_total.to_bits(), total.to_bits());
        }
    }

    /// The DP's reported aggregates are consistent with its selection and
    /// always feasible.
    #[test]
    fn dp_2d_is_feasible_and_consistent(items in arb_items(40), cap in arb_capacity()) {
        let p = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        assert_feasible(&p, &cap);
        let recomputed: f64 = p.selected.iter().map(|&idx| {
            let it = items.iter().find(|i| i.index == idx).unwrap();
            ValueFunction::PaperQuadratic.value(it.threads, cap.thread_limit)
        }).sum();
        prop_assert!((recomputed - p.total_value).abs() < 1e-9);
    }

    /// The repaired 1-D solver never violates either constraint and never
    /// beats the 2-D optimum.
    #[test]
    fn dp_1d_filtered_is_feasible_and_dominated(items in arb_items(30), cap in arb_capacity()) {
        let p1 = solve_1d_filtered(&items, &cap, ValueFunction::PaperQuadratic);
        assert_feasible(&p1, &cap);
        let p2 = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        prop_assert!(p2.total_value >= p1.total_value - 1e-9);
    }

    /// Branch-and-bound agrees with the DP whenever its search completes,
    /// and is always feasible regardless.
    #[test]
    fn branch_and_bound_matches_dp(items in arb_items(16), cap in arb_capacity()) {
        let dp = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        let (bb, complete) =
            solve_branch_and_bound_bounded(&items, &cap, ValueFunction::PaperQuadratic, 2_000_000);
        assert_feasible(&bb, &cap);
        if complete {
            prop_assert!(
                (dp.total_value - bb.total_value).abs() < 1e-9,
                "dp {} vs b&b {}", dp.total_value, bb.total_value
            );
        }
    }

    /// Monotonicity: growing the knapsack never lowers the optimal value.
    #[test]
    fn dp_2d_value_is_monotone_in_capacity(items in arb_items(20), cap in arb_capacity()) {
        let small = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        let bigger = Capacity { mem_mb: cap.mem_mb + cap.granularity_mb, ..cap };
        let large = solve_2d(&items, &bigger, ValueFunction::PaperQuadratic);
        prop_assert!(large.total_value >= small.total_value - 1e-9);
    }

    /// Adding an item never lowers the optimal value.
    #[test]
    fn dp_2d_value_is_monotone_in_items(items in arb_items(20), cap in arb_capacity()) {
        let all = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        let fewer = solve_2d(&items[..items.len() - 1], &cap, ValueFunction::PaperQuadratic);
        prop_assert!(all.total_value >= fewer.total_value - 1e-9);
    }
}
