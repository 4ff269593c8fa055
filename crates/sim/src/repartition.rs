//! Utility-driven dynamic PV-region repartitioning.
//!
//! A static [`PvRegionPlan`] fixes each cohabiting table's sub-region for
//! the whole run, but the cohabitation experiments show the win lives in
//! capacity following demand: whichever table is hot deserves the blocks.
//! This module closes that loop. A per-core [`RepartitionController`]
//! samples per-table PVCache misses over fixed-length access windows (the
//! same windowed-sampling pattern as the accuracy epochs driving the
//! throttle controller), converts them to *pressure* — misses per backed
//! block, the marginal utility of one more block — and at each window
//! boundary moves `step_blocks` from the colder table to the hotter one via
//! [`PvRegionPlan::replan`] + [`SharedPvProxy::apply_plan`].
//!
//! Stability needs more than the dead band. Four mechanisms compose:
//!
//! * a **dead band** — the hotter table must beat the colder one's
//!   pressure by `gain_pct` percent before any move, so a balanced split
//!   never thrashes;
//! * a **floor** (`min_blocks`) — no table is ever starved below a
//!   working minimum (a table with zero blocks takes zero backed misses
//!   and could never earn its way back);
//! * a **confirmation streak** — the same table must win two consecutive
//!   windows, because one window of sampling noise looks exactly like one
//!   window of a phase change;
//! * a **cooldown** and a **look-ahead** on every move — re-planning
//!   itself perturbs the miss counters (invalidated entries refill as
//!   misses), so the window after a move is never compared, and a step
//!   that would overshoot the equilibrium is halved until it lands short.
//!
//! Re-planning is strictly opt-in: only the `PrefetcherKind::Repartitioned`
//! variant constructs a controller, so every pre-existing configuration
//! stays bit-identical.

use pv_core::{PvRegionPlan, SharedPvProxy};
use pv_mem::MemoryHierarchy;

/// Parameters of the capacity-reallocation feedback loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RepartitionConfig {
    /// Data accesses per sampling window; the controller re-plans only at
    /// window boundaries (the epoch edges).
    pub window_accesses: u64,
    /// Hysteresis dead band: the hotter table's pressure (misses per backed
    /// block) must exceed the colder one's by this percentage before a
    /// move. The band a flip must cross to reverse a move is therefore
    /// `(1 + gain_pct/100)²` wide, which is what keeps a stable split from
    /// oscillating.
    pub gain_pct: u64,
    /// Blocks moved per replan. `0` freezes the initial plan — the static
    /// control arm of the repartition experiment, identical scarcity with
    /// the loop disabled.
    pub step_blocks: u64,
    /// Blocks no table is ever shrunk below (the starvation floor).
    pub min_blocks: u64,
}

impl RepartitionConfig {
    /// The default feedback policy of the dynamic presets: 1024-access
    /// windows, a 50% dead band, 256-block steps, and a 64-block floor.
    pub fn feedback_default() -> Self {
        RepartitionConfig {
            window_accesses: 1024,
            gain_pct: 50,
            step_blocks: 256,
            min_blocks: 64,
        }
    }

    /// The static control arm: the same scarce plan and interleaved
    /// backing, with the reallocation loop frozen (`step_blocks == 0`).
    pub fn frozen() -> Self {
        RepartitionConfig {
            step_blocks: 0,
            ..Self::feedback_default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the floor is zero (a table shrunk
    /// to nothing could never earn its way back — no misses, no pressure).
    pub fn assert_valid(&self) {
        assert!(
            self.window_accesses >= 1,
            "a repartition window needs at least one access"
        );
        assert!(
            self.min_blocks >= 1,
            "the sub-region floor must keep at least one block per table"
        );
    }
}

/// One recorded boundary move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChange {
    /// Core whose plan moved.
    pub core: usize,
    /// 1-based index of the window whose boundary triggered the move.
    pub window: u64,
    /// Backed blocks per table *after* the move.
    pub backed: Vec<u64>,
}

/// Repartitioning statistics, merged over cores into `RunMetrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepartitionMetrics {
    /// Completed sampling windows.
    pub windows: u64,
    /// Boundary moves performed.
    pub replans: u64,
    /// Shared-cache entries invalidated by boundary moves.
    pub invalidated_entries: u64,
    /// Migrated dirty entries written back at their old address.
    pub replan_writebacks: u64,
    /// Every boundary move, in observation order (the capacity trace).
    pub plan_trace: Vec<PlanChange>,
    /// Backed blocks per table at collection time, summed element-wise
    /// across cores.
    pub final_backed: Vec<u64>,
}

impl RepartitionMetrics {
    /// Folds `other` into `self` (aggregation across cores).
    pub fn merge(&mut self, other: &RepartitionMetrics) {
        self.windows += other.windows;
        self.replans += other.replans;
        self.invalidated_entries += other.invalidated_entries;
        self.replan_writebacks += other.replan_writebacks;
        self.plan_trace.extend_from_slice(&other.plan_trace);
        if self.final_backed.len() < other.final_backed.len() {
            self.final_backed.resize(other.final_backed.len(), 0);
        }
        for (total, backed) in self.final_backed.iter_mut().zip(&other.final_backed) {
            *total += backed;
        }
    }

    /// The window of the last boundary move any core made (0 when the plan
    /// never moved) — the experiment's re-convergence figure: a controller
    /// that settled stops moving.
    pub fn last_replan_window(&self) -> u64 {
        self.plan_trace.iter().map(|change| change.window).max().unwrap_or(0)
    }
}

/// The per-core capacity-reallocation state machine: counts accesses,
/// samples per-table miss pressure at window boundaries, and applies
/// boundary moves to its core's shared proxy.
#[derive(Debug, Clone)]
pub struct RepartitionController {
    core: usize,
    config: RepartitionConfig,
    /// This core's live plan (each core re-plans independently; sub-regions
    /// never leave the core's own reserved region).
    plan: PvRegionPlan,
    block_bytes: u64,
    /// Accesses into the current window.
    accesses: u64,
    windows: u64,
    replans: u64,
    invalidated: u64,
    writebacks: u64,
    /// Per-table `pvcache_misses` at the last window boundary.
    last_misses: Vec<u64>,
    /// Set by a boundary move: the next window only re-snapshots the miss
    /// counters. A move invalidates every cache entry whose backing block
    /// migrated (including the *winner's*, when its base address shifts),
    /// and the resulting refill burst looks exactly like demand — feeding
    /// it back into the controller is what drives a one-window ping-pong.
    cooldown: bool,
    /// Consecutive compared windows the same table has won past the dead
    /// band; a move needs [`CONFIRM_WINDOWS`] in a row, because one window
    /// of sampling noise is indistinguishable from one window of a phase
    /// change.
    streak: u64,
    streak_winner: usize,
    trace: Vec<PlanChange>,
}

/// Consecutive band-clearing wins required before a boundary moves.
const CONFIRM_WINDOWS: u64 = 2;

impl RepartitionController {
    /// Creates a controller for `core` starting from `plan` (the scarce
    /// initial split the proxy was bound to).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation, if any planned sub-region is
    /// not block-aligned, or if one starts below the floor.
    pub fn new(
        core: usize,
        config: RepartitionConfig,
        plan: PvRegionPlan,
        block_bytes: u64,
    ) -> Self {
        config.assert_valid();
        for table in 0..plan.tables() {
            let bytes = plan.table_bytes(table);
            assert_eq!(
                bytes % block_bytes,
                0,
                "table {table}'s initial sub-region must be block-aligned"
            );
            assert!(
                bytes / block_bytes >= config.min_blocks,
                "table {table} starts below the {}-block floor",
                config.min_blocks
            );
        }
        let tables = plan.tables();
        RepartitionController {
            core,
            config,
            plan,
            block_bytes,
            accesses: 0,
            windows: 0,
            replans: 0,
            invalidated: 0,
            writebacks: 0,
            last_misses: vec![0; tables],
            cooldown: false,
            streak: 0,
            streak_winner: 0,
            trace: Vec::new(),
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &RepartitionConfig {
        &self.config
    }

    /// The live plan.
    pub fn plan(&self) -> &PvRegionPlan {
        &self.plan
    }

    /// Counts one data access; at each window boundary, samples per-table
    /// pressure from `proxy`'s statistics and, when the dead band, the
    /// floor and the hot table's headroom all allow it, moves up to
    /// `step_blocks` from the coldest table to the hottest.
    ///
    /// Three stabilisers bound the move rate. A *confirmation streak*: the
    /// same table must win past the dead band for `CONFIRM_WINDOWS`
    /// consecutive windows, so one window of sampling noise never moves the
    /// boundary. A *cooldown*: the window right after a move only
    /// re-snapshots the counters, so the refill burst the invalidations
    /// caused cannot masquerade as demand. And a *look-ahead*: the step is
    /// halved until the winner is still the hotter table at the post-move
    /// sizes — a full step that would overshoot the equilibrium becomes a
    /// smaller one that lands short of it, and when even that is impossible
    /// the boundary holds instead of limit-cycling around it.
    pub fn on_access(&mut self, proxy: &mut SharedPvProxy, mem: &mut MemoryHierarchy, now: u64) {
        self.accesses += 1;
        if self.accesses < self.config.window_accesses {
            return;
        }
        self.accesses = 0;
        self.windows += 1;
        let tables = self.plan.tables();
        // Misses this window (saturating: the stats reset at the warm-up
        // boundary, where the baseline resets with them).
        let misses: Vec<u64> = (0..tables).map(|t| proxy.table_stats(t).pvcache_misses).collect();
        let delta: Vec<u64> = misses
            .iter()
            .zip(&self.last_misses)
            .map(|(m, last)| m.saturating_sub(*last))
            .collect();
        self.last_misses = misses;
        if self.cooldown {
            self.cooldown = false;
            return;
        }
        let backed: Vec<u64> = (0..tables).map(|t| proxy.backed_blocks(t) as u64).collect();
        // Pressure = misses per backed block; compared cross-multiplied so
        // the arithmetic stays exact (u128 headroom for the counters).
        let hotter = |a: usize, b: usize| {
            (delta[a] as u128) * (backed[b] as u128) > (delta[b] as u128) * (backed[a] as u128)
        };
        let mut winner = 0;
        let mut loser = 0;
        for table in 1..tables {
            if hotter(table, winner) {
                winner = table;
            }
            if hotter(loser, table) {
                loser = table;
            }
        }
        if winner == loser || delta[winner] == 0 {
            self.streak = 0;
            return;
        }
        // Dead band: the winner's pressure must beat the loser's by
        // gain_pct percent, or the boundary holds.
        let advantage = (delta[winner] as u128) * (backed[loser] as u128) * 100;
        let bar = (delta[loser] as u128)
            * (backed[winner] as u128)
            * (100 + self.config.gain_pct as u128);
        if advantage <= bar {
            self.streak = 0;
            return;
        }
        // Confirmation: the same table must win consecutive windows.
        if self.streak == 0 || self.streak_winner != winner {
            self.streak_winner = winner;
            self.streak = 1;
        } else {
            self.streak += 1;
        }
        if self.streak < CONFIRM_WINDOWS {
            return;
        }
        // Clamp the step to the winner's headroom (it cannot back more
        // blocks than it has sets) and the loser's surplus above the floor.
        let headroom = proxy.table_sets(winner) as u64 - backed[winner];
        let surplus = backed[loser].saturating_sub(self.config.min_blocks);
        let mut step = self.config.step_blocks.min(headroom).min(surplus);
        // Look-ahead: at the post-move sizes the winner must still be the
        // hotter table, or the step overshoots the equilibrium and the next
        // window would just move it back. Halve until it lands short.
        while step > 0
            && (delta[winner] as u128) * ((backed[loser] - step) as u128)
                <= (delta[loser] as u128) * ((backed[winner] + step) as u128)
        {
            step /= 2;
        }
        if step == 0 {
            return;
        }
        let mut bytes: Vec<u64> = backed.iter().map(|b| b * self.block_bytes).collect();
        bytes[winner] += step * self.block_bytes;
        bytes[loser] -= step * self.block_bytes;
        let next = self.plan.replan(&bytes);
        let outcome = proxy.apply_plan(&next, mem, now);
        self.plan = next;
        self.replans += 1;
        self.invalidated += outcome.invalidated;
        self.writebacks += outcome.writebacks;
        self.cooldown = true;
        self.streak = 0;
        self.trace.push(PlanChange {
            core: self.core,
            window: self.windows,
            backed: (0..tables).map(|t| proxy.backed_blocks(t) as u64).collect(),
        });
    }

    /// This controller's contribution to the run's [`RepartitionMetrics`].
    pub fn metrics(&self) -> RepartitionMetrics {
        RepartitionMetrics {
            windows: self.windows,
            replans: self.replans,
            invalidated_entries: self.invalidated,
            replan_writebacks: self.writebacks,
            plan_trace: self.trace.clone(),
            final_backed: (0..self.plan.tables())
                .map(|t| self.plan.table_bytes(t) / self.block_bytes)
                .collect(),
        }
    }

    /// Clears counters and the trace; the plan and the window phase are
    /// learned state and persist across the warm-up/measurement boundary.
    /// Call *after* the proxy's own `reset_stats`, so the miss baseline
    /// restarts with the counters it samples.
    pub fn reset_stats(&mut self) {
        self.windows = 0;
        self.replans = 0;
        self.invalidated = 0;
        self.writebacks = 0;
        self.trace.clear();
        self.last_misses.iter_mut().for_each(|m| *m = 0);
        // The proxy reset just flushed the counters any pending refill
        // burst would have landed in; no cooldown left to serve, and any
        // half-built streak restarts with the fresh baseline.
        self.cooldown = false;
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::PvConfig;
    use pv_mem::{HierarchyConfig, MemoryHierarchy};

    /// A scarce half-and-half split of the paper-default 64 KB region
    /// (512 + 512 blocks) bound to a two-table proxy.
    fn setup(config: RepartitionConfig) -> (MemoryHierarchy, SharedPvProxy, RepartitionController) {
        let hierarchy = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(hierarchy);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let plan = PvRegionPlan::new(hierarchy.pv_regions, vec![512 * 64, 512 * 64]);
        proxy.add_table(plan.base(0, 0), 1024, 64, "SMS");
        proxy.add_table(plan.base(0, 1), 1024, 64, "Markov");
        proxy.bind_plan(&plan);
        let controller = RepartitionController::new(0, config, plan, 64);
        (mem, proxy, controller)
    }

    /// Generates `misses` distinct-set PVCache misses on `table`.
    fn pressure(proxy: &mut SharedPvProxy, mem: &mut MemoryHierarchy, table: usize, misses: usize) {
        let mut generated = 0;
        let mut set = 0;
        while generated < misses {
            if proxy.set_backed(table, set) {
                proxy.lookup_set(table, set, mem, (set as u64) * 1_000);
                generated += 1;
            }
            set += 1;
        }
    }

    fn tick_window(
        ctrl: &mut RepartitionController,
        proxy: &mut SharedPvProxy,
        mem: &mut MemoryHierarchy,
    ) {
        for _ in 0..ctrl.config().window_accesses {
            ctrl.on_access(proxy, mem, 0);
        }
    }

    fn small() -> RepartitionConfig {
        RepartitionConfig {
            window_accesses: 64,
            ..RepartitionConfig::feedback_default()
        }
    }

    #[test]
    fn imbalanced_pressure_moves_capacity_to_the_hot_table() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        // Window 1 confirms the winner; window 2 moves the boundary.
        for _ in 0..2 {
            pressure(&mut proxy, &mut mem, 1, 40);
            pressure(&mut proxy, &mut mem, 0, 2);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        let metrics = ctrl.metrics();
        assert_eq!(metrics.windows, 2);
        assert_eq!(metrics.replans, 1);
        assert_eq!(proxy.backed_blocks(0), 512 - 256);
        assert_eq!(proxy.backed_blocks(1), 512 + 256);
        assert_eq!(metrics.final_backed, vec![256, 768]);
        assert_eq!(metrics.plan_trace[0].backed, vec![256, 768]);
        assert_eq!(metrics.last_replan_window(), 2);
    }

    #[test]
    fn a_single_window_of_pressure_is_never_confirmed() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        // One noisy window for table 1, then calm: the streak dies and the
        // boundary never moves.
        pressure(&mut proxy, &mut mem, 1, 40);
        pressure(&mut proxy, &mut mem, 0, 2);
        tick_window(&mut ctrl, &mut proxy, &mut mem);
        pressure(&mut proxy, &mut mem, 0, 20);
        pressure(&mut proxy, &mut mem, 1, 20);
        tick_window(&mut ctrl, &mut proxy, &mut mem);
        pressure(&mut proxy, &mut mem, 1, 40);
        pressure(&mut proxy, &mut mem, 0, 2);
        tick_window(&mut ctrl, &mut proxy, &mut mem);
        assert_eq!(ctrl.metrics().windows, 3);
        assert_eq!(
            ctrl.metrics().replans,
            0,
            "isolated wins must not move the boundary"
        );
        assert_eq!(proxy.backed_blocks(0), 512);
    }

    #[test]
    fn the_dead_band_holds_a_balanced_split() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        // Equal pressure — and again with a mild (sub-band) imbalance.
        pressure(&mut proxy, &mut mem, 0, 20);
        pressure(&mut proxy, &mut mem, 1, 20);
        tick_window(&mut ctrl, &mut proxy, &mut mem);
        pressure(&mut proxy, &mut mem, 0, 20);
        pressure(&mut proxy, &mut mem, 1, 26); // 30% hotter < 50% band
        tick_window(&mut ctrl, &mut proxy, &mut mem);
        let metrics = ctrl.metrics();
        assert_eq!(metrics.windows, 2);
        assert_eq!(metrics.replans, 0, "the dead band must hold");
        assert_eq!(proxy.backed_blocks(0), 512);
    }

    #[test]
    fn a_frozen_controller_never_replans() {
        let (mut mem, mut proxy, mut ctrl) = setup(RepartitionConfig {
            window_accesses: 64,
            ..RepartitionConfig::frozen()
        });
        for _ in 0..3 {
            pressure(&mut proxy, &mut mem, 1, 40);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        assert_eq!(ctrl.metrics().windows, 3);
        assert_eq!(ctrl.metrics().replans, 0);
        assert_eq!(proxy.backed_blocks(0), 512);
    }

    #[test]
    fn the_floor_stops_one_sided_pressure() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        // All pressure on table 1, forever: table 0 shrinks step by step
        // but never below the 64-block floor.
        for _ in 0..10 {
            pressure(&mut proxy, &mut mem, 1, 40);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        assert_eq!(proxy.backed_blocks(0) as u64, ctrl.config().min_blocks);
        assert_eq!(proxy.backed_blocks(1), 1024 - 64);
        // Replans stop once the floor binds: 512 -> 64 in 256-block steps
        // is one full step plus one 192-block clamp (each preceded by a
        // confirmation window and followed by a cooldown window).
        assert_eq!(ctrl.metrics().replans, 2);
    }

    #[test]
    fn the_winners_headroom_caps_the_step() {
        // Start table 1 near its maximum backing: 960 + 64 blocks.
        let hierarchy = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(hierarchy);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let plan = PvRegionPlan::new(hierarchy.pv_regions, vec![64 * 64, 960 * 64]);
        proxy.add_table(plan.base(0, 0), 1024, 64, "SMS");
        proxy.add_table(plan.base(0, 1), 1024, 64, "Markov");
        proxy.bind_plan(&plan);
        let mut ctrl = RepartitionController::new(0, small(), plan, 64);
        for _ in 0..2 {
            pressure(&mut proxy, &mut mem, 1, 40);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        // Headroom is 64 blocks (< the 256-block step) but the loser is
        // already at the floor, so nothing moves at all.
        assert_eq!(ctrl.metrics().replans, 0);
        assert_eq!(proxy.backed_blocks(1), 960);
    }

    #[test]
    fn reset_stats_keeps_the_plan_and_clears_the_trace() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        for _ in 0..2 {
            pressure(&mut proxy, &mut mem, 1, 40);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        assert_eq!(ctrl.metrics().replans, 1);
        proxy.reset_stats();
        ctrl.reset_stats();
        let metrics = ctrl.metrics();
        assert_eq!(metrics.windows, 0);
        assert_eq!(metrics.replans, 0);
        assert!(metrics.plan_trace.is_empty());
        assert_eq!(
            metrics.final_backed,
            vec![256, 768],
            "the plan is learned state"
        );
    }

    #[test]
    fn the_window_after_a_move_is_a_cooldown() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        let mut drive = |proxy: &mut SharedPvProxy, mem: &mut MemoryHierarchy| {
            pressure(proxy, mem, 1, 40);
            tick_window(&mut ctrl, proxy, mem);
            ctrl.metrics().replans
        };
        // Windows 1–2: confirm, then move.
        assert_eq!(drive(&mut proxy, &mut mem), 0);
        assert_eq!(drive(&mut proxy, &mut mem), 1);
        // Window 3: the same pressure again — but this window only
        // re-snapshots the counters (the refill burst a move causes must
        // never feed the next decision).
        assert_eq!(
            drive(&mut proxy, &mut mem),
            1,
            "cooldown must hold the plan"
        );
        // Windows 4–5: sustained pressure re-confirms and resumes moving.
        assert_eq!(drive(&mut proxy, &mut mem), 1);
        assert_eq!(drive(&mut proxy, &mut mem), 2);
    }

    #[test]
    fn the_look_ahead_halves_steps_that_would_overshoot() {
        let (mut mem, mut proxy, mut ctrl) = setup(small());
        // Table 1 is 80% hotter — past the 50% dead band — but a full
        // 256-block move would leave table 0 the hotter one:
        // 36/768 < 20/256. The step halves to 128, which lands short of
        // the equilibrium: 36/640 > 20/384.
        for _ in 0..2 {
            pressure(&mut proxy, &mut mem, 0, 20);
            pressure(&mut proxy, &mut mem, 1, 36);
            tick_window(&mut ctrl, &mut proxy, &mut mem);
        }
        assert_eq!(ctrl.metrics().windows, 2);
        assert_eq!(ctrl.metrics().replans, 1);
        assert_eq!(proxy.backed_blocks(0), 512 - 128, "the step must shrink");
        assert_eq!(proxy.backed_blocks(1), 512 + 128);
    }

    #[test]
    fn metrics_merge_sums_counters_and_final_backing() {
        let mut a = RepartitionMetrics {
            windows: 2,
            replans: 1,
            final_backed: vec![384, 640],
            plan_trace: vec![PlanChange {
                core: 0,
                window: 2,
                backed: vec![384, 640],
            }],
            ..RepartitionMetrics::default()
        };
        let b = RepartitionMetrics {
            windows: 2,
            replans: 0,
            final_backed: vec![512, 512],
            ..RepartitionMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.windows, 4);
        assert_eq!(a.replans, 1);
        assert_eq!(a.final_backed, vec![896, 1152]);
        assert_eq!(a.last_replan_window(), 2);
    }

    #[test]
    #[should_panic(expected = "below the")]
    fn plans_starting_below_the_floor_are_rejected() {
        let hierarchy = HierarchyConfig::paper_baseline(4);
        let plan = PvRegionPlan::new(hierarchy.pv_regions, vec![32 * 64, 512 * 64]);
        let _ = RepartitionController::new(0, RepartitionConfig::feedback_default(), plan, 64);
    }
}
