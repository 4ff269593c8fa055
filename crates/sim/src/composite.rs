//! Predictor cohabitation at the core level: several prefetch engines
//! running *simultaneously* on one core.
//!
//! The paper's economic argument is that virtualization lets many predictors
//! amortize one physical resource. [`CompositePrefetcher`] realizes it in
//! the simulated CMP as a plain composition of [`PrefetchEngine`]s: any list
//! of labelled boxed engines, fed in a fixed order so runs replay
//! bit-identically regardless of host or thread count. The two paper
//! arrangements are provided as constructors:
//!
//! * **dedicated** — each table runs on a one-table proxy of its own with
//!   a private PVCache (the control configuration: 2 × C/2 sets);
//! * **shared** — both tables register with one [`SharedPvProxy`] and
//!   arbitrate for its C-set PVCache and one memory-request stream.
//!
//! Because the composite is itself a [`PrefetchEngine`], the simulator
//! drives it through the exact same feed/issue path as a single engine,
//! and composites can in principle nest or wrap (e.g. under the
//! feedback throttler).

use crate::engine::{EngineSnapshot, PrefetchEngine, PvTableStats};
use crate::repartition::{RepartitionConfig, RepartitionController};
use pv_core::{PvConfig, PvRegionPlan, SharedPvProxy};
use pv_markov::{MarkovConfig, MarkovPrefetcher, VirtualizedMarkov};
use pv_mem::{BlockAddr, MemoryHierarchy};
use pv_sms::{PrefetchAction, SmsConfig, SmsPrefetcher, VirtualizedPht};

/// One core's set of cohabiting prefetch engines, composed behind the
/// [`PrefetchEngine`] trait.
///
/// In the shared arrangement the composite *owns* the per-core
/// [`SharedPvProxy`] and lends it to its children as the `shared` parameter
/// of each feed call. That ownership shape (plain value, no `Rc<RefCell>`)
/// is what makes the composite — and the whole `System` above it — `Send`,
/// and removes per-access borrow bookkeeping from the hottest loop.
pub struct CompositePrefetcher {
    /// The cohabiting engines with their table labels, in feed order.
    engines: Vec<(String, Box<dyn PrefetchEngine>)>,
    /// Present only in the shared arrangement: the proxy the children's
    /// cohabitation adapters registered their tables with.
    shared: Option<SharedPvProxy>,
    /// Present only under dynamic repartitioning: the controller that
    /// samples per-table pressure on the owned proxy and moves the
    /// sub-region boundaries at window edges.
    repartition: Option<RepartitionController>,
}

impl std::fmt::Debug for CompositePrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositePrefetcher")
            .field("engines", &self.labels())
            .field("shared", &self.shared.is_some())
            .field("repartition", &self.repartition.is_some())
            .finish()
    }
}

impl CompositePrefetcher {
    /// Composes an arbitrary list of labelled engines, fed in list order on
    /// every event.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty — a composite of nothing would silently
    /// predict nothing.
    pub fn from_engines(engines: Vec<(String, Box<dyn PrefetchEngine>)>) -> Self {
        assert!(!engines.is_empty(), "a composite needs at least one engine");
        CompositePrefetcher {
            engines,
            shared: None,
            repartition: None,
        }
    }

    /// The dedicated arrangement: SMS and Markov each on a one-table proxy
    /// of its own (a PVCache of `pv.pvcache_sets` sets apiece), with tables
    /// at `plan.base(core, 0)` and `plan.base(core, 1)`.
    pub fn dedicated(
        core: usize,
        sms: SmsConfig,
        markov: MarkovConfig,
        pv: PvConfig,
        plan: &PvRegionPlan,
    ) -> Self {
        Self::from_engines(vec![
            (
                "SMS".to_owned(),
                Box::new(SmsPrefetcher::new(
                    sms,
                    Box::new(VirtualizedPht::new(core, pv, plan.base(core, 0))),
                )),
            ),
            (
                "Markov".to_owned(),
                Box::new(MarkovPrefetcher::new(
                    markov,
                    Box::new(VirtualizedMarkov::new(core, pv, plan.base(core, 1))),
                )),
            ),
        ])
    }

    /// The shared arrangement: both tables through one [`SharedPvProxy`]
    /// whose table-tagged PVCache holds `pv.pvcache_sets` sets in total.
    pub fn shared(
        core: usize,
        sms: SmsConfig,
        markov: MarkovConfig,
        pv: PvConfig,
        plan: &PvRegionPlan,
    ) -> Self {
        let mut proxy = SharedPvProxy::new(core, pv);
        let pht = VirtualizedPht::cohabiting(&mut proxy, pv, plan.base(core, 0));
        let table = VirtualizedMarkov::cohabiting(&mut proxy, pv, plan.base(core, 1));
        let mut composite = Self::from_engines(vec![
            (
                "SMS".to_owned(),
                Box::new(SmsPrefetcher::new(sms, Box::new(pht))),
            ),
            (
                "Markov".to_owned(),
                Box::new(MarkovPrefetcher::new(markov, Box::new(table))),
            ),
        ]);
        composite.shared = Some(proxy);
        composite
    }

    /// The shared arrangement under utility-driven dynamic repartitioning:
    /// the (typically scarce) `plan` is bound to the proxy with interleaved
    /// partial backing, and a per-core [`RepartitionController`] moves the
    /// sub-region boundaries toward the higher-pressure table at window
    /// edges. With `repartition.step_blocks == 0` the controller is frozen —
    /// the plan stays put, giving the static control arm under identical
    /// scarcity.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not block-aligned or starts a table below the
    /// controller's sub-region floor.
    pub fn shared_repartitioned(
        core: usize,
        sms: SmsConfig,
        markov: MarkovConfig,
        pv: PvConfig,
        plan: PvRegionPlan,
        repartition: RepartitionConfig,
    ) -> Self {
        let mut composite = Self::shared(core, sms, markov, pv, &plan);
        composite
            .shared
            .as_mut()
            .expect("the shared arrangement owns a proxy")
            .bind_plan(&plan);
        composite.repartition = Some(RepartitionController::new(
            core,
            repartition,
            plan,
            pv.block_bytes,
        ));
        composite
    }

    /// Whether the engines share one PVCache.
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// The composed engines' labels, in feed order.
    pub fn labels(&self) -> Vec<&str> {
        self.engines.iter().map(|(label, _)| label.as_str()).collect()
    }

    /// The engine labelled `label`, if present.
    pub fn engine(&self, label: &str) -> Option<&dyn PrefetchEngine> {
        self.engines
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, engine)| engine.as_ref() as &dyn PrefetchEngine)
    }

    /// Per-table PVProxy statistics, labelled in feed order. In the shared
    /// arrangement the split comes from the table-tagged proxy; in the
    /// dedicated arrangement each engine reports its own proxy (nested
    /// composites contribute their own per-table split).
    pub fn pv_table_stats(&self) -> Vec<PvTableStats> {
        self.snapshot().pv_tables
    }
}

impl PrefetchEngine for CompositePrefetcher {
    /// Forwards evictions to every engine in feed order (engines that do
    /// not track residency ignore them). The composite's own proxy (shared
    /// arrangement) replaces whatever arrived from above; otherwise the
    /// incoming proxy is forwarded unchanged (nesting).
    fn on_l1_evictions(
        &mut self,
        blocks: &[BlockAddr],
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let mut proxy = self.shared.as_mut().or(shared);
        for (_, engine) in &mut self.engines {
            engine.on_l1_evictions(blocks, mem, proxy.as_deref_mut(), now);
        }
    }

    /// Feeds the access to every engine in feed order, concatenating their
    /// predictions — the fixed order keeps runs deterministic.
    fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) {
        let mut proxy = self.shared.as_mut().or(shared);
        for (_, engine) in &mut self.engines {
            engine.on_data_access(pc, address, mem, proxy.as_deref_mut(), now, out);
        }
        // The controller ticks after the engines fed, so a window edge sees
        // the miss counters of every access up to and including this one.
        // It only ever pairs with the owned proxy (shared_repartitioned).
        if let (Some(controller), Some(proxy)) = (&mut self.repartition, &mut self.shared) {
            controller.on_access(proxy, mem, now);
        }
    }

    /// Resets engine and proxy statistics (learned state is preserved).
    /// The owned proxy is reset here, once — the cohabitation adapters keep
    /// no statistics of their own.
    fn reset_stats(&mut self) {
        for (_, engine) in &mut self.engines {
            engine.reset_stats();
        }
        if let Some(proxy) = &mut self.shared {
            proxy.reset_stats();
        }
        // After the proxy: the controller re-bases its per-window miss
        // deltas on the proxy's zeroed counters (see its reset contract).
        if let Some(controller) = &mut self.repartition {
            controller.reset_stats();
        }
    }

    /// Merges the engines' snapshots; PV statistics are reported per table
    /// (in [`EngineSnapshot::pv_tables`]) rather than as one aggregate.
    fn snapshot(&self) -> EngineSnapshot {
        let mut snapshot = EngineSnapshot::default();
        for (label, engine) in &self.engines {
            let mut child = engine.snapshot();
            // A single-table child's aggregate is lifted into the per-table
            // split under its feed-order label; a child that already splits
            // per table (a nested composite) passes its tables through.
            if let Some(stats) = child.pv.take() {
                child.pv_tables.push(PvTableStats {
                    label: label.clone(),
                    stats,
                });
            }
            snapshot.merge(child);
        }
        if let Some(proxy) = &self.shared {
            // The shared arrangement's children write through one
            // table-tagged proxy, which owns the authoritative split.
            snapshot.pv_tables = (0..proxy.tables())
                .map(|table| PvTableStats {
                    label: proxy.table_label(table).to_owned(),
                    stats: *proxy.table_stats(table),
                })
                .collect();
        }
        snapshot.repartition = self.repartition.as_ref().map(|c| c.metrics());
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_mem::HierarchyConfig;

    fn setup(shared: bool) -> (MemoryHierarchy, CompositePrefetcher) {
        let config = HierarchyConfig::paper_baseline(4).with_pv_bytes_per_core(128 * 1024);
        let mem = MemoryHierarchy::new(config);
        let pv = PvConfig::pv8();
        let plan = PvRegionPlan::new(config.pv_regions, vec![pv.table_bytes(), pv.table_bytes()]);
        let composite = if shared {
            CompositePrefetcher::shared(
                0,
                SmsConfig::paper_1k_11a(),
                MarkovConfig::paper_1k(),
                PvConfig::pv8(),
                &plan,
            )
        } else {
            CompositePrefetcher::dedicated(
                0,
                SmsConfig::paper_1k_11a(),
                MarkovConfig::paper_1k(),
                PvConfig::pv8().with_pvcache_sets(4),
                &plan,
            )
        };
        (mem, composite)
    }

    /// Drives a short repeating stream through the composed engines.
    fn drive(mem: &mut MemoryHierarchy, composite: &mut CompositePrefetcher) -> usize {
        let mut issued = 0;
        let mut out = Vec::new();
        for round in 0..4u64 {
            for i in 0..64u64 {
                let pc = 0x4000 + (i % 8) * 4;
                let addr = (i * 3 % 50) * 4096 + (i % 16) * 64;
                out.clear();
                composite.on_data_access(
                    pc,
                    addr,
                    mem,
                    None,
                    round * 100_000 + i * 1_000,
                    &mut out,
                );
                issued += out.len();
            }
        }
        issued
    }

    #[test]
    fn both_engines_observe_accesses_and_report_per_table_stats() {
        for shared in [false, true] {
            let (mut mem, mut composite) = setup(shared);
            drive(&mut mem, &mut composite);
            assert_eq!(composite.is_shared(), shared);
            assert_eq!(composite.labels(), ["SMS", "Markov"]);
            let snapshot = composite.snapshot();
            assert!(snapshot.sms.expect("SMS stats").accesses_observed > 0);
            assert!(snapshot.markov.expect("Markov stats").accesses_observed > 0);
            assert!(snapshot.pv.is_none(), "the aggregate lives in pv_tables");
            let tables = composite.pv_table_stats();
            assert_eq!(tables.len(), 2);
            assert_eq!(tables[0].label, "SMS");
            assert_eq!(tables[1].label, "Markov");
            assert!(
                tables.iter().all(|t| t.stats.operations() > 0),
                "both tables must see traffic (shared = {shared})"
            );
            assert!(mem.stats().l2_requests.predictor > 0);
        }
    }

    #[test]
    fn reset_preserves_learned_state_but_clears_counters() {
        let (mut mem, mut composite) = setup(true);
        drive(&mut mem, &mut composite);
        composite.reset_stats();
        let snapshot = composite.snapshot();
        assert_eq!(snapshot.sms.unwrap().accesses_observed, 0);
        assert_eq!(snapshot.markov.unwrap().accesses_observed, 0);
        assert!(composite.pv_table_stats().iter().all(|t| t.stats.operations() == 0));
    }

    #[test]
    fn feed_order_follows_the_engine_list() {
        // A composite of two SMS engines trained on the same pattern emits
        // the first engine's stream before the second's.
        let config = SmsConfig::paper_1k_11a();
        let engines: Vec<(String, Box<dyn PrefetchEngine>)> = vec![
            (
                "A".to_owned(),
                Box::new(SmsPrefetcher::new(config, pv_sms::build_storage(&config))),
            ),
            (
                "B".to_owned(),
                Box::new(SmsPrefetcher::new(config, pv_sms::build_storage(&config))),
            ),
        ];
        let mut composite = CompositePrefetcher::from_engines(engines);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_baseline(1));
        let mut out = Vec::new();
        // Train a two-block pattern, then retrigger it.
        for (i, offset) in [(0u64, 2u32), (1, 5)] {
            composite.on_data_access(
                0x400,
                pv_mem::RegionAddr::new(10).block_at(offset, 32).base_address().raw(),
                &mut mem,
                None,
                i * 10,
                &mut out,
            );
        }
        composite.on_l1_evictions(
            &[pv_mem::RegionAddr::new(10).block_at(2, 32)],
            &mut mem,
            None,
            50,
        );
        out.clear();
        composite.on_data_access(
            0x400,
            pv_mem::RegionAddr::new(20).block_at(2, 32).base_address().raw(),
            &mut mem,
            None,
            100,
            &mut out,
        );
        assert_eq!(out.len(), 2, "both engines predict the trained block");
        assert_eq!(
            out[0].block, out[1].block,
            "identical engines, same prediction"
        );
        assert_eq!(composite.labels(), ["A", "B"]);
        assert!(composite.engine("A").is_some());
        assert!(composite.engine("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_composites_are_rejected() {
        let _ = CompositePrefetcher::from_engines(Vec::new());
    }

    /// The repartitioned arrangement wires the controller into the feed
    /// path: windows advance with data accesses and the snapshot carries
    /// the controller's metrics (reset clears them but keeps the plan).
    #[test]
    fn shared_repartitioned_counts_windows_through_the_feed_path() {
        use crate::repartition::RepartitionConfig;
        // The scarce default: half the 64 KB baseline region per table.
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let plan = PvRegionPlan::new(config.pv_regions, vec![512 * 64, 512 * 64]);
        let mut composite = CompositePrefetcher::shared_repartitioned(
            0,
            SmsConfig::paper_1k_11a(),
            MarkovConfig::paper_1k(),
            PvConfig::pv8(),
            plan,
            RepartitionConfig {
                window_accesses: 64,
                ..RepartitionConfig::feedback_default()
            },
        );
        drive(&mut mem, &mut composite);
        let snapshot = composite.snapshot();
        let repartition = snapshot.repartition.expect("controller metrics present");
        // drive() feeds 256 accesses through 64-access windows.
        assert_eq!(repartition.windows, 4);
        assert_eq!(repartition.final_backed.iter().sum::<u64>(), 1024);
        composite.reset_stats();
        let after = composite.snapshot().repartition.unwrap();
        assert_eq!(after.windows, 0);
        assert_eq!(after.final_backed.iter().sum::<u64>(), 1024);
    }

    /// A nested composite's per-table split survives aggregation: the
    /// outer snapshot passes the inner tables through instead of
    /// discarding them.
    #[test]
    fn nested_composites_keep_their_per_table_stats() {
        let (mut mem, inner) = setup(false);
        let mut outer =
            CompositePrefetcher::from_engines(vec![("pair".to_owned(), Box::new(inner))]);
        drive(&mut mem, &mut outer);
        let snapshot = outer.snapshot();
        assert!(snapshot.sms.is_some());
        assert!(snapshot.markov.is_some());
        let tables = outer.pv_table_stats();
        assert_eq!(
            tables.iter().map(|t| t.label.as_str()).collect::<Vec<_>>(),
            ["SMS", "Markov"],
            "the inner split passes through the outer composite"
        );
        assert!(tables.iter().all(|t| t.stats.operations() > 0));
    }
}
