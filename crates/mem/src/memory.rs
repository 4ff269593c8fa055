//! Main-memory (DRAM) model.
//!
//! Every access arrives already classified as application or predictor data
//! (the hierarchy owns the PV-region classifier), so the model only counts
//! it under that class. Two timing modes share one traffic-accounting core:
//!
//! * [`ContentionModel::Ideal`] — every access costs the configured latency;
//!   this reproduces the original fixed-latency model bit for bit.
//! * [`ContentionModel::Queued`] — a channel/bank model with finite request
//!   queues. Each block maps to a channel and a bank within it; a request
//!   waits for a queue slot when the channel already has `queue_depth`
//!   requests in flight, waits for its bank to finish earlier requests
//!   (`bank_occupancy` cycles each), and reserves the channel data bus for
//!   `cycles_per_transfer` cycles, so observed latency grows with load. The
//!   wait beyond the unloaded latency is reported per access and accumulated
//!   as queueing-delay statistics split into application and predictor
//!   traffic.

use crate::address::{Address, BLOCK_OFFSET_BITS};
use crate::config::{ContentionModel, DramConfig};
use crate::inflight::InflightRing;
use crate::stats::{DelayBreakdown, TrafficBreakdown};

/// Timing of one serviced DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramResponse {
    /// End-to-end latency in cycles (unloaded latency plus any waiting).
    pub latency: u64,
    /// Cycles spent waiting for shared resources (queue slot, bank, data
    /// bus) beyond the unloaded latency. Always zero in `Ideal` mode.
    pub queue_delay: u64,
}

/// Timing state of one memory channel (only consulted in `Queued` mode).
#[derive(Debug, Clone)]
struct ChannelState {
    /// Cycle each bank becomes free.
    banks: Vec<u64>,
    /// Cycle the channel data bus becomes free.
    data_busy_until: u64,
    /// Completion cycles of requests currently occupying queue slots,
    /// sorted ascending (see `service` for why construction guarantees it).
    inflight: InflightRing,
}

/// The main-memory backing store.
#[derive(Debug, Clone)]
pub struct MainMemory {
    config: DramConfig,
    contention: ContentionModel,
    channels: Vec<ChannelState>,
    reads: TrafficBreakdown,
    writes: TrafficBreakdown,
    queue_delay: DelayBreakdown,
    busy_cycles: u64,
}

impl MainMemory {
    /// Creates a memory model.
    ///
    /// # Panics
    ///
    /// Panics if the queued-model geometry is degenerate (zero channels,
    /// banks or queue depth).
    pub fn new(config: DramConfig, contention: ContentionModel) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(
            config.banks_per_channel > 0,
            "DRAM needs at least one bank per channel"
        );
        assert!(config.queue_depth > 0, "DRAM queues need at least one slot");
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                banks: vec![0; config.banks_per_channel],
                data_busy_until: 0,
                inflight: InflightRing::new(config.queue_depth),
            })
            .collect();
        MainMemory {
            config,
            contention,
            channels,
            reads: TrafficBreakdown::default(),
            writes: TrafficBreakdown::default(),
            queue_delay: DelayBreakdown::default(),
            busy_cycles: 0,
        }
    }

    /// Performs a block read issued at cycle `now`, counted as predictor
    /// data when `predictor` is set.
    pub fn read(&mut self, addr: Address, predictor: bool, now: u64) -> DramResponse {
        self.reads.record(predictor);
        self.service(addr, now, predictor, true)
    }

    /// Performs a block write (write-back) issued at cycle `now`, counted as
    /// predictor data when `predictor` is set. The requester does not wait
    /// for writes, but in `Queued` mode they occupy banks, queue slots and
    /// data-bus cycles like reads do, so write-back bursts slow concurrent
    /// reads down. Because nobody waits on them, their computed wait is
    /// *not* added to the reported queueing-delay statistics — only to the
    /// shared timing state.
    pub fn write(&mut self, addr: Address, predictor: bool, now: u64) -> DramResponse {
        self.writes.record(predictor);
        self.service(addr, now, predictor, false)
    }

    /// Shared-resource timing of one request.
    fn service(&mut self, addr: Address, now: u64, predictor: bool, is_read: bool) -> DramResponse {
        if self.contention == ContentionModel::Ideal {
            return DramResponse {
                latency: self.config.latency,
                queue_delay: 0,
            };
        }
        let block = addr.raw() >> BLOCK_OFFSET_BITS;
        let channel_idx = (block % self.config.channels as u64) as usize;
        let bank_idx =
            ((block / self.config.channels as u64) % self.config.banks_per_channel as u64) as usize;
        let channel = &mut self.channels[channel_idx];

        // Queue admission: wait until the channel has a free request slot.
        // `inflight` is sorted ascending by construction: each request's
        // completion is strictly later than the previous one's on the same
        // channel (it waits for at least `data_busy_until`), so completed
        // requests drain from the front without scanning the whole queue,
        // and a full queue delays the newcomer until the oldest in-flight
        // request — the ring front — completes (see `crate::inflight` for
        // the equivalence with the historical `VecDeque` queue).
        channel.inflight.drain(now);
        let start = channel.inflight.admit(now);

        // Bank occupancy: earlier requests to the same bank serialize.
        let bank_start = start.max(channel.banks[bank_idx]);
        channel.banks[bank_idx] = bank_start + self.config.bank_occupancy;

        // Data bus: one block transfer per `cycles_per_transfer` cycles.
        let unloaded_done = bank_start + self.config.latency;
        let done = unloaded_done.max(channel.data_busy_until + self.config.cycles_per_transfer);
        channel.data_busy_until = done;
        channel.inflight.push(done);
        self.busy_cycles += self.config.cycles_per_transfer;

        let latency = done - now;
        let queue_delay = latency - self.config.latency;
        if is_read {
            self.queue_delay.record(predictor, queue_delay);
        }
        DramResponse {
            latency,
            queue_delay,
        }
    }

    /// Block reads served so far, split by data class.
    pub fn reads(&self) -> TrafficBreakdown {
        self.reads
    }

    /// Block writes served so far, split by data class.
    pub fn writes(&self) -> TrafficBreakdown {
        self.writes
    }

    /// Queueing-delay cycles accumulated by *reads* so far (the waits a
    /// requester actually experiences), split by data class.
    pub fn queue_delay(&self) -> DelayBreakdown {
        self.queue_delay
    }

    /// Channel-cycles the data buses spent transferring blocks.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Resets the traffic counters. Channel/bank/queue timing state is
    /// preserved; see [`Self::reset_timing`] for window boundaries where
    /// the requesters' clocks restart.
    pub fn reset_stats(&mut self) {
        self.reads = TrafficBreakdown::default();
        self.writes = TrafficBreakdown::default();
        self.queue_delay = DelayBreakdown::default();
        self.busy_cycles = 0;
    }

    /// Rebases the channel/bank/queue timing state to cycle zero (all banks
    /// and buses idle, queues empty). Called at measurement-window
    /// boundaries, where requester clocks restart from zero — absolute
    /// busy times from the previous window would otherwise read as phantom
    /// queueing delay.
    pub fn reset_timing(&mut self) {
        for channel in &mut self.channels {
            channel.banks.iter_mut().for_each(|bank| *bank = 0);
            channel.data_busy_until = 0;
            channel.inflight.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PvRegionConfig;

    fn memory() -> MainMemory {
        MainMemory::new(DramConfig::paper(), ContentionModel::Ideal)
    }

    fn queued(config: DramConfig) -> MainMemory {
        MainMemory::new(config, ContentionModel::Queued)
    }

    #[test]
    fn ideal_read_and_write_cost_configured_latency() {
        let mut mem = memory();
        assert_eq!(mem.read(Address::new(0x1000), false, 0).latency, 400);
        assert_eq!(mem.write(Address::new(0x2000), false, 50).latency, 400);
        assert_eq!(mem.queue_delay().total_cycles(), 0);
    }

    #[test]
    fn traffic_is_classified_by_region() {
        let mut mem = memory();
        let pv_base = PvRegionConfig::paper_default(4).core_base(0);
        mem.read(Address::new(0x1000), false, 0);
        mem.read(pv_base, true, 0);
        mem.write(pv_base, true, 0);
        assert_eq!(mem.reads().application, 1);
        assert_eq!(mem.reads().predictor, 1);
        assert_eq!(mem.writes().predictor, 1);
        assert_eq!(mem.writes().application, 0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut mem = memory();
        mem.read(Address::new(0), false, 0);
        mem.reset_stats();
        assert_eq!(mem.reads().total(), 0);
        assert_eq!(mem.writes().total(), 0);
        assert_eq!(mem.busy_cycles(), 0);
    }

    #[test]
    fn queued_single_access_pays_unloaded_latency() {
        let mut mem = queued(DramConfig::paper());
        let response = mem.read(Address::new(0x4000), false, 100);
        assert_eq!(response.latency, 400);
        assert_eq!(response.queue_delay, 0);
    }

    #[test]
    fn queued_latency_grows_under_burst_load() {
        let mut mem = queued(DramConfig::paper());
        // A burst of back-to-back blocks at the same cycle: the data buses
        // serialize transfers, so later requests observe growing latency.
        let mut last = 0;
        for i in 0..64u64 {
            let response = mem.read(Address::new(i * 64), false, 0);
            last = last.max(response.latency);
        }
        assert!(
            last > 400,
            "a 64-block burst must queue behind the data bus, got max latency {last}"
        );
        assert!(mem.queue_delay().application_cycles() > 0);
        assert_eq!(mem.queue_delay().predictor_cycles(), 0);
    }

    #[test]
    fn queued_full_queue_delays_admission() {
        let mut config = DramConfig::paper();
        config.channels = 1;
        config.banks_per_channel = 1;
        config.queue_depth = 2;
        config.bank_occupancy = 1;
        config.cycles_per_transfer = 1;
        let mut mem = queued(config);
        // Two requests fill the queue; the third must wait for a slot, which
        // frees when the first request completes.
        let first = mem.read(Address::new(0), false, 0);
        mem.read(Address::new(64), false, 0);
        let third = mem.read(Address::new(128), false, 0);
        assert!(
            third.queue_delay >= first.latency,
            "third request must wait at least until the first drains \
             (delay {}, first latency {})",
            third.queue_delay,
            first.latency
        );
    }

    #[test]
    fn lower_bandwidth_means_more_queueing() {
        let run = |cycles_per_transfer: u64| {
            let mut mem = queued(DramConfig::paper().with_cycles_per_transfer(cycles_per_transfer));
            for i in 0..256u64 {
                // A steady stream faster than the bus can drain.
                mem.read(Address::new(i * 64), false, i * 2);
            }
            mem.queue_delay().total_cycles()
        };
        let fast = run(4);
        let medium = run(32);
        let slow = run(128);
        assert!(
            fast < medium && medium < slow,
            "queueing must grow as bandwidth shrinks: {fast} < {medium} < {slow}"
        );
    }

    #[test]
    fn queued_writes_consume_bandwidth() {
        let mut mem = queued(DramConfig::paper());
        let before = mem.busy_cycles();
        mem.write(Address::new(0x9000), false, 0);
        assert_eq!(
            mem.busy_cycles() - before,
            DramConfig::paper().cycles_per_transfer
        );
    }
}
