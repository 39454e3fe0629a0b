//! The page-granular EPC model.

use std::collections::HashMap;

use obliv_trace::{AccessKind, ArrayId, TraceEvent, TraceSink};

/// Configuration of the simulated enclave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpcConfig {
    /// Usable Enclave Page Cache size in bytes.  SGX v1 reserves 128 MiB of
    /// which roughly 93 MiB is usable — the figure the paper quotes.
    pub epc_bytes: u64,
    /// Page size in bytes (4 KiB on SGX).
    pub page_bytes: u64,
    /// Size of one table entry in bytes.  The default is one cache line;
    /// the join's augmented record is five 8-byte words, and the Figure 8
    /// report sets this to its actual size.
    pub entry_bytes: u64,
    /// Cost charged per in-enclave memory access, in nanoseconds.
    pub access_cost_ns: f64,
    /// Cost charged per EPC page fault (eviction + encrypted reload), in
    /// nanoseconds.  Published measurements put an EPC paging round trip in
    /// the tens of microseconds.
    pub fault_cost_ns: f64,
    /// Multiplier applied to the base computation time to account for the
    /// general enclave overhead (transitions, MEE traffic) that exists even
    /// when the working set fits the EPC.
    pub enclave_slowdown: f64,
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig {
            epc_bytes: 93 * 1024 * 1024,
            page_bytes: 4096,
            entry_bytes: 64,
            access_cost_ns: 2.0,
            fault_cost_ns: 25_000.0,
            enclave_slowdown: 2.4,
        }
    }
}

impl EpcConfig {
    /// Number of whole pages that fit in the EPC.
    pub fn epc_pages(&self) -> u64 {
        (self.epc_bytes / self.page_bytes).max(1)
    }

    /// Entries per page under this configuration.
    pub fn entries_per_page(&self) -> u64 {
        (self.page_bytes / self.entry_bytes).max(1)
    }
}

/// Aggregate results of a simulated enclave execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnclaveReport {
    /// Total observed memory accesses.
    pub accesses: u64,
    /// Page faults (first touches and re-loads after eviction).
    pub page_faults: u64,
    /// Faults that were first touches (compulsory misses).
    pub cold_faults: u64,
    /// Peak number of distinct pages resident at once.
    pub peak_resident_pages: u64,
    /// Total allocated public memory, in bytes.
    pub allocated_bytes: u64,
    /// Simulated paging time in nanoseconds (faults × fault cost).
    pub paging_time_ns: f64,
    /// Simulated access time in nanoseconds (accesses × access cost).
    pub access_time_ns: f64,
}

impl EnclaveReport {
    /// Fault rate per access.
    pub fn fault_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.page_faults as f64 / self.accesses as f64
        }
    }

    /// Estimated wall-clock time of running a computation that takes
    /// `plain_seconds` outside the enclave: the base time is scaled by the
    /// enclave slowdown and the simulated paging time is added on top.
    pub fn estimated_enclave_seconds(&self, plain_seconds: f64, config: &EpcConfig) -> f64 {
        plain_seconds * config.enclave_slowdown + self.paging_time_ns * 1e-9
    }
}

/// An LRU model of the Enclave Page Cache, driven by the access trace.
#[derive(Debug)]
pub struct EnclaveSimulator {
    config: EpcConfig,
    /// Base page index of every allocated array (arrays are laid out
    /// page-aligned, one after another).
    array_base_page: HashMap<ArrayId, u64>,
    next_free_page: u64,
    /// page → last-use clock tick, for resident pages.
    resident: HashMap<u64, u64>,
    /// last-use clock tick → page, mirror index for O(log) eviction.
    lru: std::collections::BTreeMap<u64, u64>,
    clock: u64,
    touched_pages: std::collections::HashSet<u64>,
    report: EnclaveReport,
}

impl EnclaveSimulator {
    /// Create a simulator with the given EPC configuration.
    pub fn new(config: EpcConfig) -> Self {
        EnclaveSimulator {
            config,
            array_base_page: HashMap::new(),
            next_free_page: 0,
            resident: HashMap::new(),
            lru: std::collections::BTreeMap::new(),
            clock: 0,
            touched_pages: std::collections::HashSet::new(),
            report: EnclaveReport::default(),
        }
    }

    /// Create a simulator with the default (SGX v1) configuration.
    pub fn sgx_default() -> Self {
        Self::new(EpcConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> EpcConfig {
        self.config
    }

    /// The report accumulated so far.
    pub fn report(&self) -> EnclaveReport {
        self.report
    }

    fn touch_page(&mut self, page: u64) {
        self.clock += 1;
        let was_resident = self.resident.contains_key(&page);
        if was_resident {
            // Refresh the page's LRU position.
            let old_tick = self.resident[&page];
            self.lru.remove(&old_tick);
        } else {
            self.report.page_faults += 1;
            if self.touched_pages.insert(page) {
                self.report.cold_faults += 1;
            }
            // Evict the least recently used page if the EPC is full.
            if self.resident.len() as u64 >= self.config.epc_pages() {
                if let Some((&oldest_tick, &victim)) = self.lru.iter().next() {
                    self.lru.remove(&oldest_tick);
                    self.resident.remove(&victim);
                }
            }
        }
        self.resident.insert(page, self.clock);
        self.lru.insert(self.clock, page);
        self.report.peak_resident_pages = self
            .report
            .peak_resident_pages
            .max(self.resident.len() as u64);
    }
}

// Only `record` is implemented, on purpose: the paging model needs every
// access in program order, so runs, sweeps and blocks reach it through the
// trait's per-element expansions.
impl TraceSink for EnclaveSimulator {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Alloc { array, len } => {
                let bytes = len * self.config.entry_bytes;
                let pages = bytes.div_ceil(self.config.page_bytes).max(1);
                self.array_base_page.insert(array, self.next_free_page);
                self.next_free_page += pages;
                self.report.allocated_bytes += bytes;
            }
            TraceEvent::Access(access) => {
                self.report.accesses += 1;
                self.report.access_time_ns += self.config.access_cost_ns;
                let base = self
                    .array_base_page
                    .get(&access.array)
                    .copied()
                    .unwrap_or(0);
                let page = base + access.index * self.config.entry_bytes / self.config.page_bytes;
                self.touch_page(page);
                // Writes and reads cost the same in this model; the kind is
                // still recorded for completeness of the fault accounting.
                let _ = matches!(access.kind, AccessKind::Write);
                self.report.paging_time_ns =
                    self.report.page_faults as f64 * self.config.fault_cost_ns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_trace::{Access, Tracer};

    fn access_event(array: u32, index: u64) -> TraceEvent {
        TraceEvent::Access(Access::read(ArrayId(array), index))
    }

    #[test]
    fn config_derived_quantities() {
        let c = EpcConfig::default();
        assert_eq!(c.epc_pages(), 93 * 1024 / 4);
        assert_eq!(c.entries_per_page(), 64);
    }

    #[test]
    fn sequential_scan_within_epc_faults_once_per_page() {
        let config = EpcConfig {
            epc_bytes: 1 << 20,
            ..EpcConfig::default()
        };
        let mut sim = EnclaveSimulator::new(config);
        sim.record(TraceEvent::Alloc {
            array: ArrayId(0),
            len: 1024,
        });
        for i in 0..1024 {
            sim.record(access_event(0, i));
        }
        let report = sim.report();
        assert_eq!(report.accesses, 1024);
        // 1024 entries × 64 B = 64 KiB = 16 pages, all compulsory misses.
        assert_eq!(report.page_faults, 16);
        assert_eq!(report.cold_faults, 16);
        assert_eq!(report.peak_resident_pages, 16);
        assert!(report.fault_rate() < 0.02);
    }

    #[test]
    fn working_set_larger_than_epc_thrashes() {
        // EPC of 4 pages, array of 16 pages, two sequential sweeps: the
        // second sweep must fault again on every page.
        let config = EpcConfig {
            epc_bytes: 4 * 4096,
            page_bytes: 4096,
            entry_bytes: 64,
            ..EpcConfig::default()
        };
        let mut sim = EnclaveSimulator::new(config);
        sim.record(TraceEvent::Alloc {
            array: ArrayId(0),
            len: 16 * 64,
        });
        for _ in 0..2 {
            for i in 0..16 * 64 {
                sim.record(access_event(0, i));
            }
        }
        let report = sim.report();
        assert_eq!(report.cold_faults, 16);
        assert_eq!(
            report.page_faults, 32,
            "every page re-faults on the second sweep"
        );
        assert!(report.paging_time_ns > 0.0);
    }

    #[test]
    fn fits_in_epc_means_no_capacity_faults() {
        let config = EpcConfig {
            epc_bytes: 1 << 20,
            ..EpcConfig::default()
        };
        let mut sim = EnclaveSimulator::new(config);
        sim.record(TraceEvent::Alloc {
            array: ArrayId(0),
            len: 512,
        });
        for _ in 0..5 {
            for i in 0..512 {
                sim.record(access_event(0, i));
            }
        }
        let report = sim.report();
        assert_eq!(report.page_faults, report.cold_faults);
    }

    #[test]
    fn distinct_arrays_use_distinct_pages() {
        let mut sim = EnclaveSimulator::sgx_default();
        sim.record(TraceEvent::Alloc {
            array: ArrayId(0),
            len: 10,
        });
        sim.record(TraceEvent::Alloc {
            array: ArrayId(1),
            len: 10,
        });
        sim.record(access_event(0, 0));
        sim.record(access_event(1, 0));
        assert_eq!(
            sim.report().page_faults,
            2,
            "same offset in different arrays is a different page"
        );
        assert_eq!(sim.report().allocated_bytes, 2 * 10 * 64);
    }

    #[test]
    fn estimated_time_combines_slowdown_and_paging() {
        let config = EpcConfig::default();
        let report = EnclaveReport {
            page_faults: 1000,
            paging_time_ns: 1000.0 * config.fault_cost_ns,
            ..EnclaveReport::default()
        };
        let est = report.estimated_enclave_seconds(1.0, &config);
        assert!(est > config.enclave_slowdown);
        assert!((est - (2.4 + 0.025)).abs() < 1e-9);
    }

    #[test]
    fn plugs_into_a_tracer() {
        let tracer = Tracer::new(EnclaveSimulator::sgx_default());
        let mut buf = tracer.alloc::<u64>(100);
        for i in 0..100 {
            buf.write(i, i as u64);
        }
        let report = tracer.with_sink(|s| s.report());
        assert_eq!(report.accesses, 100);
        assert!(report.page_faults >= 1);
    }
}
