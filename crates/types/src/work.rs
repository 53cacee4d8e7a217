//! Deterministic work counters: how many events, map slots, tags, DRAM
//! selects and candidate-index steps a run costs, independent of the host.
//!
//! Each layer adds to its counter once per call, at one choke point, from
//! a local tally. The counts are per thread, so a run on one thread reads
//! exactly its own work with [`take`]. Counting happens only under
//! `debug_assertions`: release builds compile [`add`] to nothing and
//! [`take`] returns zeros, so the hot loops the benchmark times carry no
//! counting code. The test profile keeps debug assertions on, which is
//! where the exact gate on these counts runs.

use std::cell::Cell;

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $v:ident => $label:literal,)*) => {
        /// One work counter.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Work {
            $($(#[doc = $doc])* $v,)*
        }

        impl Work {
            /// Every counter, in index order.
            pub const ALL: &'static [Work] = &[$(Work::$v),*];

            /// Stable name, as the golden counts spell it.
            pub fn label(self) -> &'static str {
                match self {
                    $(Work::$v => $label,)*
                }
            }
        }
    };
}

counters! {
    /// Popped `WfReady` events.
    WfReady => "ev.wf_ready",
    /// Popped `TranslationDone` events.
    TranslationDone => "ev.translation_done",
    /// Popped `L2TlbArrive` events.
    L2TlbArrive => "ev.l2_tlb_arrive",
    /// Popped `L2TlbLookup` events.
    L2TlbLookup => "ev.l2_tlb_lookup",
    /// Popped `IommuArrival` events.
    IommuArrival => "ev.iommu_arrival",
    /// Popped `WalkerIssue` events.
    WalkerIssue => "ev.walker_issue",
    /// Popped `DataSubmit` events.
    DataSubmit => "ev.data_submit",
    /// Popped `LineDone` events.
    LineDone => "ev.line_done",
    /// Popped `MemTick` events, superseded ones included.
    MemTick => "ev.mem_tick",
    /// Slots a `U64Map` examined in `find`, `insert`, `remove` and `grow`.
    MapSlots => "map.slots",
    /// Tags an `AssocArray` compared while looking a key up.
    AssocTags => "assoc.tags",
    /// DRAM selects answered by the arrival-order scan.
    SelectScan => "dram.select_scan",
    /// DRAM selects answered by the per-bank index.
    SelectIndex => "dram.select_index",
    /// Queue entries and banks the DRAM selects examined.
    SelectExamined => "dram.select_examined",
    /// Entries and instructions the IOMMU candidate index's loops visited.
    IndexVisits => "index.visits",
}

/// Number of counters.
pub const N: usize = Work::ALL.len();

thread_local! {
    static COUNTS: [Cell<u64>; N] = const { [const { Cell::new(0) }; N] };
}

/// Adds `n` to counter `w` of this thread (debug builds only).
#[inline]
pub fn add(w: Work, n: u64) {
    #[cfg(debug_assertions)]
    COUNTS.with(|c| c[w as usize].set(c[w as usize].get() + n));
    #[cfg(not(debug_assertions))]
    let _ = (w, n);
}

/// This thread's counts since the last `take`, indexed by `Work as usize`;
/// resets them to zero. Always zeros in release builds.
pub fn take() -> [u64; N] {
    COUNTS.with(|c| c.each_ref().map(Cell::take))
}
