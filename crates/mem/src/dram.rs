//! DRAM geometry, timing parameters and address mapping.
//!
//! The baseline system (Table I) uses DDR3-1600 with 2 channels, 2 ranks per
//! channel and 16 banks per rank. The GPU is clocked at 2 GHz, so all DDR3
//! timings here are pre-converted to GPU cycles (1 DRAM bus cycle at 800 MHz
//! = 2.5 GPU cycles).

use ptw_types::addr::{LineAddr, LINE_SHIFT};

/// Most banks one channel may have: the controller packs a bank index
/// into 8 bits of its (bank, row) chain keys.
pub const MAX_BANKS_PER_CHANNEL: usize = 256;

/// Geometry and timing of the DRAM subsystem, in GPU cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (Table I: 2).
    pub channels: usize,
    /// Ranks per channel (Table I: 2).
    pub ranks_per_channel: usize,
    /// Banks per rank (Table I: 16).
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes (typical DDR3 x8 device row: 2 KiB per chip,
    /// 8 KiB across the rank; we model the controller-visible 2 KiB stripe).
    pub row_bytes: u64,
    /// Latency of a read that hits the open row: tCL + burst ≈ 13.75 ns +
    /// 5 ns ≈ 37 GPU cycles; rounded to 40.
    pub row_hit_cycles: u64,
    /// Latency of a read that must precharge + activate + read:
    /// tRP + tRCD + tCL + burst ≈ 13.75 × 3 ns + 5 ns ≈ 104 GPU cycles.
    pub row_conflict_cycles: u64,
    /// Minimum spacing between bursts on one channel's data bus
    /// (4 DRAM bus cycles = 10 GPU cycles).
    pub bus_cycles: u64,
}

impl DramConfig {
    /// The paper's Table I baseline: DDR3-1600, 2 channels, 2 ranks/channel,
    /// 16 banks/rank.
    pub fn paper_baseline() -> Self {
        DramConfig {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 16,
            row_bytes: 2048,
            row_hit_cycles: 40,
            row_conflict_cycles: 104,
            bus_cycles: 10,
        }
    }

    /// Total banks per channel (ranks × banks-per-rank).
    pub fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err(format!(
                "channels must be a positive power of two, got {}",
                self.channels
            ));
        }
        let banks = self.banks_per_channel();
        if banks == 0 || !banks.is_power_of_two() || banks > MAX_BANKS_PER_CHANNEL {
            return Err(format!(
                "banks per channel must be a power of two in 1..={MAX_BANKS_PER_CHANNEL}, got {banks}"
            ));
        }
        if self.row_bytes < 64 || !self.row_bytes.is_power_of_two() {
            return Err(format!(
                "row_bytes must be a power of two >= 64, got {}",
                self.row_bytes
            ));
        }
        if self.row_hit_cycles == 0 || self.row_conflict_cycles < self.row_hit_cycles {
            return Err("row timings must satisfy 0 < hit <= conflict".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Physical location of a cache line in the DRAM system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel (flattened rank × bank).
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// Maps a line address to its DRAM coordinates.
///
/// Mapping (low → high bits): line offset | channel | bank | row. Channel
/// bits sit just above the line offset so consecutive lines stripe across
/// channels, and bank bits next so consecutive rows of an array stripe
/// across banks — the standard throughput-oriented interleaving.
pub fn map_address(cfg: &DramConfig, line: LineAddr) -> DramCoord {
    let line_no = line.raw() >> LINE_SHIFT;
    let ch_bits = cfg.channels.trailing_zeros();
    let bank_count = cfg.banks_per_channel() as u64;
    let bank_bits = bank_count.trailing_zeros();
    let channel = (line_no & (cfg.channels as u64 - 1)) as usize;
    let bank = ((line_no >> ch_bits) & (bank_count - 1)) as usize;
    let lines_per_row = (cfg.row_bytes >> LINE_SHIFT).max(1);
    let row = (line_no >> (ch_bits + bank_bits)) / lines_per_row;
    DramCoord { channel, bank, row }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        DramConfig::paper_baseline().validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = DramConfig::paper_baseline();
        c.channels = 3;
        assert!(c.validate().is_err());
        let mut c = DramConfig::paper_baseline();
        c.row_bytes = 100;
        assert!(c.validate().is_err());
        let mut c = DramConfig::paper_baseline();
        c.row_conflict_cycles = c.row_hit_cycles - 1;
        assert!(c.validate().is_err());
        // The bank bound: 2 ranks x 128 banks fits, 2 x 256 does not.
        let mut c = DramConfig::paper_baseline();
        c.banks_per_rank = 128;
        assert!(c.validate().is_ok());
        c.banks_per_rank = 256;
        assert!(c.validate().is_err());
    }

    #[test]
    fn consecutive_lines_alternate_channels() {
        let cfg = DramConfig::paper_baseline();
        let a = map_address(&cfg, LineAddr::new(0));
        let b = map_address(&cfg, LineAddr::new(64));
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn same_row_for_nearby_lines_in_channel() {
        let cfg = DramConfig::paper_baseline();
        // Lines 0 and 2 are in channel 0; with 32 banks they land in
        // different banks but row 0.
        let a = map_address(&cfg, LineAddr::new(0));
        let b = map_address(&cfg, LineAddr::new(128));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_ne!(a.bank, b.bank);
    }

    #[test]
    fn coordinates_in_range() {
        let cfg = DramConfig::paper_baseline();
        for i in 0..10_000u64 {
            let c = map_address(&cfg, LineAddr::new(i * 64 * 7919));
            assert!(c.channel < cfg.channels);
            assert!(c.bank < cfg.banks_per_channel());
        }
    }

    #[test]
    fn distinct_rows_eventually() {
        let cfg = DramConfig::paper_baseline();
        let stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel() as u64;
        let a = map_address(&cfg, LineAddr::new(0));
        let b = map_address(&cfg, LineAddr::new(stride));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_ne!(a.row, b.row);
    }
}
