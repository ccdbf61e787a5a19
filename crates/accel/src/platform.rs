//! Hardware platform descriptions and resource budgets.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The three resource budgets F-CAD optimizes under (Table III):
/// compute (`Cmax`, DSP slices or MAC units), on-chip memory (`Mmax`,
/// BRAM18K blocks or KiB of SRAM), and external memory bandwidth (`BWmax`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceBudget {
    /// Available DSP slices (FPGA) or MAC units (ASIC).
    pub dsp: usize,
    /// Available BRAM18K blocks (FPGA) or equivalent 18 Kb SRAM macros (ASIC).
    pub bram: usize,
    /// External memory bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl ResourceBudget {
    /// Creates a budget from DSP count, BRAM18K count and bandwidth in GB/s.
    pub fn new(dsp: usize, bram: usize, bandwidth_gb_per_sec: f64) -> Self {
        Self {
            dsp,
            bram,
            bandwidth_bytes_per_sec: bandwidth_gb_per_sec * 1e9,
        }
    }

    /// Returns a budget scaled by `factor` in every dimension (used by the
    /// cross-branch search to carve out per-branch budgets).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            dsp: (self.dsp as f64 * factor).floor() as usize,
            bram: (self.bram as f64 * factor).floor() as usize,
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec * factor,
        }
    }

    /// Returns `true` when `usage` fits within this budget in all three
    /// dimensions.
    pub fn accommodates(&self, usage: &ResourceUsage) -> bool {
        usage.dsp <= self.dsp
            && usage.bram <= self.bram
            && usage.bandwidth_bytes_per_sec <= self.bandwidth_bytes_per_sec
    }
}

/// Resources actually consumed by a design (same axes as [`ResourceBudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// DSP slices (or MAC units) used.
    pub dsp: usize,
    /// BRAM18K blocks (or SRAM macros) used.
    pub bram: usize,
    /// External bandwidth consumed, bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl ResourceUsage {
    /// Element-wise sum of two usages.
    pub fn plus(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp + other.dsp,
            bram: self.bram + other.bram,
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec + other.bandwidth_bytes_per_sec,
        }
    }
}

/// Whether a platform is an FPGA or an ASIC-style budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// FPGA device: `dsp` counts DSP slices, `bram` counts BRAM18K blocks.
    Fpga,
    /// ASIC budget: `dsp` counts MAC units, `bram` counts 18 Kb SRAM macros.
    Asic,
}

/// A target hardware platform: a resource budget plus a clock frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    name: String,
    kind: PlatformKind,
    budget: ResourceBudget,
    frequency_hz: f64,
}

impl Platform {
    /// Creates a custom platform.
    pub fn new(
        name: impl Into<String>,
        kind: PlatformKind,
        budget: ResourceBudget,
        frequency_mhz: f64,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            budget,
            frequency_hz: frequency_mhz * 1e6,
        }
    }

    /// Xilinx Zynq-7045 as budgeted in the paper (Scheme 1 / Case 1):
    /// 900 DSPs, 1090 BRAM18K, DDR3 bandwidth, 200 MHz.
    pub fn z7045() -> Self {
        Self::new(
            "Z7045",
            PlatformKind::Fpga,
            ResourceBudget::new(900, 1090, 12.8),
            200.0,
        )
    }

    /// Xilinx ZU17EG as budgeted in the paper (Scheme 2 / Cases 2–3):
    /// 1590 DSPs, 1592 BRAM18K, 200 MHz.
    pub fn zu17eg() -> Self {
        Self::new(
            "ZU17EG",
            PlatformKind::Fpga,
            ResourceBudget::new(1590, 1592, 12.8),
            200.0,
        )
    }

    /// Xilinx ZU9CG as budgeted in the paper (Scheme 3 / Cases 4–5):
    /// 2520 DSPs, 1824 BRAM18K, 200 MHz.
    pub fn zu9cg() -> Self {
        Self::new(
            "ZU9CG",
            PlatformKind::Fpga,
            ResourceBudget::new(2520, 1824, 12.8),
            200.0,
        )
    }

    /// Xilinx ZCU104 evaluation board (Zynq UltraScale+ ZU7EV), a common
    /// edge-inference target between the Z7045 and ZU17EG schemes: 1728
    /// DSPs, 624 BRAM18K (312 BRAM36), 64-bit DDR4-2400 at 19.2 GB/s,
    /// 200 MHz.
    pub fn zcu104() -> Self {
        Self::new(
            "ZCU104",
            PlatformKind::Fpga,
            ResourceBudget::new(1728, 624, 19.2),
            200.0,
        )
    }

    /// Xilinx KU115, the board used for the Fig. 6/7 estimation-accuracy
    /// study: 5520 DSPs, 4320 BRAM18K, 200 MHz.
    pub fn ku115() -> Self {
        Self::new(
            "KU115",
            PlatformKind::Fpga,
            ResourceBudget::new(5520, 4320, 19.2),
            200.0,
        )
    }

    /// A generic ASIC budget expressed in MAC units, 18 Kb SRAM macros and
    /// bandwidth — the paper notes the same flow targets ASICs by mapping
    /// `{Cmax, Mmax, BWmax}` onto MACs, buffers and DRAM bandwidth.
    pub fn asic(
        macs: usize,
        sram_macros: usize,
        bandwidth_gb_per_sec: f64,
        frequency_mhz: f64,
    ) -> Self {
        Self::new(
            format!("ASIC-{macs}mac"),
            PlatformKind::Asic,
            ResourceBudget::new(macs, sram_macros, bandwidth_gb_per_sec),
            frequency_mhz,
        )
    }

    /// The three FPGA schemes of Table II / Table IV in order (Z7045,
    /// ZU17EG, ZU9CG).
    pub fn evaluation_schemes() -> Vec<Platform> {
        vec![Self::z7045(), Self::zu17eg(), Self::zu9cg()]
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// FPGA or ASIC.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// Resource budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// Clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Clock frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        self.frequency_hz / 1e6
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, {} DSP, {} BRAM, {:.1} GB/s, {:.0} MHz)",
            self.name,
            self.kind,
            self.budget.dsp,
            self.budget.bram,
            self.budget.bandwidth_bytes_per_sec / 1e9,
            self.frequency_mhz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_budgets() {
        assert_eq!(Platform::z7045().budget().dsp, 900);
        assert_eq!(Platform::z7045().budget().bram, 1090);
        assert_eq!(Platform::zu17eg().budget().dsp, 1590);
        assert_eq!(Platform::zu17eg().budget().bram, 1592);
        assert_eq!(Platform::zu9cg().budget().dsp, 2520);
        assert_eq!(Platform::zu9cg().budget().bram, 1824);
        for p in Platform::evaluation_schemes() {
            assert_eq!(p.frequency_mhz(), 200.0);
        }
    }

    #[test]
    fn zcu104_budget_is_pinned() {
        let zcu104 = Platform::zcu104();
        assert_eq!(zcu104.name(), "ZCU104");
        assert_eq!(zcu104.kind(), PlatformKind::Fpga);
        assert_eq!(zcu104.budget().dsp, 1728);
        assert_eq!(zcu104.budget().bram, 624);
        assert!((zcu104.budget().bandwidth_bytes_per_sec - 19.2e9).abs() < 1.0);
        assert_eq!(zcu104.frequency_mhz(), 200.0);
    }

    #[test]
    fn budgets_accommodate_usage() {
        let budget = ResourceBudget::new(1000, 500, 10.0);
        let fits = ResourceUsage {
            dsp: 900,
            bram: 500,
            bandwidth_bytes_per_sec: 9e9,
        };
        let too_big = ResourceUsage { dsp: 1001, ..fits };
        assert!(budget.accommodates(&fits));
        assert!(!budget.accommodates(&too_big));
    }

    #[test]
    fn scaled_budget_floors_discrete_resources() {
        let budget = ResourceBudget::new(1001, 11, 10.0);
        let half = budget.scaled(0.5);
        assert_eq!(half.dsp, 500);
        assert_eq!(half.bram, 5);
        assert!((half.bandwidth_bytes_per_sec - 5e9).abs() < 1e-3);
    }

    #[test]
    fn usage_addition_is_elementwise() {
        let a = ResourceUsage {
            dsp: 10,
            bram: 20,
            bandwidth_bytes_per_sec: 1e9,
        };
        let b = ResourceUsage {
            dsp: 5,
            bram: 1,
            bandwidth_bytes_per_sec: 0.5e9,
        };
        let sum = a.plus(&b);
        assert_eq!(sum.dsp, 15);
        assert_eq!(sum.bram, 21);
        assert!((sum.bandwidth_bytes_per_sec - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn asic_platform_is_tagged_asic() {
        let asic = Platform::asic(4096, 2048, 25.6, 800.0);
        assert_eq!(asic.kind(), PlatformKind::Asic);
        assert_eq!(asic.frequency_mhz(), 800.0);
    }
}
