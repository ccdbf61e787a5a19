//! Feature-map geometry and numeric precision.

use std::fmt;

/// Shape of a feature map in channels × height × width (CHW) order.
///
/// The decoder operates on square-ish feature maps that grow from 8×8 latent
/// grids up to 1024×1024 HD textures; all shapes in this crate are dense CHW
/// tensors for a single sample (batch is handled at the accelerator level).
///
/// ```
/// use fcad_nnir::TensorShape;
///
/// let latent = TensorShape::chw(4, 8, 8);
/// assert_eq!(latent.elements(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Number of channels.
    pub channels: usize,
    /// Feature-map height.
    pub height: usize,
    /// Feature-map width.
    pub width: usize,
}

impl TensorShape {
    /// Creates a shape from channels, height and width.
    pub const fn chw(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Creates a flat (vector) shape with `len` channels and 1×1 spatial size.
    ///
    /// Used for latent codes and dense-layer activations.
    pub const fn flat(len: usize) -> Self {
        Self::chw(len, 1, 1)
    }

    /// Total number of scalar elements in the tensor.
    pub const fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Number of spatial positions (height × width).
    pub const fn spatial(&self) -> usize {
        self.height * self.width
    }

    /// Size of the tensor in bytes at the given precision.
    pub fn bytes(&self, precision: Precision) -> usize {
        self.elements() * precision.bytes()
    }

    /// Returns `true` when the shape has no elements.
    pub const fn is_empty(&self) -> bool {
        self.channels == 0 || self.height == 0 || self.width == 0
    }

    /// Returns the shape obtained by up-sampling the spatial dimensions by
    /// `factor` (nearest-neighbour style, channels unchanged).
    pub const fn upsampled(&self, factor: usize) -> Self {
        Self::chw(self.channels, self.height * factor, self.width * factor)
    }

    /// Returns the shape with the same number of elements reinterpreted as
    /// `channels`×`height`×`width`, or `None` when the element counts differ.
    pub fn reshaped(&self, channels: usize, height: usize, width: usize) -> Option<Self> {
        let target = Self::chw(channels, height, width);
        (target.elements() == self.elements()).then_some(target)
    }
}

impl Default for TensorShape {
    fn default() -> Self {
        Self::chw(1, 1, 1)
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{},{}]", self.channels, self.height, self.width)
    }
}

/// Numeric precision of weights and activations.
///
/// The paper evaluates 8-bit and 16-bit fixed-point accelerators; `Fp32` is
/// provided as a software-reference format (e.g. for the SoC baseline before
/// quantization).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// 8-bit fixed point (the paper's most efficient FPGA configuration).
    #[default]
    Int8,
    /// 16-bit fixed point.
    Int16,
    /// 32-bit floating point (software reference).
    Fp32,
}

impl Precision {
    /// Width of one scalar in bits.
    pub const fn bits(&self) -> usize {
        match self {
            Precision::Int8 => 8,
            Precision::Int16 => 16,
            Precision::Fp32 => 32,
        }
    }

    /// Width of one scalar in bytes.
    pub const fn bytes(&self) -> usize {
        self.bits() / 8
    }

    /// Operations per multiplier per cycle (the paper's β in Eq. 3).
    ///
    /// One multiply-accumulate counts as two operations. A DSP slice performs
    /// one 16-bit MAC per cycle (β = 2) and can be packed with two 8-bit MACs
    /// per cycle (β = 4). For fp32 we assume one MAC per two DSPs (β = 1),
    /// which only matters for the software-reference configuration.
    pub const fn ops_per_multiplier(&self) -> f64 {
        match self {
            Precision::Int8 => 4.0,
            Precision::Int16 => 2.0,
            Precision::Fp32 => 1.0,
        }
    }

    /// MAC operations a single DSP-style multiplier completes per cycle.
    pub const fn macs_per_dsp(&self) -> f64 {
        self.ops_per_multiplier() / 2.0
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Int8 => write!(f, "8-bit"),
            Precision::Int16 => write!(f, "16-bit"),
            Precision::Fp32 => write!(f, "fp32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latent_code_reshape_matches_paper() {
        // The 256-d latent code is reshaped to [4, 8, 8] for branch 1.
        let latent = TensorShape::flat(256);
        let reshaped = latent.reshaped(4, 8, 8).expect("256 == 4*8*8");
        assert_eq!(reshaped, TensorShape::chw(4, 8, 8));
        assert!(latent.reshaped(4, 8, 9).is_none());
    }

    #[test]
    fn upsample_doubles_spatial_only() {
        let s = TensorShape::chw(16, 32, 32).upsampled(2);
        assert_eq!(s, TensorShape::chw(16, 64, 64));
    }

    #[test]
    fn bytes_scale_with_precision() {
        let s = TensorShape::chw(3, 1024, 1024);
        assert_eq!(s.bytes(Precision::Int8), 3 * 1024 * 1024);
        assert_eq!(s.bytes(Precision::Int16), 2 * 3 * 1024 * 1024);
        assert_eq!(s.bytes(Precision::Fp32), 4 * 3 * 1024 * 1024);
    }

    #[test]
    fn beta_matches_paper_eq3() {
        assert_eq!(Precision::Int16.ops_per_multiplier(), 2.0);
        assert_eq!(Precision::Int8.ops_per_multiplier(), 4.0);
        assert_eq!(Precision::Int16.macs_per_dsp(), 1.0);
        assert_eq!(Precision::Int8.macs_per_dsp(), 2.0);
    }

    #[test]
    fn empty_shapes_are_detected() {
        assert!(TensorShape::chw(0, 8, 8).is_empty());
        assert!(!TensorShape::chw(1, 8, 8).is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TensorShape::chw(3, 256, 256).to_string(), "[3,256,256]");
        assert_eq!(Precision::Int8.to_string(), "8-bit");
    }
}
