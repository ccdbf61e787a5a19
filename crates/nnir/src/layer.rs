//! Layer definitions and per-layer cost model.
//!
//! Every layer knows how to derive its output shape from an input shape and
//! how to count its own multiply-accumulates, total operations, parameters
//! and memory traffic. The rest of the workspace (profiler, analytical
//! accelerator model, cycle simulator, baselines) builds on these primitives,
//! so the conventions used here fix the op-counting conventions of the whole
//! reproduction:
//!
//! * one multiply-accumulate (MAC) counts as **two** operations, matching the
//!   GOP numbers of Table I of the paper;
//! * the *customized Conv* of the codec avatar decoder carries an **untied
//!   bias**: every output pixel has its own bias value, which adds
//!   `OutCh·H·W` parameters (and one add per output pixel) instead of the
//!   usual `OutCh`.

use crate::error::{Error, Result};
use crate::tensor::{Precision, TensorShape};
use std::fmt;

/// How a convolution or dense layer applies its bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasKind {
    /// No bias term.
    None,
    /// One bias per output channel (conventional convolution).
    PerChannel,
    /// One bias per output *pixel* (`OutCh × H × W` values) — the
    /// "customized Conv" of the codec avatar decoder.
    Untied,
}

impl BiasKind {
    /// Number of bias parameters for a layer with the given output shape.
    pub fn param_count(&self, output: TensorShape) -> usize {
        match self {
            BiasKind::None => 0,
            BiasKind::PerChannel => output.channels,
            BiasKind::Untied => output.elements(),
        }
    }
}

impl fmt::Display for BiasKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiasKind::None => write!(f, "no bias"),
            BiasKind::PerChannel => write!(f, "per-channel bias"),
            BiasKind::Untied => write!(f, "untied bias"),
        }
    }
}

/// Activation functions that appear in the decoder and the classic benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit (used throughout the decoder).
    LeakyRelu,
    /// Hyperbolic tangent (used on decoder outputs).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivationKind::Relu => write!(f, "ReLU"),
            ActivationKind::LeakyRelu => write!(f, "LeakyReLU"),
            ActivationKind::Tanh => write!(f, "Tanh"),
            ActivationKind::Sigmoid => write!(f, "Sigmoid"),
        }
    }
}

/// Pooling flavours used by the classic single-branch benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Average,
}

/// Configuration of a convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
    /// Bias flavour.
    pub bias: BiasKind,
}

impl ConvSpec {
    /// A same-padded, stride-1 convolution (the decoder's work-horse layout).
    pub const fn same(out_channels: usize, kernel: usize, bias: BiasKind) -> Self {
        Self {
            out_channels,
            kernel,
            stride: 1,
            padding: kernel / 2,
            bias,
        }
    }

    /// A strided convolution (used by the classic benchmarks).
    pub const fn strided(
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: BiasKind,
    ) -> Self {
        Self {
            out_channels,
            kernel,
            stride,
            padding,
            bias,
        }
    }
}

/// The operation a [`Layer`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerKind {
    /// 2-D convolution. With [`BiasKind::Untied`] this is the paper's
    /// "customized Conv".
    Conv(ConvSpec),
    /// Fully-connected layer producing `out_features` outputs.
    Dense {
        /// Number of output features.
        out_features: usize,
        /// Bias flavour.
        bias: BiasKind,
    },
    /// Element-wise activation.
    Activation(ActivationKind),
    /// Nearest-neighbour spatial up-sampling by an integer factor.
    Upsample {
        /// Spatial scaling factor (≥ 1).
        factor: usize,
    },
    /// Spatial pooling.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Square window size.
        kernel: usize,
        /// Stride in both spatial dimensions.
        stride: usize,
    },
    /// Reinterpret the tensor as a new shape with the same element count.
    Reshape {
        /// Target shape.
        target: TensorShape,
    },
}

impl LayerKind {
    /// Returns `true` for layers that dominate compute or memory and
    /// therefore occupy their own pipeline stage (Conv-like and up-sampling
    /// layers in the paper's terminology).
    pub fn is_major(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv(_) | LayerKind::Dense { .. } | LayerKind::Upsample { .. }
        )
    }

    /// Returns `true` for lightweight layers that the Construction step fuses
    /// into their neighbouring major layer (activations, reshapes, pooling).
    pub fn is_fusible(&self) -> bool {
        !self.is_major()
    }

    /// Returns `true` for layers that perform multiply-accumulate work.
    pub fn is_compute(&self) -> bool {
        matches!(self, LayerKind::Conv(_) | LayerKind::Dense { .. })
    }
}

/// A named layer with resolved input and output shapes.
///
/// Layers are created through [`crate::NetworkBuilder`], which resolves the
/// output shape from the preceding layer; they can also be constructed
/// directly with [`Layer::new`] when a standalone cost query is needed.
///
/// ```
/// use fcad_nnir::{BiasKind, ConvSpec, Layer, LayerKind, TensorShape};
///
/// let conv = Layer::new(
///     "conv1",
///     LayerKind::Conv(ConvSpec::same(16, 3, BiasKind::PerChannel)),
///     TensorShape::chw(8, 64, 64),
/// )?;
/// assert_eq!(conv.output_shape(), TensorShape::chw(16, 64, 64));
/// // 2 ops per MAC: 2 * 16*8*3*3*64*64
/// assert_eq!(conv.macs(), 16 * 8 * 9 * 64 * 64);
/// # Ok::<(), fcad_nnir::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    input: TensorShape,
    output: TensorShape,
}

impl Layer {
    /// Creates a layer and resolves its output shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLayer`] when the configuration is internally
    /// inconsistent (e.g. zero channels or zero stride) and
    /// [`Error::ShapeMismatch`] when the input shape cannot be processed
    /// (e.g. kernel larger than the padded input, or a reshape that changes
    /// the element count).
    pub fn new(name: impl Into<String>, kind: LayerKind, input: TensorShape) -> Result<Self> {
        let name = name.into();
        let output = Self::resolve_output(&name, &kind, input)?;
        Ok(Self {
            name,
            kind,
            input,
            output,
        })
    }

    fn resolve_output(name: &str, kind: &LayerKind, input: TensorShape) -> Result<TensorShape> {
        if input.is_empty() {
            return Err(Error::ShapeMismatch {
                layer: name.to_owned(),
                reason: format!("input shape {input} has zero elements"),
            });
        }
        match *kind {
            LayerKind::Conv(spec) => {
                if spec.out_channels == 0 || spec.kernel == 0 || spec.stride == 0 {
                    return Err(Error::InvalidLayer {
                        layer: name.to_owned(),
                        reason: "convolution needs non-zero channels, kernel and stride".to_owned(),
                    });
                }
                let padded_h = input.height + 2 * spec.padding;
                let padded_w = input.width + 2 * spec.padding;
                if padded_h < spec.kernel || padded_w < spec.kernel {
                    return Err(Error::ShapeMismatch {
                        layer: name.to_owned(),
                        reason: format!(
                            "kernel {0}x{0} larger than padded input {padded_h}x{padded_w}",
                            spec.kernel
                        ),
                    });
                }
                let out_h = (padded_h - spec.kernel) / spec.stride + 1;
                let out_w = (padded_w - spec.kernel) / spec.stride + 1;
                Ok(TensorShape::chw(spec.out_channels, out_h, out_w))
            }
            LayerKind::Dense { out_features, .. } => {
                if out_features == 0 {
                    return Err(Error::InvalidLayer {
                        layer: name.to_owned(),
                        reason: "dense layer needs at least one output feature".to_owned(),
                    });
                }
                Ok(TensorShape::flat(out_features))
            }
            LayerKind::Activation(_) => Ok(input),
            LayerKind::Upsample { factor } => {
                if factor == 0 {
                    return Err(Error::InvalidLayer {
                        layer: name.to_owned(),
                        reason: "up-sampling factor must be at least 1".to_owned(),
                    });
                }
                Ok(input.upsampled(factor))
            }
            LayerKind::Pool { kernel, stride, .. } => {
                if kernel == 0 || stride == 0 {
                    return Err(Error::InvalidLayer {
                        layer: name.to_owned(),
                        reason: "pooling needs non-zero kernel and stride".to_owned(),
                    });
                }
                if input.height < kernel || input.width < kernel {
                    return Err(Error::ShapeMismatch {
                        layer: name.to_owned(),
                        reason: format!("pool window {kernel}x{kernel} larger than input {input}"),
                    });
                }
                let out_h = (input.height - kernel) / stride + 1;
                let out_w = (input.width - kernel) / stride + 1;
                Ok(TensorShape::chw(input.channels, out_h, out_w))
            }
            LayerKind::Reshape { target } => {
                if target.elements() != input.elements() {
                    return Err(Error::ShapeMismatch {
                        layer: name.to_owned(),
                        reason: format!(
                            "cannot reshape {input} ({} elements) into {target} ({} elements)",
                            input.elements(),
                            target.elements()
                        ),
                    });
                }
                Ok(target)
            }
        }
    }

    /// Layer name (unique within a [`crate::Network`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation performed by this layer.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Input feature-map shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// Output feature-map shape.
    pub fn output_shape(&self) -> TensorShape {
        self.output
    }

    /// Number of multiply-accumulate operations performed for one input.
    pub fn macs(&self) -> u64 {
        match *self.kind() {
            LayerKind::Conv(spec) => {
                self.output.elements() as u64
                    * self.input.channels as u64
                    * (spec.kernel * spec.kernel) as u64
            }
            LayerKind::Dense { out_features, .. } => {
                self.input.elements() as u64 * out_features as u64
            }
            _ => 0,
        }
    }

    /// Total operation count for one input (2 ops per MAC plus bias,
    /// activation, up-sampling copy and pooling compare/add work).
    pub fn ops(&self) -> u64 {
        let out_elems = self.output.elements() as u64;
        match *self.kind() {
            LayerKind::Conv(spec) => {
                let bias_ops = match spec.bias {
                    BiasKind::None => 0,
                    // One add per output pixel in both cases; the untied bias
                    // differs in *parameters*, not in per-pixel adds.
                    BiasKind::PerChannel | BiasKind::Untied => out_elems,
                };
                2 * self.macs() + bias_ops
            }
            LayerKind::Dense { bias, .. } => {
                let bias_ops = match bias {
                    BiasKind::None => 0,
                    BiasKind::PerChannel | BiasKind::Untied => out_elems,
                };
                2 * self.macs() + bias_ops
            }
            LayerKind::Activation(_) => out_elems,
            LayerKind::Upsample { .. } => out_elems,
            LayerKind::Pool { kernel, .. } => out_elems * (kernel * kernel) as u64,
            LayerKind::Reshape { .. } => 0,
        }
    }

    /// Number of learnable parameters (weights plus bias).
    pub fn params(&self) -> u64 {
        match *self.kind() {
            LayerKind::Conv(spec) => {
                let weights =
                    (spec.out_channels * self.input.channels * spec.kernel * spec.kernel) as u64;
                weights + spec.bias.param_count(self.output) as u64
            }
            LayerKind::Dense { out_features, bias } => {
                let weights = (self.input.elements() * out_features) as u64;
                weights + bias.param_count(self.output) as u64
            }
            _ => 0,
        }
    }

    /// Bytes of weights (including bias) at the given precision.
    pub fn weight_bytes(&self, precision: Precision) -> u64 {
        self.params() * precision.bytes() as u64
    }

    /// Kernel size for Conv-like layers, 1 otherwise.
    pub fn kernel(&self) -> usize {
        match *self.kind() {
            LayerKind::Conv(spec) => spec.kernel,
            _ => 1,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -> {}", self.name, self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer(in_ch: usize, out_ch: usize, h: usize, bias: BiasKind) -> Layer {
        Layer::new(
            "conv",
            LayerKind::Conv(ConvSpec::same(out_ch, 3, bias)),
            TensorShape::chw(in_ch, h, h),
        )
        .expect("valid conv layer")
    }

    #[test]
    fn conv_output_shape_same_padding() {
        let layer = conv_layer(8, 16, 32, BiasKind::PerChannel);
        assert_eq!(layer.output_shape(), TensorShape::chw(16, 32, 32));
    }

    #[test]
    fn conv_strided_output_shape() {
        // AlexNet conv1: 3x227x227, 96 kernels of 11x11 stride 4 -> 96x55x55.
        let layer = Layer::new(
            "conv1",
            LayerKind::Conv(ConvSpec::strided(96, 11, 4, 0, BiasKind::PerChannel)),
            TensorShape::chw(3, 227, 227),
        )
        .expect("valid alexnet conv1");
        assert_eq!(layer.output_shape(), TensorShape::chw(96, 55, 55));
    }

    #[test]
    fn conv_macs_and_ops() {
        let layer = conv_layer(8, 16, 64, BiasKind::PerChannel);
        let expected_macs = 16u64 * 8 * 9 * 64 * 64;
        assert_eq!(layer.macs(), expected_macs);
        assert_eq!(layer.ops(), 2 * expected_macs + 16 * 64 * 64);
    }

    #[test]
    fn untied_bias_inflates_params_not_ops() {
        let tied = conv_layer(8, 16, 64, BiasKind::PerChannel);
        let untied = conv_layer(8, 16, 64, BiasKind::Untied);
        assert_eq!(tied.ops(), untied.ops());
        assert_eq!(untied.params() - tied.params(), (16 * 64 * 64 - 16) as u64);
    }

    #[test]
    fn dense_costs() {
        let layer = Layer::new(
            "fc",
            LayerKind::Dense {
                out_features: 100,
                bias: BiasKind::PerChannel,
            },
            TensorShape::flat(256),
        )
        .expect("valid dense layer");
        assert_eq!(layer.output_shape(), TensorShape::flat(100));
        assert_eq!(layer.macs(), 256 * 100);
        assert_eq!(layer.params(), 256 * 100 + 100);
    }

    #[test]
    fn upsample_and_activation_have_no_params() {
        let up = Layer::new(
            "up",
            LayerKind::Upsample { factor: 2 },
            TensorShape::chw(16, 8, 8),
        )
        .expect("valid upsample");
        assert_eq!(up.output_shape(), TensorShape::chw(16, 16, 16));
        assert_eq!(up.params(), 0);
        assert_eq!(up.macs(), 0);
        assert_eq!(up.ops(), 16 * 16 * 16);

        let act = Layer::new(
            "act",
            LayerKind::Activation(ActivationKind::LeakyRelu),
            TensorShape::chw(16, 8, 8),
        )
        .expect("valid activation");
        assert_eq!(act.output_shape(), act.input_shape());
        assert_eq!(act.params(), 0);
    }

    #[test]
    fn pool_output_shape() {
        let pool = Layer::new(
            "pool",
            LayerKind::Pool {
                kind: PoolKind::Max,
                kernel: 2,
                stride: 2,
            },
            TensorShape::chw(64, 112, 112),
        )
        .expect("valid pool");
        assert_eq!(pool.output_shape(), TensorShape::chw(64, 56, 56));
    }

    #[test]
    fn reshape_must_preserve_elements() {
        let ok = Layer::new(
            "reshape",
            LayerKind::Reshape {
                target: TensorShape::chw(4, 8, 8),
            },
            TensorShape::flat(256),
        );
        assert!(ok.is_ok());
        let bad = Layer::new(
            "reshape",
            LayerKind::Reshape {
                target: TensorShape::chw(4, 8, 9),
            },
            TensorShape::flat(256),
        );
        assert!(matches!(bad, Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Layer::new(
            "conv",
            LayerKind::Conv(ConvSpec::same(0, 3, BiasKind::None)),
            TensorShape::chw(3, 8, 8)
        )
        .is_err());
        assert!(Layer::new(
            "up",
            LayerKind::Upsample { factor: 0 },
            TensorShape::chw(3, 8, 8)
        )
        .is_err());
        assert!(Layer::new(
            "conv",
            LayerKind::Conv(ConvSpec::strided(8, 9, 1, 0, BiasKind::None)),
            TensorShape::chw(3, 4, 4)
        )
        .is_err());
    }

    #[test]
    fn major_vs_fusible_classification() {
        assert!(LayerKind::Conv(ConvSpec::same(8, 3, BiasKind::None)).is_major());
        assert!(LayerKind::Upsample { factor: 2 }.is_major());
        assert!(LayerKind::Activation(ActivationKind::Relu).is_fusible());
        assert!(LayerKind::Reshape {
            target: TensorShape::flat(1)
        }
        .is_fusible());
    }
}
