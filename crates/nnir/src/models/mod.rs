//! Ready-made networks used throughout the F-CAD paper.
//!
//! * [`targeted_decoder`] — the three-branch codec avatar decoder of Table I
//!   (facial geometry, UV texture, warp field), including the customized
//!   Conv layers with untied bias.
//! * [`mimic_decoder`] — the decoder variant used to evaluate DNNBuilder and
//!   HybridDNN in Sec. III: customized Conv replaced by conventional Conv,
//!   everything else unchanged.
//! * [`alexnet`], [`zfnet`], [`vgg16`] and [`tiny_yolo`] (all four from
//!   [`classic_benchmarks`]) — the single-branch benchmarks used to
//!   validate the analytical performance model in Figs. 6 and 7.

mod classic;
mod decoder;

pub use classic::{alexnet, classic_benchmarks, tiny_yolo, vgg16, zfnet};
pub use decoder::{mimic_decoder, targeted_decoder, DECODER_BRANCH_NAMES};
