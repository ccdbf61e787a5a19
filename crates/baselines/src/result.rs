//! Common result type for all baseline accelerators.

/// Latency of one layer under a baseline accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerLatency {
    /// Layer name.
    pub name: String,
    /// Latency in cycles (or equivalent cycles at the accelerator clock).
    pub cycles: u64,
    /// MAC lanes the baseline allocated to the layer.
    pub lanes: usize,
    /// Whether the layer hit the baseline's parallelism ceiling (the
    /// "circled" layers of Fig. 3).
    pub at_parallelism_cap: bool,
}

/// Evaluation of a baseline accelerator on a network.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Baseline name (e.g. "DNNBuilder (8-bit)").
    pub name: String,
    /// DSP slices (or MAC units) used.
    pub dsp: usize,
    /// BRAM blocks used.
    pub bram: usize,
    /// Achieved throughput in frames per second.
    pub fps: f64,
    /// Hardware efficiency following Eq. 3.
    pub efficiency: f64,
    /// Per-layer latency breakdown (empty for baselines that do not expose
    /// one).
    pub layers: Vec<LayerLatency>,
}

impl BaselineResult {
    /// The layers that sit at the baseline's parallelism cap.
    pub fn capped_layers(&self) -> impl Iterator<Item = &LayerLatency> {
        self.layers.iter().filter(|l| l.at_parallelism_cap)
    }

    /// The slowest layer, if a per-layer breakdown exists.
    pub fn bottleneck(&self) -> Option<&LayerLatency> {
        self.layers.iter().max_by_key(|l| l.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck_is_the_slowest_layer() {
        let result = BaselineResult {
            name: "test".into(),
            dsp: 10,
            bram: 10,
            fps: 1.0,
            efficiency: 0.5,
            layers: vec![
                LayerLatency {
                    name: "a".into(),
                    cycles: 10,
                    lanes: 1,
                    at_parallelism_cap: false,
                },
                LayerLatency {
                    name: "b".into(),
                    cycles: 99,
                    lanes: 1,
                    at_parallelism_cap: true,
                },
            ],
        };
        assert_eq!(result.bottleneck().unwrap().name, "b");
        assert_eq!(result.capped_layers().count(), 1);
    }
}
