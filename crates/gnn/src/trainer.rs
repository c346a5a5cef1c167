//! Training loop: epochs over a corpus of circuit graphs, 80/20 splits,
//! accuracy tracking (paper Section V-A).

use crate::metrics::accuracy;
use crate::model::{GcnConfig, GcnModel};
use crate::optimizer::{Adam, Optimizer};
use crate::sample::GraphSample;
use crate::workspace::GnnWorkspace;
use crate::{GnnError, Result};
use gana_par::Parallelism;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training-loop hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Learning-rate decay factor applied each epoch (1.0 = none).
    pub lr_decay: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Stop early when training accuracy reaches this level (1.1 disables).
    pub target_accuracy: f64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 40,
            learning_rate: 5e-3,
            lr_decay: 0.97,
            seed: 0,
            target_accuracy: 1.1,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over samples.
    pub train_loss: f64,
    /// Vertex-level training accuracy.
    pub train_accuracy: f64,
    /// Vertex-level validation accuracy (1.0 when no validation set).
    pub validation_accuracy: f64,
}

/// Trains a [`GcnModel`] over a set of [`GraphSample`]s.
#[derive(Debug)]
pub struct Trainer {
    model: GcnModel,
    config: TrainerConfig,
    history: Vec<EpochStats>,
}

impl Trainer {
    /// Creates a trainer with a freshly initialized model.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn new(model_config: GcnConfig, config: TrainerConfig) -> Result<Trainer> {
        Ok(Trainer {
            model: GcnModel::new(model_config)?,
            config,
            history: Vec::new(),
        })
    }

    /// Wraps an existing model (e.g. to continue training).
    pub fn with_model(model: GcnModel, config: TrainerConfig) -> Trainer {
        Trainer {
            model,
            config,
            history: Vec::new(),
        }
    }

    /// Splits samples 80/20 into train/validation, as in the paper
    /// ("the input data is split into an 80%:20% ratio").
    pub fn split_80_20(
        samples: &[GraphSample],
        seed: u64,
    ) -> (Vec<&GraphSample>, Vec<&GraphSample>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut refs: Vec<&GraphSample> = samples.iter().collect();
        refs.shuffle(&mut rng);
        let n_val = samples.len() / 5;
        let val = refs.split_off(refs.len() - n_val);
        (refs, val)
    }

    /// Runs the training loop; returns per-epoch statistics.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::EmptyDataset`] when `train` is empty and
    /// propagates model errors (including NaN detection).
    pub fn fit(
        &mut self,
        train: &[&GraphSample],
        validation: &[&GraphSample],
    ) -> Result<Vec<EpochStats>> {
        if train.is_empty() {
            return Err(GnnError::EmptyDataset);
        }
        let mut optimizer = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            let mut correct = 0usize;
            let mut labeled = 0usize;
            for &i in &order {
                let sample = train[i];
                let step = self.model.train_step(sample)?;
                loss_sum += step.loss;
                for (p, l) in step.predictions.iter().zip(&sample.labels) {
                    if let Some(y) = l {
                        labeled += 1;
                        if p == y {
                            correct += 1;
                        }
                    }
                }
                let mut params = self.model.flatten_params();
                optimizer.step(&mut params, &step.grads.flatten());
                self.model.apply_flat_params(&params)?;
            }
            optimizer.decay(self.config.lr_decay);
            let train_accuracy = if labeled == 0 {
                1.0
            } else {
                correct as f64 / labeled as f64
            };
            let validation_accuracy = self.evaluate(validation)?;
            let stats = EpochStats {
                epoch,
                train_loss: loss_sum / train.len() as f64,
                train_accuracy,
                validation_accuracy,
            };
            self.history.push(stats);
            if train_accuracy >= self.config.target_accuracy {
                break;
            }
        }
        Ok(self.history.clone())
    }

    /// Vertex-level accuracy of the current model over `samples`
    /// (1.0 for an empty set).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn evaluate(&self, samples: &[&GraphSample]) -> Result<f64> {
        if samples.is_empty() {
            return Ok(1.0);
        }
        let mut correct = 0usize;
        let mut labeled = 0usize;
        let par = Parallelism::serial();
        let mut ws = GnnWorkspace::new();
        for sample in samples {
            let preds = self.model.predict_into(&par, &[sample], &mut ws)?;
            for (p, l) in preds.iter().zip(&sample.labels) {
                if let Some(y) = l {
                    labeled += 1;
                    if p == y {
                        correct += 1;
                    }
                }
            }
        }
        Ok(if labeled == 0 {
            1.0
        } else {
            correct as f64 / labeled as f64
        })
    }

    /// Per-sample accuracies (used by the experiment reports).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn per_sample_accuracy(&self, samples: &[&GraphSample]) -> Result<Vec<f64>> {
        let par = Parallelism::serial();
        let mut ws = GnnWorkspace::new();
        samples
            .iter()
            .map(|s| {
                let preds = self.model.predict_into(&par, &[s], &mut ws)?;
                Ok(accuracy(&preds, &s.labels))
            })
            .collect()
    }

    /// The trained model.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// Consumes the trainer and returns the model.
    pub fn into_model(self) -> GcnModel {
        self.model
    }

    /// Training history so far.
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use gana_graph::{CircuitGraph, GraphOptions};
    use gana_netlist::parse;

    fn toy_samples() -> Vec<GraphSample> {
        // Two-class toy problem: current-mirror vertices vs everything else,
        // over a few structurally different circuits.
        let sources = [
            "M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\nR1 d2 out 10k\n",
            "M0 a a gnd! gnd! NMOS\nM1 b a gnd! gnd! NMOS\nC1 b out 1p\n",
            "M0 x x gnd! gnd! NMOS\nM1 y x gnd! gnd! NMOS\nR1 y o1 1k\nR2 o1 o2 1k\n",
            "M0 p p gnd! gnd! NMOS\nM1 q p gnd! gnd! NMOS\nC1 q oo 10p\nR1 oo vdd! 1k\n",
        ];
        sources
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let c = parse(src).expect("valid");
                let g = CircuitGraph::build(&c, GraphOptions::default());
                let labels = (0..g.vertex_count())
                    .map(|v| {
                        let is_mirror = g
                            .device_name(v)
                            .map(|n| n.starts_with('M'))
                            .unwrap_or(false);
                        Some(usize::from(!is_mirror))
                    })
                    .collect();
                GraphSample::prepare(format!("toy{i}"), &c, &g, labels, 1, i as u64)
                    .expect("prepares")
            })
            .collect()
    }

    fn toy_config() -> GcnConfig {
        GcnConfig {
            input_dim: 18,
            conv_channels: vec![8],
            filter_order: 3,
            fc_dim: 16,
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.0,
            batch_norm: false,
            weight_decay: 0.0,
            seed: 3,
        }
    }

    #[test]
    fn training_improves_accuracy_on_toy_task() {
        let samples = toy_samples();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let mut trainer = Trainer::new(
            toy_config(),
            TrainerConfig {
                epochs: 60,
                learning_rate: 0.01,
                ..TrainerConfig::default()
            },
        )
        .expect("valid");
        let history = trainer.fit(&refs, &[]).expect("trains");
        let last = history.last().expect("ran epochs");
        // Stride-2 pooling quantizes predictions to vertex pairs, so the
        // ceiling on these tiny graphs is below 1.0; 0.7 demonstrates
        // genuine learning over the ~0.5 chance level.
        assert!(
            last.train_accuracy > 0.7,
            "toy task should be mostly solvable, got {}",
            last.train_accuracy
        );
        assert!(last.train_loss < history[0].train_loss);
    }

    #[test]
    fn split_80_20_proportions() {
        let samples = toy_samples();
        let (train, val) = Trainer::split_80_20(&samples, 0);
        assert_eq!(train.len() + val.len(), samples.len());
        assert_eq!(val.len(), samples.len() / 5);
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let mut trainer = Trainer::new(toy_config(), TrainerConfig::default()).expect("valid");
        assert!(matches!(trainer.fit(&[], &[]), Err(GnnError::EmptyDataset)));
    }

    #[test]
    fn early_stop_on_target_accuracy() {
        let samples = toy_samples();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let mut trainer = Trainer::new(
            toy_config(),
            TrainerConfig {
                epochs: 500,
                learning_rate: 0.01,
                target_accuracy: 0.6,
                ..TrainerConfig::default()
            },
        )
        .expect("valid");
        let history = trainer.fit(&refs, &[]).expect("trains");
        assert!(history.len() < 500, "early stop must trigger");
    }

    #[test]
    fn evaluate_empty_is_one() {
        let trainer = Trainer::new(toy_config(), TrainerConfig::default()).expect("valid");
        assert_eq!(trainer.evaluate(&[]).expect("ok"), 1.0);
    }
}
