//! Golden annotation digests: small deterministically trained OTA and RF
//! models annotate seeded OTA, RF-receiver, SC-filter and paper-scale
//! phased-array circuits, and one mixed batch runs through
//! `Pipeline::predict_samples`. Every `report::full_report` and prediction
//! vector is folded into a `StableSip` digest and compared against a
//! recorded constant, so any change to inference numerics, to the order of
//! operations, or to postprocessing shows up as a digest mismatch.
//!
//! The constants must hold under every kernel dispatch (`GANA_KERNEL=scalar`
//! included), because the kernels are byte-identical by contract.

use gana::core::{report, Pipeline, RecognizedDesign, Task};
use gana::datasets::{ota, ota_classes, phased_array, rf, rf_classes, sc_filter, LabeledCircuit};
use gana::eval;
use gana::gnn::{GcnConfig, TrainerConfig};
use gana::incremental::Digest;
use std::sync::OnceLock;

fn train(task: Task) -> Pipeline {
    let (corpus, classes, names, batch_norm, seed) = match task {
        Task::OtaBias => (ota::corpus(24, 1), 2, &ota_classes::NAMES[..], false, 7),
        Task::Rf => (rf::corpus(24, 2), 3, &rf_classes::NAMES[..], true, 9),
    };
    let model_config = GcnConfig {
        conv_channels: vec![8, 16],
        filter_order: 8,
        fc_dim: 32,
        num_classes: classes,
        dropout: 0.0,
        batch_norm,
        ..GcnConfig::default()
    };
    let trainer_config = TrainerConfig {
        epochs: 4,
        learning_rate: 5e-3,
        ..TrainerConfig::default()
    };
    let trainer =
        eval::train_on_corpus(&corpus, model_config, trainer_config, seed).expect("training runs");
    eval::make_pipeline(trainer, names, task)
}

fn ota_pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| train(Task::OtaBias))
}

fn rf_pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| train(Task::Rf))
}

fn design_digest(digest: &mut Digest, design: &RecognizedDesign) {
    digest.write(report::full_report(design));
    digest.write(&design.gcn_class);
}

/// Recognizes every circuit and digests its report and raw predictions.
fn recognize_digest(pipeline: &Pipeline, circuits: &[LabeledCircuit]) -> String {
    let mut digest = Digest::new();
    for lc in circuits {
        let design = pipeline.recognize(&lc.circuit).expect("recognizes");
        design_digest(&mut digest, &design);
    }
    format!("{:032x}", digest.finish())
}

#[test]
fn ota_and_sc_filter_annotations_match_golden() {
    let pipeline = ota_pipeline();
    let otas = recognize_digest(pipeline, &ota::corpus(4, 31_337).samples);
    let sc = recognize_digest(pipeline, &[sc_filter::generate(3)]);
    assert_eq!(
        [otas.as_str(), sc.as_str()],
        [
            "bf904fea9fc5c1d36b4bef304a914a8a",
            "c231dc154b92a0cd29dce1574dcb4328"
        ],
        "OTA / SC-filter digests"
    );
}

#[test]
fn rf_receiver_and_phased_array_annotations_match_golden() {
    let pipeline = rf_pipeline();
    let receivers = recognize_digest(pipeline, &rf::corpus(4, 27_182).samples);
    let array = recognize_digest(pipeline, &[phased_array::generate(0)]);
    assert_eq!(
        [receivers.as_str(), array.as_str()],
        [
            "2ce18404ff02c99aeec5813f9724591a",
            "a96a5aab86d48d7c3400c77989c2668f"
        ],
        "RF receiver / phased-array digests"
    );
}

#[test]
fn mixed_batch_predictions_match_golden_and_per_sample_runs() {
    let pipeline = rf_pipeline();
    let mut circuits = rf::corpus(3, 16_180).samples;
    circuits.insert(1, phased_array::generate_with_channels(2, 5));
    let samples: Vec<_> = circuits
        .iter()
        .map(|lc| pipeline.prepare(&lc.circuit).expect("prepares").2)
        .collect();
    let refs: Vec<_> = samples.iter().collect();
    let batched = pipeline.predict_samples(&refs).expect("predicts");
    for (sample, preds) in samples.iter().zip(&batched) {
        assert_eq!(&pipeline.predict_sample(sample).expect("predicts"), preds);
    }
    let mut digest = Digest::new();
    digest.write(&batched);
    assert_eq!(
        format!("{:032x}", digest.finish()),
        "901899c6b2e92adc420cba223b7a76b0",
        "mixed-batch digest"
    );
}
