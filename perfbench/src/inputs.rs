//! Seeded workload inputs: distinct netlists of the four circuit families
//! and distinct single edits of a design.
//!
//! Everything here derives from the workload seed, so one seed always
//! yields the same inputs. The program under test only ever sees the
//! generated SPICE text or circuits.

use gana::core::Task;
use gana::datasets::mutate::{self, MutationConfig};
use gana::datasets::{ota, phased_array, rf, sc_filter, LabeledCircuit};
use gana::graph::features::value_magnitude;
use gana::netlist::{write_spice, Circuit, Device, DeviceKind, SpiceLibrary};
use std::collections::HashSet;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream seed from a workload seed and a label.
pub fn stream(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Label of the warm-up input stream, disjoint from every measured one.
pub const WARMUP: u64 = 0x5741_524D;

/// One generated circuit family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Ota,
    Rf,
    ScFilter,
    PhasedArray,
}

impl Family {
    pub const ALL: [Family; 4] = [
        Family::Ota,
        Family::Rf,
        Family::ScFilter,
        Family::PhasedArray,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Ota => "ota",
            Family::Rf => "rf",
            Family::ScFilter => "sc-filter",
            Family::PhasedArray => "phased-array",
        }
    }

    /// The model that annotates the family, as in the paper's Table II:
    /// the SC filter's OTA is scored by the OTA/bias model.
    pub fn task(self) -> Task {
        match self {
            Family::Ota | Family::ScFilter => Task::OtaBias,
            Family::Rf | Family::PhasedArray => Task::Rf,
        }
    }

    /// Generates a member of the family from `seed`.
    pub fn generate(self, seed: u64) -> LabeledCircuit {
        let mut rng = Rng::new(seed);
        match self {
            Family::Ota => ota::generate(ota::OtaSpec {
                topology: ota::OtaTopology::ALL[rng.below(6)],
                pmos_input: rng.below(2) == 1,
                bias: ota::BiasStyle::ALL[rng.below(4)],
                seed,
            }),
            Family::Rf => rf::generate(rf::ReceiverSpec {
                lna: rf::LnaKind::ALL[rng.below(3)],
                mixer: rf::MixerKind::ALL[rng.below(3)],
                osc: rf::OscKind::ALL[rng.below(3)],
                seed,
            }),
            // The SC filter is one fixed design; seeded sizing jitter and
            // foldable dummies/decaps make every copy distinct.
            Family::ScFilter => {
                mutate::apply(sc_filter::generate(seed), MutationConfig::default(), seed)
            }
            Family::PhasedArray => phased_array::generate(seed),
        }
    }
}

/// RF-receiver variants: three LNAs × three mixers × three oscillators.
pub const RECEIVER_VARIANTS: usize = 27;

/// The RF receiver of variant `variant` (below [`RECEIVER_VARIANTS`]):
/// seeds vary sizing and values, never the topology.
pub fn receiver(variant: usize, seed: u64) -> LabeledCircuit {
    rf::generate(rf::ReceiverSpec {
        lna: rf::LnaKind::ALL[variant % 3],
        mixer: rf::MixerKind::ALL[variant / 3 % 3],
        osc: rf::OscKind::ALL[variant / 9 % 3],
        seed,
    })
}

/// The cold-mix proportions: the paper's Table II test set, 168 OTA/bias
/// circuits, 105 RF receivers, one SC filter and one phased array, 275
/// designs in all.
const TEST_SET: [(Family, usize); 4] = [
    (Family::Ota, 168),
    (Family::Rf, 105),
    (Family::ScFilter, 1),
    (Family::PhasedArray, 1),
];

/// One cycle of the cold mix: the [`TEST_SET`] counts, interleaved so each
/// family is spread evenly over the cycle (at every step the family
/// furthest behind its share comes next).
pub fn cold_cycle() -> Vec<Family> {
    let total: usize = TEST_SET.iter().map(|&(_, n)| n).sum();
    let mut taken = [0usize; TEST_SET.len()];
    (1..=total)
        .map(|step| {
            let behind = |i: usize| (step * TEST_SET[i].1) as f64 / total as f64 - taken[i] as f64;
            let next = (0..TEST_SET.len())
                .max_by(|&a, &b| behind(a).total_cmp(&behind(b)).then(b.cmp(&a)))
                .expect("families");
            taken[next] += 1;
            TEST_SET[next].0
        })
        .collect()
}

/// One generated request.
pub struct Request {
    pub family: Family,
    /// The generator seed: [`Family::generate`] rebuilds the request.
    pub seed: u64,
    pub labeled: LabeledCircuit,
    pub spice: String,
}

impl Request {
    pub fn new(family: Family, seed: u64) -> Request {
        let labeled = family.generate(seed);
        let spice = write_spice(&SpiceLibrary::new(labeled.circuit.clone()));
        Request {
            family,
            seed,
            labeled,
            spice,
        }
    }
}

/// An endless stream of distinct requests in [`cold_cycle`] proportions.
/// Content repeats are skipped, so no two requests share their text.
pub struct ColdStream {
    rng: Rng,
    cycle: Vec<Family>,
    index: usize,
    seen: HashSet<u64>,
    pub repeats_skipped: u64,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            rng: Rng::new(seed),
            cycle: cold_cycle(),
            index: 0,
            seen: HashSet::new(),
            repeats_skipped: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let family = self.cycle[self.index % self.cycle.len()];
        self.index += 1;
        self.next_of(family)
    }

    /// The next distinct request of `family`, outside the cycle.
    pub fn next_of(&mut self, family: Family) -> Request {
        loop {
            let seed = self.rng.next_u64();
            let request = Request::new(family, seed);
            if self.seen.insert(text_hash(&request.spice)) {
                return request;
            }
            self.repeats_skipped += 1;
        }
    }
}

/// FNV-1a over the text: enough to detect exact repeats.
pub fn text_hash(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Single-edit kinds of the edit workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// New transistor width: folds to a full splice.
    Resize,
    /// An R, C or L value moved into another feature bucket: dirties the
    /// device's region and re-runs the GCN there.
    Revalue,
    /// A new capacitor between two signal nets: a structural edit.
    AddDevice,
}

impl EditKind {
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Resize => "resize",
            EditKind::Revalue => "revalue",
            EditKind::AddDevice => "add-device",
        }
    }
}

/// Name prefix of the capacitors add-device edits insert.
const ADDED: &str = "cbench";

/// Applies one seeded edit of `kind` to `circuit`, the latest state of a
/// session opened on `origin`. The session keeps its size: a resize draws
/// the new width around the transistor's width in `origin`, a revalue
/// replaces the value, and an add-device edit removes the capacitor the
/// session's previous add-device edit inserted before it adds a new one.
/// `serial` names added devices, so every added device is new. Returns
/// `None` when the circuit has nothing the edit can act on.
pub fn edit(
    circuit: &Circuit,
    origin: &Circuit,
    kind: EditKind,
    rng: &mut Rng,
    serial: u64,
) -> Option<Circuit> {
    let mut edited = circuit.clone();
    match kind {
        EditKind::Resize => {
            let transistors: Vec<usize> = indices(&edited, |d| d.kind().is_transistor());
            let device = &mut edited.devices_mut()[*pick(&transistors, rng)?];
            let w = origin
                .device(device.name())
                .and_then(|d| d.param("w"))
                .unwrap_or(1e-6);
            device.set_param("w", w * (1.05 + 0.9 * rng.unit()));
        }
        EditKind::Revalue => {
            let passives = indices(&edited, |d| {
                d.value()
                    .and_then(|v| value_magnitude(d.kind(), v))
                    .is_some()
            });
            let device = &mut edited.devices_mut()[*pick(&passives, rng)?];
            let kind = device.kind();
            let from = value_magnitude(kind, device.value()?)?;
            // Bucket edges per kind: [lo, hi) is the middle bucket.
            let lo = match kind {
                DeviceKind::Capacitor => 1e-12,
                DeviceKind::Resistor => 1e3,
                _ => 1e-9,
            };
            let to = (from + 1 + rng.below(2) as u8) % 3;
            // A value inside bucket `to`, drawn fresh for every edit.
            let value = lo * [0.1, 1.0, 100.0][to as usize] * (1.0 + 8.0 * rng.unit());
            debug_assert_eq!(value_magnitude(kind, value), Some(to));
            *device = device.clone().with_value(value);
        }
        EditKind::AddDevice => {
            edited
                .devices_mut()
                .retain(|d| !d.name().starts_with(ADDED));
            let nets: Vec<String> = edited
                .nets()
                .into_iter()
                .filter(|n| !edited.is_supply(n) && !edited.is_ground(n))
                .collect();
            if nets.len() < 2 {
                return None;
            }
            let a = rng.below(nets.len());
            let b = (a + 1 + rng.below(nets.len() - 1)) % nets.len();
            let device = Device::new(
                format!("{ADDED}{serial}"),
                DeviceKind::Capacitor,
                vec![nets[a].clone(), nets[b].clone()],
            )
            .ok()?
            .with_value(1e-12 * (1.0 + 50.0 * rng.unit()));
            edited.add_device(device).ok()?;
        }
    }
    Some(edited)
}

fn indices(circuit: &Circuit, keep: impl Fn(&Device) -> bool) -> Vec<usize> {
    (0..circuit.devices().len())
        .filter(|&i| keep(&circuit.devices()[i]))
        .collect()
}

fn pick<'a, T>(items: &'a [T], rng: &mut Rng) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.below(items.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_no_repeats() {
        let mut a = ColdStream::new(11);
        let mut b = ColdStream::new(11);
        let mut seen = HashSet::new();
        for _ in 0..20 {
            let (x, y) = (a.next_request(), b.next_request());
            assert_eq!(x.spice, y.spice);
            assert!(seen.insert(x.spice));
        }
    }

    #[test]
    fn cold_cycle_is_the_test_set() {
        let cycle = cold_cycle();
        assert_eq!(cycle.len(), 275);
        for (family, n) in TEST_SET {
            assert_eq!(cycle.iter().filter(|&&f| f == family).count(), n);
        }
        // Spread out: the two single designs sit well apart.
        let at = |f| cycle.iter().position(|&x| x == f).unwrap();
        assert!(at(Family::ScFilter).abs_diff(at(Family::PhasedArray)) > 50);
    }

    #[test]
    fn revalue_crosses_a_bucket() {
        let circuit = Family::Rf.generate(3).circuit;
        let mut rng = Rng::new(5);
        for serial in 0..20 {
            let edited =
                edit(&circuit, &circuit, EditKind::Revalue, &mut rng, serial).expect("edits");
            let moved = circuit
                .devices()
                .iter()
                .zip(edited.devices())
                .find(|(a, b)| a.value() != b.value())
                .expect("one value changed");
            let bucket = |d: &Device| value_magnitude(d.kind(), d.value().unwrap());
            assert_ne!(bucket(moved.0), bucket(moved.1));
        }
    }

    #[test]
    fn sessions_keep_their_size() {
        let origin = Family::Rf.generate(7).circuit;
        let mut circuit = origin.clone();
        let mut rng = Rng::new(9);
        for serial in 0..60 {
            let kind = [EditKind::Resize, EditKind::Revalue, EditKind::AddDevice][serial % 3];
            circuit = edit(&circuit, &origin, kind, &mut rng, serial as u64).expect("edits");
            assert!(circuit.devices().len() <= origin.devices().len() + 1);
            for device in circuit.devices() {
                if let (Some(w), Some(w0)) = (
                    device.param("w"),
                    origin.device(device.name()).and_then(|d| d.param("w")),
                ) {
                    assert!(w >= w0 && w < 2.0 * w0, "width drifts: {w} from {w0}");
                }
            }
        }
    }
}
