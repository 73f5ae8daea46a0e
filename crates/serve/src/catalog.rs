//! Short-name resolution for devices, backends and networks.
//!
//! The single source of truth for the wire/CLI names; `src/cli.rs`
//! delegates here so the daemon and the one-shot commands agree on both
//! the names and the error messages.

use pruneperf_backends::{AclAuto, AclDirect, AclDirectTuned, AclGemm, ConvBackend, Cudnn, Tvm};
use pruneperf_gpusim::Device;
use pruneperf_models::{alexnet, mobilenet_v1, resnet50, vgg16, Network};

/// A catalog entry: its short name and a constructor.
type Entry<T> = (&'static str, fn() -> T);

const DEVICES: [Entry<Device>; 4] = [
    ("hikey970", Device::mali_g72_hikey970),
    ("odroidxu4", Device::mali_t628_odroidxu4),
    ("tx2", Device::jetson_tx2),
    ("nano", Device::jetson_nano),
];

const BACKENDS: [Entry<Box<dyn ConvBackend>>; 6] = [
    ("acl-gemm", || Box::new(AclGemm::new())),
    ("acl-direct", || Box::new(AclDirect::new())),
    ("acl-direct-tuned", || Box::new(AclDirectTuned::new())),
    ("acl-auto", || Box::new(AclAuto::new())),
    ("cudnn", || Box::new(Cudnn::new())),
    ("tvm", || Box::new(Tvm::new())),
];

const NETWORKS: [Entry<Network>; 4] = [
    ("resnet50", resnet50),
    ("vgg16", vgg16),
    ("alexnet", alexnet),
    ("mobilenetv1", mobilenet_v1),
];

/// Number of catalog networks; network slots are `0..NETWORK_SLOTS`.
pub const NETWORK_SLOTS: usize = NETWORKS.len();

/// Number of (device, backend, network) triples; see [`triple_slot`].
pub const TRIPLE_SLOTS: usize = DEVICES.len() * BACKENDS.len() * NETWORKS.len();

/// The position of one resolved (device, backend, network) triple in
/// `0..TRIPLE_SLOTS`, from the three catalog slots the `*_with_slot`
/// resolvers return.
pub fn triple_slot(device: usize, backend: usize, network: usize) -> usize {
    (device * BACKENDS.len() + backend) * NETWORKS.len() + network
}

/// Constructs the entry named `name` along with its catalog position.
fn lookup<T>(table: &[Entry<T>], name: &str) -> Option<(usize, T)> {
    table
        .iter()
        .enumerate()
        .find(|(_, (short, _))| *short == name)
        .map(|(slot, (_, make))| (slot, make()))
}

/// The user-facing refusal for an unknown `kind` name, listing the
/// known ones.
fn unknown<T>(kind: &str, name: &str, table: &[Entry<T>]) -> String {
    let known: Vec<&str> = table.iter().map(|(short, _)| *short).collect();
    format!("unknown {kind} '{name}' (expected {})", known.join(" | "))
}

/// The CLI short names, paired with their devices.
pub fn named_devices() -> [(&'static str, Device); 4] {
    DEVICES.map(|(short, make)| (short, make()))
}

/// Resolves a device short name (with the paper's GPU aliases) to its
/// device and catalog slot; an alias shares its board's slot.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn device_with_slot(name: &str) -> Result<(usize, Device), String> {
    let resolved = match name {
        "g72" => "hikey970",
        "t628" => "odroidxu4",
        other => other,
    };
    lookup(&DEVICES, resolved).ok_or_else(|| unknown("device", name, &DEVICES))
}

/// Resolves a backend short name to its backend and catalog slot.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn backend_with_slot(name: &str) -> Result<(usize, Box<dyn ConvBackend>), String> {
    lookup(&BACKENDS, name).ok_or_else(|| unknown("backend", name, &BACKENDS))
}

/// Resolves a network short name to its network and catalog slot.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn network_with_slot(name: &str) -> Result<(usize, Network), String> {
    lookup(&NETWORKS, name).ok_or_else(|| unknown("network", name, &NETWORKS))
}

/// Resolves a device short name (with the paper's GPU aliases).
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn device_by_name(name: &str) -> Result<Device, String> {
    device_with_slot(name).map(|(_, d)| d)
}

/// Resolves a backend short name.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn backend_by_name(name: &str) -> Result<Box<dyn ConvBackend>, String> {
    backend_with_slot(name).map(|(_, b)| b)
}

/// Resolves a network short name.
///
/// # Errors
///
/// Returns a user-facing message listing the known names.
pub fn network_by_name(name: &str) -> Result<Network, String> {
    network_with_slot(name).map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve_to_boards() {
        assert_eq!(
            device_by_name("g72").unwrap().name(),
            device_by_name("hikey970").unwrap().name()
        );
        assert_eq!(
            device_by_name("t628").unwrap().name(),
            device_by_name("odroidxu4").unwrap().name()
        );
        assert!(device_by_name("rtx4090")
            .unwrap_err()
            .contains("unknown device"));
    }

    #[test]
    fn all_catalog_names_resolve() {
        for (short, _) in named_devices() {
            assert!(device_by_name(short).is_ok());
        }
        for b in [
            "acl-gemm",
            "acl-direct",
            "acl-direct-tuned",
            "acl-auto",
            "cudnn",
            "tvm",
        ] {
            assert!(backend_by_name(b).is_ok());
        }
        for n in ["resnet50", "vgg16", "alexnet", "mobilenetv1"] {
            assert!(network_by_name(n).is_ok());
        }
        assert_eq!(
            backend_by_name("mkl").err().as_deref(),
            Some("unknown backend 'mkl' (expected acl-gemm | acl-direct | acl-direct-tuned | acl-auto | cudnn | tvm)")
        );
        assert_eq!(
            network_by_name("lenet").err().as_deref(),
            Some("unknown network 'lenet' (expected resnet50 | vgg16 | alexnet | mobilenetv1)")
        );
        assert_eq!(
            device_by_name("rtx").err().as_deref(),
            Some("unknown device 'rtx' (expected hikey970 | odroidxu4 | tx2 | nano)")
        );
    }

    #[test]
    fn triple_slots_are_distinct_and_in_range() {
        let mut seen = [false; TRIPLE_SLOTS];
        for d in 0..DEVICES.len() {
            for b in 0..BACKENDS.len() {
                for n in 0..NETWORKS.len() {
                    let slot = triple_slot(d, b, n);
                    assert!(!seen[slot], "slot {slot} assigned twice");
                    seen[slot] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(
            device_with_slot("g72").unwrap().0,
            device_with_slot("hikey970").unwrap().0
        );
        assert_eq!(
            device_with_slot("t628").unwrap().0,
            device_with_slot("odroidxu4").unwrap().0
        );
    }
}
