//! Builtin manifests and app-name resolution.
//!
//! Each builtin app is the checked-in `manifests/<name>.json`, embedded at
//! compile time and parsed on demand by the same front-end as any manifest
//! file: the JSON *is* the definition. For `h264`, `fft`, `cipher` and
//! `toy` the hand-built constructors in `mrts-workload` remain as oracles;
//! `tests/ingest_goldens.rs` pins that lowering the manifest reproduces
//! them byte for byte. `cv` (a stereo/optical-flow pipeline) and
//! `cryptomix` (a bursty crypto+compression server mix) have no
//! constructor twin.

use crate::manifest::Manifest;
use crate::model::ManifestModel;
use crate::IngestError;

/// The builtin app names, in registry order.
pub const BUILTIN_APPS: [&str; 6] = ["h264", "fft", "cipher", "toy", "cv", "cryptomix"];

/// The embedded manifest text for builtin `name`.
fn embedded(name: &str) -> Option<&'static str> {
    Some(match name {
        "h264" => include_str!("../../../manifests/h264.json"),
        "fft" => include_str!("../../../manifests/fft.json"),
        "cipher" => include_str!("../../../manifests/cipher.json"),
        "toy" => include_str!("../../../manifests/toy.json"),
        "cv" => include_str!("../../../manifests/cv.json"),
        "cryptomix" => include_str!("../../../manifests/cryptomix.json"),
        _ => return None,
    })
}

/// Resolves `spec` — a builtin app name or a manifest file path — to a
/// manifest. A spec containing `/` or ending in `.json` is treated as a
/// path; anything else must be a builtin name.
///
/// # Errors
///
/// [`IngestError::Io`] for unknown names/unreadable files, parse errors
/// otherwise (builtins included).
pub fn load(spec: &str) -> Result<Manifest, IngestError> {
    if let Some(text) = embedded(spec) {
        return Manifest::from_json(text);
    }
    if spec.contains('/') || spec.ends_with(".json") {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| IngestError::Io(format!("cannot read manifest '{spec}': {e}")))?;
        return Manifest::from_json(&text);
    }
    Err(IngestError::Io(format!(
        "unknown app '{spec}' (h264|fft|cipher|toy|cv|cryptomix or a manifest path)"
    )))
}

/// Resolves `spec` (see [`load`]) and lowers it to a ready workload model —
/// the single entry point the CLI, fleet registry and benches share.
///
/// # Errors
///
/// Propagates [`load`] and pipeline errors.
pub fn model(spec: &str) -> Result<ManifestModel, IngestError> {
    ManifestModel::new(&load(spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_workload::WorkloadModel;

    #[test]
    fn resolution_understands_names_and_rejects_junk() {
        for name in BUILTIN_APPS {
            assert!(model(name).is_ok(), "{name} resolves and lowers");
        }
        let err = model("bogus").unwrap_err();
        assert!(err.to_string().contains("unknown app 'bogus'"));
        assert!(model("no/such/file.json").is_err());
    }

    #[test]
    fn new_domains_have_the_intended_shape() {
        let cv = model("cv").expect("cv lowers");
        assert_eq!(cv.application().kernel_count(), 6);
        assert_eq!(cv.application().blocks().len(), 3);
        let mix = model("cryptomix").expect("cryptomix lowers");
        assert_eq!(mix.application().kernel_count(), 5);
        assert_eq!(mix.application().blocks().len(), 2);
        assert_eq!(mix.application().name(), "crypto_mix");
    }
}
