//! The `OPC_*` environment-knob surface, consolidated.
//!
//! Every runtime knob that can change behaviour lives behind a typed
//! accessor here, so the determinism surface stays auditable in one
//! place: opclint's `env-read` rule confines `std::env::var("OPC_*")`
//! reads to designated `knobs` modules. Knobs only choose *deployment*
//! details (fan-out width, where calibration snapshots live) — results
//! are bit-identical across every setting; that invariant is what CI's
//! thread-count rows pin.
//!
//! | knob | accessor | default |
//! |---|---|---|
//! | `OPC_CAL_CACHE` | [`cal_cache`] | default store under `target/` |
//! | `OPC_OVERSUBSCRIBE` | [`oversubscribe`] | off (on only at `1`) |
//! | `OPC_THREADS` | [`threads`] | unset (available parallelism) |

/// Resolved `OPC_CAL_CACHE` setting for the persistent calibration store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalCacheKnob {
    /// Snapshots disabled (`0`/`off`/`false`).
    Disabled,
    /// Store rooted at an explicit directory.
    Dir(String),
    /// Unset or empty: the default store under `target/`.
    Default,
}

/// `OPC_CAL_CACHE`: where (whether) calibration snapshots persist.
pub fn cal_cache() -> CalCacheKnob {
    match std::env::var("OPC_CAL_CACHE") {
        Ok(v) if matches!(v.trim(), "0" | "off" | "false") => CalCacheKnob::Disabled,
        Ok(v) if !v.trim().is_empty() => CalCacheKnob::Dir(v.trim().to_string()),
        _ => CalCacheKnob::Default,
    }
}

/// `OPC_OVERSUBSCRIBE`: lift the physical-core clamp on pool fan-out
/// (CI uses this so 4-thread rows exercise real parallelism on small
/// runners). On only at exactly `1`.
pub fn oversubscribe() -> bool {
    std::env::var("OPC_OVERSUBSCRIBE").is_ok_and(|v| v.trim() == "1")
}

/// `OPC_THREADS`: explicit worker count for [`crate::ShotPool`];
/// `None` (unset/unparsable/zero) means use available parallelism.
pub fn threads() -> Option<usize> {
    std::env::var("OPC_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}
