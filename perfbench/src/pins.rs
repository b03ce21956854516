//! Digests of every simulated run at the default seed, taken from the
//! unmodified library when the benchmark was added. A change that moves
//! any simulated output — a latency, a count, a ledger byte, one lifecycle
//! event — moves a digest and fails the benchmark's output check.
//!
//! To re-pin after a deliberate change to simulated behaviour, run each
//! workload at `--seed 42` (and `--scale tiny`) and copy its `digest` lines
//! here.

use crate::Scale;

/// (run label, digest) at [`crate::DEFAULT_SEED`], standard scale.
const STANDARD: &[(&str, u64)] = &[
    ("worker-paper/Hipster/Jord", 0x47c5894c5ccd72e1),
    ("worker-paper/Hotel/Jord", 0x0320019cdafbe93c),
    ("worker-paper/Media/Jord", 0x633f9d557ebe35da),
    ("worker-paper/Social/Jord", 0x27925a944687268b),
    ("worker-paper/Hipster/Jord_NI", 0x06e5f35b74dc73db),
    ("worker-paper/Hotel/Jord_NI", 0xbfb7e175c043f84e),
    ("worker-paper/Media/Jord_NI", 0x6595ff7e4392ad00),
    ("worker-paper/Social/Jord_NI", 0x9b01ada4116e84f5),
    ("worker-paper/Hipster/Jord_BT", 0xa0f983f57e752383),
    ("worker-paper/Hotel/Jord_BT", 0x1899b9c2df7d3d28),
    ("worker-paper/Media/Jord_BT", 0xfdfe1783efc27129),
    ("worker-paper/Social/Jord_BT", 0xddea8c9c9cee97bc),
    ("worker-paper/Hipster/NightCore", 0x01af7d24cde6eea2),
    ("worker-paper/Hotel/NightCore", 0x8dca6deb33b3cb8b),
    ("worker-paper/Media/NightCore", 0x6f26ee196e1b7d4d),
    ("worker-paper/Social/NightCore", 0x631a267b22e019ff),
    ("soak-sanitize", 0x78d5bf6d41e00a0d),
];

/// (run label, digest) at [`crate::DEFAULT_SEED`], tiny scale.
const TINY: &[(&str, u64)] = &[
    ("worker-paper/Hipster/Jord", 0xeb78a5b78925c72f),
    ("worker-paper/Hotel/Jord", 0x98fc37b8c6c1cfc6),
    ("worker-paper/Media/Jord", 0x4340cef257bc2c4d),
    ("worker-paper/Social/Jord", 0x22da163599fc5e84),
    ("worker-paper/Hipster/Jord_NI", 0x5992f1617a7ecfaf),
    ("worker-paper/Hotel/Jord_NI", 0xbfa41b6c01cf110e),
    ("worker-paper/Media/Jord_NI", 0x32e9143eec5a6385),
    ("worker-paper/Social/Jord_NI", 0x484f6cc6ed313768),
    ("worker-paper/Hipster/Jord_BT", 0x6fd5c1b186226642),
    ("worker-paper/Hotel/Jord_BT", 0x5a81efacdcc23910),
    ("worker-paper/Media/Jord_BT", 0x82a8b0e50a9d9189),
    ("worker-paper/Social/Jord_BT", 0x44b73982ff2382d3),
    ("worker-paper/Hipster/NightCore", 0x67f8f0d9944c8da3),
    ("worker-paper/Hotel/NightCore", 0x330836bdd791323d),
    ("worker-paper/Media/NightCore", 0x9d1318e24ad09b47),
    ("worker-paper/Social/NightCore", 0xbd36a71c4cfa876d),
    ("soak-sanitize", 0xa445ad146bf9b04c),
];

/// A problem if `label`'s digest at `scale` differs from its pin (or has
/// none).
pub fn check(scale: Scale, label: &str, digest: u64) -> Option<String> {
    let pins = match scale {
        Scale::Standard => STANDARD,
        Scale::Tiny => TINY,
    };
    match pins.iter().find(|(l, _)| *l == label) {
        Some(&(_, pin)) if pin == digest => None,
        Some(&(_, pin)) => Some(format!("pinned digest {pin:#018x} != {digest:#018x}")),
        None => Some(format!("no pinned digest (got {digest:#018x})")),
    }
}
