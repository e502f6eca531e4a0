//! Workload descriptors: what to run, with which inputs, and which memory
//! regions constitute the observable output (for SDC classification).

use tinyir::Module;

/// A runnable scientific workload (Table 1 of the paper).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name ("HPCCG", "CoMD", ...).
    pub name: &'static str,
    /// The TinyIR program.
    pub module: Module,
    /// Entry function (conventionally `main`).
    pub entry: &'static str,
    /// Raw-bit arguments for the entry function.
    pub args: Vec<u64>,
    /// Output regions compared bit-for-bit against the golden run to detect
    /// SDCs: `(global name, bytes)`.
    pub outputs: Vec<(String, u64)>,
}

impl Workload {
    /// Construct a descriptor.
    pub fn new(
        name: &'static str,
        module: Module,
        args: Vec<u64>,
        outputs: Vec<(&str, u64)>,
    ) -> Workload {
        Workload {
            name,
            module,
            entry: "main",
            args,
            outputs: outputs.into_iter().map(|(n, b)| (n.to_string(), b)).collect(),
        }
    }
}

/// Deterministic pseudo-random f64 in `(-1, 1)` for initial data (a host-
/// side splitmix64 so goldens are stable across platforms).
pub fn init_f64(seed: u64, i: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Map to (-1, 1) with 53-bit resolution.
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Deterministic pseudo-random f32 in `(-1, 1)`.
pub fn init_f32(seed: u64, i: u64) -> f32 {
    init_f64(seed, i) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_data_is_deterministic_and_bounded() {
        for i in 0..1000 {
            let a = init_f64(42, i);
            assert_eq!(a, init_f64(42, i));
            assert!((-1.0..1.0).contains(&a), "{a}");
        }
        assert_ne!(init_f64(1, 0), init_f64(2, 0));
    }
}
