//! Seeded benchmark inputs derived from the built-in workload suite.
//!
//! Each app's kernel specs are public (`Workload::kernels`); putting the
//! seed into a kernel's name re-seeds its per-warp RNG and moves its base
//! address, so every seed yields a different trace with the same launch
//! geometry and instruction mix.

use swiftsim_trace::ApplicationTrace;
use swiftsim_workloads::{Scale, Workload};

/// The seeded variant of `workload` at `scale`, named after the workload.
pub fn seeded_app(workload: &Workload, scale: Scale, seed: u64) -> ApplicationTrace {
    let kernels = workload
        .kernels()
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            spec.name = format!("{}@{seed}", spec.name);
            spec.generate(scale)
        })
        .collect();
    ApplicationTrace::new(workload.name, kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::TraceSource;

    fn hash(seed: u64) -> u64 {
        let w = swiftsim_workloads::by_name("bfs").expect("bfs is in the suite");
        let app = seeded_app(&w, Scale::Tiny, seed);
        TraceSource::content_hash(&app).expect("in-memory hash")
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
    }

    #[test]
    fn seed_keeps_the_shape() {
        let w = swiftsim_workloads::by_name("gemm").expect("gemm is in the suite");
        let a = seeded_app(&w, Scale::Tiny, 1);
        let b = seeded_app(&w, Scale::Tiny, 2);
        assert_eq!(a.num_insts(), b.num_insts());
        assert_eq!(a.kernels().len(), b.kernels().len());
    }
}
