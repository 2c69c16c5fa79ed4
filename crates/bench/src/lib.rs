//! # fexiot-bench
//!
//! Experiment harness reproducing every table and figure in the paper's
//! evaluation (§IV). Each module implements one experiment; the `src/bin`
//! binaries print paper-style rows, and the `perf` harness times the
//! pipeline stages. All experiments run scaled-down by default and at paper
//! scale with `FEXIOT_FULL=1` / `--full`.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod perf;
pub mod plot;
pub mod robustness;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod table3;

pub use scale::{print_table, Scale};

/// Test-only guard on the process-global obs registry. The `perf` workload
/// tests reset, enable and snapshot it, so they take it exclusively; every
/// other test that runs instrumented library code takes it shared, so it
/// cannot record into (or be wiped by) a workload test running at the same
/// time.
#[cfg(test)]
pub(crate) mod obs_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GLOBAL_REGISTRY: RwLock<()> = RwLock::new(());

    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        GLOBAL_REGISTRY.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        GLOBAL_REGISTRY.write().unwrap_or_else(PoisonError::into_inner)
    }
}
