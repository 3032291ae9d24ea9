//! Application structure: functional blocks over kernels, plus the
//! [`WorkloadModel`] abstraction that turns input data into per-frame kernel
//! execution counts.

use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_ise::{BlockId, CatalogBuilder, IseCatalog, IseError, KernelId, KernelSpec};
use serde::{Deserialize, Serialize};

use crate::video::FrameStats;

/// One functional block: a named group of kernels announced together by one
/// trigger-instruction set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalBlock {
    /// The block's identifier.
    pub id: BlockId,
    /// Diagnostic name (e.g. `loop_filter`).
    pub name: String,
    /// The kernels the block executes.
    pub kernels: Vec<KernelId>,
}

/// A complete application: kernel specifications plus the functional-block
/// structure over them.
#[derive(Debug, Clone)]
pub struct Application {
    name: String,
    specs: Vec<KernelSpec>,
    blocks: Vec<FunctionalBlock>,
}

impl Application {
    /// Assembles an application.
    ///
    /// # Panics
    ///
    /// Panics if a block references a kernel index outside `specs` — the
    /// application definition is static, so this is a programming error.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        specs: Vec<KernelSpec>,
        blocks: Vec<FunctionalBlock>,
    ) -> Self {
        for b in &blocks {
            for k in &b.kernels {
                assert!(
                    usize::from(k.index()) < specs.len(),
                    "block '{}' references unknown kernel {k}",
                    b.name
                );
            }
        }
        Application {
            name: name.into(),
            specs,
            blocks,
        }
    }

    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel specifications (index = [`KernelId`]).
    #[must_use]
    pub fn kernel_specs(&self) -> &[KernelSpec] {
        &self.specs
    }

    /// The functional blocks in execution order.
    #[must_use]
    pub fn blocks(&self) -> &[FunctionalBlock] {
        &self.blocks
    }

    /// Number of kernels.
    #[must_use]
    pub fn kernel_count(&self) -> usize {
        self.specs.len()
    }

    /// Builds the compile-time ISE catalogue for this application.
    ///
    /// # Errors
    ///
    /// Propagates catalogue-builder errors (see
    /// [`CatalogBuilder::build`]).
    pub fn build_catalog(
        &self,
        params: ArchParams,
        machine_budget: Option<Resources>,
    ) -> Result<IseCatalog, IseError> {
        let mut b = CatalogBuilder::new(params);
        for spec in &self.specs {
            b = b.kernel(spec.clone());
        }
        if let Some(budget) = machine_budget {
            b = b.machine_budget(budget);
        }
        b.build()
    }
}

/// Maps input data (frames) to dynamic kernel behaviour.
///
/// The simulator and trace builder are generic over this trait, so the
/// H.264 encoder, the FFT pipeline and the crypto application all drive the
/// same machinery.
pub trait WorkloadModel {
    /// The application structure.
    fn application(&self) -> &Application;

    /// Actual executions of every kernel (indexed by `KernelId`) for one
    /// frame of input.
    fn kernel_executions(&self, frame: &FrameStats) -> Vec<u64>;

    /// Average gap between two consecutive executions of a kernel
    /// (core cycles of non-kernel work, the `tbᵢ` generator).
    fn kernel_gap(&self, kernel: KernelId) -> Cycles {
        let _ = kernel;
        Cycles::new(400)
    }

    /// Delay from the block's trigger instruction to the kernel's first
    /// execution (the `tfᵢ` generator). The default staggers kernels by
    /// their position within the block.
    fn kernel_first_delay(&self, block: &FunctionalBlock, kernel: KernelId) -> Cycles {
        let pos = block.kernels.iter().position(|k| *k == kernel).unwrap_or(0) as u64;
        Cycles::new(1_000 + pos * 2_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_ise::datapath::{DataPathGraph, OpKind};

    fn spec(name: &str) -> KernelSpec {
        let mut b = DataPathGraph::builder("g");
        let a = b.input();
        let _ = b.op(OpKind::Abs, &[a]);
        KernelSpec::new(name).data_path(b.finish().unwrap(), 4)
    }

    #[test]
    fn application_assembles() {
        let app = Application::new(
            "toy",
            vec![spec("k0"), spec("k1")],
            vec![FunctionalBlock {
                id: BlockId(0),
                name: "fb0".into(),
                kernels: vec![KernelId(0), KernelId(1)],
            }],
        );
        assert_eq!(app.kernel_count(), 2);
        assert_eq!(app.blocks()[0].kernels.len(), 2);
        let catalog = app
            .build_catalog(ArchParams::default(), None)
            .expect("catalog builds");
        assert_eq!(catalog.kernels().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn bad_block_reference_panics() {
        let _ = Application::new(
            "bad",
            vec![spec("k0")],
            vec![FunctionalBlock {
                id: BlockId(0),
                name: "fb0".into(),
                kernels: vec![KernelId(5)],
            }],
        );
    }
}
