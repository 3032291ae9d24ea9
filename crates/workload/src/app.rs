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

/// Why [`Application::try_merged`] refused to merge a set of applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// No applications were given.
    Empty,
    /// The concatenated kernel count exceeds the 16-bit [`KernelId`] space.
    KernelIdOverflow {
        /// Total kernels across all components.
        total: usize,
    },
    /// The concatenated block count exceeds the 16-bit [`BlockId`] space.
    BlockIdOverflow {
        /// Total blocks across all components.
        total: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "merging requires at least one application"),
            MergeError::KernelIdOverflow { total } => write!(
                f,
                "merged kernel count {total} exceeds the 16-bit KernelId space ({})",
                u16::MAX
            ),
            MergeError::BlockIdOverflow { total } => write!(
                f,
                "merged block count {total} exceeds the 16-bit BlockId space ({})",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for MergeError {}

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

    /// Merges several applications into one that multi-tasks them on a
    /// shared machine: kernel ids and block ids are re-based so each
    /// component keeps its structure, and the blocks interleave in
    /// round-robin order (app₀ block₀, app₁ block₀, …, app₀ block₁, …) —
    /// the paper's *"available fine- and coarse-grained reconfigurable
    /// fabric (shared among various tasks)"* scenario.
    ///
    /// Returns the merged application and, per component, its kernel-id
    /// offset (to translate component-local ids).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or the merged id spaces overflow the
    /// 16-bit [`KernelId`] / [`BlockId`] ranges (see
    /// [`Application::try_merged`] for the non-panicking form).
    #[must_use]
    #[track_caller]
    pub fn merged(name: impl Into<String>, apps: &[&Application]) -> (Application, Vec<u16>) {
        match Application::try_merged(name, apps) {
            Ok(merged) => merged,
            Err(e) => panic!("Application::merged: {e} (use Application::try_merged to handle this without panicking)"),
        }
    }

    /// Fallible form of [`Application::merged`]: kernel-id re-basing and
    /// block renumbering are overflow-checked instead of silently
    /// truncating past 65 535 ids.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Empty`] for an empty `apps` slice, and
    /// [`MergeError::KernelIdOverflow`] / [`MergeError::BlockIdOverflow`]
    /// when the concatenated kernel or block count does not fit a `u16`.
    pub fn try_merged(
        name: impl Into<String>,
        apps: &[&Application],
    ) -> Result<(Application, Vec<u16>), MergeError> {
        if apps.is_empty() {
            return Err(MergeError::Empty);
        }
        let total_kernels: usize = apps.iter().map(|a| a.kernel_count()).sum();
        if total_kernels > usize::from(u16::MAX) {
            return Err(MergeError::KernelIdOverflow {
                total: total_kernels,
            });
        }
        let total_blocks: usize = apps.iter().map(|a| a.blocks().len()).sum();
        if total_blocks > usize::from(u16::MAX) {
            return Err(MergeError::BlockIdOverflow {
                total: total_blocks,
            });
        }
        let mut specs = Vec::new();
        let mut offsets = Vec::with_capacity(apps.len());
        let mut rebased_blocks: Vec<Vec<FunctionalBlock>> = Vec::with_capacity(apps.len());
        for app in apps {
            // Checked above: specs.len() stays within u16 for every prefix.
            let offset = u16::try_from(specs.len()).expect("total kernel count checked");
            offsets.push(offset);
            specs.extend(app.kernel_specs().iter().cloned());
            rebased_blocks.push(
                app.blocks()
                    .iter()
                    .map(|b| {
                        let kernels = b
                            .kernels
                            .iter()
                            .map(|k| {
                                k.index().checked_add(offset).map(KernelId).ok_or(
                                    MergeError::KernelIdOverflow {
                                        total: total_kernels,
                                    },
                                )
                            })
                            .collect::<Result<Vec<KernelId>, MergeError>>()?;
                        Ok(FunctionalBlock {
                            id: BlockId(0), // renumbered below
                            name: format!("{}::{}", app.name(), b.name),
                            kernels,
                        })
                    })
                    .collect::<Result<Vec<FunctionalBlock>, MergeError>>()?,
            );
        }
        // Round-robin interleave the component block sequences.
        let mut blocks = Vec::new();
        let longest = rebased_blocks.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..longest {
            for seq in &mut rebased_blocks {
                if round < seq.len() {
                    let mut b = seq[round].clone();
                    b.id = BlockId(u16::try_from(blocks.len()).expect("total block count checked"));
                    blocks.push(b);
                }
            }
        }
        Ok((Application::new(name, specs, blocks), offsets))
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

/// A [`WorkloadModel`] multi-tasking several component models on one
/// machine (see [`Application::merged`]).
///
/// # Example
///
/// ```
/// use mrts_ise::datapath::{DataPathGraph, OpKind};
/// use mrts_ise::{BlockId, KernelId, KernelSpec};
/// use mrts_workload::video::FrameStats;
/// use mrts_workload::{Application, FunctionalBlock, MergedWorkload, WorkloadModel};
///
/// # struct Fixed(Application, u64);
/// # impl WorkloadModel for Fixed {
/// #     fn application(&self) -> &Application {
/// #         &self.0
/// #     }
/// #     fn kernel_executions(&self, _: &FrameStats) -> Vec<u64> {
/// #         vec![self.1]
/// #     }
/// # }
/// # fn one_kernel(name: &str) -> Application {
/// #     let mut g = DataPathGraph::builder("abs");
/// #     let x = g.input();
/// #     let _ = g.op(OpKind::Abs, &[x]);
/// #     let kernel = KernelSpec::new(name).data_path(g.finish().expect("valid"), 4);
/// #     let block = FunctionalBlock { id: BlockId(0), name: "main".into(), kernels: vec![KernelId(0)] };
/// #     Application::new(name, vec![kernel], vec![block])
/// # }
/// // Two one-kernel, one-block models (`Fixed` returns a constant count).
/// let fft = Fixed(one_kernel("fft"), 64);
/// let cipher = Fixed(one_kernel("cipher"), 512);
/// let merged = MergedWorkload::new("radio", vec![&fft, &cipher]);
/// assert_eq!(merged.application().kernel_count(), 2);
/// assert_eq!(merged.application().blocks()[1].name, "cipher::main");
/// ```
pub struct MergedWorkload<'a> {
    app: Application,
    components: Vec<&'a dyn WorkloadModel>,
    offsets: Vec<u16>,
}

impl std::fmt::Debug for MergedWorkload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedWorkload")
            .field("app", &self.app.name())
            .field("components", &self.components.len())
            .field("offsets", &self.offsets)
            .finish()
    }
}

impl<'a> MergedWorkload<'a> {
    /// Merges the component models (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, components: Vec<&'a dyn WorkloadModel>) -> Self {
        let apps: Vec<&Application> = components.iter().map(|c| c.application()).collect();
        let (app, offsets) = Application::merged(name, &apps);
        MergedWorkload {
            app,
            components,
            offsets,
        }
    }

    /// The component (and its kernel-id offset) owning a merged kernel id.
    fn component_of(&self, kernel: KernelId) -> (usize, u16) {
        let mut owner = 0;
        for (i, off) in self.offsets.iter().enumerate() {
            if kernel.index() >= *off {
                owner = i;
            }
        }
        (owner, self.offsets[owner])
    }
}

impl WorkloadModel for MergedWorkload<'_> {
    fn application(&self) -> &Application {
        &self.app
    }

    fn kernel_executions(&self, frame: &FrameStats) -> Vec<u64> {
        self.components
            .iter()
            .flat_map(|c| c.kernel_executions(frame))
            .collect()
    }

    fn kernel_gap(&self, kernel: KernelId) -> mrts_arch::Cycles {
        let (i, off) = self.component_of(kernel);
        self.components[i].kernel_gap(KernelId(kernel.index() - off))
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
    fn try_merged_rejects_kernel_id_overflow() {
        // Two 40 000-kernel components: 80 000 merged ids would silently
        // wrap the u16 KernelId space under unchecked arithmetic.
        let big = Application::new(
            "big",
            vec![spec("k"); 40_000],
            vec![FunctionalBlock {
                id: BlockId(0),
                name: "fb".into(),
                kernels: vec![KernelId(39_999)],
            }],
        );
        let err = Application::try_merged("pair", &[&big, &big]).unwrap_err();
        assert_eq!(err, MergeError::KernelIdOverflow { total: 80_000 });
        assert!(err.to_string().contains("80000"));
        // A single component of the same size is fine and rebases from 0.
        let (merged, offsets) = Application::try_merged("solo", &[&big]).unwrap();
        assert_eq!(merged.kernel_count(), 40_000);
        assert_eq!(offsets, vec![0]);
    }

    #[test]
    fn try_merged_rejects_empty_input() {
        assert_eq!(
            Application::try_merged("none", &[]).unwrap_err(),
            MergeError::Empty
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit KernelId space")]
    fn merged_panics_on_overflow_instead_of_truncating() {
        let big = Application::new("big", vec![spec("k"); 40_000], Vec::new());
        let _ = Application::merged("pair", &[&big, &big]);
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
