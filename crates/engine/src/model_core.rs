//! The sealed model enum: every standard predictor × mapper composition
//! as a concrete variant, so simulation hot loops monomorphize.
//!
//! `Box<dyn Bpu>` costs a virtual call per [`Bpu::process`] — once per
//! simulated branch, squarely on the hot path. [`ModelCore`] closes the
//! set of standard compositions into an enum: dispatch is one predictable
//! jump per call and the concrete `FullBpu<D, M>::process` bodies inline
//! into the caller. A `SimSession<ModelCore>` (what
//! [`crate::ModelRegistry::build`] hands every engine/CLI/bench path)
//! therefore runs the whole predict–update–monitor pipeline without
//! dynamic dispatch. Downstream code with its own model types still
//! plugs in through [`ModelCore::Custom`], which keeps the registry open
//! at the old virtual-call cost.

use stbpu_bpu::{
    BaselineMapper, Bpu, BpuStats, BranchOutcome, BranchRecord, ConservativeMapper, EntityId,
    SnapError, StateReader, StateWriter,
};
use stbpu_core::StMapper;
use stbpu_predictors::{FullBpu, Gshare, PerceptronPredictor, SklCond, Tage};

macro_rules! model_core {
    ($($variant:ident($dir:ident, $mapper:ident)),+ $(,)?) => {
        /// A complete model as a sealed enum over the standard
        /// predictor × mapper compositions (see the module docs). Obtain
        /// one from [`crate::ModelRegistry::build`] or via `From` on any
        /// standard [`FullBpu`] composition; wrap anything else in
        /// [`ModelCore::Custom`].
        pub enum ModelCore {
            $(
                #[doc = concat!("`FullBpu<", stringify!($dir), ", ", stringify!($mapper), ">`.")]
                $variant(FullBpu<$dir, $mapper>),
            )+
            /// Any other [`Bpu`] implementation (virtual dispatch).
            /// `Send` so a `ModelCore` of any variant can move between
            /// threads, e.g. as a result handed back from a
            /// `parallel_map` worker.
            Custom(Box<dyn Bpu + Send>),
        }

        $(
            impl From<FullBpu<$dir, $mapper>> for ModelCore {
                fn from(m: FullBpu<$dir, $mapper>) -> Self {
                    ModelCore::$variant(m)
                }
            }
        )+

        impl ModelCore {
            /// Applies `f` to the underlying model as `&mut dyn Bpu`
            /// (cold paths only; the `Bpu` impl below stays static).
            fn with_dyn<T>(&mut self, f: impl FnOnce(&mut dyn Bpu) -> T) -> T {
                match self {
                    $(ModelCore::$variant(m) => f(m),)+
                    ModelCore::Custom(m) => f(m.as_mut()),
                }
            }
        }

        impl Bpu for ModelCore {
            fn name(&self) -> &str {
                match self {
                    $(ModelCore::$variant(m) => m.name(),)+
                    ModelCore::Custom(m) => m.name(),
                }
            }

            #[inline]
            fn process(&mut self, tid: usize, rec: &BranchRecord) -> BranchOutcome {
                match self {
                    $(ModelCore::$variant(m) => m.process(tid, rec),)+
                    ModelCore::Custom(m) => m.process(tid, rec),
                }
            }

            fn context_switch(&mut self, tid: usize, entity: EntityId) {
                self.with_dyn(|m| m.context_switch(tid, entity))
            }

            fn flush(&mut self) {
                self.with_dyn(|m| m.flush())
            }

            fn flush_targets(&mut self) {
                self.with_dyn(|m| m.flush_targets())
            }

            fn set_partitioned(&mut self, on: bool) {
                self.with_dyn(|m| m.set_partitioned(on))
            }

            fn stats(&self) -> &BpuStats {
                match self {
                    $(ModelCore::$variant(m) => m.stats(),)+
                    ModelCore::Custom(m) => m.stats(),
                }
            }

            fn reset_stats(&mut self) {
                self.with_dyn(|m| m.reset_stats())
            }

            fn rerandomizations(&self) -> u64 {
                match self {
                    $(ModelCore::$variant(m) => m.rerandomizations(),)+
                    ModelCore::Custom(m) => m.rerandomizations(),
                }
            }

            fn save_state(&self, w: &mut StateWriter) -> Result<(), SnapError> {
                match self {
                    $(ModelCore::$variant(m) => m.save_state(w),)+
                    ModelCore::Custom(m) => m.save_state(w),
                }
            }

            fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
                self.with_dyn(|m| m.load_state(r))
            }
        }
    };
}

model_core! {
    SklBaseline(SklCond, BaselineMapper),
    SklConservative(SklCond, ConservativeMapper),
    SklSt(SklCond, StMapper),
    GshareBaseline(Gshare, BaselineMapper),
    GshareConservative(Gshare, ConservativeMapper),
    GshareSt(Gshare, StMapper),
    TageBaseline(Tage, BaselineMapper),
    TageConservative(Tage, ConservativeMapper),
    TageSt(Tage, StMapper),
    PerceptronBaseline(PerceptronPredictor, BaselineMapper),
    PerceptronConservative(PerceptronPredictor, ConservativeMapper),
    PerceptronSt(PerceptronPredictor, StMapper),
}

impl From<Box<dyn Bpu + Send>> for ModelCore {
    fn from(m: Box<dyn Bpu + Send>) -> Self {
        ModelCore::Custom(m)
    }
}

/// Compile-time guarantee that every variant (standard compositions and
/// `Custom`) is `Send`, so models can cross thread boundaries.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ModelCore>();
};

impl std::fmt::Debug for ModelCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelCore({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_core::{st_skl, StConfig};
    use stbpu_predictors::skl_baseline;

    #[test]
    fn enum_and_boxed_dispatch_agree() {
        // The monomorphized variant must behave exactly like the same
        // model behind a vtable.
        let mut core: ModelCore = skl_baseline().into();
        let mut boxed: Box<dyn Bpu> = Box::new(skl_baseline());
        for i in 0..500u64 {
            let rec = BranchRecord::conditional(0x40_0000 + (i % 7) * 64, i % 3 != 0, 0x41_0000);
            assert_eq!(core.process(0, &rec), boxed.process(0, &rec));
        }
        assert_eq!(core.name(), boxed.name());
        assert_eq!(core.stats().oae(), boxed.stats().oae());
    }

    #[test]
    fn st_variant_rerandomizes_through_the_enum() {
        let cfg = StConfig {
            r: 1.0,
            misp_complexity: 1.0,
            eviction_complexity: 1.0,
            ..StConfig::default()
        };
        let mut core: ModelCore = st_skl(cfg, 3).into();
        for i in 0..2_000u64 {
            // Alternating outcomes on one address force mispredictions.
            let rec = BranchRecord::conditional(0x40_0000, i % 2 == 0, 0x41_0000);
            core.process(0, &rec);
        }
        assert!(core.rerandomizations() > 0);
    }

    #[test]
    fn custom_variant_keeps_the_registry_open() {
        let boxed: Box<dyn Bpu + Send> = Box::new(skl_baseline());
        let mut core = ModelCore::from(boxed);
        assert_eq!(core.name(), "SKLCond");
        core.flush();
        assert_eq!(core.stats().flushes, 1);
    }
}
