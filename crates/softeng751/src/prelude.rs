//! Convenience prelude: the types a course workbook would import.
//!
//! ```
//! use softeng751::prelude::*;
//!
//! let rt = TaskRuntime::builder().workers(2).build();
//! let team = Team::new(2);
//! let t = rt.spawn({
//!     let team = team.clone(); // teams are cheaply shareable
//!     move || team.par_sum(0..10, Schedule::Static, |i| i as u64)
//! });
//! assert_eq!(t.join().unwrap(), 45);
//! rt.shutdown();
//! ```

pub use faultsim::{Breaker, FaultInjector, FaultPlan, RetryPolicy};
pub use guievent::{EventLoop, GuiHandle, Probe};
pub use parc_inspect::{diff_schedules, CriticalReport, TaskGraph, TimeTravel, TraceStore};
pub use parc_trace::{Collector, TraceHandle};
pub use parc_util::{Stopwatch, Summary, Table};
pub use partask::{
    interim_channel, BatchHandle, CancelToken, InterimReceiver, InterimSender, RuntimeHandle,
    SchedulerKind, TaskError, TaskHandle, TaskRuntime, TaskWatcher,
};
pub use pyjama::{
    BitAndRed, BitOrRed, BitXorRed, Ctx, MapMerge, MaxRed, MinRed, ProdRed, Reduction, Schedule,
    SetUnion, SumRed, Team, TeamError, TopK, VecConcat,
};
