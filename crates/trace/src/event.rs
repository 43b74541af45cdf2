//! The typed event vocabulary shared by every instrumented runtime.
//!
//! Events are small `Copy` values — only numeric fields and `'static`
//! tags — so recording one is a single slot write in the emitting
//! thread's ring buffer, with no allocation and nothing to drop.

/// How a task's execution resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// The body ran to completion.
    Completed,
    /// The task resolved to `Cancelled` without running its body.
    Cancelled,
    /// The task settled after its deadline had passed: the expiry is
    /// read from the task's cancel token and marked once, when the task
    /// settles, next to its `Completed` or `Cancelled` mark.
    TimedOut,
}

impl Outcome {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Cancelled => "cancelled",
            Outcome::TimedOut => "timed_out",
        }
    }
}

/// Which worksharing schedule dealt a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedTag {
    /// One contiguous block per thread.
    Static,
    /// Fixed-size chunks dealt round-robin.
    StaticChunk,
    /// Chunks claimed from a shared counter on demand.
    Dynamic,
    /// Exponentially decreasing chunks with a floor.
    Guided,
    /// The `sections` construct's on-demand section dispatch.
    Sections,
}

impl SchedTag {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedTag::Static => "static",
            SchedTag::StaticChunk => "static_chunk",
            SchedTag::Dynamic => "dynamic",
            SchedTag::Guided => "guided",
            SchedTag::Sections => "sections",
        }
    }
}

/// How one fetch attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FetchTag {
    /// The page came back.
    Ok,
    /// A retryable connection-level failure.
    Transient,
    /// The transfer exceeded its budget.
    TimedOut,
    /// The attempt panicked (contained by the caller).
    Panicked,
}

impl FetchTag {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FetchTag::Ok => "ok",
            FetchTag::Transient => "transient",
            FetchTag::TimedOut => "timed_out",
            FetchTag::Panicked => "panicked",
        }
    }
}

/// A circuit-breaker state, as seen in transition marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerPhase {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected while the dependency cools down.
    Open,
    /// One probe request is allowed through.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// Which fault an injector dealt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTag {
    /// A retryable error.
    Transient,
    /// A timeout.
    Timeout,
    /// An injected panic.
    Panic,
    /// Extra latency, no failure.
    LatencySpike,
}

impl FaultTag {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultTag::Transient => "transient",
            FaultTag::Timeout => "timeout",
            FaultTag::Panic => "panic",
            FaultTag::LatencySpike => "latency_spike",
        }
    }
}

/// How one supervised child incarnation exited, as seen in
/// `sup.child_exit` marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChildTag {
    /// The child body returned success; the child is done.
    Completed,
    /// The child body returned an error.
    Failed,
    /// The child body panicked (contained by the supervisor).
    Panicked,
    /// The child observed cancellation and stopped cooperatively.
    Cancelled,
    /// The child's deadline elapsed before it finished.
    TimedOut,
}

impl ChildTag {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChildTag::Completed => "completed",
            ChildTag::Failed => "failed",
            ChildTag::Panicked => "panicked",
            ChildTag::Cancelled => "cancelled",
            ChildTag::TimedOut => "timed_out",
        }
    }
}

/// Which marking-pipeline ledger transition a `mark.*` observation
/// records (see `course::pipeline`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MarkingTag {
    /// A marker claimed a batch of submissions from its shard queue.
    Claim,
    /// A marker acknowledged (completed) marked submissions.
    Ack,
    /// A storm kill interrupted a marker mid-batch; unacked claims
    /// return to the ledger.
    Reclaim,
    /// A restarted marker re-marked submissions whose first marking
    /// was lost with the killed incarnation.
    Redone,
    /// Submissions shed at admission (queue full or drain overrun).
    Shed,
    /// Explorer spot-checks skipped under pressure (degraded, never
    /// silent).
    Degraded,
    /// Explorer spot-checks actually executed.
    Spot,
}

impl MarkingTag {
    /// Stable label for export and counting.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MarkingTag::Claim => "claim",
            MarkingTag::Ack => "ack",
            MarkingTag::Reclaim => "reclaim",
            MarkingTag::Redone => "redone",
            MarkingTag::Shed => "shed",
            MarkingTag::Degraded => "degraded",
            MarkingTag::Spot => "spot",
        }
    }
}

/// A duration-carrying activity: begins, does work, ends. Span begin
/// and end events share an `id` and always land on the same thread, so
/// Chrome `B`/`E` pairs nest correctly per lane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpanKind {
    /// One task body executing on a worker.
    TaskRun {
        /// The task's id.
        task: u64,
    },
    /// One team member blocked at a barrier.
    BarrierWait {
        /// Team-thread index.
        member: u32,
    },
    /// One team member executing a parallel region.
    Region {
        /// Team-thread index.
        member: u32,
    },
    /// One attempt at fetching a page.
    FetchAttempt {
        /// The page requested.
        page: u32,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A whole crawl (`try_fetch_all` call).
    Crawl {
        /// Pages in the crawl.
        pages: u32,
    },
    /// One simulated tick of the marking pipeline (arrivals through
    /// acks; see `course::pipeline`).
    MarkingTick {
        /// Model tick number.
        tick: u64,
    },
}

impl SpanKind {
    /// Stable event name (used for counting and Chrome export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::TaskRun { .. } => "task.run",
            SpanKind::BarrierWait { .. } => "barrier.wait",
            SpanKind::Region { .. } => "region.member",
            SpanKind::FetchAttempt { .. } => "fetch.attempt",
            SpanKind::Crawl { .. } => "crawl",
            SpanKind::MarkingTick { .. } => "mark.tick",
        }
    }
}

/// A point-in-time observation (Chrome "instant" event).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MarkKind {
    /// A task was submitted to a runtime.
    TaskSpawn {
        /// The task's id.
        task: u64,
        /// Span id active on the spawning thread (0 = none), linking
        /// the spawn to its causal parent.
        parent_span: u64,
    },
    /// A task resolved.
    TaskOutcome {
        /// The task's id.
        task: u64,
        /// How it resolved.
        outcome: Outcome,
    },
    /// A worker stole a job from another worker's deque.
    Steal {
        /// The worker stolen from.
        victim: u32,
    },
    /// A member passed a barrier.
    BarrierRelease {
        /// Team-thread index.
        member: u32,
        /// How long the member waited.
        waited_ns: u64,
    },
    /// A member observed a poisoned barrier and unwound.
    BarrierPoison {
        /// Team-thread index.
        member: u32,
    },
    /// A worksharing construct dealt a chunk of iterations.
    ChunkDispatch {
        /// Per-region construct id.
        construct: u32,
        /// First iteration of the chunk.
        lo: u64,
        /// Chunk length.
        len: u64,
        /// The schedule that dealt it.
        schedule: SchedTag,
    },
    /// A fetch attempt resolved.
    FetchResult {
        /// The page requested.
        page: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// How the attempt ended.
        result: FetchTag,
    },
    /// A circuit breaker changed state.
    BreakerTransition {
        /// State before.
        from: BreakerPhase,
        /// State after.
        to: BreakerPhase,
    },
    /// A fault injector dealt a non-`None` fault.
    FaultInjected {
        /// The injector key (page id for websim).
        key: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// The fault dealt.
        fault: FaultTag,
    },
    /// One GUI responsiveness-probe sample.
    GuiProbe {
        /// Queue-to-dispatch latency of the probe event.
        latency_ns: u64,
    },
    /// A supervisor started one incarnation of a child.
    ChildStart {
        /// Supervisor-local child index.
        child: u64,
        /// 1-based incarnation number (restarts increment it).
        incarnation: u32,
    },
    /// A supervised child incarnation exited.
    ChildExit {
        /// Supervisor-local child index.
        child: u64,
        /// 1-based incarnation number.
        incarnation: u32,
        /// How the incarnation exited.
        outcome: ChildTag,
    },
    /// A supervisor decided to restart a failed child.
    ChildRestart {
        /// Supervisor-local child index.
        child: u64,
        /// The incarnation about to start (= failed incarnation + 1).
        incarnation: u32,
    },
    /// A child exhausted its restart budget; the failure escalates up
    /// the supervision tree.
    ChildEscalate {
        /// Supervisor-local child index.
        child: u64,
    },
    /// One marking-pipeline ledger transition (see `course::pipeline`).
    MarkingStage {
        /// Which transition.
        stage: MarkingTag,
        /// The shard or marker the observation is scoped to (claims,
        /// acks, kills and reclaims are marker-scoped; sheds are
        /// shard-scoped).
        lane: u32,
        /// How many submissions the observation covers.
        count: u32,
    },
}

impl MarkKind {
    /// Stable event name (used for counting and Chrome export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MarkKind::TaskSpawn { .. } => "task.spawn",
            MarkKind::TaskOutcome { .. } => "task.outcome",
            MarkKind::Steal { .. } => "sched.steal",
            MarkKind::BarrierRelease { .. } => "barrier.release",
            MarkKind::BarrierPoison { .. } => "barrier.poison",
            MarkKind::ChunkDispatch { .. } => "chunk.dispatch",
            MarkKind::FetchResult { .. } => "fetch.result",
            MarkKind::BreakerTransition { .. } => "breaker.transition",
            MarkKind::FaultInjected { .. } => "fault.injected",
            MarkKind::GuiProbe { .. } => "gui.probe",
            MarkKind::ChildStart { .. } => "sup.child_start",
            MarkKind::ChildExit { .. } => "sup.child_exit",
            MarkKind::ChildRestart { .. } => "sup.restart",
            MarkKind::ChildEscalate { .. } => "sup.escalate",
            MarkKind::MarkingStage { stage, .. } => match stage {
                MarkingTag::Claim => "mark.claim",
                MarkingTag::Ack => "mark.ack",
                MarkingTag::Reclaim => "mark.reclaim",
                MarkingTag::Redone => "mark.redone",
                MarkingTag::Shed => "mark.shed",
                MarkingTag::Degraded => "mark.degraded",
                MarkingTag::Spot => "mark.spot",
            },
        }
    }
}

/// The payload of one recorded event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A span started on the recording thread.
    SpanBegin {
        /// Collector-unique span id.
        id: u64,
        /// Enclosing span on the same thread (0 = root).
        parent: u64,
        /// What the span is.
        what: SpanKind,
    },
    /// A span ended on the recording thread.
    SpanEnd {
        /// Matches the corresponding [`EventKind::SpanBegin`].
        id: u64,
        /// What the span is.
        what: SpanKind,
    },
    /// An instantaneous observation.
    Mark {
        /// What happened.
        what: MarkKind,
    },
}

impl EventKind {
    /// Stable event name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanBegin { what, .. } | EventKind::SpanEnd { what, .. } => what.name(),
            EventKind::Mark { what } => what.name(),
        }
    }
}

/// One recorded event: timestamp, lanes, payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the collector's epoch.
    pub ts_ns: u64,
    /// Track id (one per instrumented runtime; 0 = untracked).
    pub pid: u32,
    /// Lane id (one per recording OS thread).
    pub tid: u32,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// Stable event name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // The hot path writes events by value into a fixed ring; keep
        // them register-friendly. 64 bytes = one cache line.
        assert!(std::mem::size_of::<Event>() <= 64);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Event>();
    }

    #[test]
    fn names_are_stable() {
        let e = Event {
            ts_ns: 0,
            pid: 1,
            tid: 1,
            kind: EventKind::SpanBegin {
                id: 1,
                parent: 0,
                what: SpanKind::TaskRun { task: 9 },
            },
        };
        assert_eq!(e.name(), "task.run");
        let m = EventKind::Mark {
            what: MarkKind::ChunkDispatch {
                construct: 0,
                lo: 0,
                len: 8,
                schedule: SchedTag::Dynamic,
            },
        };
        assert_eq!(m.name(), "chunk.dispatch");
        assert_eq!(SchedTag::StaticChunk.name(), "static_chunk");
        assert_eq!(Outcome::TimedOut.name(), "timed_out");
        assert_eq!(BreakerPhase::HalfOpen.name(), "half_open");
        assert_eq!(FaultTag::LatencySpike.name(), "latency_spike");
        assert_eq!(FetchTag::Panicked.name(), "panicked");
        assert_eq!(ChildTag::Failed.name(), "failed");
        let sup = EventKind::Mark {
            what: MarkKind::ChildExit {
                child: 2,
                incarnation: 3,
                outcome: ChildTag::Panicked,
            },
        };
        assert_eq!(sup.name(), "sup.child_exit");
        assert_eq!(
            EventKind::Mark {
                what: MarkKind::ChildEscalate { child: 0 }
            }
            .name(),
            "sup.escalate"
        );
    }
}
