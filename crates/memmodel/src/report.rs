//! The pedagogical write-up generator — project 8's actual
//! deliverable ("the outcomes could be useful for future teaching
//! purposes … interactive webpages that helped explain typical race
//! conditions"), rendered as structured text.
//!
//! Each topic pairs a demonstration runner with the avoidance options
//! and their pros/cons, so a report is always backed by freshly
//! executed evidence rather than stale prose.

use crate::cost::{cost_strategies, increment_cost_ns, plain_increment_cost_ns};
use crate::demos::{self, FixStrategy};

/// One avoidance option with its trade-offs (the pros/cons table the
/// students wrote).
#[derive(Clone, Debug)]
pub struct Option_ {
    /// Option name.
    pub name: &'static str,
    /// What it buys.
    pub pros: &'static str,
    /// What it costs.
    pub cons: &'static str,
}

/// A fully rendered teaching topic.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Topic title.
    pub title: &'static str,
    /// The hazard, in one paragraph.
    pub hazard: String,
    /// Fresh evidence from running the demonstration.
    pub evidence: String,
    /// The avoidance options.
    pub options: Vec<Option_>,
}

impl Topic {
    /// Render as text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "## {}\n\n{}\n\nEvidence (just executed):\n{}\n\nHow to avoid it:\n",
            self.title, self.hazard, self.evidence
        );
        for o in &self.options {
            out.push_str(&format!(
                "  * {} — pros: {}; cons: {}\n",
                o.name, o.pros, o.cons
            ));
        }
        out
    }
}

/// Build the full teaching report by running every demonstration.
#[must_use]
pub fn build_report() -> Vec<Topic> {
    let lost = demos::lost_update(4, 30_000, true);
    let fixed = demos::lost_update_fixed(4, 30_000, FixStrategy::AtomicRmw);
    let mp = demos::message_passing(200, true);
    let sb_relaxed = demos::store_buffer(300, std::sync::atomic::Ordering::Relaxed);
    let sb_seqcst = demos::store_buffer(300, std::sync::atomic::Ordering::SeqCst);
    let lazy = demos::lazy_init(50, 4, false);

    vec![
        Topic {
            title: "Lost updates: count++ is not atomic",
            hazard: "A read-modify-write compiled as separate load and store \
                     lets two threads read the same old value and overwrite \
                     each other's increment."
                .into(),
            evidence: format!(
                "  racy: {}/{} increments survived ({} lost); atomic fetch_add: {}/{} (0 lost)",
                lost.observed, lost.expected, lost.anomalies, fixed.observed, fixed.expected
            ),
            options: vec![
                Option_ {
                    name: "atomic read-modify-write (fetch_add)",
                    pros: "wait-free, cheapest correct option",
                    cons: "single variables only; composing several is racy again",
                },
                Option_ {
                    name: "mutex",
                    pros: "protects arbitrary multi-variable invariants; simple",
                    cons: "blocking; an order of magnitude dearer per op; deadlock risk if nested",
                },
                Option_ {
                    name: "per-thread accumulation + combine",
                    pros: "no sharing on the hot path at all (the reduction pattern)",
                    cons: "needs an associative combine and a merge phase",
                },
            ],
        },
        Topic {
            title: "Unsafe publication: data before flag",
            hazard: "Writing data then raising a flag with plain/relaxed \
                     accesses gives the reader no guarantee it sees the data \
                     after seeing the flag — publication needs release/acquire."
                .into(),
            evidence: format!(
                "  release/acquire publication over {} rounds: {} stale reads (must be 0)",
                mp.trials, mp.anomalies
            ),
            options: vec![
                Option_ {
                    name: "store(Release) / load(Acquire) on the flag",
                    pros: "exactly the needed guarantee, near-free on x86",
                    cons: "easy to get the pair wrong; fences must match",
                },
                Option_ {
                    name: "channels / message passing",
                    pros: "transfers ownership, impossible to misuse",
                    cons: "allocation + queueing cost; restructures the code",
                },
            ],
        },
        Topic {
            title: "Store buffering: both threads read 0",
            hazard: "x=1; r1=y in one thread and y=1; r2=x in another can \
                     BOTH read 0 unless sequential consistency is requested — \
                     the one reordering even x86 exhibits."
                .into(),
            evidence: format!(
                "  relaxed: {} both-zero outcomes / {} rounds; SeqCst: {} / {} (must be 0)",
                sb_relaxed.anomalies, sb_relaxed.trials, sb_seqcst.anomalies, sb_seqcst.trials
            ),
            options: vec![
                Option_ {
                    name: "SeqCst on the stores and loads",
                    pros: "restores the interleaving intuition",
                    cons: "full fences; the most expensive ordering",
                },
                Option_ {
                    name: "redesign to avoid Dekker-style flags",
                    pros: "mutexes/channels make the pattern unnecessary",
                    cons: "not always possible in lock-free code",
                },
            ],
        },
        Topic {
            title: "Racy lazy initialisation",
            hazard: "check-then-construct lets several threads observe \
                     'uninitialised' simultaneously and construct more than \
                     once (or publish a half-built value)."
                .into(),
            evidence: format!(
                "  racy check-then-act over {} rounds: {} extra constructions; OnceLock: always exactly one",
                lazy.trials, lazy.anomalies
            ),
            options: vec![
                Option_ {
                    name: "OnceLock / get_or_init",
                    pros: "guaranteed single construction, simple",
                    cons: "slight cost on every access (a load + branch)",
                },
                Option_ {
                    name: "eager initialisation",
                    pros: "no synchronisation at all after startup",
                    cons: "pays construction cost even if never used",
                },
            ],
        },
    ]
}

/// The cost appendix: measured ns/op per strategy.
#[must_use]
pub fn cost_appendix() -> String {
    let mut out = String::from("## Appendix: what the fixes cost (ns per increment)\n");
    out.push_str(&format!(
        "  plain (no sync, single thread): {:.2}\n",
        plain_increment_cost_ns(500_000)
    ));
    for fix in cost_strategies() {
        out.push_str(&format!(
            "  {:?}: {:.2}\n",
            fix,
            increment_cost_ns(fix, 500_000)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_four_topics_with_options() {
        let topics = build_report();
        assert_eq!(topics.len(), 4);
        for t in &topics {
            assert!(!t.options.is_empty(), "{} needs options", t.title);
            let rendered = t.render();
            assert!(rendered.contains(t.title));
            assert!(rendered.contains("Evidence"));
            assert!(rendered.contains("pros:"));
        }
    }

    #[test]
    fn evidence_reflects_fixed_variants_correctness() {
        let topics = build_report();
        // The publication topic's evidence must report 0 stale reads.
        let publication = &topics[1];
        assert!(publication.evidence.contains("0 stale reads"));
    }

    #[test]
    fn cost_appendix_lists_all_strategies() {
        let appendix = cost_appendix();
        assert!(appendix.contains("plain"));
        assert!(appendix.contains("AtomicRmw"));
        assert!(appendix.contains("SeqCst"));
        assert!(appendix.contains("Mutex"));
        assert!(appendix.contains("ReleaseAcquire"));
    }
}
