//! The paper's own results as experiment cells: Figure 1 (F1), Figure 2
//! (F2), the assessment scheme (T1), the first-in-first-served topic
//! poll (E-ALLOC), the student survey (E-SURVEY) and the commit-log
//! contribution marking of Sections III-C and IV-A.
//!
//! Each cell turns one of the paper's statements into a check:
//!
//! * F1: no course activity is research-oriented (Section III-E);
//! * F2: the course has 12 teaching weeks and a 2-week break;
//! * T1: the weights sum to 100, with 65 % group work;
//! * E-ALLOC: no poll puts more groups on a topic than it has places;
//! * E-SURVEY: each question's agreement is within half a respondent of
//!   the reported 95 / 95 / 92 % at n = 60;
//! * marking: a balanced group gets equal marks, a group carried by one
//!   member gets adjusted ones.
//!
//! Every value is a model output, so all of it is fingerprinted: counts
//! and weights under `deterministic`, rates, means and multipliers under
//! `model`. The model's fixed seeds are XORed with the run seed, so
//! seed 0 reproduces the numbers EXPERIMENTS.md reports. F1 and F2 write
//! their figures next to the artifact as `course.figure1.txt` and
//! `course.figure2.txt`.
//!
//! Run with: `cargo run --release --example course -- [--seed N] [--out DIR]`

use course::allocation::{fairness_summary, run_poll, AllocationConfig, AllocationOutcome};
use course::assessment::AssessmentScheme;
use course::nexus::{render_figure1, softeng751_activities, NexusQuadrant};
use course::repo::{decide_marks, synth_log, MarkDecision, PeerEvaluation};
use course::structure::{course_plan, render_figure2, WeekRole};
use course::survey::softeng751_survey;
use softeng751_repro::experiment::{self, Report, Spec};

/// Arrival orders per preference skew.
const ORDERS: u64 = 200;

type Cell = fn(u64) -> Report;

fn main() {
    let cells: Vec<(String, Cell)> = vec![
        ("F1 nexus".into(), nexus),
        ("F2 structure".into(), structure),
        ("T1 assessment".into(), assessment),
        ("E-ALLOC poll".into(), poll),
        ("E-SURVEY evaluation".into(), survey),
        ("contribution marking".into(), marking),
    ];
    experiment::run(
        Spec { name: "course", seed: 0, pool: None, cells },
        |cell, seed, _| cell(seed),
        |_, _| Report::new(),
    );
}

fn nexus(_seed: u64) -> Report {
    let activities = softeng751_activities();
    let mut r = Report::new().file("course.figure1.txt", render_figure1());
    for q in NexusQuadrant::all() {
        let n = activities.iter().filter(|a| a.quadrant == q).count();
        r = r.det(&format!("activities/{q}"), n);
    }
    r.check(
        activities.iter().all(|a| a.quadrant != NexusQuadrant::ResearchOriented),
        "a course activity is research-oriented",
    )
}

fn structure(_seed: u64) -> Report {
    let plan = course_plan();
    let breaks = plan.iter().filter(|w| w.roles.contains(&WeekRole::StudyBreak)).count();
    let teaching = plan.len() - breaks;
    Report::new()
        .det("weeks/teaching", teaching)
        .det("weeks/break", breaks)
        .check(
            teaching == 12 && breaks == 2,
            format!("{teaching} teaching and {breaks} break weeks, not 12 and 2"),
        )
        .file("course.figure2.txt", render_figure2())
}

fn assessment(_seed: u64) -> Report {
    let scheme = AssessmentScheme::softeng751();
    let mut r = Report::new();
    for c in scheme.components() {
        r = r
            .det(&format!("components/{}/weight", c.name), c.weight)
            .det(&format!("components/{}/group_work", c.name), c.group_work);
    }
    let (total, group) = (scheme.total_weight(), scheme.group_weight());
    r.det("total_weight", total).det("group_weight", group).check(
        total == 100.0 && group == 65.0,
        format!("weights sum to {total} with {group} % group work, not 100 with 65 %"),
    )
}

/// Topics whose taken and leftover places do not add up to the
/// per-topic capacity.
fn capacity_errors(cfg: &AllocationConfig, outcome: &AllocationOutcome) -> usize {
    (0..cfg.topics)
        .filter(|&t| {
            let taken = outcome.assignment.iter().filter(|&&a| a == t).count();
            taken + outcome.leftover_capacity[t] != cfg.capacity_per_topic
        })
        .count()
}

fn poll(seed: u64) -> Report {
    let base = AllocationConfig::default();
    let base = AllocationConfig { seed: base.seed ^ seed, ..base };
    let one = run_poll(&base);
    let mut r = Report::new()
        .det("one-run/leftover_places", one.leftover_capacity.iter().sum::<usize>())
        .model("one-run/first_choice", one.first_choice_rate())
        .model("one-run/top3", one.top_k_rate(3))
        .model("one-run/mean_rank", one.mean_rank())
        .check(capacity_errors(&base, &one) == 0, "the single run overfills a topic");
    for skew in [0.0, 1.5, 3.0] {
        let cfg = AllocationConfig { popularity_skew: skew, ..base.clone() };
        let overfilled = (0..ORDERS)
            .map(|t| AllocationConfig { seed: cfg.seed.wrapping_add(t), ..cfg.clone() })
            .filter(|order| capacity_errors(order, &run_poll(order)) > 0)
            .count();
        let (first, top3, rank) = fairness_summary(&cfg, ORDERS as usize);
        let key = format!("skew-{skew:.1}");
        r = r
            .model(&format!("{key}/first_choice"), first)
            .model(&format!("{key}/top3"), top3)
            .model(&format!("{key}/mean_rank"), rank)
            .check(
                overfilled == 0,
                format!("{key}: {overfilled} of {ORDERS} polls overfill a topic"),
            );
    }
    r
}

fn survey(seed: u64) -> Report {
    let mut r = Report::new();
    for (i, (q, reported)) in
        softeng751_survey(0x2013 ^ seed).iter().zip([95.0, 95.0, 92.0]).enumerate()
    {
        let (key, n, agreement) = (format!("q{}", i + 1), q.responses.len(), q.agreement_pct());
        r = r
            .det(&format!("{key}/question"), q.text.as_str())
            .det(&format!("{key}/distribution"), q.distribution().to_vec())
            .model(&format!("{key}/agreement_pct"), agreement)
            .model(&format!("{key}/mean_score"), q.mean_score())
            .check(
                n == 60 && (agreement - reported).abs() <= 50.0 / n as f64,
                format!(
                    "{key}: {agreement:.1} % of {n} agree; the paper reports {reported} % of 60"
                ),
            );
    }
    r
}

fn marking(seed: u64) -> Report {
    let mut r = Report::new();
    for (label, balanced, ratings) in [
        ("balanced", true, vec![vec![0, 5, 4], vec![5, 0, 5], vec![4, 5, 0]]),
        ("carried-by-one", false, vec![vec![0, 4, 2], vec![5, 0, 2], vec![4, 4, 0]]),
    ] {
        let log = synth_log(3, 80, balanced, 0x5C3 ^ seed);
        let decision = decide_marks(&log, &PeerEvaluation::new(ratings), 0.3, 3.0);
        r = r
            .det(&format!("{label}/commits"), log.len())
            .model(&format!("{label}/shares"), log.shares())
            .model(&format!("{label}/gini"), log.gini())
            .check(
                (decision == MarkDecision::Equal) == balanced,
                format!("{label} group: {decision:?}"),
            );
        r = match decision {
            MarkDecision::Equal => r.det(&format!("{label}/decision"), "equal"),
            MarkDecision::Adjusted(multipliers) => r
                .det(&format!("{label}/decision"), "adjusted")
                .model(&format!("{label}/multipliers"), multipliers),
        };
    }
    r
}
