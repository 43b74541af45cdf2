//! # parc-loadgen — seeded traffic for the sharded web tier
//!
//! The course's web-access project asks "how many connections should a
//! client open?"; the production question one level up is "how much
//! traffic can the *tier* absorb before its tail latency blows the
//! budget?". Answering that needs a load generator whose traffic is as
//! reproducible as the tier it drives — otherwise a regression in the
//! balancer is indistinguishable from a lucky arrival sequence.
//!
//! Everything here is seeded and deterministic:
//!
//! * [`arrival`] — arrival processes ([`ArrivalProcess::PoissonSteady`]
//!   open-loop Poisson traffic, [`ArrivalProcess::Diurnal`] day/night
//!   waves, [`ArrivalProcess::FlashCrowd`] a step surge with
//!   exponential decay) sampled tick by tick with a seeded RNG, plus a
//!   Zipf page-popularity model so hot pages concentrate on their
//!   owner replicas the way real traffic does. The auto-marking
//!   pipeline (`course::pipeline`) draws its submission arrivals from
//!   the same processes.
//! * [`traffic`] — materialises a whole open-loop run up front as a
//!   [`traffic::TrafficTrace`] (one `Vec<page>` per tick), ready for
//!   `websim::cluster::Cluster::run_storm`.
//!
//! Same seeds → bit-identical traces → bit-identical cluster reports,
//! across reruns and worker-pool sizes. The E-LOAD experiment
//! (`examples/load_storm.rs`) gates on exactly that.

pub mod arrival;
pub mod traffic;

pub use arrival::{ArrivalProcess, Popularity};
pub use traffic::{TrafficConfig, TrafficTrace};
