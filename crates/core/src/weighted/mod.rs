//! Weighted users — the bin-packing-flavoured extension.
//!
//! The base model's users are identical; the natural extension (mentioned
//! as future work in this line of research) gives user `i` a demand
//! `w_i ≥ 1` and declares a user satisfied iff the *total weight* on its
//! resource is within capacity: `W_r ≤ c_r`. Three things change
//! qualitatively:
//!
//! * **Offline feasibility becomes bin packing** (NP-hard even for one
//!   class): [`first_fit_decreasing`] is the classical sufficient
//!   constructor; `Σ w ≤ Σ c` stays necessary.
//! * **Movement needs a fit check**: an unsatisfied user may only migrate
//!   to a resource where its own weight fits (`W_q + w_i ≤ c_q`), and the
//!   damping coin is still `(c_q − W_q)/c_q` — the expected *weight* inflow
//!   into `q` then stays proportional to its free capacity.
//! * **Heavy users are slow**: a weight-`w` user needs a hole of size `w`,
//!   which gets exponentially rarer as the system fills — experiment E13
//!   measures the degradation with weight skew.
//!
//! Unit demand is the special case `w_i = 1` of one model: the state,
//! active index, round view, kernels and engine loop are generic over
//! [`Demands`](crate::Demands), which [`WeightedInstance`] implements with
//! its weight vector. `SlackDamped` and `ConditionalUniform` apply the fit
//! check. This module keeps only what is weighted-specific: the instance
//! and the offline baselines.

mod baseline;
mod instance;

pub use baseline::{first_fit_decreasing, weight_counting_feasible};
pub use instance::WeightedInstance;
