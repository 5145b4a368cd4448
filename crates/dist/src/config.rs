use crate::DistError;
use submod_core::NodeId;

/// How the approximate bounding algorithm samples the points used for its
/// threshold estimates (paper §4.3: exact thresholds need a global sort,
/// so the distributed variant estimates `U^k` from a `p`-fraction sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Every point enters the sample independently with probability `p`.
    Uniform,
    /// Points enter with probability proportional to their utility
    /// (clamped to `[0, 1]`), biasing the estimate toward the
    /// high-utility region where the thresholds live.
    Weighted,
}

/// Configuration of the bounding phase (paper §4.1–§4.3).
#[derive(Clone, Debug, PartialEq)]
pub struct BoundingConfig {
    pub(crate) mode: BoundingMode,
    /// Safety cap on grow/shrink cycles.
    pub(crate) max_cycles: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum BoundingMode {
    /// Thresholds are the true k-th largest bounds over all undecided
    /// points (Lemmas 4.3 / 4.4 verbatim).
    Exact,
    /// Thresholds estimated from a `p`-fraction sample (Theorem 4.6).
    Approximate {
        /// Sampling probability `p ∈ (0, 1]`.
        p: f64,
        /// How the sample is drawn.
        strategy: SamplingStrategy,
        /// Seed of the deterministic per-node sampling coins.
        seed: u64,
    },
}

/// The check both [`BoundingConfig::approximate`] and
/// [`theorem_4_6`](crate::theorem_4_6) run on a sampling probability.
pub(crate) fn check_probability(p: f64) -> Result<(), DistError> {
    if !(p.is_finite() && p > 0.0 && p <= 1.0) {
        return Err(DistError::config(format!("sampling probability must be in (0, 1], got {p}")));
    }
    Ok(())
}

impl BoundingConfig {
    /// Exact bounding: thresholds are true order statistics, so every
    /// decision is sound (included points are in every optimal completion,
    /// excluded points in none).
    pub fn exact() -> Self {
        BoundingConfig { mode: BoundingMode::Exact, max_cycles: 50 }
    }

    /// Approximate bounding with sampling probability `p`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `p ∈ (0, 1]`.
    pub fn approximate(p: f64, strategy: SamplingStrategy, seed: u64) -> Result<Self, DistError> {
        check_probability(p)?;
        Ok(BoundingConfig { mode: BoundingMode::Approximate { p, strategy, seed }, max_cycles: 50 })
    }

    /// Returns `true` for the exact variant.
    pub fn is_exact(&self) -> bool {
        matches!(self.mode, BoundingMode::Exact)
    }
}

/// The Δ-schedule: how the multi-round algorithm's per-round pool target
/// interpolates from the ground-set size `n` down to the budget `k`
/// (paper §4.4 and the Appendix E γ ablation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaSchedule {
    /// Power-law interpolation `k + (n − k)·((r − t)/r)^(1/γ)`.
    ///
    /// `γ = 1` is a straight line; smaller γ shrinks the pool harder in
    /// early rounds. The paper's default is `γ = 0.75`. Finite values
    /// outside `(0, 1]` are clamped into that range when targets are
    /// computed; the greedy drivers reject a non-finite γ (the field is
    /// public, so construction cannot validate).
    Linear {
        /// Interpolation exponent factor `γ ∈ (0, 1]`; finite
        /// out-of-range values are clamped.
        gamma: f64,
    },
    /// Geometric interpolation `k·(n/k)^((r − t)/r)`: equal shrink
    /// *ratios* every round, the most aggressive early schedule.
    Geometric,
}

impl DeltaSchedule {
    /// Pool-size target after round `round` of `rounds` when shrinking
    /// from `n` candidates toward `k`.
    ///
    /// Targets are non-increasing in `round`, bounded by `[k, n]`, and
    /// exactly `k` at the final round.
    pub fn target(&self, n: usize, k: usize, round: usize, rounds: usize) -> usize {
        if round >= rounds || n <= k {
            return k;
        }
        let frac = (rounds - round) as f64 / rounds as f64;
        let target = match *self {
            DeltaSchedule::Linear { gamma } => {
                let exponent = 1.0 / gamma.clamp(1e-6, 1.0);
                k as f64 + (n - k) as f64 * frac.powf(exponent)
            }
            DeltaSchedule::Geometric => k as f64 * (n as f64 / k as f64).powf(frac),
        };
        (target.ceil() as usize).clamp(k, n)
    }
}

/// The paper's default schedule, `Linear { gamma: 0.75 }`.
impl Default for DeltaSchedule {
    fn default() -> Self {
        DeltaSchedule::Linear { gamma: 0.75 }
    }
}

/// How the GreeDi baseline assigns points to machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStyle {
    /// Contiguous id-order chunks — the "arbitrary partition" of the
    /// original GreeDi analysis.
    Arbitrary,
    /// A seeded random permutation split into balanced chunks
    /// (RandGreeDi).
    Random,
}

/// Configuration of the multi-round distributed greedy algorithm
/// (paper §4.4).
#[derive(Clone, Debug, PartialEq)]
pub struct DistGreedyConfig {
    pub(crate) machines: usize,
    pub(crate) rounds: usize,
    pub(crate) adaptive: bool,
    pub(crate) seed: u64,
    pub(crate) schedule: DeltaSchedule,
    pub(crate) adversarial_first_round: Option<Vec<NodeId>>,
    pub(crate) winner_batch: usize,
    /// GreeDi's one-round plan in this style (`multiround::round_plan`).
    pub(crate) greedi: Option<PartitionStyle>,
}

impl DistGreedyConfig {
    /// The batch width B a new configuration starts with: the dataflow
    /// driver's fallback, when a partition does not fit one worker, ships
    /// at least B rows per shard and scan and certifies at least the pops
    /// ≥ the B-th largest (see [`DistGreedyConfig::winner_batch`]).
    pub const DEFAULT_WINNER_BATCH: usize = 64;

    /// `machines` partitions processed over `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Returns an error if either count is zero.
    pub fn new(machines: usize, rounds: usize) -> Result<Self, DistError> {
        if machines == 0 {
            return Err(DistError::config("machine count must be at least 1"));
        }
        if rounds == 0 {
            return Err(DistError::config("round count must be at least 1"));
        }
        Ok(DistGreedyConfig {
            machines,
            rounds,
            adaptive: false,
            seed: 0,
            schedule: DeltaSchedule::default(),
            adversarial_first_round: None,
            winner_batch: Self::DEFAULT_WINNER_BATCH,
            greedi: None,
        })
    }

    /// Enables adaptive partitioning: later rounds use fewer partitions so
    /// machines stay full (never above the round-1 partition size), which
    /// recovers cross-partition neighborhoods faster (§6.4, Table 3).
    pub fn adaptive(mut self, yes: bool) -> Self {
        self.adaptive = yes;
        self
    }

    /// Sets the partitioning seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Δ-schedule.
    pub fn schedule(mut self, schedule: DeltaSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Worst-case ablation (§6.4, Table 3): in round 1 every listed point
    /// is forced into partition 0, concentrating the reference solution on
    /// one machine.
    pub fn adversarial_first_round(mut self, solution: Vec<NodeId>) -> Self {
        self.adversarial_first_round = Some(solution);
        self
    }

    /// Sets the width of the dataflow driver's **over-budget fallback**.
    /// The driver runs a phase partition-resident (one grouped engine
    /// pass, every machine's queue inside its worker) whenever the largest
    /// partition fits the pipeline's per-worker budget; that choice is
    /// computed per round and is not configurable. Only when a partition
    /// does not fit does `batch` matter: each shard of an engine scan then
    /// ships at least its `batch` largest live rows, and the driver
    /// certifies every pop at or above τ, the `batch`-th largest shipped
    /// priority, then further pops down to the scan's proof floor while
    /// their overlay events fit the worker budget (invalidated pops fall
    /// back to further scans), selecting the **identical** subset. So
    /// `batch` sets the rows shipped and the first threshold, not a cap
    /// on a scan's winners. The winners reach the table through a
    /// worker-resident overlay that is rewritten into it whenever it
    /// would outgrow the budget.
    /// The default is [`DistGreedyConfig::DEFAULT_WINNER_BATCH`]; the
    /// smallest width is 1, and `0` is taken as 1. The in-memory driver
    /// ignores the setting — it already runs machines to completion.
    pub fn winner_batch(mut self, batch: usize) -> Self {
        self.winner_batch = batch.max(1);
        self
    }

    /// The configured machine count.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The configured round count.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_config_validation() {
        assert!(BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 1).is_ok());
        assert!(BoundingConfig::approximate(1.0, SamplingStrategy::Weighted, 1).is_ok());
        assert!(BoundingConfig::approximate(0.0, SamplingStrategy::Uniform, 1).is_err());
        assert!(BoundingConfig::approximate(1.5, SamplingStrategy::Uniform, 1).is_err());
        assert!(BoundingConfig::approximate(f64::NAN, SamplingStrategy::Uniform, 1).is_err());
        assert!(BoundingConfig::exact().is_exact());
    }

    #[test]
    fn greedy_config_validation() {
        assert!(DistGreedyConfig::new(0, 1).is_err());
        assert!(DistGreedyConfig::new(1, 0).is_err());
        let cfg = DistGreedyConfig::new(4, 2).unwrap().adaptive(true).seed(9);
        assert_eq!(cfg.machines(), 4);
        assert_eq!(cfg.rounds(), 2);
        assert!(cfg.adaptive);
        assert_eq!(cfg.seed, 9);
    }

    /// The ISSUE's schedule-monotonicity contract: targets never increase
    /// round over round, stay within `[k, n]`, and land exactly on `k`.
    #[test]
    fn schedules_are_monotone_and_anchored() {
        let (n, k) = (10_000, 250);
        for schedule in [
            DeltaSchedule::Linear { gamma: 1.0 },
            DeltaSchedule::Linear { gamma: 0.75 },
            DeltaSchedule::Linear { gamma: 0.25 },
            DeltaSchedule::Geometric,
        ] {
            for rounds in [1usize, 2, 5, 8, 32] {
                let mut previous = n;
                for round in 1..=rounds {
                    let target = schedule.target(n, k, round, rounds);
                    assert!(target <= previous, "{schedule:?} target rose at {round}/{rounds}");
                    assert!((k..=n).contains(&target), "{schedule:?} out of range");
                    previous = target;
                }
                assert_eq!(schedule.target(n, k, rounds, rounds), k, "{schedule:?} final");
            }
        }
    }

    #[test]
    fn geometric_shrinks_harder_than_default_linear_early() {
        let (n, k, rounds) = (10_000, 250, 8);
        let linear = DeltaSchedule::default();
        let geometric = DeltaSchedule::Geometric;
        assert!(
            geometric.target(n, k, 1, rounds) <= linear.target(n, k, 1, rounds),
            "geometric must be at least as aggressive in round 1"
        );
    }

    #[test]
    fn smaller_gamma_shrinks_harder() {
        let (n, k, rounds) = (5_000, 100, 4);
        let mut previous = usize::MAX;
        for gamma in [1.0, 0.75, 0.5, 0.25] {
            let target = DeltaSchedule::Linear { gamma }.target(n, k, 1, rounds);
            assert!(target <= previous, "γ = {gamma} must not loosen the round-1 target");
            previous = target;
        }
    }

    #[test]
    fn degenerate_schedule_inputs() {
        let s = DeltaSchedule::default();
        assert_eq!(s.target(100, 100, 1, 4), 100, "n == k pins the target");
        assert_eq!(s.target(50, 100, 1, 4), 100, "n < k yields k (caller validates)");
        assert_eq!(s.target(100, 10, 4, 4), 10, "final round is exactly k");
    }
}
