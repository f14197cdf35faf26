//! Array lifetime under repeated program execution.
//!
//! A PLiM program is static: every execution writes the same cells the same
//! number of times. With a device endurance of `E` writes, the array
//! survives `⌊E / max_writes_per_execution⌋` executions before the
//! most-stressed cell fails. Balancing write traffic (lowering the maximum)
//! therefore extends lifetime proportionally — this module quantifies the
//! headline benefit of the paper's techniques.

/// Device endurance of the HfOx RRAM cited by the paper (Lee et al. 2010).
pub const ENDURANCE_HFOX: u64 = 10_000_000_000;

/// Device endurance of the bi-layered RRAM cited by the paper (Kim et al.
/// 2011).
pub const ENDURANCE_BILAYER: u64 = 100_000_000_000;

/// Number of whole program executions an array survives, given the per-cell
/// write counts of one execution and a device endurance limit.
///
/// Returns `u64::MAX` when no cell is ever written.
///
/// # Examples
///
/// ```
/// use rlim_rram::lifetime::executions_until_failure;
///
/// // Worst cell takes 5 writes per run; endurance 100 → 20 runs.
/// assert_eq!(executions_until_failure([1, 5, 2], 100), 20);
/// ```
pub fn executions_until_failure<I>(counts_per_execution: I, endurance: u64) -> u64
where
    I: IntoIterator<Item = u64>,
{
    match counts_per_execution.into_iter().max() {
        None | Some(0) => u64::MAX,
        Some(max) => endurance / max,
    }
}

/// Lifetime-extension factor of a balanced program over a baseline:
/// `max_writes(baseline) / max_writes(balanced)`.
///
/// Returns `f64::INFINITY` when the balanced program writes nothing.
pub fn lifetime_extension_factor(baseline_max: u64, balanced_max: u64) -> f64 {
    if balanced_max == 0 {
        return f64::INFINITY;
    }
    baseline_max as f64 / balanced_max as f64
}

/// Executions a *fleet* of arrays survives before the **first** array
/// loses a cell, given each array's per-execution peak write count (the
/// hottest cell of the program it serves) and a shared device endurance.
///
/// This is the pessimistic fleet metric: the fleet is declared degraded as
/// soon as one array wears out. Returns `u64::MAX` for an empty fleet or
/// when no array is ever written.
pub fn fleet_executions_until_first_failure<I>(peaks_per_execution: I, endurance: u64) -> u64
where
    I: IntoIterator<Item = u64>,
{
    peaks_per_execution
        .into_iter()
        .map(|peak| executions_until_failure([peak], endurance))
        .min()
        .unwrap_or(u64::MAX)
}

/// Total executions a fleet can serve when the dispatcher may steer every
/// execution to any surviving array: `Σᵢ ⌊E / peakᵢ⌋`.
///
/// This is the fleet's aggregate write capacity — the quantity a
/// wear-levelling dispatcher (least-worn-first) approaches, and the upper
/// bound the round-robin policy falls short of on heterogeneous
/// workloads. Saturates at `u64::MAX`.
///
/// # Examples
///
/// ```
/// use rlim_rram::lifetime::fleet_executions_until_exhaustion;
///
/// // Four identical arrays each surviving 20 runs → 80 fleet runs.
/// assert_eq!(fleet_executions_until_exhaustion([5, 5, 5, 5], 100), 80);
/// ```
pub fn fleet_executions_until_exhaustion<I>(peaks_per_execution: I, endurance: u64) -> u64
where
    I: IntoIterator<Item = u64>,
{
    let mut total: u64 = 0;
    for peak in peaks_per_execution {
        total = total.saturating_add(executions_until_failure([peak], endurance));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_division() {
        assert_eq!(executions_until_failure([10], 100), 10);
        assert_eq!(executions_until_failure([3, 7], 100), 14);
    }

    #[test]
    fn zero_writes_is_unbounded() {
        assert_eq!(executions_until_failure([0, 0], 100), u64::MAX);
        assert_eq!(executions_until_failure(std::iter::empty(), 100), u64::MAX);
    }

    #[test]
    fn endurance_below_the_peak_survives_no_run() {
        assert_eq!(executions_until_failure([1, 5], 2), 0);
        assert_eq!(fleet_executions_until_exhaustion([5; 4], 2), 0);
        assert_eq!(fleet_executions_until_first_failure([5, 1], 2), 0);
    }

    #[test]
    fn extension_factor() {
        assert_eq!(lifetime_extension_factor(100, 10), 10.0);
        assert_eq!(lifetime_extension_factor(10, 10), 1.0);
        assert_eq!(lifetime_extension_factor(5, 0), f64::INFINITY);
    }

    #[test]
    fn fleet_first_failure_is_worst_array() {
        assert_eq!(fleet_executions_until_first_failure([10, 5, 2], 100), 10);
        assert_eq!(fleet_executions_until_first_failure([0, 5], 100), 20);
        assert_eq!(
            fleet_executions_until_first_failure(std::iter::empty(), 100),
            u64::MAX
        );
    }

    #[test]
    fn fleet_exhaustion_sums_capacity() {
        assert_eq!(fleet_executions_until_exhaustion([10, 5, 2], 100), 80);
        assert_eq!(fleet_executions_until_exhaustion([0], 100), u64::MAX);
        assert_eq!(
            fleet_executions_until_exhaustion(std::iter::empty(), 100),
            0
        );
    }

    #[test]
    fn realistic_endurance_scale() {
        // Paper §I: best RRAMs endure 1e10..1e11 writes. A program whose
        // worst cell takes 1196 writes (naive multiplier, Table I) survives
        // ~8.4e6 executions; balanced to 24 writes it survives ~4.2e8.
        let naive = executions_until_failure([1196], ENDURANCE_HFOX);
        let balanced = executions_until_failure([24], ENDURANCE_HFOX);
        assert!(balanced > naive * 49);
    }
}
