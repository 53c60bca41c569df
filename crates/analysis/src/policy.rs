//! Policy counterfactuals: the paper's §7 recommendations, simulated.
//!
//! The paper closes by recommending rate regulation and subsidized fiber
//! deployment for low-income block groups. These are *counterfactual
//! transforms of the scraped dataset* — no hidden world access — that
//! re-ask the §5.5 equity question after each intervention:
//!
//! * **rate cap** — no plan may cost more than `$cap`; carriage values are
//!   recomputed with capped prices (New York's A6259A-style regulation);
//! * **low-income subsidy** — an ACP-style `$s`/month discount applied to
//!   plans in low-income block groups;
//! * **fiber buildout** — low-income block groups without a fiber-grade
//!   deal are granted the city's observed fiber offer set (CA SB-156-style
//!   subsidized deployment).
//!
//! The output metric is premium-deal availability: the fraction of block
//! groups in each income band whose best available offer reaches a premium
//! carriage value (>= 14 Mbps/$ — the competitive-tier level that §5.4
//! shows fiber competition unlocks). The ACP long tail is pruned at the
//! baseline the way Fig. 8 prunes it.

use crate::income::public_acs;
use bbsim_census::{CityProfile, IncomeBand};
use bbsim_dataset::PlanRecord;

/// An intervention applied to the scraped plan data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intervention {
    /// No change (the observed baseline).
    None,
    /// Cap all monthly prices at this value.
    RateCap { max_price_usd: f64 },
    /// Subsidize plans in low-income block groups by this much per month
    /// (price floor $5).
    LowIncomeSubsidy { discount_usd: f64 },
    /// Give low-income block groups the deal profile of a fiber-served
    /// block group (deployment plus the cable competition it provokes).
    FiberBuildout,
}

/// Best carriage value that counts as a premium deal (the §5.4
/// competitive-tier level).
pub const PREMIUM_CV: f64 = 14.0;

/// The equity picture after an intervention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquityOutcome {
    pub intervention_label: &'static str,
    /// Fraction of low-income block groups with a premium deal available.
    pub low_income_premium_frac: f64,
    /// Fraction of high-income block groups with a premium deal available.
    pub high_income_premium_frac: f64,
    pub low_groups: usize,
    pub high_groups: usize,
}

impl EquityOutcome {
    /// Equity gap in percentage points: high minus low premium access.
    pub fn gap_points(&self) -> f64 {
        100.0 * (self.high_income_premium_frac - self.low_income_premium_frac)
    }
}

fn label(i: Intervention) -> &'static str {
    match i {
        Intervention::None => "observed baseline",
        Intervention::RateCap { .. } => "rate cap",
        Intervention::LowIncomeSubsidy { .. } => "low-income subsidy",
        Intervention::FiberBuildout => "fiber buildout",
    }
}

/// Applies `intervention` to one city's scraped records and reports the
/// income-split equity outcome. Returns `None` when either band has fewer
/// than 10 block groups with data.
pub fn evaluate_intervention(
    city: &CityProfile,
    records: &[PlanRecord],
    intervention: Intervention,
) -> Option<EquityOutcome> {
    let acs = public_acs(city);

    // Per block group, indexed by `bg_index` (so every walk below runs in
    // one fixed order): best cv after the intervention, income band, and
    // whether the group is observed fiber-served (drives the buildout
    // counterfactual).
    let n_groups = records.iter().map(|r| r.bg_index + 1).max().unwrap_or(0);
    let mut best: Vec<Option<f64>> = vec![None; n_groups];
    let mut band: Vec<Option<IncomeBand>> = vec![None; n_groups];
    let mut has_fiber = vec![false; n_groups];
    for r in records {
        let Some(demo) = acs.get(r.block_group) else {
            continue;
        };
        band[r.bg_index] = Some(demo.income_band);
        let low = demo.income_band == IncomeBand::Low;
        if r.best_plan_is_fiber() == Some(true) {
            has_fiber[r.bg_index] = true;
        }
        for p in &r.plans {
            // Prune the observed ACP tail so subsidized outliers do not
            // mask the structural gap (same rule as Fig. 8).
            if p.carriage_value() > 29.0 {
                continue;
            }
            let price = match intervention {
                Intervention::RateCap { max_price_usd } => p.price_usd.min(max_price_usd),
                Intervention::LowIncomeSubsidy { discount_usd } if low => {
                    (p.price_usd - discount_usd).max(5.0)
                }
                _ => p.price_usd,
            };
            let cv = p.download_mbps / price;
            let e = best[r.bg_index].get_or_insert(f64::MIN);
            *e = e.max(cv);
        }
    }

    if intervention == Intervention::FiberBuildout {
        // A built-out block group inherits the typical deal of the city's
        // fiber-served groups: the deployment AND the competitive response
        // it provokes from cable.
        let fiber_best: Vec<f64> = best
            .iter()
            .zip(&has_fiber)
            .filter_map(|(cv, &fiber)| cv.filter(|_| fiber))
            .collect();
        if let Some(typical) = bbsim_stats::median(&fiber_best) {
            for (cv, b) in best.iter_mut().zip(&band) {
                if let (Some(cv), Some(IncomeBand::Low)) = (cv, b) {
                    *cv = cv.max(typical);
                }
            }
        }
    }

    let premium = |cvs: &[f64]| {
        cvs.iter().filter(|&&cv| cv >= PREMIUM_CV).count() as f64 / cvs.len().max(1) as f64
    };
    let mut low_cvs = Vec::new();
    let mut high_cvs = Vec::new();
    for (cv, b) in best.iter().zip(&band) {
        match (cv, b) {
            (Some(cv), Some(IncomeBand::Low)) => low_cvs.push(*cv),
            (Some(cv), Some(IncomeBand::High)) => high_cvs.push(*cv),
            _ => {}
        }
    }
    if low_cvs.len() < 10 || high_cvs.len() < 10 {
        return None;
    }
    Some(EquityOutcome {
        intervention_label: label(intervention),
        low_income_premium_frac: premium(&low_cvs),
        high_income_premium_frac: premium(&high_cvs),
        low_groups: low_cvs.len(),
        high_groups: high_cvs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;
    use bbsim_dataset::{curate_city, CurationOptions};

    fn setup() -> (&'static CityProfile, Vec<PlanRecord>) {
        let city = city_by_name("New Orleans").expect("study city");
        let ds = curate_city(city, &CurationOptions::quick(41));
        (city, ds.records)
    }

    #[test]
    fn baseline_shows_an_equity_gap() {
        let (city, records) = setup();
        let base = evaluate_intervention(city, &records, Intervention::None).unwrap();
        assert!(
            base.gap_points() > 3.0,
            "baseline gap {} points",
            base.gap_points()
        );
        assert!(base.low_groups > 100 && base.high_groups > 100);
    }

    #[test]
    fn subsidy_shrinks_the_gap() {
        let (city, records) = setup();
        let base = evaluate_intervention(city, &records, Intervention::None).unwrap();
        let sub = evaluate_intervention(
            city,
            &records,
            Intervention::LowIncomeSubsidy { discount_usd: 30.0 },
        )
        .unwrap();
        assert!(
            sub.gap_points() < base.gap_points(),
            "subsidy gap {} vs baseline {}",
            sub.gap_points(),
            base.gap_points()
        );
        assert!(sub.low_income_premium_frac > base.low_income_premium_frac);
    }

    #[test]
    fn fiber_buildout_closes_the_gap_entirely() {
        let (city, records) = setup();
        let base = evaluate_intervention(city, &records, Intervention::None).unwrap();
        let built = evaluate_intervention(city, &records, Intervention::FiberBuildout).unwrap();
        assert!(
            built.gap_points() <= 1.0,
            "buildout gap {} points",
            built.gap_points()
        );
        assert!(built.low_income_premium_frac >= base.low_income_premium_frac);
    }

    #[test]
    fn rate_cap_helps_everyone_without_reversing_the_gap_sign() {
        let (city, records) = setup();
        let base = evaluate_intervention(city, &records, Intervention::None).unwrap();
        let capped = evaluate_intervention(
            city,
            &records,
            Intervention::RateCap {
                max_price_usd: 30.0,
            },
        )
        .unwrap();
        assert!(capped.low_income_premium_frac >= base.low_income_premium_frac);
        assert!(capped.high_income_premium_frac >= base.high_income_premium_frac);
    }

    #[test]
    fn sparse_data_is_none() {
        let (city, records) = setup();
        let few: Vec<PlanRecord> = records.into_iter().take(5).collect();
        assert!(evaluate_intervention(city, &few, Intervention::None).is_none());
    }
}
