//! Tier flattening (§2): same price, wildly different speeds.
//!
//! The Markup's study found AT&T charging $55/month for anything from
//! sub-Mbps DSL to fiber — a 1000x speed spread at one price point
//! ("tier flattening"). This module measures the same quantity on the
//! scraped dataset: for each (ISP, price point), the ratio between the
//! fastest and slowest download speeds sold at that price anywhere in the
//! dataset.

use bbsim_dataset::PlanRecord;
use bbsim_isp::Isp;
use std::collections::BTreeMap;

/// The speed spread at one price point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePointSpread {
    /// Monthly price (rounded to the dollar).
    pub price_usd: u32,
    pub min_download_mbps: f64,
    pub max_download_mbps: f64,
    /// Addresses observed paying this price.
    pub n_observations: usize,
}

impl PricePointSpread {
    /// max/min download ratio — the "tier flattening" factor.
    pub fn flattening_factor(&self) -> f64 {
        self.max_download_mbps / self.min_download_mbps.max(1e-9)
    }
}

/// Computes every price point's speed spread for one ISP.
///
/// Returns spreads sorted by flattening factor, largest first, ties by
/// price, cheapest first; price points seen fewer than `min_observations`
/// times are dropped as noise.
pub fn tier_flattening(
    records: &[PlanRecord],
    isp: Isp,
    min_observations: usize,
) -> Vec<PricePointSpread> {
    let mut by_price: BTreeMap<u32, (f64, f64, usize)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.isp == isp) {
        for p in &r.plans {
            let price = p.price_usd.round() as u32;
            let e = by_price.entry(price).or_insert((f64::MAX, f64::MIN, 0));
            e.0 = e.0.min(p.download_mbps);
            e.1 = e.1.max(p.download_mbps);
            e.2 += 1;
        }
    }
    let mut out: Vec<PricePointSpread> = by_price
        .into_iter()
        .filter(|&(_, (_, _, n))| n >= min_observations)
        .map(|(price, (min, max, n))| PricePointSpread {
            price_usd: price,
            min_download_mbps: min,
            max_download_mbps: max,
            n_observations: n,
        })
        .collect();
    out.sort_by(|a, b| {
        b.flattening_factor()
            .total_cmp(&a.flattening_factor())
            .then(a.price_usd.cmp(&b.price_usd))
    });
    out
}

/// The worst flattening factor across all of an ISP's price points.
pub fn worst_flattening(records: &[PlanRecord], isp: Isp) -> Option<PricePointSpread> {
    tier_flattening(records, isp, 10).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_geo::BlockGroupId;
    use bqt::ScrapedPlan;

    fn rec(isp: Isp, down: f64, price: f64) -> PlanRecord {
        PlanRecord {
            city: "X".to_string(),
            isp,
            address_tag: 0,
            block_group: BlockGroupId::new(22, 71, 1, 1),
            bg_index: 0,
            plans: vec![ScrapedPlan {
                download_mbps: down,
                upload_mbps: 1.0,
                price_usd: price,
            }],
        }
    }

    #[test]
    fn detects_the_att_55_dollar_flattening() {
        // The AT&T pattern: $55 buys 0.768 Mbps DSL or 300 Mbps fiber.
        let mut records = Vec::new();
        for _ in 0..20 {
            records.push(rec(Isp::Att, 0.768, 55.0));
            records.push(rec(Isp::Att, 300.0, 55.0));
        }
        let worst = worst_flattening(&records, Isp::Att).unwrap();
        assert_eq!(worst.price_usd, 55);
        assert!((worst.flattening_factor() - 390.6).abs() < 1.0);
    }

    #[test]
    fn uniform_pricing_has_factor_one() {
        let records: Vec<PlanRecord> = (0..20).map(|_| rec(Isp::Cox, 200.0, 20.0)).collect();
        let worst = worst_flattening(&records, Isp::Cox).unwrap();
        assert_eq!(worst.flattening_factor(), 1.0);
    }

    #[test]
    fn rare_price_points_are_dropped() {
        let mut records: Vec<PlanRecord> = (0..20).map(|_| rec(Isp::Cox, 200.0, 20.0)).collect();
        records.push(rec(Isp::Cox, 1.0, 99.0)); // single odd observation
        let spreads = tier_flattening(&records, Isp::Cox, 10);
        assert!(spreads.iter().all(|s| s.price_usd != 99));
    }

    #[test]
    fn results_are_sorted_by_factor() {
        let mut records = Vec::new();
        for _ in 0..15 {
            records.push(rec(Isp::Att, 1.0, 55.0));
            records.push(rec(Isp::Att, 100.0, 55.0));
            records.push(rec(Isp::Att, 500.0, 65.0));
            records.push(rec(Isp::Att, 600.0, 65.0));
        }
        let spreads = tier_flattening(&records, Isp::Att, 10);
        assert_eq!(spreads.len(), 2);
        assert!(spreads[0].flattening_factor() >= spreads[1].flattening_factor());
        assert_eq!(spreads[0].price_usd, 55);
    }

    #[test]
    fn tied_factors_order_by_price_on_every_call() {
        // Every uniform price point has factor 1x; the tie must break on
        // price, not on hash order, or the report changes between runs.
        let prices = [70.0, 25.0, 55.0, 40.0, 90.0, 30.0, 65.0, 50.0];
        let records: Vec<PlanRecord> = prices
            .iter()
            .flat_map(|&p| (0..10).map(move |_| rec(Isp::Frontier, 500.0, p)))
            .collect();
        for _ in 0..20 {
            let order: Vec<u32> = tier_flattening(&records, Isp::Frontier, 10)
                .iter()
                .map(|s| s.price_usd)
                .collect();
            assert_eq!(order, [25, 30, 40, 50, 55, 65, 70, 90]);
        }
    }

    #[test]
    fn other_isps_records_are_ignored() {
        let records = vec![rec(Isp::Cox, 1000.0, 35.0)];
        assert!(tier_flattening(&records, Isp::Att, 1).is_empty());
    }
}
